"""Scale-aware numerical tolerances.

A residual ``r`` measured against a scale ``s`` is accepted when
``|r| <= rel * s + abs``; a NaN or infinite residual is never accepted.  The relative part tracks the magnitude of the
matrices involved, the absolute part is a floor for residuals near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerance:
    rel: float = 1e-9
    abs: float = 1e-12

    def bound(self, scale: float = 1.0) -> float:
        return self.rel * abs(scale) + self.abs

    def accepts(self, residual: float, scale: float = 1.0) -> bool:
        return math.isfinite(residual) and abs(residual) <= self.bound(scale)


DEFAULT_TOL = Tolerance()
