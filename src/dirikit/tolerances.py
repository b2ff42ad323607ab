"""Scale-aware numerical tolerances, the one tolerance type of the toolkit.

A residual ``r`` measured against a scale ``s`` is accepted when
``|r| <= rel * s + abs``; a NaN or infinite residual is never accepted.  The relative part tracks the magnitude of the
matrices involved, the absolute part is a floor for residuals near zero.
A tolerance validates itself, ``0 < rel < inf`` and ``0 <= abs < inf``:
a NaN or infinite one would accept every residual or none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositive


@dataclass(frozen=True)
class Tolerance:
    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0.0 and self.abs >= 0.0):  # also catches a NaN
            raise NonPositive("tolerance must be positive")
        if not (self.rel < math.inf and self.abs < math.inf):
            raise NonPositive("tolerance must be finite")

    def bound(self, scale: float = 1.0) -> float:
        return self.rel * abs(scale) + self.abs

    def accepts(self, residual: float, scale: float = 1.0) -> bool:
        return math.isfinite(residual) and abs(residual) <= self.bound(scale)


DEFAULT_TOL = Tolerance()
