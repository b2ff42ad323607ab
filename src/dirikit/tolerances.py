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

import numpy as np

from .errors import NonPositive, NumericOverflow


@dataclass(frozen=True)
class Tolerance:
    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (self.rel > 0.0 and self.abs >= 0.0):  # also catches a NaN
            raise NonPositive("tolerance must be positive")
        if not (self.rel < math.inf and self.abs < math.inf):
            raise NonPositive("tolerance must be finite")

    def bound(self, scale: float | np.ndarray = 1.0) -> float | np.ndarray:
        """``rel * |scale| + abs``, elementwise for an array scale;
        NumericOverflow where it is infinite although the scale is finite."""
        if isinstance(scale, np.ndarray):
            with np.errstate(over="ignore"):
                bound = self.rel * np.abs(scale) + self.abs
            overflow = np.any(np.isinf(bound) & np.isfinite(scale))
        else:  # plain float arithmetic overflows to inf without a warning
            bound = self.rel * abs(float(scale)) + self.abs
            overflow = bound == math.inf and math.isfinite(scale)
        if overflow:
            raise NumericOverflow("tolerance bound leaves the floating-point range")
        return bound


DEFAULT_TOL = Tolerance()
