"""Scale-aware numerical tolerances, the one tolerance type of the toolkit.

Every acceptance bound follows one rule: a residual ``r`` of quantities
of magnitude ``s`` is accepted when ``|r| <= rel * |s|``, with ``s = 1``
for a dimensionless ratio; a NaN or infinite residual is never accepted.
The rule has no absolute part and no floor, so a verdict does not depend
on units: scaling the compared quantities scales the bound with them.
A tolerance validates itself, ``0 < rel < inf``: a NaN or infinite one
would accept every residual or none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositive, NumericOverflow


@dataclass(frozen=True)
class Tolerance:
    rel: float = 1e-9

    def __post_init__(self):
        if not self.rel > 0.0:  # also catches a NaN
            raise NonPositive("tolerance must be positive")
        if not self.rel < math.inf:
            raise NonPositive("tolerance must be finite")

    def bound(self, scale: float | np.ndarray = 1.0) -> float | np.ndarray:
        """``rel * |scale|``, elementwise for an array scale;
        NumericOverflow where it is infinite although the scale is finite."""
        if isinstance(scale, np.ndarray):
            with np.errstate(over="ignore"):
                bound = self.rel * np.abs(scale)
            finite = np.isfinite(bound).all()
            overflow = not finite and np.any(np.isinf(bound) & np.isfinite(scale))
        else:  # plain float arithmetic overflows to inf without a warning
            bound = self.rel * abs(float(scale))
            overflow = bound == math.inf and math.isfinite(scale)
        if overflow:
            raise NumericOverflow("tolerance bound leaves the floating-point range")
        return bound


DEFAULT_TOL = Tolerance()
