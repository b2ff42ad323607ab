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

    def outer_bound(self, left: np.ndarray, right: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> tuple[np.ndarray, int]:
        """``bound`` of the n x n scale left(y) right(z), as ``np.outer``
        rounds it, at the entries (rows[k], cols[k]) only, and the number of
        the n^2 entries whose bound is not finite; NumericOverflow where a
        bound is infinite although its scale is finite, anywhere in the
        matrix, as ``bound`` of the whole matrix raises it.  Entries are
        counted, without forming them, only when the largest bound, rel
        max|left| max|right| (rounding is monotone), is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = self.rel * np.abs(left[rows] * right[cols])
            top = self.rel * (np.abs(left).max() * np.abs(right).max())
        if np.isfinite(top):
            return bound, 0
        nonfinite = _nonfinite_products(left, right, self.rel)
        if nonfinite > _nonfinite_products(left, right, 1.0):
            raise NumericOverflow("tolerance bound leaves the floating-point range")
        return bound, nonfinite


def _nonfinite_products(left: np.ndarray, right: np.ndarray, factor: float) -> int:
    """The number of pairs (y, z) for which factor |left(y) right(z)| is not
    finite.  For a finite left(y) that is monotone in |right(z)|, as rounding
    is, so one binary search per y in the sorted finite |right| finds where
    it starts; a non-finite left(y) or right(z) makes the whole row or
    column non-finite (inf 0 is NaN)."""
    a, b = np.abs(left), np.sort(np.abs(right))  # inf, then NaN, sort last
    finite = int(np.count_nonzero(np.isfinite(b)))
    x = a[np.isfinite(a)]
    count = (len(a) - len(x)) * len(b) + len(x) * (len(b) - finite)
    lo, hi = np.zeros(len(x), np.intp), np.full(len(x), finite)
    with np.errstate(over="ignore"):
        while (active := lo < hi).any():
            mid = (lo + hi) // 2
            over = active & ~np.isfinite(factor * (x * b[np.minimum(mid, finite - 1)]))
            hi = np.where(over, mid, hi)
            lo = np.where(active & ~over, mid + 1, lo)
    return count + int(np.sum(finite - lo))


DEFAULT_TOL = Tolerance()
