"""Named numerical checks with residuals and a combined verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def worst_entry(gap: np.ndarray, bound, codes: np.ndarray | None = None) -> tuple[int, ...]:
    """The index of the entry of ``gap`` above its ``bound`` by the largest
    factor, a NaN first; when none is above, of the largest gap / bound, a
    zero gap counting as 0.  A tie goes to the first entry in row-major
    order, or, for entries of a matrix listed in another order, to the
    smallest of ``codes``, their row-major indices in it."""
    with np.errstate(all="ignore"):
        ratio = gap / bound
    worst = _first_largest(ratio, codes)
    if not ratio.flat[worst] < 1.0:  # a NaN, or an entry at or above its bound
        within = gap <= bound
        if within.all():
            ratio[gap == 0.0] = 0.0  # 0 / 0 is NaN
        else:
            ratio[within] = -1.0
        worst = _first_largest(ratio, codes)
    return np.unravel_index(worst, ratio.shape)


def _first_largest(ratio: np.ndarray, codes: np.ndarray | None) -> int:
    """The flat index of the first NaN of ``ratio``, else of its first
    largest entry, as ``np.argmax`` finds it; first by ``codes`` when given."""
    worst = int(ratio.argmax())
    if codes is None:
        return worst
    top = np.isnan(ratio) if np.isnan(ratio.flat[worst]) else ratio == ratio.flat[worst]
    return int(np.flatnonzero(top)[codes[top].argmin()])


@dataclass
class Check:
    name: str
    residual: float
    tol: float
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        obj = {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float, detail: str | None = None) -> Check:
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        passed = abs(residual) <= tol and math.isfinite(residual)
        check = Check(name, float(residual), float(tol), bool(passed), detail)
        self.checks.append(check)
        return check

    def compare(self, name: str, lhs: np.ndarray, rhs: np.ndarray, bound,
                detail: str | None = None, codes: np.ndarray | None = None) -> Check:
        """Add the check |lhs - rhs| <= bound at every entry, for a bound per
        entry or one for all, with the residual and bound of
        ``worst_entry``, which reads ``codes``."""
        gap = np.abs(lhs - rhs)
        entry = worst_entry(gap, bound, codes)
        return self.add(name, gap[entry], bound[entry] if np.ndim(bound) else bound, detail)

    def skip(self, name: str, detail: str) -> Check:
        # informational entry; a residual of 0 within 0 never affects the verdict
        return self.add(name, 0.0, 0.0, detail=f"skipped: {detail}")

    def extend(self, other: "VerificationReport") -> None:
        for check in other.checks:
            self.add(check.name, check.residual, check.tol, check.detail)

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
        }
