"""Named numerical checks with residuals and a combined verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import Tolerance


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

    def compare(self, name: str, lhs: np.ndarray, rhs: np.ndarray, tol: Tolerance,
                detail: str | None = None) -> Check:
        """Add the check max|lhs - rhs| <= tol.bound(max(max|lhs|, max|rhs|))."""
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        return self.add(name, float(np.max(np.abs(lhs - rhs))), tol.bound(scale), detail)

    def skip(self, name: str, detail: str) -> Check:
        # informational entry; a residual of 0 within 0 never affects the verdict
        return self.add(name, 0.0, 0.0, detail=f"skipped: {detail}")

    def extend(self, other: "VerificationReport") -> None:
        for check in other.checks:
            if any(c.name == check.name for c in self.checks):
                raise ValueError(f"duplicate check name {check.name!r}")
            self.checks.append(check)

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
