"""Jump/killing decomposition of finite Dirichlet forms.

Every finite form splits uniquely into a symmetric jump measure J on
ordered off-diagonal pairs and a killing measure k:

    Q(f, f) = sum_{x != y} J(x,y) (f(x) - f(y))^2 + sum_x k(x) f(x)^2.

The convention here is J = b / 2 on ordered pairs, so that summing over
both orientations of an edge reproduces the form exactly; the factor of
two is the main hazard when comparing against per-edge conventions.  The
strongly local part is zero by construction on a finite vertex set: the
form matrix is diag(W 1 + c) - W, exactly the jump and killing parts, so
no check recomputes it.

The verifier reads J = W / 2 from the form's cached conductance matrix W.
The split itself, J on both orientations of each edge and k = c, is
written by ``jsonio.jump_to_obj`` straight from the form's edge columns.
"""

from __future__ import annotations

import numpy as np

from .core import GraphForm
from .orderiso import OrderIso, operator_constant, require_intertwining
from .report import VerificationReport
from .tolerances import DEFAULT_TOL, Tolerance


def verify_jump_transform(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Certify how the jump measure transports along an intertwiner.

    For a certified intertwiner with operator constant beta the jump
    measures satisfy beta J1(tau(x), tau(y)) = h(x) h(y) J2(x, y) on every
    ordered pair x != y of target vertices (equivalently the same identity
    for the conductances b).
    """
    require_intertwining(iso, form1, form2, tol)
    beta = operator_constant(iso)
    idx = iso.tau_indices
    h = iso.h_values
    lhs = beta * (0.5 * form1.weight_matrix)[np.ix_(idx, idx)]
    rhs = np.outer(h, h) * (0.5 * form2.weight_matrix)
    np.fill_diagonal(rhs, 0.0)
    report = VerificationReport()
    report.compare("jump_transform", lhs, rhs, tol, detail=f"beta={beta!r}")
    return report
