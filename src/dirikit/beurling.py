"""Jump/killing decomposition of finite Dirichlet forms.

Every finite form splits uniquely into a symmetric jump measure J on
ordered off-diagonal pairs and a killing measure k:

    Q(f, f) = sum_{x != y} J(x,y) (f(x) - f(y))^2 + sum_x k(x) f(x)^2.

The convention here is J = b / 2 on ordered pairs, so that summing over
both orientations of an edge reproduces the form exactly; the factor of
two is the main hazard when comparing against per-edge conventions.  The
strongly local part is identically zero on a finite vertex set and is
represented implicitly as the zero measure; verification asserts that the
residual Q(f) - jump(f) - killing(f) vanishes.

The verifier reads J = W / 2 from the form's cached conductance matrix W;
``decompose`` and ``reconstruct`` are the same split as vertex-pair dicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GraphForm, MeasureSpace, VertexFunction, evaluate, generator
from .errors import MalformedInput, NotMarkovian, SpaceMismatch
from .orderiso import OrderIso, operator_constant, require_intertwining
from .report import VerificationReport
from .tolerances import DEFAULT_TOL, Tolerance


@dataclass(eq=False)
class JumpKilling:
    """Jump measure on ordered vertex pairs plus killing measure."""

    vertices: tuple[str, ...]
    J: dict[tuple[str, str], float]
    k: dict[str, float]

    def __post_init__(self):
        for (x, y), value in self.J.items():
            if x == y:
                raise MalformedInput("jump measure lives off the diagonal")
            if abs(self.J.get((y, x), 0.0) - value) != 0.0:
                raise MalformedInput(f"jump measure not symmetric at {(x, y)}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JumpKilling)
            and self.vertices == other.vertices
            and self.J == other.J
            and self.k == other.k
        )

    def matrix(self) -> np.ndarray:
        index = {v: i for i, v in enumerate(self.vertices)}
        j = np.zeros((len(self.vertices), len(self.vertices)))
        for (x, y), value in self.J.items():
            j[index[x], index[y]] = value
        return j


def decompose(form: GraphForm) -> JumpKilling:
    """Split a form into its jump and killing measures (J = b / 2)."""
    jump: dict[tuple[str, str], float] = {}
    for (x, y), weight in form.b.items():
        jump[(x, y)] = weight / 2.0
        jump[(y, x)] = weight / 2.0
    killing = {v: float(form.c[i]) for i, v in enumerate(form.space.vertices)}
    return JumpKilling(form.space.vertices, dict(sorted(jump.items())), killing)


def reconstruct(space: MeasureSpace, data: JumpKilling) -> GraphForm:
    """Rebuild the form with conductances b = 2 J and killing c = k."""
    if space.vertices != data.vertices:
        raise MalformedInput("jump/killing data does not match the space")
    edges = {}
    for (x, y), value in data.J.items():
        if x < y:
            edges[(x, y)] = 2.0 * value
    return GraphForm(space, edges, {v: data.k.get(v, 0.0) for v in space.vertices})


def jump_energy(
    data: JumpKilling, phi: np.ndarray, f: np.ndarray
) -> float:
    """The phi-weighted jump energy sum_{x != y} phi(x) phi(y) (f(x)-f(y))^2 J(x,y),
    summed over the pairs carried by J."""
    index = {v: i for i, v in enumerate(data.vertices)}
    p, g = phi.tolist(), f.tolist()
    total = 0.0
    for (x, y), value in data.J.items():
        i, j = index[x], index[y]
        total += value * p[i] * p[j] * (g[i] - g[j]) * (g[i] - g[j])
    return total


def truncated_form(form: GraphForm, phi: VertexFunction, f: VertexFunction) -> float:
    """The truncation Q(phi f) - Q(phi f^2, phi).

    Equals the phi-weighted jump energy of f; both routes are exposed so
    they can be compared independently.
    """
    pv = form.space.vector(phi)
    fv = form.space.vector(f)
    return evaluate(form, pv * fv) - evaluate(form, pv * fv * fv, pv)


def truncated_form_via_jump(form: GraphForm, phi: VertexFunction, f: VertexFunction) -> float:
    """The truncation computed from the jump decomposition instead of Q."""
    return jump_energy(decompose(form), form.space.vector(phi), form.space.vector(f))


def verify_jump_transform(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Certify how the jump measure transports along an intertwiner.

    For a certified intertwiner with operator constant beta the jump
    measures satisfy beta J1(tau(x), tau(y)) = h(x) h(y) J2(x, y) on every
    ordered pair x != y of target vertices (equivalently the same identity
    for the conductances b).  Also asserts that the strongly local residual
    Q(f) - jump(f) - killing(f) vanishes on both forms.
    """
    require_intertwining(iso, generator(form1), generator(form2), tol)
    beta = operator_constant(iso)
    idx = iso.tau_indices
    h = iso.h_values
    lhs = beta * (0.5 * form1.weight_matrix)[np.ix_(idx, idx)]
    rhs = np.outer(h, h) * (0.5 * form2.weight_matrix)
    np.fill_diagonal(rhs, 0.0)
    report = VerificationReport()
    report.compare("jump_transform", lhs, rhs, tol, detail=f"beta={beta!r}")

    local_residual = 0.0
    for form in (form1, form2):
        w = 2.0 * (0.5 * form.weight_matrix)  # b = 2 J
        local = form.form_matrix - (np.diag(w.sum(axis=1) + form.c) - w)
        local_residual = max(local_residual, float(np.max(np.abs(local))))
    local_scale = max(
        1.0,
        float(np.max(np.abs(form1.form_matrix))),
        float(np.max(np.abs(form2.form_matrix))),
    )
    report.add("local_part_vanishes", local_residual, tol.bound(local_scale))
    return report


def induced_killing(
    iso: OrderIso, form1: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Killing weights of the form intertwined with ``form1`` through ``iso``.

    The conjugated generator U L1 U^{-1} is formed on the target space and
    its killing is read off the diagonal remainder.  There is no pushforward
    formula: the result can mix the killing and jump data of the original
    form.  Raises when the conjugated matrix is not Markovian.

    U has one nonzero per row, so the conjugate is gathered without forming
    U: (U L1 U^{-1})[y, z] = h(y) L1[tau(y), tau(z)] (1 / h(z)), the same
    products as the dense one.
    """
    gen1 = generator(form1)
    if iso.source != gen1.space:
        raise SpaceMismatch("iso source does not match the form")
    idx, h = iso.tau_indices, iso.h_values
    conjugated = (h[:, None] * gen1.L[np.ix_(idx, idx)]) * (1.0 / h)[None, :]
    m2 = iso.target.m
    bound = tol.bound(max(1.0, float(np.max(np.abs(conjugated))) * float(np.max(m2))))
    weighted = conjugated * m2[:, None]
    if float(np.max(np.abs(weighted - weighted.T))) > bound:
        raise NotMarkovian("conjugated generator is not m-symmetric")
    off = conjugated - np.diag(np.diag(conjugated))
    if np.any(off * m2[:, None] > bound):
        raise NotMarkovian("conjugated generator has positive off-diagonal entries")
    b_rows = np.maximum(-off * m2[:, None], 0.0)
    killing = np.diag(conjugated) * m2 - b_rows.sum(axis=1)
    if np.any(killing < -bound):
        raise NotMarkovian("conjugated generator has negative killing")
    return np.maximum(killing, 0.0)
