"""Semigroups and structural predicates of finite Dirichlet forms.

The heat semigroup e^{-tL} is computed through the eigendecomposition
S = V Lambda V^T of the m-symmetrized matrix S = M^{1/2} L M^{-1/2}
(symmetric and stable to diagonalize), V orthonormal, and conjugated back
once: e^{-tL}[x, y] = e^{-tS}[x, y] sqrt(m(y)) / sqrt(m(x)); L itself is
not symmetric when the measure is non-uniform.  No eigenvector is cached;
a caller that reads eigenvalues only reads ``GraphForm.spectrum``.  L h, the
test of an excessive h, is an edge sum (``_excess``), never a product with
the n x n matrix L.
"""

from __future__ import annotations

import numpy as np

from .core import GraphForm, VertexFunction
from .errors import NegativeInput, NegativeTime, NotIrreducible, NumericOverflow
from .tolerances import DEFAULT_TOL, Tolerance


def spectral_data(form: GraphForm) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``eigh`` of S, ``form.symmetric``: the eigenvalues of the
    generator and the orthonormal eigenvectors of S, computed on each call."""
    return np.linalg.eigh(form.symmetric)


def semigroup(form: GraphForm, t: float) -> np.ndarray:
    """The heat operator e^{-tL} at a finite time t >= 0: e^{-tS} from
    ``spectral_data``, entry (x, y) times sqrt(m(y)) / sqrt(m(x)).

    The result is positivity preserving and sub-Markov: entries >= 0 and
    row sums <= 1, up to floating-point error, as the eigenvalues of S are
    clipped at 0: one rounded below 0 would grow as e^{t |w|}.
    """
    if not 0.0 <= t < np.inf:
        raise NegativeTime(f"semigroup time must be finite and >= 0, got {t}")
    w, v = spectral_data(form)
    root = np.sqrt(form.space.m)
    with np.errstate(over="ignore"):  # t w past the float range decays to e^-inf = 0
        decay = np.exp(-t * np.maximum(w, 0.0))
    return (v * decay) @ v.T * root / root[:, None]


def is_irreducible(form: GraphForm) -> bool:
    """Whether the positive-conductance graph is connected; cached on the form."""
    return form.irreducible


def is_recurrent(form: GraphForm) -> bool:
    """Whether the form annihilates constants, i.e. has no killing; cached on the form."""
    return form.recurrent


def is_excessive(form: GraphForm, h: VertexFunction, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether h >= 0 satisfies e^{-tL} h <= h for all t >= 0.

    Implemented through the generator criterion L h >= 0, which is
    equivalent: d/dt e^{-tL} h = -e^{-tL} (L h) <= 0 entrywise whenever
    L h >= 0 (the semigroup is positivity preserving), and e^{-0L} h = h;
    conversely (h - e^{-tL} h)/t -> L h as t -> 0.  L h is an edge sum
    (``_excess``).
    """
    hv = form.space.vector(h)
    if (hv < 0.0).any():
        raise NegativeInput("excessive candidates must be nonnegative")
    _, deficit, scale = _excess(form, hv)
    return bool(deficit <= tol.bound(scale))


def _excess(form: GraphForm, hv: np.ndarray) -> tuple[np.ndarray, float, float]:
    """L h as an edge sum, (sum_y b(x, y) (h(x) - h(y)) + c(x) h(x)) / m(x),
    exactly 0 for a constant h on a recurrent form; the largest violation
    -min(L h) of L h >= 0, at least 0 (a NaN stays NaN); and the scale
    max|L| max h of the entries of L h, where max|L| is the largest entry
    of ``form.generator_diagonal``, whose NumericOverflow comes first."""
    top = float(form.generator_diagonal.max())
    n = len(form.space)
    i, j = form.edge_indices
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite L h fails below
        flow = form.weights * (hv[i] - hv[j])
        lh = (np.bincount(i, flow, n) - np.bincount(j, flow, n) + form.c * hv) / form.space.m
    deficit = -float(lh.min())
    scale = top * float(hv.max())  # plain floats overflow silently
    return lh, (deficit if not deficit <= 0.0 else 0.0), scale


def find_nonconstant_excessive(
    form: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """A nonconstant strictly positive excessive function, or None.

    On an irreducible form every excessive function is constant exactly
    when the form is recurrent (the Liouville property, ``form.recurrent``),
    so None is returned then.  Otherwise the Green function h = L^{-1} e_x
    = m(x) G[:, x], G = F^{-1} the cached ``form.green``, is strictly
    positive with L h = e_x >= 0, hence excessive.  It is constant only when
    all the killing sits at x; that of a second vertex is then nonconstant,
    and None means that both are constant within tol.  Vertices are tried
    in index order, so the witness is deterministic.

    G's blocked inverse pivots on the diagonal: F is a diagonally dominant
    M-matrix, and so is each Schur complement that it forms.  L's rows,
    scaled by 1/m, move the pivots; on a nearly recurrent form with m
    spread over 1e+-6 its Green function came out negative.

    ``form.irreducible`` is read after the generator's NumericOverflow
    (``form.generator_diagonal``).  G is checked, not predicted: a singular
    or non-finite G, or an h that is not positive and finite, raises
    NotIrreducible, as rounding has then absorbed the killing into F's
    diagonal or the Green function leaves the float range.
    """
    form.generator_diagonal  # NumericOverflow before NotIrreducible
    if not form.irreducible:
        raise NotIrreducible("nonconstant-excessive search requires an irreducible form")
    if form.recurrent:
        return None
    try:
        with np.errstate(over="ignore"):  # past the float range fails below
            columns = form.green[:, :2] * form.space.m[:2]  # m(x) G[:, x], x = 0, 1
    except NumericOverflow:  # singular or not finite: no positive Green function
        columns = np.zeros((1, 1))
    for h in columns.T:
        low, high = float(h.min()), float(h.max())  # a float ratio past the range is inf
        if not 0.0 < low <= high < np.inf:  # NaN fails both
            raise NotIrreducible("no positive Green function in floating point: rounding "
                                 "absorbed the killing into the diagonal of F, or the function "
                                 "leaves the float range")
        if high / low - 1.0 > tol.bound(1.0):
            return h
    return None
