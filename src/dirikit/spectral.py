"""Semigroups and structural predicates of finite Dirichlet forms.

The heat semigroup e^{-tL} is computed through the eigendecomposition
S = V Lambda V^T of the m-symmetrized matrix S = M^{1/2} L M^{-1/2}
(symmetric and stable to diagonalize), V orthonormal, and conjugated back
once: e^{-tL}[x, y] = e^{-tS}[x, y] sqrt(m(y)) / sqrt(m(x)); L itself is
not symmetric when the measure is non-uniform.  No eigenvector is cached;
a caller that reads eigenvalues only reads ``GraphForm.spectrum``.
"""

from __future__ import annotations

import numpy as np

from .core import GraphForm, VertexFunction
from .errors import NegativeInput, NegativeTime, NotIrreducible
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
    """Whether the form annihilates constants, i.e. has no killing."""
    return bool(np.all(form.c == 0.0))


def is_excessive(form: GraphForm, h: VertexFunction, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether h >= 0 satisfies e^{-tL} h <= h for all t >= 0.

    Implemented through the generator criterion L h >= 0, which is
    equivalent: d/dt e^{-tL} h = -e^{-tL} (L h) <= 0 entrywise whenever
    L h >= 0 (the semigroup is positivity preserving), and e^{-0L} h = h;
    conversely (h - e^{-tL} h)/t -> L h as t -> 0.
    """
    hv = form.space.vector(h)
    if np.any(hv < 0.0):
        raise NegativeInput("excessive candidates must be nonnegative")
    deficit, scale = _excess_deficit(form, hv, form.L @ hv)
    return bool(deficit <= tol.bound(scale))


def _excess_deficit(form: GraphForm, hv: np.ndarray, lh: np.ndarray) -> tuple[float, float]:
    """The largest violation -min(L h) of L h = ``lh`` >= 0, at least 0 (a
    NaN stays NaN), and the scale max|L| max h of the entries of L h."""
    deficit = -float(np.min(lh))
    scale = float(np.max(np.abs(form.L))) * float(np.max(hv))  # plain floats overflow silently
    return (deficit if not deficit <= 0.0 else 0.0), scale


def find_nonconstant_excessive(
    form: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray | None:
    """A nonconstant strictly positive excessive function, or None.

    On an irreducible form every excessive function is constant exactly
    when the form is recurrent (the Liouville property, ``is_recurrent``),
    so None is returned then.  Otherwise L is invertible and the Green
    function h = L^{-1} e_x is strictly positive with L h = e_x >= 0, hence
    excessive.  It is constant only when all the killing sits at x; that of
    a second vertex is then nonconstant, and None means that both are
    constant within tol.  Vertices are tried in index order, so the witness
    is deterministic.

    ``form.irreducible`` is read after ``form.L``, so NumericOverflow comes
    first.  The solve is checked, not predicted: a singular L or an h that
    is not positive and finite raises NotIrreducible, as rounding has then
    cut the generator's graph or absorbed the killing into its diagonal.
    """
    generator = form.L  # NumericOverflow before NotIrreducible
    if not form.irreducible:
        raise NotIrreducible("nonconstant-excessive search requires an irreducible form")
    n = len(form.space)
    if is_recurrent(form):
        return None
    for x in range(min(n, 2)):
        try:
            h = np.linalg.solve(generator, np.eye(n)[x])
        except np.linalg.LinAlgError:  # singular: no positive Green function
            h = np.zeros(n)
        low, high = float(h.min()), float(h.max())  # a float ratio past the range is inf
        if not 0.0 < low <= high < np.inf:  # NaN fails both
            raise NotIrreducible("no positive Green function in floating point: rounding cut "
                                 "the generator's graph or absorbed the killing into its diagonal")
        if high / low - 1.0 > tol.bound(1.0):
            return h
    return None
