"""Enumeration of intertwining order isomorphisms between two forms.

The operator constant is fixed to 1 by folding the scale into h through
the measure identity: given a vertex bijection tau the only compatible
scaling is h(y) = sqrt(m1(tau(y)) / m2(y)), so the search space is the
finite set of bijections.  Enumeration is a depth-first assignment of
target vertices in lexicographic order, each to a source vertex of its
domain in lexicographic order, with these pruning rules:

* the eigenvalue multisets of the two generators must match (similar
  matrices have equal spectra);
* a source enters a target's domain only when the per-vertex invariants
  match (the diagonal generator entry and the sorted multiset of incident
  conductances normalized by the measures) and the diagonal entry of
  U L1 - L2 U is within tolerance;
* forward checking: assigning a target removes from every later target's
  domain the assigned source and each source whose entries of
  U L1 - L2 U against the assigned pair exceed the tolerance; a branch
  ends as soon as some later domain is empty (violations never disappear
  when a partial assignment is extended, so no solution is lost);
* the search stops once ``max_solutions`` solutions are found.

The domains live in one target x source matrix stamped with the depth
that removed each entry, so the search state is O(n^2) at any depth.
Results are returned in lexicographic order of tau as a vertex-id
sequence, the order in which the depth-first search meets them, and are
bit-identical across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GraphForm, generator
from .errors import InvalidSize, NotIrreducible
from .orderiso import OrderIso, operator_constant
from .spectral import is_irreducible, spectral_data


@dataclass(frozen=True)
class SearchOptions:
    tol: float = 1e-8
    max_solutions: int = 1000

    def __post_init__(self):
        if self.tol <= 0 or self.max_solutions <= 0:
            raise InvalidSize("search options must be positive")


@dataclass(frozen=True)
class EquivalenceVerdict:
    solutions: tuple[OrderIso, ...] = ()
    reason: str | None = None  # size | spectrum | exhausted; None if equivalent

    @property
    def equivalent(self) -> bool:
        return bool(self.solutions)

    @property
    def witness(self) -> OrderIso | None:
        return self.solutions[0] if self.solutions else None


def spectra_match(form1: GraphForm, form2: GraphForm, spectral_tol: float) -> bool:
    """Compare the sorted generator spectra, scale-aware per eigenvalue."""
    w1 = spectral_data(generator(form1)).eigenvalues
    w2 = spectral_data(generator(form2)).eigenvalues
    if len(w1) != len(w2):
        return False
    return bool(np.all(np.abs(w1 - w2) <= spectral_tol * (1.0 + np.abs(w1))))


def _vertex_profiles(l_matrix: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex invariants of a generator seen through the normalized
    coupling sqrt(m(x)) L[x,y] / sqrt(m(y)): the diagonal entry and the
    sorted row of off-diagonal magnitudes.  Both are identical for the two
    forms at vertices matched by any exact intertwiner."""
    sqrt_m = np.sqrt(m)
    normalized = np.abs(l_matrix) * (sqrt_m[:, None] / sqrt_m[None, :])
    np.fill_diagonal(normalized, 0.0)
    return np.diag(l_matrix).copy(), np.sort(normalized, axis=1)


def _invariant_domain(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> np.ndarray:
    """Target x source boolean matrix: the source vertices passing the
    invariants of each target vertex."""
    l1 = generator(form1).L
    l2 = generator(form2).L
    diag1, rows1 = _vertex_profiles(l1, form1.space.m)
    diag2, rows2 = _vertex_profiles(l2, form2.space.m)
    # conservative slack: invariant gaps of a true solution are bounded by
    # the residual tolerance amplified by the measure ratios
    m1, m2 = form1.space.m, form2.space.m
    amp = math.sqrt(max(np.max(m1) / np.min(m2), np.max(m2) / np.min(m1), 1.0))
    slack = opts.tol * 4.0 * (1.0 + amp) * max(
        1.0, float(np.max(np.abs(l1))), float(np.max(np.abs(l2)))
    )
    domain = np.abs(diag1[None, :] - diag2[:, None]) <= slack
    for y in range(len(m2)):
        xs = np.flatnonzero(domain[y])
        domain[y, xs] = np.max(np.abs(rows1[xs] - rows2[y]), axis=1) <= slack
    return domain


# stamp of a (target, source) pair still in the target's domain; a removed
# pair holds the depth whose assignment removed it, -1 if never admitted
_ALIVE = np.iinfo(np.int32).max


def _forward_check(l1, l2, h, stamp, d, x, bound) -> bool:
    """Assign target d to source x: remove from the domain of every later
    target y the sources x' whose entries (y, d) or (d, y) of U L1 - L2 U
    exceed the bound, and x itself, stamping them with d.  Returns False,
    stamping nothing, when a later domain would become empty."""
    hd = h[d, x]
    hy = h[d + 1:]  # h[y, x']: the scaling if tau(y) = x'
    ok = np.abs(hy * l1[:, x] - l2[d + 1:, d, None] * hd) <= bound
    ok &= np.abs(hd * l1[x] - l2[d, d + 1:, None] * hy) <= bound
    ok[:, x] = False
    later = stamp[d + 1:]
    live = later == _ALIVE
    ok &= live
    if not ok.any(axis=1).all():
        return False
    later[live ^ ok] = d
    return True


def _search(l1, l2, h, domain, bound, cap) -> list[np.ndarray]:
    """Depth-first assignment of targets in index order to the sources of
    their domains in index order, stopping at ``cap`` solutions.

    One int32 stamp matrix is the whole domain state: a branch removes
    pairs by stamping them with its depth and restores them when it is
    left, so memory stays O(n^2) at any depth.
    """
    if not domain.any(axis=1).all():
        return []
    n = len(h)
    stamp = np.where(domain, _ALIVE, -1).astype(np.int32)
    assignment = np.empty(n, dtype=np.intp)
    options = [iter(())] * n
    options[0] = iter(np.nonzero(domain[0])[0].tolist())
    solutions: list[np.ndarray] = []
    d = 0
    while d >= 0:
        x = next(options[d], None)
        if x is None:
            d -= 1
            if d >= 0:  # leave the branch taken at depth d
                later = stamp[d + 1:]
                later[later == d] = _ALIVE
            continue
        assignment[d] = x
        if d == n - 1:
            solutions.append(assignment.copy())
            if len(solutions) == cap:
                break
        elif _forward_check(l1, l2, h, stamp, d, x, bound):
            d += 1
            options[d] = iter(np.nonzero(stamp[d] == _ALIVE)[0].tolist())
    return solutions


def residual_bound(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> float:
    """Absolute entrywise acceptance bound for U L1 - L2 U."""
    l1 = generator(form1).L
    l2 = generator(form2).L
    return opts.tol * max(1.0, float(np.max(np.abs(l1))), float(np.max(np.abs(l2))))


def find_intertwiners(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> list[OrderIso]:
    """All order isomorphisms intertwining the two forms, operator constant 1.

    Returns the bijections tau (with the measure-induced scaling) whose
    intertwining residual stays within ``opts.tol``, in lexicographic order
    of tau as a vertex-id sequence, capped at ``opts.max_solutions``.
    """
    if not (is_irreducible(form1) and is_irreducible(form2)):
        raise NotIrreducible("intertwiner search requires irreducible forms")
    if len(form1.space) != len(form2.space):
        return []
    if not spectra_match(form1, form2, opts.tol):
        return []

    l1 = generator(form1).L
    l2 = generator(form2).L
    bound = residual_bound(form1, form2, opts)
    # assignment proceeds through target vertices in lexicographic order,
    # trying source vertices in lexicographic order: solutions come out in
    # lexicographic order of the tau sequence
    perm2 = np.argsort(np.array(form2.space.vertices))
    perm1 = np.argsort(np.array(form1.space.vertices))
    l1s = l1[np.ix_(perm1, perm1)]
    l2s = l2[np.ix_(perm2, perm2)]
    # a measure ratio beyond the float range makes h inf and a residual
    # entry inf or 0 * inf = NaN, which fails its bound as it should; the
    # floating-point flags are silenced, not acted on
    with np.errstate(over="ignore", invalid="ignore"):
        # h[y, x]: the scaling of target y when tau(y) = x
        h = np.sqrt(form1.space.m[perm1][None, :] / form2.space.m[perm2][:, None])
        # a source enters a target's domain through the invariants and the
        # entry (y, y) of U L1 - L2 U
        domain = _invariant_domain(form1, form2, opts)[np.ix_(perm2, perm1)]
        domain &= np.abs(h * np.diag(l1s)[None, :] - np.diag(l2s)[:, None] * h) <= bound
        assignments = _search(l1s, l2s, h, domain, bound, opts.max_solutions)

    targets = [form2.space.vertices[i] for i in perm2]
    sources = [form1.space.vertices[i] for i in perm1]
    isos = []
    for assignment in assignments:
        tau = dict(zip(targets, [sources[x] for x in assignment.tolist()]))
        h_map = dict(zip(targets, h[np.arange(len(h)), assignment].tolist()))
        iso = OrderIso(form1.space, form2.space, tau, h_map)
        iso.beta = operator_constant(iso)
        isos.append(iso)
    return isos


def equivalence_verdict(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> EquivalenceVerdict:
    """Decide whether two forms are intertwined by some order isomorphism;
    without one, the reason names the first failed test: size, spectrum or
    the exhausted search."""
    found = find_intertwiners(form1, form2, opts)
    if found:
        return EquivalenceVerdict(tuple(found))
    if len(form1.space) != len(form2.space):
        return EquivalenceVerdict(reason="size")
    if not spectra_match(form1, form2, opts.tol):
        return EquivalenceVerdict(reason="spectrum")
    return EquivalenceVerdict(reason="exhausted")
