"""Enumeration of all intertwining order isomorphisms between two forms.

The operator constant is fixed to 1 by folding the scale into h through
the measure identity: given a vertex bijection tau the only compatible
scaling is h(y) = sqrt(m1(tau(y)) / m2(y)), so the search space is the
finite set of bijections.  Enumeration is a depth-first assignment in
lexicographic vertex order with three pruning rules:

* the eigenvalue multisets of the two generators must match (similar
  matrices have equal spectra);
* every determined entry of U L1 - L2 U must already be within tolerance
  (violations never disappear when a partial assignment is extended);
* per-vertex invariants must match: the diagonal generator entry and the
  sorted multiset of incident conductances normalized by the measures.

Results are returned in lexicographic order of tau as a vertex-id
sequence, the order in which the depth-first search meets them, and are
bit-identical across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def _induced_h(m1: np.ndarray, m2: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    return np.sqrt(m1[assignment] / m2)


def _vertex_profiles(l_matrix: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex invariants of a generator seen through the normalized
    coupling sqrt(m(x)) L[x,y] / sqrt(m(y)): the diagonal entry and the
    sorted row of off-diagonal magnitudes.  Both are identical for the two
    forms at vertices matched by any exact intertwiner."""
    sqrt_m = np.sqrt(m)
    normalized = np.abs(l_matrix) * (sqrt_m[:, None] / sqrt_m[None, :])
    np.fill_diagonal(normalized, 0.0)
    return np.diag(l_matrix).copy(), np.sort(normalized, axis=1)


def _candidates(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> list[list[int]]:
    """For each target vertex, the source vertices passing the invariants."""
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
    result = []
    for y in range(len(m2)):
        row = [
            x
            for x in range(len(m1))
            if abs(diag1[x] - diag2[y]) <= slack
            and float(np.max(np.abs(rows1[x] - rows2[y]))) <= slack
        ]
        result.append(row)
    return result


def _entry_ok(l1, l2, h, assignment, i, j, bound) -> bool:
    # entry of U L1 - L2 U at (target i, source tau(j))
    value = h[i] * l1[assignment[i], assignment[j]] - l2[i, j] * h[j]
    return abs(value) <= bound


def _extend(l1, l2, m1, m2, candidates, bound, assignment, used, h, depth, out):
    n = len(candidates)
    if depth == n:
        out.append(assignment.copy())
        return
    for x in candidates[depth]:
        if used[x]:
            continue
        assignment[depth] = x
        h[depth] = math.sqrt(m1[x] / m2[depth])
        ok = True
        for j in range(depth + 1):
            if not (
                _entry_ok(l1, l2, h, assignment, depth, j, bound)
                and _entry_ok(l1, l2, h, assignment, j, depth, bound)
            ):
                ok = False
                break
        if ok:
            used[x] = True
            _extend(l1, l2, m1, m2, candidates, bound, assignment, used, h, depth + 1, out)
            used[x] = False


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
    m1, m2 = form1.space.m, form2.space.m
    n = len(m1)
    bound = residual_bound(form1, form2, opts)
    # assignment proceeds through target vertices in lexicographic order,
    # trying source vertices in lexicographic order: solutions come out in
    # lexicographic order of the tau sequence
    target_order = np.argsort(np.array(form2.space.vertices))
    source_order = np.argsort(np.array(form1.space.vertices))
    perm2 = np.asarray(target_order)
    perm1 = np.asarray(source_order)
    l1s = l1[np.ix_(perm1, perm1)]
    l2s = l2[np.ix_(perm2, perm2)]
    m1s = m1[perm1]
    m2s = m2[perm2]
    form_candidates = _candidates(form1, form2, opts)
    inv1 = np.empty(n, dtype=int)
    inv1[perm1] = np.arange(n)
    candidates = [
        sorted(int(inv1[x]) for x in form_candidates[int(perm2[d])])
        for d in range(n)
    ]

    raw: list[np.ndarray] = []
    _extend(l1s, l2s, m1s, m2s, candidates, bound,
            np.zeros(n, dtype=int), np.zeros(n, dtype=bool), np.zeros(n), 0, raw)

    isos = []
    for assignment in raw[: opts.max_solutions]:
        tau = {
            form2.space.vertices[int(perm2[d])]: form1.space.vertices[int(perm1[assignment[d]])]
            for d in range(n)
        }
        h_map = {
            y: math.sqrt(m1[form1.space.index(x)] / m2[form2.space.index(y)])
            for y, x in tau.items()
        }
        iso = OrderIso(form1.space, form2.space, tau, h_map)
        isos.append(replace(iso, beta=operator_constant(iso)))
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
