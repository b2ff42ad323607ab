import decimal
import itertools
import json
import math
import tracemalloc
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse.csgraph import shortest_path

import dirikit as dk
from dirikit import generator, jsonio
from dirikit.core import _INVERSE_LEAF, _edge_key, _require_finite, _symmetric_inverse
from dirikit.errors import (
    DirikitError,
    DuplicateEdge,
    MalformedInput,
    NegativeWeight,
    NonPositive,
    NotExcessive,
    NotIntertwining,
    NotIrreducible,
    NotRecurrent,
    NumericOverflow,
    SelfLoop,
    SpaceMismatch,
)
from dirikit.jsonio import _number, _require
from dirikit.metrics import _resistance_green
from dirikit.orderiso import _require_normal, require_intertwining
from dirikit.report import worst_entry
from dirikit.sampling import nonconstant_excessive_profile
from dirikit.search import SearchOptions, residual_bound, spectra_match
from dirikit.tolerances import DEFAULT_TOL, Tolerance


def oracle_worst_entry(gap: np.ndarray, bound: np.ndarray) -> tuple[int, ...]:
    """Entry by entry: the first entry above its bound by the largest
    factor, a NaN first; when none is above, the first of the largest
    gap / bound, a zero gap counting as 0."""
    entries = list(np.ndindex(gap.shape))
    failed = [e for e in entries if not gap[e] <= bound[e]]

    def key(e):
        g, b = float(gap[e]), float(bound[e])
        if math.isnan(g):
            return (1, 0.0)
        return (0, 0.0 if g == 0.0 else g / b if b > 0.0 else math.inf)

    return max(failed or entries, key=key)


def traced(call):
    """The call's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def pick(rng: np.random.Generator, options):
    """One of ``options`` as it is, without numpy's type conversion."""
    return options[int(rng.integers(len(options)))]


# a unit path this long takes any form it is added to past the leaf of the
# blocked Green function, onto its Schur-complement route
PAST_LEAF = _INVERSE_LEAF + 2


def unit_tail(anchor: str, count: int) -> tuple[list[str], list[tuple[str, str, float]]]:
    """A path of ``count`` new vertices t00, t01, ... with unit conductances,
    hung from ``anchor``: its vertices and its edges."""
    names = [f"t{i:02d}" for i in range(count)]
    return names, list(zip([anchor] + names, names, itertools.repeat(1.0)))


def diagonal_overflow_form(tail: int = 0):
    """Edges of 6e-309 to a hub of conductance 1e300 to v3: the Green function
    is finite, its diagonal sum for v0, v1 is not; ``tail`` unit-measure
    vertices hang from v3 on a unit path."""
    names, edges = unit_tail("v3", tail)
    return dk.build_form(
        ["v0", "v1", "v2", "v3"] + names,
        {"v0": 1.7e308, "v1": 1e-300, "v2": 1e300, "v3": 1.7e308} | dict.fromkeys(names, 1.0),
        [("v0", "v2", 6e-309), ("v1", "v2", 6e-309), ("v2", "v3", 1e300)] + edges,
    )


def spread_measure_path(zero_key=False):
    """v0 - v1 - v2 with m = 5e-324, 1, 1.7e308 and b = 1e-310, 1: the ratio
    sqrt(m(v2)) / sqrt(m(v0)) leaves the float range, off the edges, or
    with ``zero_key`` on the key (v0, v2) of weight 0."""
    edges = [("v0", "v1", 1e-310), ("v1", "v2", 1.0)] + [("v0", "v2", 0.0)] * zero_key
    return dk.build_form(["v0", "v1", "v2"], [5e-324, 1.0, 1.7e308], edges)


def oracle_green(form) -> np.ndarray:
    """Oracle: the Green function grounded at the first vertex of largest
    degree by one ``np.linalg.inv`` of the gathered matrix, zero on that row
    and column."""
    keep = np.arange(len(form.space)) != np.argmax(form.degrees)
    g = np.zeros((len(form.space),) * 2)
    g[np.ix_(keep, keep)] = np.linalg.inv(form.form_matrix[np.ix_(keep, keep)])
    return g


# The dense chain W -> F -> L -> S, each n x n matrix from the one before,
# and G gathered from F: the oracles of the matrices that a form scatters
# from its edge columns.  Each raises what the form raises, in its order.


def oracle_weight_matrix(form) -> np.ndarray:
    n = len(form.space)
    w = np.zeros((n, n))
    i, j = form.edge_indices
    w[i, j] = w[j, i] = form.weights
    return w


def oracle_form_matrix(form) -> np.ndarray:
    return np.diag(form.form_diagonal) - oracle_weight_matrix(form)


def oracle_generator(form) -> np.ndarray:
    form.generator_diagonal  # NumericOverflow before the n x n work
    return oracle_form_matrix(form) / form.space.m[:, None]


def oracle_symmetric(form) -> np.ndarray:
    """M^{1/2} L M^{-1/2} from the dense L, averaged with its transpose, then
    0.0 off the edge keys.  The chain alone leaves 0 x inf = NaN there when
    a ratio sqrt(m(x))/sqrt(m(y)) leaves the float range, and so refused a
    finite S; the mask changes no entry where the chain is finite."""
    n = len(form.space)
    sqrt_m = np.sqrt(form.space.m)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = oracle_generator(form) * (sqrt_m[:, None] / sqrt_m[None, :])
        sym = 0.5 * (sym + sym.T)
    on_edges = np.eye(n, dtype=bool)
    i, j = form.edge_indices
    on_edges[i, j] = on_edges[j, i] = True
    sym[~on_edges] = 0.0
    _require_finite(sym, "symmetrized generator")
    return sym


def oracle_spectrum(form) -> np.ndarray:
    return np.linalg.eigvalsh(oracle_symmetric(form))


def oracle_blocked_green(form) -> np.ndarray:
    """The Green function of ``GraphForm.green`` gathered from the dense F:
    a recurrent form's grounded at the first vertex of largest degree, a
    transient form's the whole F, inverted by ``_symmetric_inverse``."""
    grounded = "grounded " if form.recurrent else ""
    if not form.irreducible:
        raise NotIrreducible(f"the {grounded}Green function needs a connected conductance graph")
    n = len(form.space)
    keep = (np.arange(n) != np.argmax(form.degrees)) | (not form.recurrent)
    matrix = oracle_form_matrix(form)[np.ix_(keep, keep)]
    inverse = np.empty_like(matrix)
    try:
        with np.errstate(all="ignore"):
            _symmetric_inverse(matrix, inverse)
    except np.linalg.LinAlgError:
        raise NumericOverflow(f"{grounded}form matrix is singular in floating point") from None
    g = np.zeros((n, n))
    g[np.ix_(keep, keep)] = inverse
    _require_finite(g, f"{grounded}Green function")
    return g


# each dense matrix of a form, by its name on the form, and its oracle
ORACLE_MATRICES = {
    "weight_matrix": oracle_weight_matrix,
    "form_matrix": oracle_form_matrix,
    "L": oracle_generator,
    "symmetric": oracle_symmetric,
    "spectrum": oracle_spectrum,
    "green": oracle_blocked_green,
}


def brute_force_intertwiners(form1, form2, opts: SearchOptions):
    """Oracle: test every bijection directly against the residual bound.

    Independent of the pruned search: plain permutation enumeration, with
    each form's S = M^{-1/2} F M^{-1/2} built from its form matrix F, the
    residual P S1 P^T - S2 evaluated by matrix products and each entry
    (y, z) held to rel sqrt(s(y) s(z)), s the diagonal of S2.
    """
    n1, n2 = len(form1.space), len(form2.space)
    if n1 != n2:
        return []

    def symmetric(form):
        root = np.sqrt(form.space.m)
        return form.form_matrix / np.outer(root, root)

    s1, s2 = symmetric(form1), symmetric(form2)
    bound = opts.tol.rel * np.sqrt(np.outer(np.diag(s2), np.diag(s2)))
    accepted = []
    for perm in itertools.permutations(range(n1)):
        p = np.eye(n1)[list(perm)]  # p[i, perm[i]] = 1: target i takes source perm[i]
        if not np.all(np.abs(p @ s1 @ p.T - s2) <= bound):
            continue
        tau = {
            form2.space.vertices[i]: form1.space.vertices[perm[i]] for i in range(n2)
        }
        h = {
            y: float(np.sqrt(form1.space.m[perm[i]] / form2.space.m[i]))
            for i, y in enumerate(form2.space.vertices)
        }
        accepted.append(dk.OrderIso(form1.space, form2.space, tau, h))
    accepted.sort(key=lambda iso: tuple(iso.tau[y] for y in sorted(iso.tau)))
    return accepted


def tau_signature(iso):
    return tuple(iso.tau[y] for y in sorted(iso.tau))


_ORACLE_ALIVE = np.iinfo(np.int32).max


def _oracle_forward_check(a1, a2, stamp, d, x, bound) -> bool:
    ok = np.abs(a1[:, x] - a2[d + 1:, d, None]) <= bound[d + 1:, d, None]
    ok &= np.abs(a1[x] - a2[d, d + 1:, None]) <= bound[d, d + 1:, None]
    ok[:, x] = False
    later = stamp[d + 1:]
    live = later == _ORACLE_ALIVE
    ok &= live
    if not ok.any(axis=1).all():
        return False
    later[live ^ ok] = d
    return True


def _oracle_search(a1, a2, domain, bound, cap):
    """The forward-checked search on one layer, without completion, testing
    the entries (y, d) and (d, y) of P A1 P^T - A2 each against its bound
    bound[y, d], bound[d, y]."""
    if not domain.any(axis=1).all():
        return []
    n = len(domain)
    stamp = np.where(domain, _ORACLE_ALIVE, -1).astype(np.int32)
    assignment = np.empty(n, dtype=np.intp)
    options = [iter(())] * n
    options[0] = iter(np.nonzero(domain[0])[0].tolist())
    solutions = []
    d = 0
    while d >= 0:
        x = next(options[d], None)
        if x is None:
            d -= 1
            if d >= 0:
                later = stamp[d + 1:]
                later[later == d] = _ORACLE_ALIVE
            continue
        assignment[d] = x
        if d == n - 1:
            solutions.append(assignment.copy())
            if len(solutions) == cap:
                break
        elif _oracle_forward_check(a1, a2, stamp, d, x, bound):
            d += 1
            options[d] = iter(np.nonzero(stamp[d] == _ORACLE_ALIVE)[0].tolist())
    return solutions


def _vertex_profiles(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex invariants of a symmetrized generator S: the diagonal s
    and the sorted row of off-diagonal magnitudes of the normalized
    |S[x, z]| / sqrt(s(x) s(z)), which lie in [0, 1]."""
    diag = np.diag(s).copy()
    root = np.sqrt(diag)
    normalized = np.abs(s) / np.outer(root, root)
    np.fill_diagonal(normalized, 0.0)
    return diag, np.sort(normalized, axis=1)


def _invariant_domain(form1, form2, opts: SearchOptions) -> np.ndarray:
    """Target x source boolean matrix: the source vertices passing the
    invariants of each target vertex."""
    diag1, rows1 = _vertex_profiles(form1.symmetric)
    diag2, rows2 = _vertex_profiles(form2.symmetric)
    # conservative slack: a solution has |S1 - S2| <= rel sqrt(s s) at each
    # entry and |s1 - s2| <= rel s2 on the diagonal, so its normalized
    # entries differ by 2 rel and rounding, and sorting the matched rows
    # keeps that entrywise bound
    slack = 4.0 * opts.tol.rel
    domain = np.abs(diag1[None, :] - diag2[:, None]) <= slack * diag2[:, None]
    for y in range(len(diag2)):
        xs = np.flatnonzero(domain[y])
        domain[y, xs] = np.max(np.abs(rows1[xs] - rows2[y]), axis=1) <= slack
    return domain


def l_only_intertwiners(form1, form2, opts: SearchOptions):
    """Oracle: the search forward-checked on P S1 P^T = S2 alone, without
    the resolvent check and without completion, its root domains filtered
    by the sorted-row invariants of ``_invariant_domain`` and the
    generators' diagonal, with each result built by the validating
    ``OrderIso`` constructor."""
    if len(form1.space) != len(form2.space) or not spectra_match(form1, form2, opts.tol.rel):
        return []
    perm2 = np.argsort(np.array(form2.space.vertices))
    perm1 = np.argsort(np.array(form1.space.vertices))
    s1 = form1.symmetric[np.ix_(perm1, perm1)]
    s2 = form2.symmetric[np.ix_(perm2, perm2)]
    bound = residual_bound(form2, opts)[np.ix_(perm2, perm2)]
    domain = _invariant_domain(form1, form2, opts)[np.ix_(perm2, perm1)]
    domain &= np.abs(np.diag(s1)[None, :] - np.diag(s2)[:, None]) <= np.diag(bound)[:, None]
    assignments = _oracle_search(s1, s2, domain, bound, opts.max_solutions)
    targets = [form2.space.vertices[i] for i in perm2]
    sources = [form1.space.vertices[i] for i in perm1]
    isos = []
    with np.errstate(over="ignore"):
        h = np.sqrt(form1.space.m[perm1][None, :] / form2.space.m[perm2][:, None])
    for assignment in assignments:
        tau = dict(zip(targets, [sources[x] for x in assignment.tolist()]))
        h_map = dict(zip(targets, h[np.arange(len(h)), assignment].tolist()))
        isos.append(dk.OrderIso(form1.space, form2.space, tau, h_map))
    return isos


class JumpData(NamedTuple):
    """A jump measure on ordered vertex pairs and a killing measure, as dicts."""

    vertices: tuple[str, ...]
    J: dict[tuple[str, str], float]
    k: dict[str, float]


def oracle_decompose(form) -> JumpData:
    """Oracle: the jump/killing split built one edge at a time from the
    form's ``b`` dict, J = b / 2 on both orientations and k = c."""
    jump: dict[tuple[str, str], float] = {}
    for (x, y), weight in form.b.items():
        jump[(x, y)] = weight / 2.0
        jump[(y, x)] = weight / 2.0
    killing = {v: float(form.c[i]) for i, v in enumerate(form.space.vertices)}
    return JumpData(form.space.vertices, dict(sorted(jump.items())), killing)


def oracle_jump_to_obj(form) -> dict:
    """Oracle: the document of ``jsonio.jump_to_obj`` from ``oracle_decompose``."""
    data = oracle_decompose(form)
    return {
        "vertices": list(data.vertices),
        "J": [{"x": x, "y": y, "value": value} for (x, y), value in sorted(data.J.items())],
        "k": {v: float(data.k.get(v, 0.0)) for v in data.vertices},
    }


def decompose(form) -> JumpData:
    """The jump document of ``jsonio.jump_to_obj`` read back as dicts."""
    doc = jsonio.jump_to_obj(form)
    return JumpData(tuple(doc["vertices"]),
                    {(j["x"], j["y"]): j["value"] for j in doc["J"]}, dict(doc["k"]))


def jump_matrix(data) -> np.ndarray:
    """The jump measure of ``JumpData`` as a dense matrix J[x, y]."""
    index = {v: i for i, v in enumerate(data.vertices)}
    j = np.zeros((len(data.vertices), len(data.vertices)))
    for (x, y), value in data.J.items():
        j[index[x], index[y]] = value
    return j


def jump_energy(data, phi: np.ndarray, f: np.ndarray) -> float:
    """The phi-weighted jump energy sum_{x != y} phi(x) phi(y) (f(x)-f(y))^2 J(x,y),
    summed over the pairs carried by J."""
    index = {v: i for i, v in enumerate(data.vertices)}
    p, g = phi.tolist(), f.tolist()
    total = 0.0
    for (x, y), value in data.J.items():
        i, j = index[x], index[y]
        total += value * p[i] * p[j] * (g[i] - g[j]) * (g[i] - g[j])
    return total


def truncated_form_via_jump(form, phi, f) -> float:
    """Oracle: the truncation Q(phi f) - Q(phi f^2, phi) of
    ``truncated_form`` computed from the jump decomposition instead
    of Q."""
    return jump_energy(decompose(form), form.space.vector(phi), form.space.vector(f))


def vf2_intertwiners(form1, form2, rel: float = 1e-9):
    """Oracle: the tau signatures of all intertwiners, sorted, from networkx's
    VF2 matcher.  With h(y) = sqrt(m1(tau(y)) / m2(y)), U L1 = L2 U holds
    exactly when tau carries the symmetrized generator sqrt(m(x)) L[x, z] /
    sqrt(m(z)) of the target onto the source's, so the graphs carry its
    diagonal on the vertices and its off-diagonal entries on the edges,
    matched to a relative ``rel``."""
    from networkx import Graph
    from networkx.algorithms.isomorphism import GraphMatcher

    def graph(form):
        sqrt_m = np.sqrt(form.space.m)
        sym = dk.generator(form).L * (sqrt_m[:, None] / sqrt_m[None, :])
        g = Graph()
        for i, v in enumerate(form.space.vertices):
            g.add_node(v, a=sym[i, i])
        for u, v in form.b:
            i, j = form.space.index(u), form.space.index(v)
            if sym[i, j] != 0.0:
                g.add_edge(u, v, a=sym[i, j])
        return g

    def same(p, q):
        return math.isclose(p["a"], q["a"], rel_tol=rel)

    matcher = GraphMatcher(graph(form2), graph(form1), node_match=same, edge_match=same)
    return sorted(
        tuple(mapping[y] for y in sorted(mapping)) for mapping in matcher.isomorphisms_iter()
    )


def eigh_calls(monkeypatch, fail: bool) -> list[int]:
    """Route numpy.linalg.eigh through a spy that records the size of each
    matrix it is given, and raises AssertionError when ``fail``; returns
    the spy's list of sizes."""
    calls = []
    eigh = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        calls.append(len(matrix))
        if fail:
            raise AssertionError("eigh called")
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def subordinate(form, alpha: float):
    """The form of the subordinate generator L^alpha, 0 < alpha < 1: its form
    matrix M L^alpha = M^{1/2} S^alpha M^{1/2} from the orthonormal
    eigendecomposition of S = M^{1/2} L M^{-1/2}, the rounded
    null eigenvalue of a recurrent form set to zero first (a power of 1e-16
    is not small), conductances from the off-diagonal entries and killing
    from the row sums (none when the form is recurrent)."""
    data = dk.spectral_data(dk.generator(form))
    w = np.maximum(data.eigenvalues, 0.0)
    if dk.is_recurrent(form):
        w[0] = 0.0
    m = form.space.m
    mv = data.eigenvectors * np.sqrt(m)[:, None]
    f = (mv * w**alpha) @ mv.T
    f = 0.5 * (f + f.T)
    names = form.space.vertices
    n = len(names)
    edges = [(names[i], names[j], -f[i, j]) for i in range(n) for j in range(i + 1, n)]
    assert all(b > 0.0 for _, _, b in edges), "subordinate conductances must be positive"
    killing = 0.0 if dk.is_recurrent(form) else np.maximum(f.sum(axis=1), 0.0)
    return dk.GraphForm(form.space, edges, killing)


def lp_nonconstant_excessive(gen, separation: float = 1e-3):
    """Oracle: a nonconstant excessive function found by linear programming.

    Independent of the closed form in ``find_nonconstant_excessive``: for
    each ordered vertex pair (x0, x1) solve L h >= 0, h >= 1, h(x0) = 1,
    h(x1) >= 1 + separation, minimizing sum(h).  Returns the first feasible
    h, or None when every pair is infeasible.
    """
    n = len(gen.space)
    for i0, i1 in itertools.permutations(range(n), 2):
        a_eq = np.zeros((1, n))
        a_eq[0, i0] = 1.0
        bounds = [(1.0, None)] * n
        bounds[i1] = (1.0 + separation, None)
        result = linprog(
            np.ones(n), A_ub=-gen.L, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
            bounds=bounds, method="highs",
        )
        if result.status == 0:
            return np.asarray(result.x, dtype=float)
    return None


def solved_nonconstant_excessive(form, tol: Tolerance = DEFAULT_TOL):
    """Reference: ``find_nonconstant_excessive`` by one LU solve of the dense
    F per vertex, F h = m(x) e_x, as it ran before it read ``form.green``."""
    form.generator_diagonal
    if not form.irreducible:
        raise NotIrreducible("nonconstant-excessive search requires an irreducible form")
    n = len(form.space)
    if form.recurrent:
        return None
    gram, m = form.form_matrix, form.space.m
    for x in range(min(n, 2)):
        try:
            h = np.linalg.solve(gram, m[x] * np.eye(n)[x])
        except np.linalg.LinAlgError:
            h = np.zeros(n)
        low, high = float(h.min()), float(h.max())
        if not 0.0 < low <= high < np.inf:
            raise NotIrreducible("no positive Green function in floating point")
        if high / low - 1.0 > tol.bound(1.0):
            return h
    return None


def rank_commutant_is_trivial(gen) -> bool:
    """Oracle: whether only scalar diagonal matrices commute with the
    semigroup, which holds exactly when the form is irreducible.  Solves
    [diag(phi), L] = 0, whose (x, y) entry is (phi(x) - phi(y)) L[x,y],
    and checks that the solution space is one-dimensional; ``matrix_rank`` drops rows far weaker than the
    strongest, so it is exact only on well-scaled forms."""
    n = len(gen.space)
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        coeff = max(abs(gen.L[i, j]), abs(gen.L[j, i]))
        if coeff != 0.0:
            row = np.zeros(n)
            row[i] = coeff
            row[j] = -coeff
            rows.append(row)
    if not rows:
        return n == 1
    return n - int(np.linalg.matrix_rank(np.array(rows))) == 1


def _oracle_float(value: float) -> str:
    """The shortest text that reads back to the double, in Ryu's layout:
    positional from 1e-5 up to 16 integer digits, with ".0" after an
    integer, else d.ddde[-]x.  The digits are those of repr, which is the
    shortest round-trip text too."""
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    if value == 0.0:
        return "-0.0" if math.copysign(1.0, value) < 0.0 else "0.0"
    sign, digits, exponent = decimal.Decimal(repr(value)).normalize().as_tuple()
    text = "".join(map(str, digits))
    point = len(text) + exponent  # where the decimal point falls in text
    if exponent >= 0 and point <= 16:
        body = text + "0" * exponent + ".0"
    elif 0 < point <= 16:
        body = text[:point] + "." + text[point:]
    elif -5 < point <= 0:
        body = "0." + "0" * -point + text
    else:
        body = text[0] + ("." + text[1:] if len(text) > 1 else "") + f"e{point - 1}"
    return "-" * sign + body


def oracle_dumps(obj, indent: int = 0) -> str:
    """Oracle: a recursive per-value serializer of the document that
    ``jsonio.dumps`` writes: two-space indent, shortest round-trip floats,
    UTF-8 strings, str keys only, integers within 64 bits.  It takes lists,
    not arrays."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        if not -2**63 <= obj < 2**64:
            raise MalformedInput("cannot serialize an integer past 64 bits")
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_float(float(obj))
    if isinstance(obj, str):
        try:
            obj.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedInput("cannot serialize a lone surrogate") from None
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [oracle_dumps(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise MalformedInput("cannot serialize a key that is no str")
        items = [f"{oracle_dumps(key)}: {oracle_dumps(value, indent + 2)}"
                 for key, value in obj.items()]
        return "{\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "}"
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")


def oracle_search_payload(verdict) -> dict:
    """Oracle: the search document with one dict per intertwiner, built
    from the dicts of ``iso_to_obj``, for the generic ``jsonio.dumps``."""
    return {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason,
        "intertwiners": [dict(jsonio.iso_to_obj(iso), beta=iso.beta)
                         for iso in verdict.solutions],
        "capped": verdict.capped,
    }


def oracle_offdiagonal_connected(coupling: np.ndarray) -> bool:
    """Oracle: a depth-first search over the nonzero entries of each row
    and column of a dense coupling, against which the edge route
    ``core._edges_connected`` is checked."""
    n = coupling.shape[0]
    if n == 0:
        return False
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero((coupling[i] != 0.0) | (coupling[:, i] != 0.0))[0]:
            if j != i and not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


class OracleGraphForm(dk.GraphForm):
    """Oracle: the per-edge construction loop, with a dict lookup per
    endpoint and a sort of the string keys, and the per-edge weight-matrix
    loop that ``GraphForm`` replaced with array operations."""

    def __init__(self, space, b, c=0.0):
        self.space = space
        edges = {}
        if isinstance(b, Mapping):
            items = ((u, v, w) for (u, v), w in b.items())
        else:
            items = iter(b)
        for u, v, w in items:
            space.index(u)
            space.index(v)
            if u == v:
                raise SelfLoop(f"self-loop at {u!r}")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise NegativeWeight(f"edge weight b({u},{v}) = {w} must be finite and >= 0")
            key = (u, v) if u <= v else (v, u)
            if key in edges:
                raise DuplicateEdge(f"duplicate edge {key}")
            edges[key] = w
        self.b = dict(sorted(edges.items()))
        cv = space.vector(c)
        if not np.all(np.isfinite(cv)) or np.any(cv < 0.0):
            raise NegativeWeight("killing weights must be finite and >= 0")
        cv.flags.writeable = False
        self.c = cv

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        n = len(self.space)
        w = np.zeros((n, n))
        for (u, v), value in self.b.items():
            i, j = self.space.index(u), self.space.index(v)
            w[i, j] = w[j, i] = value
        w.flags.writeable = False
        return w


def oracle_graph_from_obj(obj):
    """Oracle: ``jsonio.graph_from_obj`` with the per-edge checks it now runs
    only on failure, building an ``OracleGraphForm``; edge columns are read
    as the list of their edge objects."""
    vertices = _require(obj, "vertices", list, "graph")
    if not all(isinstance(v, str) for v in vertices):
        raise MalformedInput("graph: vertices must be strings")
    m_obj = _require(obj, "m", dict, "graph")
    m = {v: _number(m_obj.get(v), f"graph: m[{v!r}]") for v in vertices}
    edge_list = obj.get("edges", [])
    if isinstance(edge_list, dict):
        columns = [_require(edge_list, key, list, "graph edges") for key in "uvb"]
        if len({len(column) for column in columns}) > 1:
            raise MalformedInput("graph edges: columns 'u', 'v' and 'b' differ in length")
        edge_list = [dict(zip("uvb", edge)) for edge in zip(*columns)]
    if not isinstance(edge_list, list):
        raise MalformedInput("graph: key 'edges' has wrong type")
    edges = []
    for entry in edge_list:
        u = _require(entry, "u", str, "graph edge")
        v = _require(entry, "v", str, "graph edge")
        w = _number(_require(entry, "b", (int, float), "graph edge"), "graph edge b")
        edges.append((u, v, w))
    killing_obj = obj.get("killing", {})
    if not isinstance(killing_obj, dict):
        raise MalformedInput("graph: killing must be an object")
    killing = {
        v: _number(killing_obj.get(v, 0.0), f"graph: killing[{v!r}]") for v in vertices
    }
    return OracleGraphForm(dk.MeasureSpace(vertices, m), edges, killing)


def construction_outcome(make, *args):
    """What a form constructor leaves: the edge keys in order with the type
    and bits of each weight, the weight and killing bytes, or the type and
    message of the exception it raised."""
    try:
        form = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    values = list(form.b.values())
    return (
        list(form.b),
        [type(w) for w in values],
        np.array(values, dtype=float).tobytes(),
        form.weight_matrix.tobytes(),
        form.c.tobytes(),
    )


def oracle_generator_times(form, h) -> np.ndarray:
    """Oracle: L h summed edge by edge in Python floats, in key order, the
    order in which ``spectral._excess`` adds its terms: at each vertex the
    flows b(x, y) (h(x) - h(y)) of the edges it is the first end of, less
    those of the edges it is the second end of, plus c h, over m."""
    n = len(form.space)
    first, second = [0.0] * n, [0.0] * n
    values = np.asarray(h, dtype=float).tolist()
    for (x, y), w in zip(form.edge_indices.T.tolist(), form.weights.tolist()):
        flow = w * (values[x] - values[y])
        first[x] += flow
        second[y] += flow
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.array(first) - np.array(second) + form.c * h) / form.space.m


def oracle_entry_scale(matrix: np.ndarray, left=1.0, right=1.0) -> np.ndarray:
    """Oracle: the dense scale of the guard, ``form_scaling`` and
    ``jump_transform`` that ``Tolerance.outer_bound`` replaced:
    left(y) right(z) sqrt(A[y, y] A[z, z]) at (y, z); inf past the float
    range, or NaN where that meets 0."""
    root = np.sqrt(np.diag(matrix))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.outer(left * root, right * root)


def oracle_residual_gap(iso, form1, form2) -> np.ndarray:
    """Oracle: |U L1 - L2 U| as a dense matrix, |h(y) L1[tau y, tau z] -
    L2[y, z] h(z)| at (y, z)."""
    if iso.source != form1.space:
        raise SpaceMismatch("iso source does not match the first form")
    if iso.target != form2.space:
        raise SpaceMismatch("iso target does not match the second form")
    idx, h = iso.tau_indices, iso.h_values
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(h[:, None] * form1.L[idx][:, idx] - form2.L * h[None, :])


def oracle_require_intertwining(iso, form1, form2, tol: Tolerance = DEFAULT_TOL) -> None:
    """Oracle: the dense guard that ``require_intertwining`` replaced, on
    every entry of the n x n matrices, with the same bound and errors."""
    gap = oracle_residual_gap(iso, form1, form2)
    root_m1 = np.sqrt(iso.source.m[iso.tau_indices])
    with np.errstate(over="ignore"):
        bound = tol.bound(oracle_entry_scale(form2.L, iso.h_values / root_m1, root_m1))
    if not np.isfinite(bound).all() and np.any(np.isfinite(gap) & ~np.isfinite(bound)):
        raise NumericOverflow("intertwining residual bound leaves the floating-point range")
    if not (gap <= bound).all():
        y, z = worst_entry(gap, bound)
        names = iso.target.vertices
        raise NotIntertwining(
            f"intertwining residual {gap[y, z]:.3e} exceeds its bound {bound[y, z]:.3e}"
            f" at the entry ({names[y]!r}, {names[z]!r}) of the targets"
        )


def oracle_certify(iso, form1, form2, tol: Tolerance = DEFAULT_TOL):
    """Oracle: ``certify`` on dense F, L and W, as before it read edges:
    the dense guard, the gathered Gram matrices of ``form_scaling`` and the
    largest |L| of ``scaling_excessive`` over every entry.  L h is summed
    as the library sums it (``oracle_generator_times``)."""
    oracle_require_intertwining(iso, form1, form2, tol)
    if not (form1.irreducible and form2.irreducible):
        raise NotIrreducible("certification requires irreducible forms")
    report = dk.VerificationReport()
    with np.errstate(over="ignore"):
        beta = _require_normal("beta", iso.beta)
    tau, h = iso.tau_indices, iso.h_values
    w = iso.target.m * h / iso.source.m[tau]
    report.add("operator_constant", float(np.max(np.abs(w * h - beta))), tol.bound(beta),
               detail=f"beta={beta!r}")
    gram2 = h[:, None] * form2.form_matrix * h[None, :]
    gram1 = beta * form1.form_matrix[tau][:, tau]
    report.compare("form_scaling", gram1, gram2,
                   tol.bound(oracle_entry_scale(form2.form_matrix, h, h)))
    deficit = -float(np.min(oracle_generator_times(form2, h)))
    scale = float(np.max(np.abs(form2.L))) * float(np.max(h))
    report.add("scaling_excessive", deficit if not deficit <= 0.0 else 0.0, tol.bound(scale))
    ratio = float(np.max(h) / np.min(h))
    if dk.is_recurrent(form1) and dk.is_recurrent(form2):
        report.add("scaling_constancy", ratio - 1.0, tol.bound(1.0))
        h_const = float(np.mean(h))
        square = h_const**2
        alpha = _require_normal("alpha", beta / square if square else beta / h_const / h_const)
        pulled = alpha * iso.source.m[tau]
        report.add("measure_pushforward", float(np.max(np.abs(iso.target.m - pulled) / pulled)),
                   tol.bound(1.0), detail=f"alpha={alpha!r}")
    else:
        report.skip("scaling_constancy", f"pair not recurrent; observed h max/min ratio = {ratio!r}")
    return report


def oracle_jump_transform(iso, form1, form2, tol: Tolerance = DEFAULT_TOL):
    """Oracle: ``verify_jump_transform`` on the dense weight matrices."""
    oracle_require_intertwining(iso, form1, form2, tol)
    idx, h = iso.tau_indices, iso.h_values
    report = dk.VerificationReport()
    with np.errstate(over="ignore", invalid="ignore"):
        beta = iso.beta
        lhs = beta * (0.5 * form1.weight_matrix)[idx][:, idx]
        rhs = np.outer(h, h) * (0.5 * form2.weight_matrix)
        np.fill_diagonal(rhs, 0.0)
        bound = tol.bound(oracle_entry_scale(form2.form_matrix, h, h))
        report.compare("jump_transform", lhs, rhs, bound, detail=f"beta={beta!r}")
    return report


def sierpinski_doob_pair(level: int, seed: int = 0):
    """A Doob pair on the unit Sierpinski gasket of the level, built as
    ``doob_pair_sample`` builds one: the killing that makes a random
    profile excessive, plus 0.02, then ``doob_pair``; on the edges, so that
    no n x n array is formed."""
    base = dk.generate("sierpinski", level)
    n = len(base.space)
    h = nonconstant_excessive_profile(rng_for(seed), n)
    i, j = base.edge_indices
    flow = base.weights * (h[j] - h[i])
    # (L h)(x) >= 0 needs c(x) >= sum_y b(x, y) (h(y) - h(x)) / h(x)
    required = (np.bincount(i, flow, n) - np.bincount(j, flow, n)) / h
    form1 = base._on_keys(base.space.m, base.weights, np.maximum(required, 0.0) + 0.02)
    return (form1, *dk.doob_pair(form1, h))


def oracle_doob_pair(form, h_excessive, tol: Tolerance = DEFAULT_TOL):
    """Oracle: the route that ``orderiso.doob_pair`` replaced.  It turns the
    edge keys into id strings and builds the partner from them with
    ``GraphForm._from_columns`` on a new ``MeasureSpace``, and the iso with
    the dict ``OrderIso`` constructor, whose beta is computed on first read.
    Its overflow warnings are off: the route warns before it refuses."""
    h = form.space.vector(h_excessive)
    if not 0.0 < h.min() <= h.max() < np.inf:
        raise NonPositive("the conjugating function must be strictly positive")
    if not dk.is_excessive(form, h, tol):
        raise NotExcessive("the conjugating function must be excessive")
    names = form.space.vertices
    i, j = form.edge_indices
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (h[i] * h[j] * form.weights).tolist()
        c2 = np.maximum(h * form.space.m * oracle_generator_times(form, h), 0.0)
        space2 = dk.MeasureSpace(names, h**2 * form.space.m)
        form2 = dk.GraphForm._from_columns(space2, *form.edge_ends(), weights, c2)
        return form2, dk.OrderIso(form.space, space2, dict(zip(names, names)),
                                  dict(zip(names, (1.0 / h).tolist())))


def doob_outcome(make, form, h):
    """What a Doob pair construction gives: every array of the partner and
    the iso with its dtype and bytes, beta's bits, the partner's ``b``,
    irreducibility and pair document, or the type and message of the
    exception it raised."""
    try:
        form2, iso = make(form, h)
    except Exception as exc:
        return type(exc), str(exc)
    with np.errstate(over="ignore"):  # the oracle's beta is computed here
        beta = iso.beta
    arrays = (form2.space.m, form2.edge_indices, form2.weights, form2.c,
              iso.tau_indices, iso.h_values)
    return (
        form2.space.vertices,
        [(a.dtype, a.shape, a.tobytes(), a.flags.writeable) for a in arrays],
        list(form2.b), np.array(list(form2.b.values())).tobytes(),
        iso.tau, beta.hex(), form2.irreducible,
        jsonio.document(jsonio.pair_to_obj(form, form2, iso)),
    )


def oracle_triangle_ok(d, bound: float) -> bool:
    """Oracle: the triangle inequality checked one pivot j at a time over the
    whole matrix, every gap d[i,k] - (d[i,j] + d[j,k]) against ``bound``."""
    gap = np.empty_like(d)
    for j in range(len(d)):
        np.add(d[:, j, None], d[j], out=gap)
        np.subtract(d, gap, out=gap)
        if gap.max() > bound:
            return False
    return True


def dense_canonical_distances(form):
    """Oracle: the canonical path metric from a dense n x n graph and an
    undirected shortest-path call.  scipy masks dense entries within about
    1e-8 of zero, so it drops every edge shorter than that."""
    deg = form.degrees
    with np.errstate(over="ignore"):
        weight = np.sqrt(form.space.m / np.where(deg > 0.0, deg, 1.0))
    lengths = np.minimum(weight[:, None], weight[None, :])
    graph = np.where(form.weight_matrix > 0.0, lengths, 0.0)
    return shortest_path(graph, method="D", directed=False, unweighted=False)


# ---------------------------------------------------------------------------
# Helpers that only the tests call; the package exports what the CLI and the
# certificates use.


def inner(space, f: np.ndarray, g: np.ndarray) -> float:
    """m-weighted inner product <f, g>_m."""
    return float(np.sum(space.m * f * g))


def norm(space, f: np.ndarray) -> float:
    return math.sqrt(inner(space, f, f))


def edge_weight(form, u: str, v: str) -> float:
    return form.b.get(_edge_key(u, v), 0.0)


def evaluate(form, f, g=None) -> float:
    """Evaluate the bilinear form Q(f, g); Q(f, f) when g is omitted."""
    fv = form.space.vector(f)
    gv = fv if g is None else form.space.vector(g)
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    # 0.5 compensates for each unordered edge appearing twice in W
    return float(0.5 * np.sum(form.weight_matrix * df * dg) + np.sum(form.c * fv * gv))


def form_norm(form, f) -> float:
    """The form norm (Q(f) + ||f||_2^2)^{1/2} on L^2(m)."""
    fv = form.space.vector(f)
    return math.sqrt(evaluate(form, fv) + inner(form.space, fv, fv))


def check_truncation(form, f, h, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float, bool]:
    """Energy bounds for truncations by an excessive function.

    Returns (Q(f ^ h), Q((f - h)_+), ok) where ok holds when both
    Q(f ^ h) <= Q(f) and Q((f - h)_+) <= 4 Q(f) within tolerance.
    """
    gen = generator(form)
    if not dk.is_excessive(gen, h, tol):
        raise NotExcessive("truncation bounds require an excessive h")
    fv = form.space.vector(f)
    hv = form.space.vector(h)
    qf = evaluate(form, fv)
    q_min = evaluate(form, np.minimum(fv, hv))
    q_plus = evaluate(form, np.maximum(fv - hv, 0.0))
    bound = tol.bound(max(1.0, abs(qf)))
    ok = q_min <= qf + bound and q_plus <= 4.0 * qf + bound
    return q_min, q_plus, bool(ok)


def operator_constant(iso) -> float:
    """Reference: the operator constant ||U||^2, the mean of
    h(y)^2 m2(y) / m1(tau(y)) as numpy sums one row."""
    return float(np.mean(iso.h_values**2 * iso.target.m / iso.source.m[iso.tau_indices]))


def iso_matrix(iso) -> np.ndarray:
    """The operator as a matrix (one nonzero per row)."""
    u = np.zeros((len(iso.target), len(iso.source)))
    u[np.arange(len(iso.target)), iso.tau_indices] = iso.h_values
    return u


def iso_inverse_matrix(iso) -> np.ndarray:
    v = np.zeros((len(iso.source), len(iso.target)))
    v[iso.tau_indices, np.arange(len(iso.target))] = 1.0 / iso.h_values
    return v


def apply(iso, f) -> np.ndarray:
    """Apply the weighted composition operator: (U f)(y) = h(y) f(tau(y))."""
    fv = iso.source.vector(f)
    return iso.h_values * fv[iso.tau_indices]


def adjoint(iso) -> np.ndarray:
    """Adjoint matrix: (U* g)(x) = m2(s(x)) h(s(x)) g(s(x)) / m1(x), s = tau^{-1}.

    Satisfies <U f, g>_{m2} = <f, U* g>_{m1}; it is itself positivity
    preserving.
    """
    sigma = np.argsort(iso.tau_indices)  # tau^{-1} as target indices
    weights = iso.target.m[sigma] * iso.h_values[sigma] / iso.source.m
    a = np.zeros((len(iso.source), len(iso.target)))
    a[np.arange(len(iso.source)), sigma] = weights
    return a


def reconstruct(space, data) -> dk.GraphForm:
    """Rebuild the form with conductances b = 2 J and killing c = k."""
    if space.vertices != data.vertices:
        raise MalformedInput("jump/killing data does not match the space")
    edges = {}
    for (x, y), value in data.J.items():
        if x < y:
            edges[(x, y)] = 2.0 * value
    return dk.GraphForm(space, edges, {v: data.k.get(v, 0.0) for v in space.vertices})


def truncated_form(form, phi, f) -> float:
    """The truncation Q(phi f) - Q(phi f^2, phi).

    Equals the phi-weighted jump energy of f,
    sum_{x != y} phi(x) phi(y) (f(x) - f(y))^2 J(x, y).
    """
    pv = form.space.vector(phi)
    fv = form.space.vector(f)
    return evaluate(form, pv * fv) - evaluate(form, pv * fv * fv, pv)


class NotMarkovian(DirikitError):
    """A conjugated generator left the Markovian class."""


def induced_killing(iso, form1, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
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


def resistance_maximizer(form, x: str, y: str) -> np.ndarray:
    """The energy-one potential attaining the resistance supremum.

    The optimizer is the Green potential f = G (e_x - e_y), whose energy is
    f(x) - f(y) = R(x, y), normalized to unit energy; |f(x) - f(y)|^2 then
    equals R(x, y), as accurate as the rounded diagonal of the form matrix.
    """
    green = _resistance_green(form)
    i, j = form.space.index(x), form.space.index(y)
    dipole = np.zeros(len(form.space))
    dipole[i], dipole[j] = 1.0, -1.0
    f = green @ dipole
    return f / math.sqrt(f[i] - f[j])


def random_function(rng: np.random.Generator, space, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=len(space))


# ---------------------------------------------------------------------------
# Oracle of the intrinsic-family certificate: the route that builds every
# sample metric as a matrix, pushes each one forward and takes the energy of
# each on its form.


def matrix_jump_energy(form, d):
    """Oracle of the per-vertex jump energy sum_y b(x,y) d(x,y)^2 of the
    matrix d as one masked n x n matrix summed by rows: off the edges b = 0,
    even where d^2 overflows to inf."""
    w = form.weight_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(np.where(w > 0.0, w * d**2, 0.0), axis=1)


def oracle_is_intrinsic(form, d, tol: Tolerance = DEFAULT_TOL):
    """The per-vertex bound sum_y b(x,y) d(x,y)^2 <= m(x) within ``tol.rel``
    times m(x), with the slack vector."""
    slack = form.space.m - matrix_jump_energy(form, d)
    return bool(np.all(slack >= -tol.rel * form.space.m)), slack


def boundary_factor(form, d):
    """The largest factor f with f * d intrinsic, min sqrt(m / energy) over
    the vertices of positive jump energy."""
    energy = matrix_jump_energy(form, d)
    positive = energy > 0.0
    with np.errstate(over="ignore"):  # an overflowing ratio is inf and not the minimum
        return float(np.min(np.sqrt(form.space.m[positive] / energy[positive])))


def default_metric_samples(form):
    """The canonical path metric and its inflation by 1.5, as matrices; a
    one-vertex form gets the first only."""
    canonical = dk.canonical_intrinsic_metric(form).d
    samples = [("canonical", canonical)]
    if len(form.space) > 1:
        samples.append(("inflated", 1.5 * canonical))
    return samples


def oracle_intrinsic_bijection(iso, form1, form2, tol: Tolerance = DEFAULT_TOL):
    """Oracle of ``verify_intrinsic_bijection``: each sample matrix and its
    pushforward judged by their own energies."""
    if not (dk.is_recurrent(form1) and dk.is_recurrent(form2)):
        raise NotRecurrent("the intrinsic-family comparison requires recurrent forms")
    require_intertwining(iso, form1, form2, tol)
    report = dk.VerificationReport()
    tau = iso.tau_indices
    for name, d in default_metric_samples(form1):
        ok1, slack1 = oracle_is_intrinsic(form1, d, tol)
        ok2, slack2 = oracle_is_intrinsic(form2, d[np.ix_(tau, tau)], tol)
        detail = f"source={'in' if ok1 else 'out'} target={'in' if ok2 else 'out'}"
        if ok1 != ok2:
            detail += (
                f"; source slack={np.array2string(slack1, precision=6)}"
                f" target slack={np.array2string(slack2, precision=6)}"
            )
        report.add(f"intrinsic_pushforward_{name}", 0.0 if ok1 == ok2 else 1.0, 0.5, detail=detail)
    return report
