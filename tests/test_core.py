import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

import dirikit as dk
from dirikit import jsonio
from dirikit.core import _INVERSE_LEAF
from dirikit.errors import (
    DimensionMismatch,
    DuplicateEdge,
    DuplicateVertex,
    InvalidSize,
    NegativeWeight,
    NonPositiveMeasure,
    NotIrreducible,
    NumericOverflow,
    SelfLoop,
    UnknownVertex,
)
from dirikit.sampling import doob_pair_sample, random_form, relabel_pair

from conftest import (
    PAST_LEAF,
    OracleGraphForm,
    construction_outcome,
    edge_weight,
    eigh_calls,
    evaluate,
    form_norm,
    inner,
    norm,
    oracle_offdiagonal_connected,
    oracle_green,
    pick,
    rng_for,
    spread_measure_path,
    unit_tail,
)


def k2():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])


def killed_pair():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})


class TestBuildForm:
    def test_k2(self):
        form = k2()
        assert len(form.space) == 2
        assert edge_weight(form, "a", "b") == 1.0
        assert edge_weight(form, "b", "a") == 1.0

    def test_single_killed_vertex(self):
        form = dk.build_form(["a"], 1.0, [], {"a": 1.0})
        assert len(form.b) == 0
        assert form.c[0] == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            dk.build_form(["a", "b"], 1.0, [("a", "a", 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0), ("b", "a", 2.0)])

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            dk.build_form(["a", "b"], 1.0, [("a", "c", 1.0)])

    def test_nonpositive_measure(self):
        with pytest.raises(NonPositiveMeasure):
            dk.build_form(["a"], 0.0, [])
        with pytest.raises(NonPositiveMeasure):
            dk.build_form(["a"], {"a": -1.0}, [])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            dk.build_form(["a", "b"], 1.0, [("a", "b", -1.0)])
        with pytest.raises(NegativeWeight):
            dk.build_form(["a", "b"], 1.0, [], {"a": -0.5, "b": 0.0})
        with pytest.raises(NegativeWeight):
            dk.build_form(["a", "b"], 1.0, [("a", "b", float("nan"))])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            dk.build_form(["a", "a"], 1.0, [])

    def test_empty_vertex_set(self):
        with pytest.raises(InvalidSize):
            dk.build_form([], 1.0, [])

    def test_zero_weight_edges_kept(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 0.0)])
        assert edge_weight(form, "a", "b") == 0.0


def test_measure_space_equality(monkeypatch):
    # a space is itself without comparing its arrays, as the certificate
    # guard finds it on the CLI path and for a Doob partner
    compared = []
    array_equal = np.array_equal

    def counted(*arrays):
        compared.append(arrays)
        return array_equal(*arrays)

    monkeypatch.setattr(np, "array_equal", counted)
    space = dk.MeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.5])
    assert space == space
    assert compared == []
    assert space == dk.MeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.5])
    assert len(compared) == 1
    assert space != dk.MeasureSpace(["a", "b", "c"], [1.0, 2.0, 0.25])
    assert space != dk.MeasureSpace(["a", "c", "b"], [1.0, 2.0, 0.5])


GOOD_WEIGHTS = (1.0, 0.5, 0.0, -0.0, 5e-324, 1.7e308, 0, 3, True, False,
                np.float64(1.5), np.float64(-0.0))
BAD_WEIGHTS = (-1.0, -5e-324, math.nan, math.inf, -math.inf, -2)
EDGE_FAULTS = ("unknown", "self-loop", "duplicate", "reversed", "weight")


def edge_case(rng):
    """A space of 1 to 40 vertices v0, v1, ... (so string order is not index
    order: v10 < v2) and up to 3n edges between distinct vertices, each in a
    random orientation with a float, -0.0, int, bool or numpy weight; often
    no edge at all.  Most cases are clean; the others carry one or three
    faults at random positions: an unknown endpoint, a self-loop, a repeat
    of an edge in the same or the other orientation, or a negative, NaN or
    infinite weight.  Passed as a list, or as a mapping keyed by the pair."""
    n = int(rng.integers(1, 41))
    names = [f"v{i}" for i in range(n)]
    space = dk.MeasureSpace(names, pick(rng, (1.0, 0.25, 3.0)))
    pairs = list(itertools.combinations(names, 2))
    count = 0 if rng.random() < 0.1 else int(rng.integers(0, min(3 * n, len(pairs)) + 1))
    edges = []
    for k in rng.permutation(len(pairs))[:count]:
        u, v = pairs[k] if rng.random() < 0.5 else pairs[k][::-1]
        edges.append((u, v, pick(rng, GOOD_WEIGHTS)))
    for _ in range(pick(rng, (0, 0, 0, 1, 1, 3))):
        fault, (u, v) = pick(rng, EDGE_FAULTS), pick(rng, pairs or [("v0", "v0")])
        if fault in ("duplicate", "reversed") and edges:
            u, v, _ = pick(rng, edges)
            edge = (u, v, 2.0) if fault == "duplicate" else (v, u, 2.0)
        elif fault == "unknown":
            edge = (u, "x", 1.0) if rng.random() < 0.5 else ("x", u, 1.0)
        elif fault == "self-loop":
            edge = (u, u, 1.0)
        else:
            edge = (u, v, pick(rng, BAD_WEIGHTS))
        edges.insert(int(rng.integers(len(edges) + 1)), edge)
    if rng.random() < 0.5:
        return space, {(u, v): w for u, v, w in edges}
    return space, edges


def shuffled_edges(rng, form):
    """The edges of a form in random order and orientation."""
    edges = [(u, v, w) for (u, v), w in form.b.items()]
    rng.shuffle(edges)
    return [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges]


def array_outcome(make, *args):
    """The edge index and weight arrays a form constructor leaves, with its
    ``construction_outcome``, or the type and message of the exception it
    raised."""
    try:
        form = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return form.edge_indices.tolist(), form.weights.tobytes(), construction_outcome(lambda: form)


class TestConstructionOracle:
    def test_same_form_or_error(self):
        outcomes = set()
        for seed in range(300):
            space, edges = edge_case(rng_for(seed))
            want = construction_outcome(OracleGraphForm, space, edges)
            assert construction_outcome(dk.GraphForm, space, edges) == want, seed
            outcomes.add(want[0] if isinstance(want[0], type) else "form")
        assert outcomes == {"form", UnknownVertex, SelfLoop, DuplicateEdge, NegativeWeight}

    def test_columns_mapping_and_triples_agree(self):
        # the column path against the oracle, and the constructor's mapping
        # and triple inputs against the column path, arrays included
        for seed in range(300):
            space, edges = edge_case(rng_for(seed))
            triples = [(u, v, w) for (u, v), w in edges.items()] if isinstance(edges, dict) \
                else edges
            columns = [list(column) for column in zip(*triples)] or [[], [], []]
            got = array_outcome(dk.GraphForm._from_columns, space, *columns)
            want = construction_outcome(OracleGraphForm, space, triples)
            assert (got if isinstance(got[0], type) else got[2]) == want, seed
            assert array_outcome(dk.GraphForm, space, triples) == got, seed
            mapping = {(u, v): w for u, v, w in triples}
            if len(mapping) == len(triples):
                assert array_outcome(dk.GraphForm, space, mapping) == got, seed

    def test_several_faults_raise_the_first(self):
        space = dk.MeasureSpace(["a", "b", "c"], 1.0)
        cases = [
            [("a", "b", 1.0), ("b", "a", -1.0), ("c", "c", 1.0)],
            [("a", "b", math.nan), ("a", "z", 1.0)],
            [("a", "b", 1.0), ("c", "b", 2), ("b", "c", math.inf), ("q", "q", -1.0)],
            [("z", "a", -1.0)],
            [("a", "z", True)],
        ]
        for edges in cases:
            want = construction_outcome(OracleGraphForm, space, edges)
            assert isinstance(want[0], type) and issubclass(want[0], Exception)
            assert construction_outcome(dk.GraphForm, space, edges) == want

    def test_random_forms(self):
        rng = rng_for(41)
        for n in (1, 2, 7, 40):
            form = random_form(rng, n)
            edges = shuffled_edges(rng, form)
            want = construction_outcome(OracleGraphForm, form.space, edges)
            assert construction_outcome(dk.GraphForm, form.space, edges) == want

    def test_workload_scale(self):
        # a recurrent random form of the certify workload's size, and the
        # level-5 gasket on a space whose index order is not string order
        rng = rng_for(160)
        form = random_form(rng, 160, recurrent=True)
        gasket = dk.generate("sierpinski", 5)
        permuted = dk.MeasureSpace(rng.permutation(gasket.space.vertices).tolist(), 1.0)
        for space, edges in ((form.space, shuffled_edges(rng, form)),
                             (permuted, shuffled_edges(rng, gasket))):
            for b in (edges, {(u, v): w for u, v, w in edges}):
                want = construction_outcome(OracleGraphForm, space, b)
                assert len(want[0]) == len(edges)
                assert construction_outcome(dk.GraphForm, space, b) == want


def edges_connected(coupling: np.ndarray) -> bool:
    """``core._edges_connected`` on the edges of the nonzero entries above
    the diagonal of the symmetric ``coupling``."""
    i, j = np.nonzero(np.triu(coupling != 0.0, 1))
    return dk.core._edges_connected(len(coupling), i, j)


class TestConnectivityOracle:
    def test_random_couplings(self):
        # sparse symmetric couplings, as a weight matrix is
        verdicts = set()
        for seed in range(200):
            rng = rng_for(seed)
            n = int(rng.integers(1, 30))
            coupling = np.triu(np.where(rng.random((n, n)) < rng.uniform(0.0, 3.0 / n),
                                        rng.uniform(-1.0, 1.0, (n, n)), 0.0), 1)
            coupling += coupling.T
            want = oracle_offdiagonal_connected(coupling)
            assert edges_connected(coupling) == want, seed
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_single_vertex(self):
        for value in (0.0, 2.0):
            assert edges_connected(np.array([[value]]))

    def test_two_components(self):
        block = np.ones((3, 3)) - np.eye(3)
        coupling = np.zeros((6, 6))
        coupling[:3, :3] = coupling[3:, 3:] = block
        assert not oracle_offdiagonal_connected(coupling)
        assert not edges_connected(coupling)
        coupling[4, 1] = coupling[1, 4] = 1e-300
        assert edges_connected(coupling)

    def test_long_path(self):
        # the longest path under the cap, in vertex order (one round of
        # hooking), shuffled and bit-reversed (12 rounds), whole and cut
        n = dk.core.MAX_VERTICES
        bits = n.bit_length() - 1
        reversed_bits = np.array([int(format(k, f"0{bits}b")[::-1], 2) for k in range(n)])
        for order in (np.arange(n), rng_for(71).permutation(n), reversed_bits):
            i, j = order[:-1], order[1:]
            path = np.zeros((n, n), dtype=bool)
            path[i, j] = path[j, i] = True
            assert oracle_offdiagonal_connected(path)
            assert edges_connected(path)
            assert dk.core._edges_connected(n, i, j) and dk.core._edges_connected(n, j, i)
            cut = np.arange(n - 1) != n // 2
            path[i[~cut], j[~cut]] = path[j[~cut], i[~cut]] = False
            assert not oracle_offdiagonal_connected(path)
            assert not edges_connected(path)
            assert not dk.core._edges_connected(n, i[cut], j[cut])


class TestEvaluate:
    def test_k2_indicator(self):
        assert evaluate(k2(), [1.0, 0.0]) == pytest.approx(1.0)

    def test_constant_on_recurrent(self):
        form = dk.generate("cycle", 5)
        assert evaluate(form, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_killed_pair_indicator(self):
        form = killed_pair()
        value = evaluate(form, [1.0, 0.0])
        assert value == pytest.approx(2.0)
        # cross-check against the generator route
        gen = dk.generator(form)
        f = np.array([1.0, 0.0])
        assert inner(form.space, gen.L @ f, f) == pytest.approx(value)

    def test_symmetry_and_bilinearity(self):
        rng = rng_for(11)
        form = dk.build_form(
            ["x", "y", "z"],
            {"x": 1.0, "y": 2.0, "z": 0.5},
            [("x", "y", 1.5), ("y", "z", 0.3)],
            {"x": 0.2, "y": 0.0, "z": 0.0},
        )
        f = rng.normal(size=3)
        g = rng.normal(size=3)
        assert evaluate(form, f, g) == pytest.approx(evaluate(form, g, f))
        assert evaluate(form, 2.0 * f, g) == pytest.approx(2.0 * evaluate(form, f, g))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(k2(), [1.0, 0.0, 3.0])
        with pytest.raises(DimensionMismatch):
            evaluate(k2(), {"a": 1.0})


class TestGenerator:
    def test_form_caches_its_generator_and_spectrum(self):
        form = killed_pair()
        assert dk.generator(form) is form
        # L is built on each read, read-only, and S and the spectrum are cached
        assert form.L is not form.L and np.array_equal(form.L, form.L)
        assert not form.L.flags.writeable and "L" not in vars(form)
        assert form.symmetric is form.symmetric
        assert form.spectrum is form.spectrum
        assert not hasattr(dk, "Generator")
        # no eigenvector is cached: nothing in the library reads one twice
        assert not hasattr(dk.GraphForm, "spectral")

    def test_k2(self):
        gen = dk.generator(k2())
        assert np.allclose(gen.L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_killed_pair(self):
        gen = dk.generator(killed_pair())
        assert np.allclose(gen.L, [[2.0, -1.0], [-1.0, 1.0]])

    def test_nonuniform_measure(self):
        form = dk.build_form(
            ["a", "b"], {"a": 1.0, "b": 4.0}, [("a", "b", 2.0)], {"a": 0.0, "b": 2.0}
        )
        gen = dk.generator(form)
        assert np.allclose(gen.L, [[2.0, -2.0], [-0.5, 1.0]])

    def test_m_symmetry_and_gram_identity(self):
        rng = rng_for(5)
        for _ in range(10):
            from dirikit.sampling import random_form

            form = random_form(rng, int(rng.integers(2, 8)))
            gen = dk.generator(form)
            m = form.space.m
            weighted = m[:, None] * gen.L
            assert np.allclose(weighted, weighted.T, rtol=1e-12, atol=1e-12)
            n = len(form.space)
            basis = np.eye(n)
            for i in range(n):
                for j in range(n):
                    lhs = inner(form.space, gen.L @ basis[i], basis[j])
                    rhs = evaluate(form, basis[i], basis[j])
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_positive_semidefinite(self):
        rng = rng_for(6)
        from dirikit.sampling import random_form

        for _ in range(10):
            form = random_form(rng, 6)
            gen = dk.generator(form)
            f = rng.normal(size=6)
            assert inner(form.space, gen.L @ f, f) >= -1e-10


# every array that a form stores or caches, as a path from the form
# (``_key_order`` is the sort of the edge columns that the form was read from)
FORM_ARRAYS = ("space.m", "edge_indices", "weights", "_key_order", "c", "weight_matrix",
               "degrees", "form_diagonal", "generator_diagonal", "form_matrix", "L", "symmetric",
               "spectrum", "green")


def doob_partner():
    form = random_form(rng_for(53), 6, recurrent=False)
    return dk.doob_pair(form, dk.find_nonconstant_excessive(form))[0]


def same_graph_second_graph():
    pair = jsonio.pair_to_obj(*doob_pair_sample(rng_for(52), 6))
    form1, form2, _ = jsonio.pair_from_obj(jsonio.loads(jsonio.document(pair)))
    assert form2._same_graph is form1
    return form2


# every route that constructs a form: through the edge columns, from a
# relabelled copy's columns, and on another form's edge keys (``_on_keys``)
FORM_ROUTES = {
    "generate": lambda: dk.generate("path", 4),
    "relabel copy": lambda: relabel_pair(rng_for(51), dk.generate("path", 4))[0],
    "same-graph g2": same_graph_second_graph,
    "doob partner": doob_partner,
    "doob sample g1": lambda: doob_pair_sample(rng_for(54), 6)[0],
}


def test_doob_sample_shares_the_weight_matrix():
    # the first form has its source's weights array and reads the
    # source's connectivity; neither form caches a W
    form1, _, _ = doob_pair_sample(rng_for(55), 12)
    source = form1._same_graph
    assert form1.weights is source.weights
    assert "irreducible" not in vars(source) and form1.irreducible


@pytest.mark.parametrize("path", FORM_ARRAYS)
def test_form_arrays_are_read_only(path):
    # a write into a cache would change every later result that reads it
    for route, make in FORM_ROUTES.items():
        form = make()
        array = operator.attrgetter(path)(form)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
        assert np.array_equal(operator.attrgetter(path)(form), before), route


def spectrum_form(seed):
    """A seeded form of 1 to 30 vertices (one in ten has one vertex) with
    conductances, killing and measures log-uniform over 10^-6 .. 10^6;
    one in four has every measure 1e-16 instead."""
    rng = rng_for(seed)
    n = 1 if seed % 10 == 0 else int(rng.integers(2, 31))
    base = random_form(rng, n)

    def spread(size):
        return 10.0 ** rng.uniform(-6.0, 6.0, size)

    m = np.full(n, 1e-16) if seed % 4 == 1 else spread(n)
    edges = list(zip(*base.edge_ends(), base.weights * spread(len(base.weights))))
    return dk.build_form(base.space.vertices, m, edges, base.c * spread(n))


class TestSpectrum:
    def test_cached_read_only_and_ascending(self):
        form = spectrum_form(3)
        assert form.spectrum is form.spectrum
        assert not form.spectrum.flags.writeable
        assert np.all(np.diff(form.spectrum) >= 0.0)

    def test_within_the_rounding_allowance_of_eigh(self):
        # the allowance of spectra_match: 8 n eps max|w| per eigenvalue
        for seed in range(100):
            form = spectrum_form(seed)
            w, full = form.spectrum, dk.spectral_data(form).eigenvalues
            n = len(form.space)
            assert w.shape == (n,) and np.all(np.diff(w) >= 0.0)
            allowance = 8.0 * n * np.finfo(float).eps * max(np.max(np.abs(w)),
                                                            np.max(np.abs(full)))
            assert np.all(np.abs(w - full) <= allowance), seed

    def test_builds_no_eigenvectors(self, monkeypatch):
        eigh_calls(monkeypatch, fail=True)
        form = spectrum_form(7)
        assert len(form.spectrum) == len(form.space)
        with pytest.raises(AssertionError, match="eigh called"):
            dk.spectral_data(form)


def green_form(family: str, n: int) -> dk.GraphForm:
    if family == "sierpinski":
        return dk.generate("sierpinski", n)
    return random_form(rng_for(n), n, recurrent=True)


def two_blocks(tail: int, bridge: float | None, killed: str) -> dk.GraphForm:
    """a - b and c - d, unit edges, joined by b - c of weight ``bridge``
    (None: no edge), with a unit path of ``tail`` vertices hung from a and
    unit killing at the vertices named in ``killed``."""
    names, edges = unit_tail("a", tail)
    vertices = names + ["a", "b", "c", "d"]
    edges += [("a", "b", 1.0), ("c", "d", 1.0)] + [("b", "c", bridge)] * (bridge is not None)
    return dk.build_form(vertices, 1.0, edges, [float(v in killed) for v in vertices])


def killed_at_first(form: dk.GraphForm, c: float = 1.0) -> dk.GraphForm:
    """The form on the same edge keys with killing c at its first vertex only."""
    killing = np.zeros(len(form.space))
    killing[0] = c
    return form._on_keys(form.space.m, form.weights, killing)


class TestGreen:
    # grounded orders leaf - 1, leaf and leaf + 1, an odd one whose halves
    # are a leaf and a block, 122 (Sierpinski L4), 365 (L5) and 159
    @pytest.mark.parametrize("family, n", [
        ("random", _INVERSE_LEAF), ("random", _INVERSE_LEAF + 1), ("random", _INVERSE_LEAF + 2),
        ("random", 2 * _INVERSE_LEAF + 2), ("sierpinski", 4), ("sierpinski", 5), ("random", 160),
    ])
    def test_matches_one_inv_call(self, family, n):
        form = green_form(family, n)
        green, oracle = form.green, oracle_green(form)
        assert not green.flags.writeable
        if len(form.space) <= _INVERSE_LEAF + 1:
            assert np.array_equal(green, oracle)  # the same inv call
        assert np.max(np.abs(green - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("tail", [0, PAST_LEAF])
    def test_singular_in_a_leaf(self, tail):
        # c - d hangs on b by a bridge of 1e-300, which rounds out of every
        # degree: the form is irreducible, but the c - d block of the
        # grounded matrix is singular in floating point, and so is the leaf
        # that holds it
        form = two_blocks(tail, 1e-300, "")
        assert form.irreducible
        with pytest.raises(NumericOverflow, match="^grounded form matrix is singular"):
            form.green

    @pytest.mark.parametrize("tail", [0, PAST_LEAF])
    def test_singular_in_a_leaf_killed(self, tail):
        # as above with c(a) = 1: F itself is singular in floating point
        form = two_blocks(tail, 1e-300, "a")
        assert form.irreducible and not form.recurrent
        with pytest.raises(NumericOverflow, match="^form matrix is singular"):
            form.green

    @pytest.mark.parametrize("tail", [0, PAST_LEAF])
    def test_second_component_is_not_irreducible(self, tail):
        with pytest.raises(NotIrreducible, match="^the grounded Green function needs"):
            two_blocks(tail, None, "").green

    @pytest.mark.parametrize("tail", [0, PAST_LEAF])
    def test_second_component_killed_is_not_irreducible(self, tail):
        # with killing on both components F is invertible, but the form is
        # not irreducible
        with pytest.raises(NotIrreducible, match="^the Green function needs"):
            two_blocks(tail, None, "ac").green

    def test_interleaved_paths_raise_before_inverting(self, monkeypatch):
        # two unit paths over 100 interleaved vertices: rounding leaves the
        # pivots of the grounded matrix tiny but nonzero, so one inv call
        # returns finite values of 5e14 to 2e15, and neither LinAlgError
        # nor the finite check fires
        monkeypatch.setattr("dirikit.core._symmetric_inverse", None)  # not reached
        names = [f"v{i}" for i in range(100)]
        for seed in range(20):
            order = rng_for(seed).permutation(100)
            edges = [(names[path[k]], names[path[k + 1]], 1.0)
                     for path in (order[:50], order[50:]) for k in range(49)]
            form = dk.build_form(names, 1.0, edges)
            with pytest.raises(NotIrreducible, match="Green function"):
                form.green

    @staticmethod
    def l5_peak(killing: float) -> float:
        """The traced peak of Sierpinski L5's ``green``, c = ``killing`` at
        its first vertex, in units of 8 n^2 bytes."""
        form = killed_at_first(dk.generate("sierpinski", 5), killing)
        form.form_diagonal
        n = len(form.space)
        tracemalloc.start()
        try:
            form.green
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * n * n)

    def test_l5_peak(self):
        # the grounded matrix, scattered from the edges, and its inverse with
        # the temporaries of the top split, then the inverse and the result;
        # measured 2.75 times 8 n^2 bytes (2.99 for one inv call of the
        # gathered matrix)
        assert self.l5_peak(0.0) <= 2.8

    def test_l5_peak_transient(self):
        # F^-1 is the result, nothing to put back: measured 2.76
        assert self.l5_peak(1.0) <= 2.8

    @pytest.mark.parametrize("family, n", [
        ("random", 1), ("random", 2), ("random", _INVERSE_LEAF), ("random", _INVERSE_LEAF + 1),
        ("random", 2 * _INVERSE_LEAF + 3), ("sierpinski", 4), ("sierpinski", 5), ("random", 160),
    ])
    def test_transient_is_the_inverse_of_f(self, family, n):
        # F^-1, entrywise positive on an irreducible form, with F G - I
        # within 2 n eps ||F|| ||G|| in the max row-sum norm (measured at
        # most 0.04 of it); nothing grounded
        form = killed_at_first(green_form(family, n))
        green, f, size = form.green, form.form_matrix, len(form.space)
        assert not green.flags.writeable and green.shape == (size, size)
        assert (green > 0.0).all()
        bound = (2 * size * np.finfo(float).eps
                 * np.linalg.norm(f, np.inf) * np.linalg.norm(green, np.inf))
        assert np.max(np.abs(f @ green - np.eye(size))) <= bound

    def test_transient_two_vertices(self):
        # a - b with b = 1, m = (1, 2) and c(a) = 1: F = [[2, -1], [-1, 1]],
        # whose inverse [[1, 1], [1, 2]] is exact in floating point; the
        # measure plays no part
        form = dk.build_form(["a", "b"], [1.0, 2.0], [("a", "b", 1.0)], [1.0, 0.0])
        assert form.green.tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_transient_one_vertex(self):
        form = dk.build_form(["a"], 2.0, [], 4.0)
        assert form.green.tolist() == [[0.25]]


class TestOverflow:
    def test_generator(self):
        # b / m = 1e300 / 1e-300
        form = dk.build_form(["a", "b", "c"], 1e-300, [("a", "b", 1e300), ("b", "c", 1e300)])
        with pytest.raises(NumericOverflow):
            dk.generator(form)

    def test_degree(self):
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.5e308), ("b", "c", 1.5e308)])
        with pytest.raises(NumericOverflow):
            form.form_matrix

    def test_symmetrized_generator(self):
        # L is finite, but L + L^T in the symmetrization is 3e308
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.5e308), ("b", "c", 1.0)])
        gen = dk.generator(form)
        with pytest.raises(NumericOverflow):
            dk.spectral_data(gen)
        with pytest.raises(NumericOverflow):
            gen.spectrum

    def test_symmetrized_diagonal_past_half_the_range(self):
        # L is finite with L[a, a] = 1e308, but S + S^T is not: S is refused
        # on its diagonal alone, as every edge value is -1
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1e308, "b": 0.0})
        assert np.isfinite(dk.generator(form).L).all() and form.L[0, 0] == 1e308
        with pytest.raises(NumericOverflow, match="symmetrized generator"):
            form.symmetric

    def test_measure_ratio_past_the_range_off_the_edges(self):
        # v0 - v1 - v2 with m = 5e-324, 1, 1.7e308: sqrt(m(v2)) / sqrt(m(v0))
        # leaves the float range, but v0 and v2 share no edge, so S is
        # finite, and so are the spectrum, the semigroup and the search
        form = spread_measure_path()
        s = form.symmetric
        assert np.isfinite(s).all() and s[0, 2] == s[2, 0] == 0.0
        assert np.array_equal(s, s.T)
        assert np.isfinite(form.spectrum).all() and form.spectrum[0] == 0.0
        assert np.isfinite(dk.spectral_data(form).eigenvalues).all()
        assert np.isfinite(dk.semigroup(form, 1.0)).all()
        verdict = dk.equivalence_verdict(form, form)
        assert verdict.equivalent
        assert [iso.tau for iso in verdict.solutions] == [{v: v for v in form.space.vertices}]

    def test_zero_weight_key_past_the_measure_ratio(self):
        # the key (v0, v2) of weight 0 is an edge value of S, where
        # (0.0 - 0) / m(v0) sqrt(m(v0)) / sqrt(m(v2)) is 0 x inf: S is 0.0
        # there, so the form has the keyless form's S and spectrum
        form, keyless = spread_measure_path(zero_key=True), spread_measure_path()
        assert form.b[("v0", "v2")] == 0.0
        assert form.symmetric.tobytes() == keyless.symmetric.tobytes()
        assert form.spectrum.tobytes() == keyless.spectrum.tobytes()
        verdict = dk.equivalence_verdict(form, form)
        assert [iso.tau for iso in verdict.solutions] == [{v: v for v in form.space.vertices}]


class TestFormNorm:
    def test_zero(self):
        assert form_norm(k2(), 0.0) == 0.0

    def test_k2_indicator(self):
        assert form_norm(k2(), [1.0, 0.0]) == pytest.approx(math.sqrt(2.0))

    def test_constant_on_recurrent(self):
        form = dk.build_form(["a", "b", "c"], {"a": 1.0, "b": 2.0, "c": 3.0},
                             [("a", "b", 1.0), ("b", "c", 1.0)])
        assert form_norm(form, 1.0) == pytest.approx(math.sqrt(6.0))

    def test_dominates_l2_norm(self):
        rng = rng_for(7)
        form = dk.generate("cycle", 4)
        for _ in range(20):
            f = rng.normal(size=4)
            assert form_norm(form, f) >= norm(form.space, f) - 1e-12


class TestGenerate:
    def test_path(self):
        form = dk.generate("path", 3)
        assert len(form.space) == 3
        assert len(form.b) == 2

    def test_path_single_vertex(self):
        form = dk.generate("path", 1)
        assert len(form.space) == 1 and len(form.b) == 0

    def test_cycle(self):
        form = dk.generate("cycle", 5)
        assert len(form.b) == 5
        assert all(w == 1.0 for w in form.b.values())

    def test_complete(self):
        form = dk.generate("complete", 4)
        assert len(form.b) == 6

    def test_params_override(self):
        form = dk.generate("path", 2, conductance=3.0, measure=0.5)
        assert list(form.b.values()) == [3.0]
        assert np.all(form.space.m == 0.5)

    def test_sierpinski_level0_is_triangle(self):
        form = dk.generate("sierpinski", 0)
        assert len(form.space) == 3
        assert len(form.b) == 3

    def test_sierpinski_level1(self):
        form = dk.generate("sierpinski", 1)
        assert len(form.space) == 6
        assert len(form.b) == 9
        # the three glued triangles share the three midpoint vertices
        degrees = sorted(int(d) for d in form.degrees)
        assert degrees == [2, 2, 2, 4, 4, 4]

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_sierpinski_counts(self, level):
        form = dk.generate("sierpinski", level)
        assert len(form.space) == 3 * (3**level + 1) // 2
        assert len(form.b) == 3 ** (level + 1)
        corners = dk.sierpinski_corners(level)
        for corner in corners:
            assert corner in form.space.vertices

    def test_invalid_sizes(self):
        with pytest.raises(InvalidSize):
            dk.generate("path", 0)
        with pytest.raises(InvalidSize):
            dk.generate("cycle", 2)
        with pytest.raises(InvalidSize):
            dk.generate("sierpinski", -1)
        with pytest.raises(InvalidSize):
            dk.generate("moebius", 3)

    def test_vertex_cap(self):
        cap = dk.core.MAX_VERTICES
        names = [f"v{i}" for i in range(cap + 1)]
        assert len(dk.MeasureSpace(names[:cap], 1.0)) == cap
        with pytest.raises(InvalidSize, match=f"^{cap + 1} vertices exceed the cap of {cap}$"):
            dk.MeasureSpace(names, 1.0)
        # the largest gasket under the cap: level 7, 3282 vertices
        assert len(dk.generate("sierpinski", 7).space) == 3282
        with pytest.raises(InvalidSize, match="^sierpinski level 8 exceeds"):
            dk.generate("sierpinski", 8)


class TestMarkovProperty:
    def test_unit_contraction_random(self):
        rng = rng_for(13)
        from dirikit.sampling import random_form

        for _ in range(5):
            form = random_form(rng, int(rng.integers(2, 8)))
            for _ in range(100):
                f = rng.normal(scale=2.0, size=len(form.space))
                clamped = np.clip(f, 0.0, 1.0)
                assert evaluate(form, clamped) <= evaluate(form, f) + 1e-10

    def test_unit_contraction_hypothesis(self):
        for seed in range(60):
            rng = rng_for(seed)
            # each entry a range end now and then, as the edges of a float draw
            values = np.where(rng.random(4) < 0.2, rng.choice([-5.0, 0.0, 1.0, 5.0], 4),
                              rng.uniform(-5.0, 5.0, 4))
            weights = np.where(rng.random(4) < 0.2, rng.choice([0.0, 3.0], 4),
                               rng.uniform(0.0, 3.0, 4))
            edges = [("a", "b", weights[0]), ("b", "c", weights[1]),
                     ("c", "d", weights[2]), ("a", "d", weights[3])]
            form = dk.build_form(["a", "b", "c", "d"], 1.0, edges)
            clamped = np.clip(values, 0.0, 1.0)
            assert evaluate(form, clamped) <= evaluate(form, values) + 1e-9, seed
