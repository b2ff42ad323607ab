import collections
import contextlib
import io
import itertools
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import dirikit as dk
from dirikit.errors import InvalidSize, NonPositive, NotIntertwining, NotIrreducible
from dirikit import cli, jsonio, metrics, search
from dirikit.orderiso import require_intertwining
from dirikit.sampling import (
    doob_pair_sample,
    nonconstant_excessive_profile,
    random_form,
    random_intertwined_pair,
    relabel_pair,
)
from dirikit.search import SearchOptions, residual_bound, spectra_match

from conftest import (
    _oracle_search,
    brute_force_intertwiners,
    eigh_calls,
    l_only_intertwiners,
    operator_constant,
    pick,
    rng_for,
    subordinate,
    tau_signature,
    vf2_intertwiners,
)
from test_orderiso import search_pairs

WIDE = SearchOptions(max_solutions=10**6)


def killed_pair():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})


class TestFindIntertwiners:
    def test_unit_path_has_identity_and_reflection(self):
        form = dk.generate("path", 3)
        found = dk.find_intertwiners(form, form, WIDE)
        assert [tau_signature(s) for s in found] == [
            ("v0", "v1", "v2"),
            ("v2", "v1", "v0"),
        ]
        assert all(s.beta == pytest.approx(1.0) for s in found)

    def test_asymmetric_measure_kills_reflection(self):
        form = dk.build_form(
            ["v0", "v1", "v2"], {"v0": 1.0, "v1": 2.0, "v2": 3.0},
            [("v0", "v1", 1.0), ("v1", "v2", 1.0)],
        )
        found = dk.find_intertwiners(form, form, WIDE)
        assert [tau_signature(s) for s in found] == [("v0", "v1", "v2")]

    def test_doob_partner_unique_witness(self):
        form = killed_pair()
        partner, _ = dk.doob_pair(form, [1.0, 2.0])
        found = dk.find_intertwiners(form, partner, WIDE)
        assert len(found) == 1
        assert found[0].tau == {"a": "a", "b": "b"}
        assert found[0].h["a"] == pytest.approx(1.0)
        assert found[0].h["b"] == pytest.approx(0.5)

    def test_size_mismatch_returns_empty(self):
        k2 = dk.generate("complete", 2)
        p3 = dk.generate("path", 3)
        assert dk.find_intertwiners(k2, p3, WIDE) == []

    def test_requires_irreducible(self):
        disconnected = dk.build_form(["a", "b"], 1.0, [])
        with pytest.raises(NotIrreducible):
            dk.find_intertwiners(disconnected, disconnected, WIDE)

    def test_soundness_results_certify(self):
        rng = rng_for(51)
        for _ in range(8):
            form1 = random_form(rng, int(rng.integers(2, 7)))
            form2, _ = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            for iso in dk.find_intertwiners(form1, form2, WIDE):
                report = dk.certify(iso, form1, form2)
                assert report.verdict

    def test_completeness_against_brute_force(self):
        rng = rng_for(52)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            form1 = random_form(rng, n)
            roll = rng.random()
            if roll < 0.4:
                form2, _ = relabel_pair(rng, form1)
            elif roll < 0.6:
                form1, form2, _ = doob_pair_sample(rng, n)
            else:
                form2 = random_form(rng, n, prefix="w")
            found = dk.find_intertwiners(form1, form2, WIDE)
            oracle = brute_force_intertwiners(form1, form2, WIDE)
            assert [tau_signature(s) for s in found] == [
                tau_signature(s) for s in oracle
            ]

    def test_unsorted_vertex_storage_order(self):
        # vertex storage order differs from lexicographic order; results
        # must still come out lexicographic in the tau sequence
        form = dk.build_form(["b", "a", "c"], 1.0, [("b", "a", 1.0), ("a", "c", 1.0)])
        found = dk.find_intertwiners(form, form, WIDE)
        assert [tau_signature(s) for s in found] == [
            ("a", "b", "c"),
            ("a", "c", "b"),
        ]
        oracle = brute_force_intertwiners(form, form, WIDE)
        assert [tau_signature(s) for s in oracle] == [tau_signature(s) for s in found]

    def test_trailing_nul_ids_keep_python_string_order(self):
        # numpy's fixed-width strings drop trailing NULs, so "a\x00" and "a"
        # would tie there; Python orders "a" < "a\x00" < "b"
        names = ["a\x00", "a", "b"]
        form = dk.build_form(names, 1.0, [(u, v, 1.0) for u, v in itertools.combinations(names, 2)])
        found = dk.find_intertwiners(form, form)
        assert [tau_signature(s) for s in found] == sorted(itertools.permutations(sorted(names)))

    def test_symmetric_graph_enumerates_all_automorphisms(self):
        form = dk.generate("complete", 4)
        found = dk.find_intertwiners(form, form, WIDE)
        assert len(found) == 24
        signatures = [tau_signature(s) for s in found]
        assert signatures == sorted(signatures)

    def test_default_tolerance(self):
        # the default bound is 1e-8 sqrt(s(y)) sqrt(s(z)) at the entry (y, z),
        # s the diagonal of L2, bit for bit, and an explicit Tolerance(1e-8)
        # finds the same solutions
        explicit = SearchOptions(tol=dk.Tolerance(rel=1e-8))
        assert SearchOptions() == explicit
        rng = rng_for(56)
        for _ in range(10):
            form1, form2, _ = doob_pair_sample(rng, int(rng.integers(2, 7)))
            root = np.sqrt(np.diag(dk.generator(form2).L))
            assert np.array_equal(residual_bound(form2, SearchOptions()),
                                  1e-8 * np.outer(root, root))
            got = dk.find_intertwiners(form1, form2)
            want = dk.find_intertwiners(form1, form2, explicit)
            assert [(s.tau, s.h, s.beta) for s in got] == [(s.tau, s.h, s.beta) for s in want]
            assert got

    def test_max_solutions_cap(self):
        form = dk.generate("complete", 4)
        capped = dk.find_intertwiners(form, form, SearchOptions(max_solutions=5))
        full = dk.find_intertwiners(form, form, WIDE)
        assert [tau_signature(s) for s in capped] == [
            tau_signature(s) for s in full[:5]
        ]

    @pytest.mark.parametrize("cap", [0, -3, 1.5, float("nan"), float("inf"), 2.0, True, "3", None])
    def test_max_solutions_must_be_a_positive_int(self, cap):
        # a float cap was never reached: 1.5 and NaN returned all 120
        # intertwiners of K5
        with pytest.raises(InvalidSize):
            SearchOptions(max_solutions=cap)

    def test_deterministic(self):
        rng = rng_for(53)
        form1 = random_form(rng, 6)
        form2, _ = relabel_pair(rng, form1)
        first = dk.find_intertwiners(form1, form2, WIDE)
        second = dk.find_intertwiners(form1, form2, WIDE)
        as_tuples = lambda sols: [
            (tau_signature(s), tuple(s.h[y] for y in sorted(s.h))) for s in sols
        ]
        assert as_tuples(first) == as_tuples(second)

    def test_wide_spectrum_keeps_witness(self):
        # eigenvalues over 12 orders of magnitude: the small ones are off by
        # the rounding of the large ones, which the spectral filter allows
        for seed in range(12):
            rng = rng_for(seed)
            form1 = spread_form(rng, int(rng.integers(10, 30)), 6.0, False)
            form2, witness = relabel_pair(rng, form1, scale=float(10 ** rng.uniform(-3, 3)))
            found = dk.find_intertwiners(form1, form2, WIDE)
            assert tau_signature(witness) in [tau_signature(s) for s in found]

    def test_large_scaling_finds_the_witness(self):
        # b, c and m of the target are 1e-20 times the source's, so h = 1e10,
        # which the search's unit-free bounds do not see
        rng = np.random.Generator(np.random.PCG64(5))
        form1 = random_form(rng, 8)
        form2, witness = relabel_pair(rng, form1, scale=1e-20)
        found = dk.find_intertwiners(form1, form2, WIDE)
        assert [tau_signature(s) for s in found] == [tau_signature(witness)]
        assert found[0].h == pytest.approx(witness.h, rel=1e-12)

    def test_spectral_pruning_keeps_witness(self):
        rng = rng_for(54)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                form1 = random_form(rng, n)
                form2, witness = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            else:
                form1, form2, witness = doob_pair_sample(rng, n)
            found = dk.find_intertwiners(form1, form2, WIDE)
            assert tau_signature(witness) in [tau_signature(s) for s in found]


def signatures_and_h(isos):
    return [(tau_signature(s), tuple(s.h[y] for y in sorted(s.h))) for s in isos]


class TestSubnormalConductances:
    # the largest rate of S2 is subnormal, so the resolvents' 1 / lambda
    # leaves the float range: the search goes without them, quietly
    @pytest.mark.parametrize("conductance", [1e-310, 1e-320])
    @pytest.mark.parametrize("family, n, count", [
        ("path", 4, 2), ("cycle", 5, 10), ("complete", 4, 24), ("complete", 6, 720),
        ("sierpinski", 1, 6)])
    def test_same_solutions_as_unit_conductances(self, family, n, count, conductance):
        form = dk.generate(family, n, conductance=conductance)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = dk.equivalence_verdict(form, form, WIDE)
        unit = dk.generate(family, n)
        assert [s.tau for s in verdict.solutions] == \
            [s.tau for s in dk.find_intertwiners(unit, unit, WIDE)]
        assert len(verdict.solutions) == count

    def test_no_resolvent_layer(self, monkeypatch):
        # lambda = max s / 100 = 5e-312, whose inverse is past the float range
        form = dk.generate("complete", 6, conductance=1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert search._resolvents(form, form, WIDE.tol.rel) is None
        normal = dk.generate("complete", 6, conductance=1e-300)
        assert search._resolvents(normal, normal, WIDE.tol.rel) is not None

        def singular(matrix):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        assert search._resolvents(normal, normal, WIDE.tol.rel) is None
        assert len(dk.find_intertwiners(normal, normal, WIDE)) == 720


class TestForwardCheckedSearch:
    @pytest.mark.parametrize("kind", ["random", "relabel", "doob", "complete"])
    def test_cap_is_prefix_of_brute_force(self, kind):
        rng = rng_for(56)
        for n in (4, 5, 6, 7):
            if kind == "random":
                form1, form2 = random_form(rng, n), random_form(rng, n, prefix="w")
            elif kind == "relabel":
                form1 = random_form(rng, n)
                form2, _ = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            elif kind == "doob":
                form1, form2, _ = doob_pair_sample(rng, n)
            else:
                form1 = dk.generate("complete", n, conductance=float(rng.uniform(0.5, 2.0)))
                form2, _ = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            oracle = signatures_and_h(brute_force_intertwiners(form1, form2, WIDE))
            for cap in (1, 2, 5):
                found = dk.find_intertwiners(form1, form2, SearchOptions(max_solutions=cap))
                assert signatures_and_h(found) == oracle[:cap]

    def test_scrambled_cycle_gives_the_dihedral_group(self):
        n = 16
        form1 = dk.generate("cycle", n, conductance=1.3, measure=0.7)
        form2, witness = relabel_pair(rng_for(57), form1, scale=1.9)
        found = dk.find_intertwiners(form1, form2, WIDE)
        index = {f"v{i}": i for i in range(n)}
        expected = sorted(
            tuple(f"v{(sign * index[witness.tau[y]] + shift) % n}" for y in sorted(witness.tau))
            for sign in (1, -1)
            for shift in range(n)
        )
        assert [tau_signature(s) for s in found] == expected
        assert all(dk.certify(iso, form1, form2).verdict for iso in found)

    def test_scrambled_complete_stops_at_first_solution(self):
        form1 = dk.generate("complete", 10, conductance=0.8, measure=1.2)
        form2, _ = relabel_pair(rng_for(58), form1, scale=1.4)
        start = time.perf_counter()
        found = dk.find_intertwiners(form1, form2, SearchOptions(max_solutions=1))
        assert time.perf_counter() - start < 2.0
        assert [tau_signature(s) for s in found] == [tuple(sorted(form1.space.vertices))]

    def test_state_is_quadratic_in_memory(self):
        # per-depth copies of the n x n domain alone would take n^3 / 2
        # bytes, 10 n^2 doubles at n = 160
        n = 160
        rng = rng_for(59)
        form1 = random_form(rng, n)
        form2, witness = relabel_pair(rng, form1, scale=1.3)
        for form in (form1, form2):  # the spectra are not search state
            form.spectrum
        tracemalloc.start()
        try:
            found = dk.find_intertwiners(form1, form2, WIDE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [tau_signature(s) for s in found] == [tau_signature(witness)]
        assert peak <= 10 * n * n * 8


def symmetrized(a):
    """The symmetric matrix with the upper triangle of ``a``."""
    return np.triu(a) + np.triu(a, 1).T


def synthetic_search_input(rng, n):
    """A single-layer input of the search: symmetric matrices A1 and A2, a
    symmetric per-entry bound 0.25 r(y) r(z), a planted bijection whose
    entries of P A1 P^T - A2 are moved to within a few ulps of the bound,
    one side or the other, and a random domain in which two targets may
    share their only source.  In the flat mode every entry is 0, so only
    distinctness rejects a tail."""
    root = rng.choice([0.5, 1.0, 2.0], n)
    bound = 0.25 * np.outer(root, root)
    flat = rng.random() < 0.25
    if flat:
        domain = shared_singletons(rng, rng.random((n, n)) < 0.6)
        return np.zeros((n, n)), np.zeros((n, n)), domain, bound
    a1 = symmetrized(rng.choice([0.0, 0.5, 1.0], (n, n)))
    tau = rng.permutation(n)
    sign = symmetrized(rng.choice([-1.0, 0.0, 1.0], (n, n)))
    near = bound * (1.0 + symmetrized(rng.choice([-4.0, 0.0, 4.0], (n, n))) * np.finfo(float).eps)
    a2 = a1[np.ix_(tau, tau)] + sign * near
    domain = rng.random((n, n)) < rng.choice([0.3, 0.7, 1.0])
    domain[np.arange(n), tau] |= rng.random(n) < 0.8
    return a1, a2, shared_singletons(rng, domain), bound


def shared_singletons(rng, domain):
    """The domain, with the rows of two targets cut to one common source,
    or every row cut to one source, sometimes."""
    n = len(domain)
    roll = rng.random()
    if roll < 0.3 and n >= 2:
        y1, y2 = rng.choice(n, 2, replace=False)
        domain[[y1, y2]] = np.arange(n) == rng.integers(n)
    elif roll < 0.5:
        domain[:] = np.arange(n)[None, :] == rng.integers(n, size=(n, 1))
    return domain


def completed_tails(monkeypatch):
    """The number of candidate assignments, the product of the domain
    sizes, of each tail that ``search._tails`` completes, in call order."""
    products = []
    tails = search._tails

    def spy(s1, s2, domains, *args):
        found = tails(s1, s2, domains, *args)
        if found is not None:
            products.append(math.prod(np.count_nonzero(domains, axis=1).tolist()))
        return found

    monkeypatch.setattr(search, "_tails", spy)
    return products


class TestForcedTailCompletion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_assignments_as_oracle_search(self, n, monkeypatch):
        # the oracle is the forward-checked search without completion, on
        # one layer; every branch is checked at the caps 1, 2 and none
        products = completed_tails(monkeypatch)
        rng = rng_for(600 + n)
        for _ in range(60):
            a1, a2, domain, bound = synthetic_search_input(rng, n)
            for cap in (1, 2, 10**9):
                want = _oracle_search(a1, a2, domain.copy(), bound, cap)
                got = search._search(a1[None], a2[None], domain.copy(), bound[None], cap)
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
        # tails of several candidate assignments are completed in one step
        assert n == 1 or max(products) >= 2

    @staticmethod
    def forward_checks(monkeypatch, form1, form2):
        calls = 0
        check = search._forward_check

        def spy(*args):
            nonlocal calls
            calls += 1
            return check(*args)

        monkeypatch.setattr(search, "_forward_check", spy)
        found = dk.find_intertwiners(form1, form2, WIDE)
        return found, calls

    def test_random_relabel_pair_completes_at_the_root(self, monkeypatch):
        # distinct diagonals leave one source per target at the root
        rng = rng_for(59)
        form1 = random_form(rng, 160)
        form2, witness = relabel_pair(rng, form1, scale=1.3)
        found, checks = self.forward_checks(monkeypatch, form1, form2)
        assert [tau_signature(s) for s in found] == [tau_signature(witness)]
        assert checks == 0

    def test_scrambled_cycle_completes_after_few_checks(self, monkeypatch):
        # the search without completion makes 252 forward checks here
        form1, form2 = scrambled(dk.generate("cycle", 12, conductance=1.3, measure=0.7))
        found, checks = self.forward_checks(monkeypatch, form1, form2)
        assert len(found) == 24
        assert checks == 36

    def test_scrambled_complete_completes_small_tails(self, monkeypatch):
        # the search that completes forced tails alone makes 1236 forward
        # checks here; after two depths, each of the 30 tails of 4 targets
        # has 4^4 candidate assignments, 24 of them solutions
        form1, form2 = scrambled(dk.generate("complete", 6, conductance=1.3, measure=0.7))
        products = completed_tails(monkeypatch)
        found, checks = self.forward_checks(monkeypatch, form1, form2)
        assert len(found) == 720
        assert checks == 36
        assert products == [256] * 30

    @pytest.mark.parametrize("n, caps", [(6, (1, 5, 7, 719, 720)), (7, (1000,))],
                             ids=["K6", "K7"])
    def test_caps_cut_inside_a_tail(self, n, caps):
        # a tail step finds 24 solutions at once; the caps keep the first
        pytest.importorskip("networkx")
        form1, form2 = scrambled(dk.generate("complete", n, conductance=1.3, measure=0.7))
        full = dk.find_intertwiners(form1, form2, WIDE)
        assert [tau_signature(s) for s in full] == vf2_intertwiners(form1, form2)
        for cap in caps:
            capped = dk.find_intertwiners(form1, form2, SearchOptions(max_solutions=cap))
            assert outcome(capped) == outcome(full[:cap])

    def test_dfs_state_is_quadratic_in_memory(self):
        # a scrambled K_n with the first solution enters the depth-first
        # search; doubling n may multiply the peak by 4, not by 8
        peaks = []
        for n in (80, 160):
            form1, form2 = scrambled(dk.generate("complete", n, conductance=0.8, measure=1.2))
            for form in (form1, form2):  # spectra are not search state
                form.spectrum
            tracemalloc.start()
            try:
                found = dk.find_intertwiners(form1, form2, SearchOptions(max_solutions=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [tau_signature(s) for s in found] == [tuple(sorted(form1.space.vertices))]
        assert peaks[1] <= 4.5 * peaks[0]


def spread_form(rng, n, spread, levels, recurrent=None):
    """A random connected form with conductances, measures and killing
    spread over 10^-spread .. 10^spread: log-uniformly, or on the two levels
    10^-spread and 10^spread when ``levels``, which leaves symmetries."""
    base = random_form(rng, n, recurrent=recurrent)

    def draw(size):
        if levels:
            return 10.0 ** (spread * rng.choice([-1.0, 1.0], size))
        return 10.0 ** rng.uniform(-spread, spread, size)

    b = dict(zip(base.b, draw(len(base.b))))
    return dk.build_form(base.space.vertices, draw(n), b, base.c * draw(n))


def spread_doob_pair(rng, n, spread, levels):
    """``doob_pair_sample`` on a ``spread_form`` base, the killing margin
    scaled with the degree."""
    base = spread_form(rng, n, spread, levels, recurrent=True)
    h = nonconstant_excessive_profile(rng, n)
    w = base.weight_matrix
    deg = w.sum(axis=1)
    required = (w @ h - deg * h) / h
    form1 = dk.GraphForm(base.space, base.b, np.maximum(required, 0.0) + 0.02 * deg)
    form2, iso = dk.doob_pair(form1, h)
    return form1, form2, iso


def spread_search_pair(seed):
    """A seeded relabel or Doob pair of 2 to 30 vertices on a ``spread_form``
    (spread 1, 3 or 6, log-uniform or on two levels), the target's
    conductances then moved by up to the relative amount ``perturb`` (0,
    2e-9 or 1e-8), so that some residuals sit near the bound.  Returns the
    forms, the witness and ``perturb``."""
    rng = rng_for(seed)
    n = int(rng.integers(2, 31))
    spread = float(rng.choice([1.0, 3.0, 6.0]))
    kind = str(rng.choice(["relabel", "doob"]))
    levels = bool(rng.integers(2))
    perturb = float(rng.choice([0.0, 0.0, 2e-9, 1e-8]))
    if kind == "relabel":
        form1 = spread_form(rng, n, spread, levels)
        form2, witness = relabel_pair(rng, form1, scale=float(10 ** rng.uniform(-3, 3)))
    else:
        form1, form2, witness = spread_doob_pair(rng, n, spread, levels)
    if perturb:
        b = {e: w * (1.0 + perturb * rng.uniform(-1.0, 1.0)) for e, w in form2.b.items()}
        form2 = dk.GraphForm(form2.space, b, form2.c)
    return form1, form2, witness, perturb


def outcome(isos):
    """Everything a search result shows: tau and h in their order, and beta."""
    return [(tuple(s.tau.items()), tuple(s.h.items()), s.beta) for s in isos]


def scrambled(form, seed=0, scale=1.7):
    """The form and a relabeled, rescaled copy of it."""
    return form, relabel_pair(rng_for(seed), form, scale=scale)[0]


class TestHeatKernelPruning:
    """The search with its long-range layer, the resolvents (once the heat
    kernels, whose name the class keeps), against the search on the
    generators alone."""

    @pytest.mark.parametrize("seed", range(100))
    def test_same_results_as_l_only_search(self, seed):
        # the oracle keeps the sorted-row invariant filter at the root
        form1, form2, witness, perturb = spread_search_pair(seed)
        expected = outcome(l_only_intertwiners(form1, form2, WIDE))
        for cap in (1, 2, 10**6):
            found = dk.find_intertwiners(form1, form2, SearchOptions(max_solutions=cap))
            assert outcome(found) == expected[:cap]
        if not perturb:
            assert sorted(witness.tau.items()) in [sorted(tau) for tau, _, _ in expected]

    def test_beta_equals_operator_constant(self):
        # two solutions on eleven targets: every beta comes from one mean
        # over a 2 x 11 array, whose rows must be summed as operator_constant
        # sums a single row (a column-major array gives 1 + 2^-52 for both)
        rng = rng_for(218)
        form1 = spread_form(rng, 11, 6.0, True)
        form2, _ = relabel_pair(rng, form1, scale=float(10 ** rng.uniform(-3, 3)))
        found = dk.find_intertwiners(form1, form2, WIDE)
        assert len(found) == 2
        assert [iso.beta for iso in found] == [operator_constant(iso) for iso in found]

    def test_same_results_on_scrambled_symmetric_forms(self):
        # conductances moved by up to 4e-9 put the largest entry of
        # P R1 P^T - R2 of each solution at 1e-5 to 5e-5 of its bound, as
        # random signs cancel in R2 E P R1 P^T (TestResolventLayer has a
        # pair near the bound)
        for family, n, count in (("cycle", 12, 24), ("path", 9, 2), ("sierpinski", 2, 6),
                                 ("complete", 5, 120)):
            for perturb in (0.0, 4e-9):
                form1, form2 = scrambled(dk.generate(family, n, conductance=0.9, measure=1.3))
                rng = rng_for(1)
                b = {e: w * (1.0 + perturb * rng.uniform(-1.0, 1.0)) for e, w in form2.b.items()}
                form2 = dk.GraphForm(form2.space, b, form2.c)
                expected = outcome(l_only_intertwiners(form1, form2, WIDE))
                assert len(expected) == count
                assert outcome(dk.find_intertwiners(form1, form2, WIDE)) == expected

    def test_non_finite_kernel_is_not_used(self):
        # measures 1e-300 and 1e300 put the measure ratio of the resolvent
        # bound beyond the float range, so the resolvents are not used; the
        # search still finds what the generator check alone finds
        form = dk.build_form(
            ["v0", "v1", "v2", "v3"], {"v0": 1e-300, "v1": 1e300, "v2": 1e-300, "v3": 1e300},
            [("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v2", "v3", 1.0), ("v0", "v3", 1.0)],
        )
        form1, form2 = scrambled(form, scale=1.0)
        expected = outcome(l_only_intertwiners(form1, form2, WIDE))
        assert outcome(dk.find_intertwiners(form1, form2, WIDE)) == expected

    def test_scaling_rounded_to_zero_raises(self):
        # sqrt(1e-300 / 1e100) rounds to 0: no valid scaling, as before
        form1 = dk.build_form(["a"], 1e-300, [])
        form2 = dk.build_form(["a"], 1e100, [])
        with pytest.raises(NonPositive):
            dk.find_intertwiners(form1, form2, WIDE)

    @pytest.mark.parametrize("make, count", [
        (lambda: dk.generate("cycle", 20, conductance=1.3, measure=0.7), 40),
        (lambda: dk.generate("path", 30, conductance=1.3, measure=0.7), 2),
        (lambda: dk.generate("sierpinski", 3, conductance=1.3, measure=0.7), 6),
    ], ids=["C20", "P30", "sierpinski3"])
    def test_scrambled_symmetric_forms_are_fast(self, make, count):
        form1, form2 = scrambled(make())
        start = time.perf_counter()
        found = dk.find_intertwiners(form1, form2, WIDE)
        assert time.perf_counter() - start < 2.0
        assert len(found) == count
        assert dk.certify(found[0], form1, form2).verdict


def rank_one_shift(form, r):
    """The form whose symmetrized generator is S + r u u^T, u = sqrt(diag S),
    on the same space: F + r w w^T with w = sqrt(deg + c), w(x) =
    sqrt(m(x)) u(x), as conductances b - r w(x) w(y) and killing c + r w
    sum(w).  Every entry of E = S1 - S2 is r u(y) u(z), at r / rel of the
    search's bound, and all of one sign, so the resolvent bound is near
    tight on it.  The form must be complete for b to carry every entry."""
    w = np.sqrt(form.form_matrix.diagonal())
    index = form.space.index
    b = {(y, z): weight - r * w[index(y)] * w[index(z)] for (y, z), weight in form.b.items()}
    return dk.GraphForm(form.space, b, form.c + r * w * w.sum())


def resolvent_gap(form1, form2, tau):
    """|P R1 P^T - R2| over the resolvent bound for the source positions
    ``tau`` of the targets, both in storage order."""
    r1, r2, bound = search._resolvents(form1, form2, WIDE.tol.rel)
    return np.abs(r1[np.ix_(tau, tau)] - r2) / bound


class TestResolventLayer:
    def test_is_the_conjugated_resolvent(self):
        # R = M^{1/2} (lambda + L)^-1 M^{-1/2} >= 0, its rows summing to at
        # most sqrt(rho) / lambda, on measures over four orders of magnitude
        rng = rng_for(24)
        forms = [random_form(rng, n, m_range=(0.01, 100.0)) for n in (2, 3, 6, 11, 17)]
        forms += [dk.generate("cycle", 9, conductance=0.3, measure=2.0),
                  dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})]
        for form in forms:
            n = len(form.space)
            lam = search._SHIFT * np.max(np.diag(form.symmetric))
            r1, r2, _ = search._resolvents(form, form, WIDE.tol.rel)
            assert np.array_equal(r1, r2) and np.array_equal(r2, r2.T)
            root, m = np.sqrt(form.space.m), form.space.m
            conjugated = root[:, None] * np.linalg.inv(lam * np.eye(n) + form.L) / root[None, :]
            assert np.max(np.abs(r2 - conjugated)) <= 1e-12 * np.max(r2)
            assert np.min(r2) >= 0.0
            assert np.max(r2.sum(axis=1)) <= math.sqrt(m.max() / m.min()) / lam * (1.0 + 1e-12)

    def test_inverse_within_its_allowance(self):
        # the growth || |L||U| || / ||lambda + S|| of the LU factors stays
        # below the 10 that the allowance takes, and the inverse within
        # _INVERSE_ERROR n eps kappa / lambda of the one from eigh
        forms = [dk.generate("sierpinski", 3), dk.generate("complete", 20)]
        for seed in range(20):
            rng = rng_for(seed)
            forms.append(spread_form(rng, int(rng.integers(2, 40)), 6.0, seed % 2 == 0))
        eps = np.finfo(float).eps
        for form in forms:
            s = form.symmetric
            n, top = len(s), np.max(np.diag(s))
            lam = search._SHIFT * top
            shifted = s + lam * np.eye(n)
            _, lower, upper = scipy.linalg.lu(shifted)
            growth = np.linalg.norm(np.abs(lower) @ np.abs(upper), 2) / np.linalg.norm(shifted, 2)
            assert growth <= 10.0
            w, v = np.linalg.eigh(s)
            _, r2, _ = search._resolvents(form, form, WIDE.tol.rel)
            allowance = search._INVERSE_ERROR * n * eps * (lam + 2.0 * top) / lam / lam
            assert np.max(np.abs(r2 - (v / (lam + w)) @ v.T)) <= allowance

    @pytest.mark.parametrize("measure", ["equal", "spread"])
    def test_near_its_bound(self, measure):
        # E = 0.9 rel u u^T: every tau of K5 passes the generator check, and
        # the largest entry of P R1 P^T - R2 is 0.9 of its bound with equal
        # measures, so a bound cut to 1/100 loses every solution
        if measure == "equal":
            form2 = dk.generate("complete", 5)
        else:
            form2 = dk.build_form([f"v{i}" for i in range(5)], [0.5, 1.0, 2.0, 4.0, 8.0],
                                  [(f"v{i}", f"v{j}", 1.0 + i + j)
                                   for i, j in itertools.combinations(range(5), 2)])
        form1 = rank_one_shift(form2, 0.9 * WIDE.tol.rel)
        found = search._intertwiners(form1, form2, WIDE, search._root_domain(form1, form2, WIDE))
        assert len(found) == (120 if measure == "equal" else 1)
        peak = max(float(np.max(resolvent_gap(form1, form2, iso.tau_indices))) for iso in found)
        assert peak <= 1.0
        assert peak >= (0.85 if measure == "equal" else 0.15)

    def test_sierpinski_l5(self, monkeypatch):
        # 366 vertices at diameter 32, which the resolvent sees across
        form1, form2 = scrambled(dk.generate("sierpinski", 5, conductance=1.3, measure=0.7))
        found, checks = TestForcedTailCompletion.forward_checks(monkeypatch, form1, form2)
        assert len(found) == 6
        assert all(dk.certify(iso, form1, form2).verdict for iso in found)
        assert checks == 24

    def test_cycle_160(self, monkeypatch):
        form1, form2 = scrambled(dk.generate("cycle", 160, conductance=1.3, measure=0.7))
        found, checks = TestForcedTailCompletion.forward_checks(monkeypatch, form1, form2)
        assert len(found) == 320
        assert checks == 480

    def test_cycle_64(self, monkeypatch):
        pytest.importorskip("networkx")
        form1, form2 = scrambled(dk.generate("cycle", 64, conductance=1.3, measure=0.7))
        found, checks = TestForcedTailCompletion.forward_checks(monkeypatch, form1, form2)
        assert [tau_signature(s) for s in found] == vf2_intertwiners(form1, form2)
        assert len(found) == 128
        assert checks == 192


class TestVF2Oracle:
    @pytest.mark.parametrize("make", [
        lambda: scrambled(dk.generate("cycle", 20, conductance=1.3, measure=0.7)),
        lambda: scrambled(dk.generate("path", 30, conductance=1.3, measure=0.7)),
        lambda: scrambled(dk.generate("sierpinski", 3, conductance=1.3, measure=0.7)),
        lambda: scrambled(dk.generate("complete", 6, conductance=1.3, measure=0.7)),
    ], ids=["C20", "P30", "sierpinski3", "K6"])
    def test_symmetric(self, make):
        pytest.importorskip("networkx")
        form1, form2 = make()
        found = [tau_signature(s) for s in dk.find_intertwiners(form1, form2, WIDE)]
        assert found == vf2_intertwiners(form1, form2)

    def test_spread_seeds(self):
        # the unperturbed pairs of ``spread_search_pair``: about half of the
        # seeds, with weights over up to 12 orders of magnitude
        pytest.importorskip("networkx")
        checked = 0
        for seed in range(100):
            form1, form2, witness, perturb = spread_search_pair(seed)
            if perturb:
                continue
            found = [tau_signature(s) for s in dk.find_intertwiners(form1, form2, WIDE)]
            assert found == vf2_intertwiners(form1, form2), seed
            assert tau_signature(witness) in found
            checked += 1
        assert checked == 52

    @pytest.mark.parametrize("n", [8, 20, 40])
    @pytest.mark.parametrize("levels", [False, True])
    def test_relabel(self, n, levels):
        pytest.importorskip("networkx")
        rng = rng_for(60 + n)
        form1 = spread_form(rng, n, 1.0, levels)
        form2, witness = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
        found = [tau_signature(s) for s in dk.find_intertwiners(form1, form2, WIDE)]
        assert found == vf2_intertwiners(form1, form2)
        assert tau_signature(witness) in found


def _pairs_for_subordination():
    s2 = dk.generate("sierpinski", 2, conductance=1.3, measure=0.7)
    c12 = dk.generate("cycle", 12, conductance=0.8, measure=1.1)
    random40 = random_form(rng_for(64), 40)
    return {
        "sierpinski2": (s2,) + relabel_pair(rng_for(62), s2, scale=1.6),
        "C12": (c12,) + relabel_pair(rng_for(63), c12, scale=0.6),
        "relabel40": (random40,) + relabel_pair(rng_for(65), random40, scale=1.3),
        "doob10": doob_pair_sample(rng_for(61), 10),
        "doob40": doob_pair_sample(rng_for(66), 40),
    }


class TestSubordination:
    """If U L1 = L2 U then U L1^alpha = L2^alpha U: the subordinate forms are
    non-local (every pair of vertices jumps) and the same iso intertwines
    them."""

    PAIRS = _pairs_for_subordination()

    @staticmethod
    def check_subordination(form1, form2, iso, alpha):
        """The subordinate pair has the pair's tau list, which holds the
        witness's tau; the witness passes certify and the jump transform on
        it, and a witness with two targets swapped raises NotIntertwining."""
        sub1, sub2 = subordinate(form1, alpha), subordinate(form2, alpha)
        assert len(sub1.b) == len(form1.space) * (len(form1.space) - 1) // 2
        before = [tau_signature(s) for s in dk.find_intertwiners(form1, form2, WIDE)]
        after = [tau_signature(s) for s in dk.find_intertwiners(sub1, sub2, WIDE)]
        assert after == before and tau_signature(iso) in before
        report = dk.certify(iso, sub1, sub2)
        report.extend(dk.verify_jump_transform(iso, sub1, sub2))
        assert report.verdict
        targets = sorted(iso.tau)
        swapped = dict(iso.tau)
        swapped[targets[0]], swapped[targets[1]] = iso.tau[targets[1]], iso.tau[targets[0]]
        bad = dk.OrderIso(iso.source, iso.target, swapped, dict(iso.h))
        with pytest.raises(NotIntertwining):
            dk.certify(bad, sub1, sub2)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("name", ["sierpinski2", "C12", "relabel40", "doob10", "doob40"])
    def test_iso_survives_subordination(self, name, alpha):
        self.check_subordination(*self.PAIRS[name], alpha)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_pairs(self, seed):
        # n in [2, 40], alpha in (0.2, 0.9) and the transform drawn from the
        # seed, then the pair from the same generator: dense subordinate
        # pairs with spread spectra, which the spectrum filter reads first
        rng = rng_for(seed)
        n, alpha = int(rng.integers(2, 41)), float(rng.uniform(0.2, 0.9))
        transform = pick(rng, ("relabel", "doob"))
        self.check_subordination(*random_intertwined_pair(rng, n, transform), alpha)


def full_certify(iso, form1, form2, tol):
    """The report of ``dirikit certify`` at ``tol``."""
    return metrics._certificate(iso, form1, form2, tol)


class TestResultsPassFullCertify:
    """Every tau that the search returns passes the CLI's full certify at the
    search's own tolerance; the count of tau checked is pinned, so an empty
    search does not pass."""

    @staticmethod
    def certified(pairs):
        count = 0
        for form1, form2 in pairs:
            for iso in dk.find_intertwiners(form1, form2, WIDE):
                report = full_certify(iso, form1, form2, WIDE.tol)
                assert report.verdict, [c.name for c in report.checks if not c.passed]
                count += 1
        return count

    def test_spread_seeds(self):
        # the perturbed seeds included; the parent search's global bound
        # returned 793 tau here
        assert self.certified(spread_search_pair(seed)[:2] for seed in range(100)) == 100

    @pytest.mark.parametrize("kind, count", [
        ("intertwined", 54), ("unrelated", 0), ("near_bound", 2)])
    def test_scale_invariance_pairs(self, kind, count):
        # the pairs of TestScaleInvariance in test_orderiso.py.  Two of its
        # ten near_bound pairs, conductances moved by up to 3e-8, have a tau
        # within the bound: the second, and the ninth, whose spectra differ
        # at some eigenvalue by more than 1e-8 of it, which a gate of
        # 1e-8 |w| per eigenvalue refuted, but within 1e-8 tr S2, which the
        # search's gate allows.  A tau moved 3e-8 past the bound failed
        # jump_transform at 2.34 times its bound while that bound was 1e-8
        # of the largest conductance
        assert self.certified(search_pairs(rng_for(3), kind)) == count

    def test_log_uniform_pairs(self):
        # b, m and c log-uniform over [1e-6, 1e6], relabel pairs scaled by
        # up to 1e±6 and Doob pairs
        rng = rng_for(70)
        pairs = []
        for _ in range(40):
            n = int(rng.integers(2, 41))
            if rng.random() < 0.5:
                form1 = spread_form(rng, n, 6.0, False)
                scale = float(10 ** rng.uniform(-6, 6))
                pairs.append((form1, relabel_pair(rng, form1, scale=scale)[0]))
            else:
                pairs.append(spread_doob_pair(rng, n, 6.0, False)[:2])
        assert self.certified(pairs) == 40

    def test_subordinate_pairs(self):
        pairs = [(subordinate(form1, alpha), subordinate(form2, alpha))
                 for form1, form2, _ in TestSubordination.PAIRS.values()
                 for alpha in (0.3, 0.5, 0.8)]
        assert self.certified(pairs) == 99


def with_tau(form1, form2, tau):
    """The iso of ``tau`` with h(y) = sqrt(m1(tau y) / m2(y))."""
    m1, m2 = form1.space, form2.space
    h = {y: float(np.sqrt(m1.m[m1.index(x)] / m2.m[m2.index(y)])) for y, x in tau.items()}
    return dk.OrderIso(m1, m2, tau, h)


def swapped(iso, a, b):
    """The tau of ``iso`` with the images of its a-th and b-th target swapped."""
    tau = dict(iso.tau)
    ya, yb = list(tau)[a], list(tau)[b]
    tau[ya], tau[yb] = tau[yb], tau[ya]
    return tau


def certify_exit(tmp_path, form1, form2, iso, *flags):
    path = tmp_path / "pair.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_obj(form1, form2, iso)), encoding="utf-8")
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(["certify", str(path), *flags])
    return code, err.getvalue()


def bridge_pair(factor, killing):
    """Two unit triangles v0 v1 v2 and v3 v4 v5, m = 1, joined by a bridge
    v2 v3 of 1e-6, with ``killing`` at v0; and the same graph with the
    bridge times ``factor``.  The bound of the bridge's entry scales with
    the degrees of its ends, so at rel 1e-9 the bridge may move by 2e-3 of
    itself, while the spectral gap scales with the bridge."""
    names = [f"v{i}" for i in range(6)]
    edges = [("v0", "v1", 1.0), ("v0", "v2", 1.0), ("v1", "v2", 1.0),
             ("v3", "v4", 1.0), ("v3", "v5", 1.0), ("v4", "v5", 1.0)]
    c = [killing, 0.0, 0.0, 0.0, 0.0, 0.0]
    return tuple(dk.build_form(names, 1.0, edges + [("v2", "v3", 1e-6 * f)], c)
                 for f in (1.0, factor))


# the CLI's default tolerances: certify's, and search's
CLI_DEFAULTS = (1e-9, 1e-8)


class TestCertifyImpliesSearch:
    """The guard and the search test one statement: a tau that `dirikit
    certify` passes (exit 0) is one that ``find_intertwiners`` returns at
    the same tolerance.  Certify's guard and the search share the entrywise
    S test, and the search's spectrum gate follows from it, also on a light
    bridge between heavy vertices and on a shift of every entry."""

    OPTS = SearchOptions(dk.Tolerance(1e-9), max_solutions=10**6)

    def search_taus(self, form1, form2, tol=1e-9):
        opts = replace(self.OPTS, tol=dk.Tolerance(tol))
        return [iso.tau for iso in dk.find_intertwiners(form1, form2, opts)]

    def certified_are_found(self, tmp_path, form1, form2, isos):
        """Certify each iso at the two CLI defaults, certify's own without
        --tol; each exit 0 is a tau that the search returns at that
        tolerance and at each looser default.  Returns the count of exits 0."""
        taus = {tol: self.search_taus(form1, form2, tol) for tol in CLI_DEFAULTS}
        certified = 0
        for tol, flags in zip(CLI_DEFAULTS, ((), ("--tol", "1e-8"))):
            for iso in isos:
                code, _ = certify_exit(tmp_path, form1, form2, iso, *flags)
                if code == 0:
                    certified += 1
                    for looser in CLI_DEFAULTS[CLI_DEFAULTS.index(tol):]:
                        assert iso.tau in taus[looser], (tol, looser, iso.tau)
        return certified

    @pytest.mark.parametrize("killing, count", [(1e-3, 15), (0.0, 3)])
    def test_bridge_family(self, tmp_path, killing, count):
        # the bridge times 1 + 1e-9 ... 1 + 1e-2.  A gate of rel |w| per
        # eigenvalue refuted the identity from 1 + 1e-5 with killing and
        # from 1 + 1e-7 without, where certify passes it; the search's
        # default finds it at every factor.  Without killing certify fails
        # the resistance check from 1 + 1e-8 on at 1e-9 and from 1 + 1e-7
        # on at 1e-8, and at 1 + 1e-2 the guard refutes the identity at 1e-9
        certified = 0
        for k in range(9, 1, -1):
            form1, form2 = bridge_pair(1.0 + 10.0**-k, killing)
            identity = with_tau(form1, form2, {v: v for v in form2.space.vertices})
            certified += self.certified_are_found(tmp_path, form1, form2, [identity])
            assert identity.tau in self.search_taus(form1, form2, 1e-8)
        assert certified == count

    def test_rank_one_shift_family(self, tmp_path):
        # K5 against S + r u u^T at 0.1 to 0.99 of rel moves the null
        # eigenvalue to r tr S, which a gate of rel |w| refuted; every one
        # of the 120 bijections passes the S test at rel and is returned
        rng = rng_for(236)
        form2 = dk.generate("complete", 5)
        sources = form2.space.vertices
        certified = 0
        for rel in CLI_DEFAULTS:
            for fraction in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
                form1 = rank_one_shift(form2, fraction * rel)
                assert len(self.search_taus(form1, form2, rel)) == 120
                isos = [with_tau(form1, form2, dict(zip(sources, rng.permutation(sources))))
                        for _ in range(3)]
                certified += self.certified_are_found(tmp_path, form1, form2, isos)
        # a shift at 1e-9 passes certify at both defaults, one at 1e-8, of
        # 1e-9 or more, at 1e-8 only
        assert certified == 6 * 3 * 2 + 6 * 3

    def test_seeded_spread_witnesses(self, tmp_path):
        # the witness of every seeded spread pair, the perturbed ones too
        certified = 0
        for seed in range(100):
            form1, form2, witness, _ = spread_search_pair(seed)
            certified += self.certified_are_found(tmp_path, form1, form2, [witness])
        # 154 of the 200 runs exit 0: the other 46 are witnesses perturbed
        # by 2e-9 or 1e-8, certified at 1e-9
        assert certified == 154

    def test_transpositions_of_the_witness(self, tmp_path):
        # every transposition of the witness on the unperturbed spread seeds;
        # the guard fails each (exit 2) unless the search returns it
        pool = certified = 0
        for seed in range(100):
            form1, form2, witness, perturb = spread_search_pair(seed)
            if perturb:
                continue
            for a, b in itertools.combinations(range(len(witness.tau)), 2):
                iso = with_tau(form1, form2, swapped(witness, a, b))
                pool += 1
                try:
                    require_intertwining(iso, form1, form2)
                except NotIntertwining:
                    continue
                code, _ = certify_exit(tmp_path, form1, form2, iso)
                if code == 0:
                    certified += 1
                    assert iso.tau in self.search_taus(form1, form2), (seed, a, b)
        assert pool == 10106 and certified == 0

    def test_seeded_random_tau(self, tmp_path):
        # random bijections on spread pairs, on C6 and on K5 (where every
        # bijection intertwines): each exit 0 is a tau of the search
        rng = rng_for(235)
        pairs = [spread_search_pair(seed)[:2] for seed in range(0, 100, 10)]
        for family, n in (("cycle", 6), ("complete", 5)):
            form = dk.generate(family, n, conductance=0.9, measure=1.3)
            pairs.append((form, relabel_pair(rng, form, scale=1.7)[0]))
        outcomes = collections.Counter()
        for form1, form2 in pairs:
            taus = self.search_taus(form1, form2)
            sources, targets = form1.space.vertices, form2.space.vertices
            for _ in range(12):
                order = rng.permutation(len(sources))
                iso = with_tau(form1, form2, {y: sources[x] for y, x in zip(targets, order)})
                code, _ = certify_exit(tmp_path, form1, form2, iso)
                outcomes[code] += 1
                assert code in (0, 2)
                assert (code == 0) == (iso.tau in taus)
        assert outcomes[0] >= 12 and outcomes[2] >= 100, outcomes

    def test_swap_of_seed_37_exits_2(self, tmp_path):
        # the weights span 1e+-6 and the largest entry of S is 3.4e12: a
        # bound of 1e-9 of it passed this swap, whose diagonal entries of S
        # differ by 2.76
        form1, form2, witness, _ = spread_search_pair(37)
        iso = with_tau(form1, form2, swapped(witness, 0, 4))
        assert iso.tau not in self.search_taus(form1, form2)
        for flags in ((), ("--tol", "1e-12")):
            code, err = certify_exit(tmp_path, form1, form2, iso, *flags)
            assert code == 2
            assert err.startswith("error: intertwining residual ") and err.count("\n") == 1


class TestEquivalenceVerdict:
    def test_relabeled_pair_is_equivalent(self):
        rng = rng_for(55)
        form1 = random_form(rng, 5)
        form2, witness = relabel_pair(rng, form1)
        verdict = dk.equivalence_verdict(form1, form2)
        assert verdict.equivalent
        report = dk.certify(verdict.solutions[0], form1, form2)
        assert report.verdict

    def test_size_mismatch(self):
        verdict = dk.equivalence_verdict(dk.generate("complete", 2), dk.generate("path", 3))
        assert not verdict.equivalent
        assert verdict.reason == "size"

    def test_perturbed_measure_recurrent_inequivalent(self):
        form1 = dk.build_form(
            ["v0", "v1", "v2", "v3"], 1.0,
            [("v0", "v1", 1.0), ("v1", "v2", 1.3), ("v2", "v3", 0.7), ("v0", "v3", 1.1)],
        )
        m2 = {"v0": 1.1, "v1": 1.0, "v2": 1.0, "v3": 1.0}
        form2 = dk.build_form(["v0", "v1", "v2", "v3"], m2, dict(form1.b))
        verdict = dk.equivalence_verdict(form1, form2)
        assert not verdict.equivalent
        assert verdict.reason in ("spectrum", "exhausted")

    def test_spectrum_reason(self):
        k2a = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        k2b = dk.build_form(["a", "b"], 1.0, [("a", "b", 2.0)])
        verdict = dk.equivalence_verdict(k2a, k2b)
        assert not verdict.equivalent
        assert verdict.reason == "spectrum"

    def test_spectrum_reason_in_any_units(self):
        # at conductance 1e-9 the spectra of P6 and C6 are of order 1e-9 and
        # differ by as much, so no bijection is tried in either units
        for conductance in (1.0, 1e-9):
            path = dk.generate("path", 6, conductance=conductance)
            cycle = dk.generate("cycle", 6, conductance=conductance)
            verdict = dk.equivalence_verdict(path, cycle)
            assert (verdict.solutions, verdict.reason) == ((), "spectrum")

    def test_exhausted_reason(self):
        # isospectral but not intertwined: same eigenvalues, incompatible measures
        sqrt2 = float(np.sqrt(2.0))
        q1 = dk.build_form(["a", "b"], {"a": 1.0, "b": 1.0}, [("a", "b", 1.0)])
        q2 = dk.build_form(["a", "b"], {"a": 2.0, "b": 2.0 / 3.0},
                           [("a", "b", 1.0)])
        assert np.allclose(q1.spectrum, q2.spectrum)
        verdict = dk.equivalence_verdict(q1, q2)
        assert not verdict.equivalent
        assert verdict.reason == "exhausted"

    def test_exhausted_after_the_gate(self):
        # K5 with killing 1 against a copy whose edge v0 v1 gains 8 rel and
        # whose ends lose it in killing: the diagonals agree, so every
        # source enters every domain, and the spectra agree within rel tr S2
        # (||E|| = 8 rel of 25 rel), but no bijection carries the heavier
        # edge onto an edge of K5
        rel = SearchOptions().tol.rel
        k5 = dk.generate("complete", 5)
        form1 = dk.GraphForm(k5.space, k5.b, np.ones(5))
        b = dict(k5.b)
        b["v0", "v1"] += 8 * rel
        form2 = dk.GraphForm(k5.space, b, np.array([1.0 - 8 * rel] * 2 + [1.0] * 3))
        assert search._root_domain(form1, form2, SearchOptions()).all()
        assert spectra_match(form1, form2, rel)
        verdict = dk.equivalence_verdict(form1, form2)
        assert (verdict.solutions, verdict.reason) == ((), "exhausted")

    @pytest.mark.parametrize("n", [40, 80, 160])
    def test_forced_relabel_root_computes_no_spectrum(self, n, monkeypatch):
        # a random relabel pair leaves each target one source at the root,
        # and that tau's S test is the verdict: neither form's spectrum is
        # computed, and no np.linalg routine runs
        rng = rng_for(400 + n)
        form1 = random_form(rng, n)
        form2, witness = relabel_pair(rng, form1, scale=1.3)
        for name in np.linalg.__all__:
            routine = getattr(np.linalg, name)
            if callable(routine) and not isinstance(routine, type):
                monkeypatch.setattr(np.linalg, name, pytest.fail)
        verdict = dk.equivalence_verdict(form1, form2)
        assert [tau_signature(s) for s in verdict.solutions] == [tau_signature(witness)]
        assert (verdict.reason, verdict.capped) == (None, False)
        assert "spectrum" not in vars(form1) and "spectrum" not in vars(form2)

    @pytest.mark.parametrize("n", [40, 80])
    def test_perturbed_conductance_stops_at_the_spectrum(self, n):
        # a relabelled copy with one conductance times 1.5, like the
        # benchmark's mismatch kinds
        rng = rng_for(500 + n)
        form1 = random_form(rng, n)
        form2, _ = relabel_pair(rng, form1, scale=1.3)
        b = dict(form2.b)
        b[sorted(b)[int(rng.integers(len(b)))]] *= 1.5
        verdict = dk.equivalence_verdict(form1, dk.GraphForm(form2.space, b, form2.c))
        assert (verdict.solutions, verdict.reason) == ((), "spectrum")

    def test_failed_forced_root_takes_the_gate_reason(self):
        # relabel pairs whose target moves a fraction of one conductance
        # into the killing at its ends: S keeps its diagonal, so the root
        # stays forced, and an S test that fails leaves the reason to the
        # gate alone
        reasons = collections.Counter()
        for seed in range(12):
            rng = rng_for(600 + seed)
            n = int(rng.integers(5, 30))
            form1 = random_form(rng, n)
            form2, witness = relabel_pair(rng, form1, scale=1.3)
            for fraction in (1e-7, 1e-5, 1e-3):
                b = dict(form2.b)
                edge = sorted(b)[int(rng.integers(len(b)))]
                c = form2.c.copy()
                c[[form2.space.index(v) for v in edge]] += fraction * b[edge]
                b[edge] *= 1.0 - fraction
                moved = dk.GraphForm(form2.space, b, c)
                domain = search._root_domain(form1, moved, SearchOptions())
                assert np.count_nonzero(domain) == n and domain.any(axis=1).all()
                verdict = dk.equivalence_verdict(form1, moved)
                if verdict.solutions:
                    assert [tau_signature(s) for s in verdict.solutions] == \
                        [tau_signature(witness)]
                else:
                    gate = spectra_match(form1, moved, SearchOptions().tol.rel)
                    assert verdict.reason == ("exhausted" if gate else "spectrum")
                reasons[verdict.reason] += 1
        assert reasons[None] >= 1 and reasons["exhausted"] >= 5 and reasons["spectrum"] >= 5, \
            reasons

    def test_same_verdict_as_the_gate_first(self):
        # the root's S test runs before the gate only as a schedule: the
        # verdict, the solutions in their order and capped are those of the
        # gate run first, then the search
        def gate_first(form1, form2, opts):
            if not spectra_match(form1, form2, opts.tol.rel):
                return [], "spectrum", False
            cap = opts.max_solutions
            found = search._intertwiners(form1, form2, replace(opts, max_solutions=cap + 1),
                                         search._root_domain(form1, form2, opts))
            return outcome(found[:cap]), None if found else "exhausted", len(found) > cap

        pairs = [spread_search_pair(seed)[:2] for seed in range(100)]
        pairs += [pair for kind in ("intertwined", "unrelated", "near_bound")
                  for pair in search_pairs(rng_for(3), kind)]
        pairs += [bridge_pair(1.0 + 10.0**-k, killing) for k in range(9, 1, -1)
                  for killing in (1e-3, 0.0)]
        k5 = dk.generate("complete", 5)
        pairs += [(rank_one_shift(k5, r), k5) for r in (1e-10, 5e-9, 2e-8)]
        reasons = collections.Counter()
        for form1, form2 in pairs:
            for opts in (SearchOptions(), SearchOptions(dk.Tolerance(1e-9), 7)):
                verdict = dk.equivalence_verdict(form1, form2, opts)
                assert (outcome(verdict.solutions), verdict.reason, verdict.capped) == \
                    gate_first(form1, form2, opts)
                reasons[verdict.reason] += 1
        assert set(reasons) == {None, "spectrum", "exhausted"}, reasons

    def test_eigenvalue_paths_build_no_eigenvectors(self, monkeypatch):
        # a random relabel pair is forced at the root and a mismatched pair
        # stops at the spectrum: neither reads an eigenvector
        eigh_calls(monkeypatch, fail=True)
        rng = rng_for(71)
        form1 = random_form(rng, 40)
        form2, witness = relabel_pair(rng, form1, scale=1.3)
        assert spectra_match(form1, form2, 1e-8)
        verdict = dk.equivalence_verdict(form1, form2)
        assert [tau_signature(s) for s in verdict.solutions] == [tau_signature(witness)]
        other = random_form(rng, 40)
        assert not spectra_match(form1, other, 1e-8)
        assert dk.equivalence_verdict(form1, other).reason == "spectrum"

    def test_resolvent_layer_reads_no_eigenvectors(self, monkeypatch):
        # the long-range layer is one inverse of the two shifted forms
        calls = eigh_calls(monkeypatch, fail=False)
        shapes = []
        inv = np.linalg.inv

        def spy(matrix):
            shapes.append(matrix.shape)
            return inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", spy)
        form1, form2 = scrambled(dk.generate("cycle", 12, conductance=1.3, measure=0.7))
        verdict = dk.equivalence_verdict(form1, form2, WIDE)
        assert len(verdict.solutions) == 24
        assert calls == []
        assert shapes == [(2, 12, 12)]

    def test_requires_irreducible(self):
        disconnected = dk.build_form(["a", "b"], 1.0, [])
        with pytest.raises(NotIrreducible):
            dk.equivalence_verdict(disconnected, disconnected)


class TestSolutionsAsArrays:
    """Each solution stores tau and h as the arrays of ``OrderIso``, and the
    JSON writer reads those: neither builds a vertex-id dict."""

    def test_find_intertwiners(self):
        form1, form2 = scrambled(dk.generate("complete", 6, conductance=1.3, measure=0.7))
        found = dk.find_intertwiners(form1, form2)
        assert len(found) == 720
        assert not any("tau" in vars(iso) or "h" in vars(iso) for iso in found)
        # read on demand, the dicts follow the target's storage order
        assert list(found[0].tau) == list(found[0].h) == list(form2.space.vertices)

    def test_cli_search_json(self, tmp_path, monkeypatch, capsys):
        form1, form2 = scrambled(dk.generate("complete", 6, conductance=1.3, measure=0.7))
        verdicts = []
        equivalence_verdict = search.equivalence_verdict

        def capture(*args):
            verdicts.append(equivalence_verdict(*args))
            return verdicts[-1]

        monkeypatch.setattr(search, "equivalence_verdict", capture)
        paths = [tmp_path / "g1.json", tmp_path / "g2.json"]
        for path, form in zip(paths, (form1, form2)):
            path.write_text(jsonio.dumps(jsonio.graph_to_obj(form)))
        assert cli.run(["search", *map(str, paths)]) == 0
        written = jsonio.loads(capsys.readouterr().out)["intertwiners"]
        (verdict,) = verdicts
        assert len(verdict.solutions) == len(written) == 720
        assert not any("tau" in vars(iso) or "h" in vars(iso) for iso in verdict.solutions)
        assert written == [dict(jsonio.iso_to_obj(iso), beta=iso.beta)
                           for iso in verdict.solutions]
