import collections
import contextlib
import io
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import dirikit as dk
from dirikit.errors import NonPositive, NotIntertwining, NotIrreducible
from dirikit import cli, jsonio, search
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
    # the largest rate of S2 is subnormal, so 1 / max s leaves the float
    # range: the search goes without the heat kernels, quietly
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

    def test_no_heat_layer(self):
        form = dk.generate("complete", 6, conductance=1e-310)
        assert search._heat_kernels(form, form, WIDE.tol.rel) is None
        normal = dk.generate("complete", 6, conductance=1e-308)
        assert search._heat_kernels(normal, normal, WIDE.tol.rel) is not None


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


class TestForcedTailCompletion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_assignments_as_oracle_search(self, n):
        # the oracle is the forward-checked search without completion, on
        # one layer; every branch is checked at the caps 1, 2 and none
        rng = rng_for(600 + n)
        for _ in range(60):
            a1, a2, domain, bound = synthetic_search_input(rng, n)
            for cap in (1, 2, 10**9):
                want = _oracle_search(a1, a2, domain.copy(), bound, cap)
                got = search._search(a1[None], a2[None], domain.copy(), bound[None], cap)
                assert [a.tolist() for a in got] == [a.tolist() for a in want]

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

    def test_dfs_state_is_quadratic_in_memory(self):
        # a scrambled K_n with the first solution enters the depth-first
        # search; doubling n may multiply the peak by 4, not by 8
        peaks = []
        for n in (80, 160):
            form1, form2 = scrambled(dk.generate("complete", n, conductance=0.8, measure=1.2))
            for form in (form1, form2):  # spectra and eigenvectors are not search state
                form.spectrum, form.spectral
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
        assert [iso.beta for iso in found] == [dk.operator_constant(iso) for iso in found]

    def test_same_results_on_scrambled_symmetric_forms(self):
        # with equal measures the heat slack is about rel; conductances moved
        # by up to 4e-9 put the largest entry of P K1 P^T - K2 of each
        # solution, on its diagonal, at 5 to 9 % of it, so a slack cut to
        # 1/100 loses them
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
        # measures 1e-300 and 1e300 put the measure ratio of the heat slack
        # beyond the float range, so the kernels are not built; the search
        # still finds what the generator check alone finds
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
    """The report of ``dirikit certify`` at ``tol``: the library certificate,
    the jump transform and, on recurrent pairs, the resistance isometry and
    the intrinsic bijection."""
    report = dk.certify(iso, form1, form2, tol)
    report.extend(dk.verify_jump_transform(iso, form1, form2, tol))
    if dk.is_recurrent(form1) and dk.is_recurrent(form2):
        report.extend(dk.verify_resistance_isometry(iso, form1, form2, tol))
        report.extend(dk.verify_intrinsic_bijection(iso, form1, form2, tol=tol))
    return report


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
        ("intertwined", 54), ("unrelated", 0), ("near_bound", 1)])
    def test_scale_invariance_pairs(self, kind, count):
        # the pairs of TestScaleInvariance in test_orderiso.py; the one tau
        # of its near_bound pairs, moved 3e-8 past the bound, failed
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
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(["certify", str(path), *flags])
    return code, err.getvalue()


class TestCertifyImpliesSearch:
    """The guard and the search test one statement: a tau that `dirikit
    certify` passes (exit 0) is one that ``find_intertwiners`` returns at
    the same tolerance."""

    OPTS = SearchOptions(dk.Tolerance(1e-9), max_solutions=10**6)

    def search_taus(self, form1, form2):
        return [iso.tau for iso in dk.find_intertwiners(form1, form2, self.OPTS)]

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

    def test_heat_layer_decomposes_each_form_once(self, monkeypatch):
        calls = eigh_calls(monkeypatch, fail=False)
        form1, form2 = scrambled(dk.generate("cycle", 12, conductance=1.3, measure=0.7))
        verdict = dk.equivalence_verdict(form1, form2, WIDE)
        assert len(verdict.solutions) == 24
        assert calls == [12, 12]

    def test_requires_irreducible(self):
        disconnected = dk.build_form(["a", "b"], 1.0, [])
        with pytest.raises(NotIrreducible):
            dk.equivalence_verdict(disconnected, disconnected)
