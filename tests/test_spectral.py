import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import dirikit as dk
from dirikit.core import _symmetric_inverse
from dirikit.errors import (
    DirikitError,
    NegativeInput,
    NegativeTime,
    NotExcessive,
    NotIrreducible,
    NumericOverflow,
)
from dirikit.sampling import random_form
from dirikit.tolerances import DEFAULT_TOL

from conftest import (
    check_truncation,
    evaluate,
    lp_nonconstant_excessive,
    rank_commutant_is_trivial,
    rng_for,
    solved_nonconstant_excessive,
)

SAMPLE_TIMES = [2.0**k for k in range(-10, 5)]


def killed_pair():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})


def semigroup_oracle(gen, t):
    # independent route: Pade-based matrix exponential
    return scipy.linalg.expm(-t * gen.L)


def excessive_oracle(gen, h):
    hv = gen.space.vector(h)
    scale = max(1.0, float(np.max(np.abs(gen.L)))) * max(1.0, float(np.max(hv)))
    bound = 1e-7 * scale
    for t in SAMPLE_TIMES:
        if np.min(hv - dk.semigroup(gen, t) @ hv) < -bound:
            return False
    return True


def spread_transient_form(seed, e=6):
    """A random transient form of 2 to 59 vertices whose m, weights in key
    order and c are multiplied, in that order, by factors 10^U(-e, e)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    form = random_form(rng, n, recurrent=False)
    m = form.space.m * 10 ** rng.uniform(-e, e, n)
    b = form.weights * 10 ** rng.uniform(-e, e, len(form.weights))
    c = form.c * 10 ** rng.uniform(-e, e, n)
    return dk.build_form(form.space.vertices, m, zip(*form.edge_ends(), b), c)


def exact_green_functions(form, count):
    """The Green functions F^-1 e_x of the first ``count`` vertices, in
    rational arithmetic on the form's m, b and c, with F's diagonal the
    exact deg + c."""
    n = len(form.space)
    rows = [[Fraction(0)] * n + [Fraction(int(x == r)) for x in range(count)] for r in range(n)]
    for x, c in enumerate(form.c):
        rows[x][x] += Fraction(float(c))
    for x, y, w in zip(*form.edge_indices, form.weights):
        w = Fraction(float(w))
        rows[x][x] += w
        rows[y][y] += w
        rows[x][y] -= w
        rows[y][x] -= w
    for k in range(n):  # F is diagonally dominant: no pivoting
        for r in range(k + 1, n):
            if rows[r][k]:
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    green = [[Fraction(0)] * n for _ in range(count)]
    for k in reversed(range(n)):
        for x in range(count):
            rest = sum(rows[k][q] * green[x][q] for q in range(k + 1, n))
            green[x][k] = (rows[k][n + x] - rest) / rows[k][k]
    return green


def spread_measure_forms():
    """Forms whose measure spans four orders of magnitude, so that S and L,
    and e^{-tS} and e^{-tL}, differ."""
    rng = rng_for(24)
    return [random_form(rng, n, m_range=(0.01, 100.0)) for n in (1, 2, 3, 6, 11, 17)]


class TestSemigroup:
    def test_time_zero_is_identity(self):
        gen = dk.generator(dk.generate("cycle", 5))
        assert np.allclose(dk.semigroup(gen, 0.0), np.eye(5), atol=1e-12)

    def test_k2_long_time_limit(self):
        gen = dk.generator(dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)]))
        t = 10.0
        expected = 0.5 * np.array(
            [[1 + np.exp(-2 * t), 1 - np.exp(-2 * t)],
             [1 - np.exp(-2 * t), 1 + np.exp(-2 * t)]]
        )
        assert np.max(np.abs(dk.semigroup(gen, t) - expected)) < 1e-8
        assert np.max(np.abs(dk.semigroup(gen, t) - 0.5)) < 1e-8

    def test_killing_makes_strictly_submarkov(self):
        gen = dk.generator(killed_pair())
        mass = dk.semigroup(gen, 1.0) @ np.ones(2)
        assert np.all(mass < 1.0)
        assert np.allclose(dk.semigroup(gen, 1.0), semigroup_oracle(gen, 1.0), atol=1e-12)

    def test_negative_time(self):
        gen = dk.generator(killed_pair())
        with pytest.raises(NegativeTime):
            dk.semigroup(gen, -0.1)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_time_not_finite(self, t):
        with pytest.raises(NegativeTime, match="finite"):
            dk.semigroup(dk.generate("path", 3), t)

    def test_matches_expm_oracle(self):
        rng = rng_for(21)
        forms = [random_form(rng, int(rng.integers(2, 9))) for _ in range(20)]
        for form in forms + spread_measure_forms():
            gen = dk.generator(form)
            t = float(rng.uniform(0.0, 4.0))
            assert np.allclose(dk.semigroup(gen, t), semigroup_oracle(gen, t), atol=1e-10)

    def test_positivity_submarkov_and_semigroup_law(self):
        rng = rng_for(22)
        for _ in range(50):
            form = random_form(rng, int(rng.integers(2, 9)))
            gen = dk.generator(form)
            s, t = rng.uniform(0.05, 2.0, size=2)
            ts, tt = dk.semigroup(gen, s), dk.semigroup(gen, t)
            assert np.min(ts) >= -1e-12
            assert np.max(ts @ np.ones(len(form.space))) <= 1.0 + 1e-12
            assert np.allclose(ts @ tt, dk.semigroup(gen, s + t), atol=1e-11)

    def test_cache_is_transparent(self):
        form = dk.generate("path", 5)
        gen1 = dk.generator(form)
        first = dk.semigroup(gen1, 0.7)
        again = dk.semigroup(gen1, 0.7)  # cached symmetrized generator
        fresh = dk.semigroup(dk.generator(dk.generate("path", 5)), 0.7)  # no cache
        assert np.array_equal(first, again)
        assert np.array_equal(first, fresh)
        assert dk.generator(form) is gen1
        assert np.array_equal(dk.spectral_data(gen1).eigenvectors,
                              dk.spectral_data(gen1).eigenvectors)

    def test_spectral_data_invariants(self):
        # eigenvalues of L and orthonormal eigenvectors of S
        rng = rng_for(23)
        for form in [random_form(rng, 6) for _ in range(10)] + spread_measure_forms():
            gen = dk.generator(form)
            data = dk.spectral_data(gen)
            assert np.all(np.diff(data.eigenvalues) >= -1e-12)
            assert np.min(data.eigenvalues) >= -1e-10
            gram = data.eigenvectors.T @ data.eigenvectors
            assert np.allclose(gram, np.eye(len(form.space)), atol=1e-10)
            s, v = form.symmetric, data.eigenvectors
            assert np.max(np.abs(s @ v - v * data.eigenvalues)) <= 1e-12 * np.max(np.abs(s))

    def test_sub_markov_at_long_times(self):
        # a null eigenvalue of S computed as -1e-16 must not grow as e^{t 1e-16}:
        # at t = 1e17 the rows of P4 summed to 17088, and at 1e19 overflowed
        for family, n in (("path", 4), ("path", 30), ("cycle", 9), ("complete", 6),
                          ("sierpinski", 3)):
            form = dk.generate(family, n)
            for t in (10.0 ** k for k in (3, 8, 15, 16, 17, 18, 19, 30, 100, 300)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    p = dk.semigroup(form, t)
                assert np.isfinite(p).all(), (family, n, t)
                assert np.min(p) >= -1e-12, (family, n, t)
                assert np.max(p.sum(axis=1)) <= 1.0 + 1e-12, (family, n, t)


def decomposing_sets_oracle(form):
    """All vertex subsets A with Q(f) = Q(1_A f) + Q(1_Ac f) for every f,
    found by polarization on basis pairs across the cut."""
    n = len(form.space)
    basis = np.eye(n)
    out = []
    for bits in range(1, 2**n - 1):
        members = [i for i in range(n) if bits & (1 << i)]
        rest = [i for i in range(n) if not bits & (1 << i)]
        broken = False
        for i in members:
            for j in rest:
                f = basis[i] + basis[j]
                fa = f.copy()
                fa[rest] = 0.0
                fc = f - fa
                gap = evaluate(form, f) - evaluate(form, fa) - evaluate(form, fc)
                if abs(gap) > 1e-12:
                    broken = True
                    break
            if broken:
                break
        if not broken:
            out.append(bits)
    return out


class TestIrreducible:
    def test_k2(self):
        assert dk.is_irreducible(dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)]))

    def test_isolated_vertices(self):
        assert not dk.is_irreducible(dk.build_form(["a", "b"], 1.0, []))

    def test_zero_weight_edge_disconnects(self):
        edges = [("v0", "v1", 1.0), ("v1", "v2", 0.0), ("v2", "v3", 1.0), ("v3", "v4", 1.0)]
        form = dk.build_form([f"v{i}" for i in range(5)], 1.0, edges)
        assert not dk.is_irreducible(form)

    def test_agrees_with_decomposition_oracle(self):
        rng = rng_for(31)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            form = random_form(rng, n, extra_edge_prob=0.2)
            if rng.random() < 0.5:
                # break connectivity by dropping all edges at one vertex
                victim = form.space.vertices[int(rng.integers(0, n))]
                edges = {k: w for k, w in form.b.items() if victim not in k}
                form = dk.GraphForm(form.space, edges, form.c)
            assert dk.is_irreducible(form) == (not decomposing_sets_oracle(form))

    def test_cached_on_the_form(self, monkeypatch):
        calls = []
        search = dk.core._edges_connected

        def counted(n, i, j):
            calls.append(n)
            return search(n, i, j)

        monkeypatch.setattr(dk.core, "_edges_connected", counted)
        cases = [
            (dk.generate("cycle", 5), True),
            (dk.build_form(["a", "b", "c", "d"], 1.0, [("a", "b", 1.0), ("c", "d", 1.0)]), False),
            (dk.build_form(["a"], 2.0, []), True),
        ]
        for form, connected in cases:
            assert dk.is_irreducible(form) is connected
            assert calls == [len(form.space)]
            assert dk.is_irreducible(form) is connected
            assert form.irreducible is connected
            assert calls == [len(form.space)]  # no second search
            calls.clear()

    def test_oracle_at_size_twelve(self):
        form = dk.generate("cycle", 12)
        assert dk.is_irreducible(form)
        assert not decomposing_sets_oracle(form)
        halves = dk.build_form(
            [f"v{i}" for i in range(12)],
            1.0,
            [(f"v{i}", f"v{i+1}", 1.0) for i in range(5)]
            + [(f"v{i}", f"v{i+1}", 1.0) for i in range(6, 11)],
        )
        assert not dk.is_irreducible(halves)
        assert decomposing_sets_oracle(halves)


class TestRecurrent:
    def test_no_killing(self):
        assert dk.is_recurrent(dk.generate("path", 4))

    def test_killed_pair(self):
        assert not dk.is_recurrent(killed_pair())

    def test_doob_partner(self):
        form = dk.build_form(
            ["a", "b"], {"a": 1.0, "b": 4.0}, [("a", "b", 2.0)], {"a": 0.0, "b": 2.0}
        )
        assert not dk.is_recurrent(form)

    def test_cached_bool_on_the_form(self):
        # -0.0 is no killing, the least subnormal is; the answer is a plain
        # bool, stored on the form at the first read, and is_recurrent reads it
        edge = [("a", "b", 1.0)]
        cases = [
            (dk.generate("path", 4), True),
            (dk.build_form(["a", "b"], 1.0, edge, {"a": -0.0, "b": 0.0}), True),
            (dk.build_form(["a", "b"], 1.0, edge, {"a": 0.0, "b": 5e-324}), False),
        ]
        for form, recurrent in cases:
            assert "recurrent" not in vars(form)
            assert type(form.recurrent) is bool and form.recurrent is recurrent
            assert "recurrent" in vars(form)
            assert dk.is_recurrent(form) is form.recurrent

    def test_doob_partner_reads_its_own_killing(self):
        # by a constant h a recurrent form's partner is recurrent, by the
        # Green function of a transient form it is not: each partner decides
        # from its own c, after its source has decided
        rng = rng_for(2730)
        recurrent = random_form(rng, 8, recurrent=True)
        transient = random_form(rng, 8, recurrent=False)
        green = dk.find_nonconstant_excessive(transient)
        assert green is not None
        for form, h, want in ((recurrent, np.full(8, 1.7), True), (transient, green, False)):
            assert form.recurrent is want
            partner, _ = dk.doob_pair(form, h)
            assert "recurrent" not in vars(partner)
            assert partner.recurrent is want
            assert dk.is_recurrent(partner) is partner.recurrent


class TestExcessive:
    def test_constants_are_excessive(self):
        gen = dk.generator(killed_pair())
        assert dk.is_excessive(gen, 1.0)

    def test_two_vertex_examples(self):
        gen = dk.generator(killed_pair())  # L = [[2,-1],[-1,1]]
        assert dk.is_excessive(gen, [1.0, 2.0])  # L h = (0, 1)
        assert not dk.is_excessive(gen, [2.0, 1.0])  # L h = (3, -1)

    def test_negative_input(self):
        gen = dk.generator(killed_pair())
        with pytest.raises(NegativeInput):
            dk.is_excessive(gen, [-1.0, 1.0])

    def test_agrees_with_sampled_semigroup(self):
        rng = rng_for(32)
        for _ in range(60):
            form = random_form(rng, int(rng.integers(2, 8)))
            gen = dk.generator(form)
            roll = rng.random()
            if roll < 0.4:
                h = rng.uniform(0.0, 2.0, size=len(form.space))
            elif roll < 0.7:
                h = np.full(len(form.space), float(rng.uniform(0.5, 2.0)))
            else:
                witness = dk.find_nonconstant_excessive(gen)
                h = witness if witness is not None else np.ones(len(form.space))
            assert dk.is_excessive(gen, h) == excessive_oracle(gen, h)


class TestNonconstantExcessive:
    def test_recurrent_has_none(self):
        assert dk.find_nonconstant_excessive(dk.generator(dk.generate("cycle", 5))) is None

    def test_killed_pair_has_witness(self):
        gen = dk.generator(killed_pair())
        h = dk.find_nonconstant_excessive(gen)
        assert h is not None
        assert dk.is_excessive(gen, h)
        assert np.max(h) / np.min(h) > 1.0 + 1e-6
        assert np.min(h) > 0.0

    def test_killing_at_first_vertex_only(self):
        # the Green function of v0 is constant here; v1's is not
        form = dk.generate("path", 4)
        gen = dk.generator(dk.GraphForm(form.space, form.b, [1.0, 0.0, 0.0, 0.0]))
        h = dk.find_nonconstant_excessive(gen)
        assert h is not None
        assert dk.is_excessive(gen, h)
        assert np.max(h) / np.min(h) > 1.0 + 1e-6
        assert np.min(h) > 0.0

    def test_single_killed_vertex(self):
        gen = dk.generator(dk.build_form(["a"], 1.0, [], {"a": 1.0}))
        assert dk.find_nonconstant_excessive(gen) is None

    def test_requires_irreducible(self):
        gen = dk.generator(dk.build_form(["a", "b"], 1.0, []))
        with pytest.raises(NotIrreducible):
            dk.find_nonconstant_excessive(gen)

    def test_coupling_underflowing_both_ways(self):
        # L[a,b] = L[b,a] = -1e-300 / 1e300 round to 0: the graph of W is
        # connected, L is 0, and the form is recurrent, so by the Liouville
        # property no nonconstant excessive function exists
        form = dk.build_form(["a", "b"], 1e300, [("a", "b", 1e-300)])
        assert dk.is_irreducible(form) and not np.any(form.L)
        assert dk.find_nonconstant_excessive(form) is None
        assert dk.is_recurrent(form)

    @pytest.mark.parametrize("vertices, m, killing", [
        # L[a, a] and L[a, b] underflow to 0, and the Green function of a,
        # F^-1 m(a) e_a, is (1e600, 1e300): inf in floating point
        (["a", "b"], {"a": 1e300, "b": 1.0}, {"a": 0.0, "b": 1.0}),
        # L[a, b] underflows, L[b, a] does not: the Green function of b is
        # (1, 1e-600), (1, 0) in floating point
        (["b", "a"], {"b": 1.0, "a": 1e300}, {"a": 1e300, "b": 1.0}),
    ])
    def test_green_function_cut_by_underflow(self, vertices, m, killing):
        # a RuntimeWarning fails the test (pyproject.toml)
        form = dk.build_form(vertices, m, [("a", "b", 1e-300)], killing)
        assert dk.is_irreducible(form)
        with pytest.raises(NotIrreducible, match="in floating point"):
            dk.find_nonconstant_excessive(form)

    def test_overflow_before_irreducibility(self):
        # c is isolated, and L[a,b] = 1e300 / 1e-300 is not finite
        form = dk.build_form(["a", "b", "c"], 1e-300, [("a", "b", 1e300)])
        with pytest.raises(NumericOverflow):
            dk.find_nonconstant_excessive(form)

    def test_deterministic_witness(self):
        gen = dk.generator(killed_pair())
        h1 = dk.find_nonconstant_excessive(gen)
        h2 = dk.find_nonconstant_excessive(dk.generator(killed_pair()))
        assert np.array_equal(h1, h2)

    def test_liouville_equivalence_random(self):
        rng = rng_for(33)
        for _ in range(25):
            form = random_form(rng, int(rng.integers(2, 8)))
            witness = dk.find_nonconstant_excessive(dk.generator(form))
            assert (witness is None) == dk.is_recurrent(form)

    def test_liouville_equivalence_spread(self):
        # transient forms with b, m and c spread over 1e+-6: None only where
        # the Green functions of the first two vertices, in exact arithmetic,
        # are constant within tol (seed 157: c / F[x, x] is 3.2e-11; seed
        # 187: at most 2.2e-11, and they vary by 2.1e-10 and 8.3e-11 of
        # themselves).  Every h found is excessive, and its Doob pair passes
        # certify.  Solved on L = M^-1 F, whose rows m spreads, seed 187's
        # came out negative or varying by 3e-9, and other Green functions
        # had L h(y) below 0 by 1e-11 to 1e-8 of L[y, y] h(y) at some y,
        # where doob_pair clips the partner's killing to 0: 27 of these
        # pairs failed the guard at (y, y)
        nones = []
        for seed in range(300):
            form = spread_transient_form(seed)
            witness = dk.find_nonconstant_excessive(form)
            if witness is not None:
                assert dk.is_excessive(form, witness), seed
                partner, iso = dk.doob_pair(form, witness)
                assert dk.certify(iso, form, partner).verdict, seed
                continue
            nones.append(seed)
            for green in exact_green_functions(form, 2):
                assert min(green) > 0, seed
                assert max(green) / min(green) - 1 <= Fraction(DEFAULT_TOL.bound(1.0)), seed
        assert nones == [157, 187]

    def test_small_killing_on_a_long_path(self):
        # c / m = 1e-10 everywhere on the unit path of 200 vertices is far
        # below the largest rate of L, yet the Green function of v0 varies
        # by 2e-6 of itself
        path = dk.generate("path", 200)
        form = dk.GraphForm(path.space, path.b, np.full(200, 1e-10))
        h = dk.find_nonconstant_excessive(form)
        assert h is not None and dk.is_excessive(form, h)
        assert np.max(h) / np.min(h) > 1.0 + 1e-6

    @pytest.mark.parametrize("killing, absorbed", [
        (1e-20, True), (1e-17, True), (1e-15, False), (1e-12, False),
    ])
    def test_killing_absorbed_by_rounding(self, killing, absorbed):
        # deg(a) + c(a) rounds to deg(a) below c(a) = 1.1e-16: the form is
        # transient, but its generator in floating point is singular
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.0), ("b", "c", 1.0)],
                             {"a": killing, "b": 0.0, "c": 0.0})
        assert not dk.is_recurrent(form)
        if absorbed:
            with pytest.raises(NotIrreducible, match="absorbed the killing"):
                dk.find_nonconstant_excessive(form)
        else:  # the Green functions are constant within tol
            assert dk.find_nonconstant_excessive(form) is None

    def test_reads_the_green_function_once(self, monkeypatch):
        # h comes from the cached form.green: F is never built, and a second
        # call on the form inverts nothing
        def no_form_matrix(form):
            raise AssertionError("form_matrix read")

        monkeypatch.setattr(dk.GraphForm, "form_matrix", property(no_form_matrix))
        calls = []

        def counted(a, out):
            calls.append(len(a))
            _symmetric_inverse(a, out)

        monkeypatch.setattr("dirikit.core._symmetric_inverse", counted)
        form = random_form(rng_for(36), 60, recurrent=False)
        h = dk.find_nonconstant_excessive(form)
        assert calls and calls[0] == 60
        count = len(calls)
        assert np.array_equal(dk.find_nonconstant_excessive(form), h)
        assert len(calls) == count
        assert np.array_equal(h, form.space.m[0] * form.green[:, 0])  # v0's is nonconstant

    @pytest.mark.parametrize("e, bound", [(0, 1e-12), (3, 1e-10), (6, 1e-8)])
    def test_agrees_with_the_solve(self, e, bound):
        # the outcome of one LU solve of F per vertex (the route before
        # form.green), and h entrywise within ``bound`` of it relative:
        # measured 4.5e-15, 6.0e-14 and 5.3e-12.  Neither route is the more
        # accurate: on other spread forms at e = 6 they differed by up to
        # 2.7e-7, each as far from the exact Green function as the other
        def outcome(find, form):
            try:
                return find(form)
            except DirikitError as exc:
                return type(exc).__name__

        kinds = set()
        for seed in range(200):
            form = spread_transient_form(seed, e)
            want = outcome(solved_nonconstant_excessive, form)
            got = outcome(dk.find_nonconstant_excessive, form)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray), seed
                assert np.max(np.abs(got - want) / want) <= bound, seed
            else:
                assert got == want, seed
            kinds.add(type(want))
        assert np.ndarray in kinds

    @pytest.mark.parametrize("recurrent", [True, False])
    def test_matches_lp_oracle(self, recurrent):
        rng = rng_for(35)
        for _ in range(8):
            gen = dk.generator(random_form(rng, int(rng.integers(2, 7)), recurrent=recurrent))
            witness = dk.find_nonconstant_excessive(gen)
            assert (witness is None) == (lp_nonconstant_excessive(gen) is None)


class TestTruncation:
    def test_h_above_f(self):
        form = killed_pair()
        f = np.array([0.5, 0.25])
        q_min, q_plus, ok = check_truncation(form, f, [2.0, 4.0])
        assert q_min == pytest.approx(evaluate(form, f))
        assert q_plus == pytest.approx(0.0, abs=1e-14)
        assert ok

    def test_h_zero_on_recurrent(self):
        form = dk.generate("path", 3)
        f = np.array([1.0, 2.0, 0.5])
        q_min, q_plus, ok = check_truncation(form, f, 0.0)
        assert q_min == pytest.approx(0.0, abs=1e-14)
        assert q_plus == pytest.approx(evaluate(form, f))
        assert ok

    def test_killed_pair_values(self):
        q_min, q_plus, ok = check_truncation(killed_pair(), [3.0, 0.0], [1.0, 2.0])
        assert q_min == pytest.approx(2.0)
        assert q_plus == pytest.approx(8.0)
        assert ok

    def test_rejects_non_excessive(self):
        with pytest.raises(NotExcessive):
            check_truncation(killed_pair(), [1.0, 0.0], [2.0, 1.0])


class TestCommutant:
    """Irreducibility decides whether the commutant of the semigroup is
    trivial; the rank oracle decides it by linear algebra."""

    def test_k2(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        assert rank_commutant_is_trivial(dk.generator(form)) == dk.is_irreducible(form)
        assert dk.is_irreducible(form)

    def test_two_disjoint_edges(self):
        form = dk.build_form(["a", "b", "c", "d"], 1.0, [("a", "b", 1.0), ("c", "d", 1.0)])
        assert rank_commutant_is_trivial(dk.generator(form)) == dk.is_irreducible(form)
        assert not dk.is_irreducible(form)

    def test_random_connected(self):
        rng = rng_for(34)
        form = random_form(rng, 6)
        assert rank_commutant_is_trivial(dk.generator(form)) == dk.is_irreducible(form)
        assert dk.is_irreducible(form)

    def test_matches_irreducibility(self):
        rng = rng_for(35)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            form = random_form(rng, n, extra_edge_prob=0.15)
            if n > 2 and rng.random() < 0.5:
                victim = form.space.vertices[int(rng.integers(0, n))]
                edges = {k: w for k, w in form.b.items() if victim not in k}
                form = dk.GraphForm(form.space, edges, form.c)
            assert rank_commutant_is_trivial(dk.generator(form)) == dk.is_irreducible(form)

    def test_weak_edge(self):
        # b(b,c) = 1e-20 is a real coupling: the rank route drops its row
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.0), ("b", "c", 1e-20)])
        assert dk.is_irreducible(form)
        assert dk.find_nonconstant_excessive(dk.generator(form)) is None  # irreducible and recurrent

    def test_coupling_underflowing_one_way(self):
        # L[a,b] = -1e-300 / 1e300 rounds to 0, L[b,a] = -1e-300 does not;
        # the (b, a) entry of [diag(phi), L] still forces phi(a) = phi(b)
        form = dk.build_form(["a", "b"], {"a": 1e300, "b": 1.0}, [("a", "b", 1e-300)])
        gen = dk.generator(form)
        assert gen.L[0, 1] == 0.0 and gen.L[1, 0] != 0.0
        assert dk.is_irreducible(form)
        assert dk.find_nonconstant_excessive(gen) is None  # irreducible and recurrent
