import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirikit as dk
from dirikit.errors import (
    DimensionMismatch,
    HasKilling,
    InvalidMetric,
    NotConnected,
    NotRecurrent,
    NumericOverflow,
    SpaceMismatch,
)
from dirikit.metrics import (
    boundary_rescaled,
    default_metric_samples,
    resistance_maximizer,
)
from dirikit.sampling import random_form, relabel_pair
from dirikit.tolerances import DEFAULT_TOL, Tolerance

from conftest import diagonal_overflow_form, rng_for


def measure_free_energy(form, f):
    return float(f @ (np.diag(form.degrees) - form.weight_matrix) @ f)


class TestEffectiveResistance:
    def test_single_edge(self):
        for b in (0.5, 1.0, 4.0):
            form = dk.build_form(["a", "b"], 1.0, [("a", "b", b)])
            assert dk.effective_resistance(form, "a", "b") == pytest.approx(1.0 / b)

    def test_unit_triangle(self):
        form = dk.generate("complete", 3)
        for x, y in (("v0", "v1"), ("v0", "v2"), ("v1", "v2")):
            assert dk.effective_resistance(form, x, y) == pytest.approx(2.0 / 3.0)

    def test_unit_path_series_law(self):
        form = dk.generate("path", 3)
        assert dk.effective_resistance(form, "v0", "v2") == pytest.approx(2.0)

    def test_requires_connected(self):
        form = dk.build_form(["a", "b"], 1.0, [])
        with pytest.raises(NotConnected):
            dk.effective_resistance(form, "a", "b")

    def test_rejects_killing(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        with pytest.raises(HasKilling):
            dk.effective_resistance(form, "a", "b")

    def test_sup_formula_oracle(self):
        rng = rng_for(71)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            form = random_form(rng, n, recurrent=True)
            names = form.space.vertices
            i, j = rng.choice(n, size=2, replace=False)
            x, y = names[int(i)], names[int(j)]
            r = dk.effective_resistance(form, x, y)
            f_star = resistance_maximizer(form, x, y)
            assert measure_free_energy(form, f_star) == pytest.approx(1.0)
            assert (f_star[int(i)] - f_star[int(j)]) ** 2 == pytest.approx(r)
            for _ in range(200):
                f = rng.normal(size=n)
                energy = measure_free_energy(form, f)
                if energy <= 1e-12:
                    continue
                f = f / math.sqrt(energy)
                assert (f[int(i)] - f[int(j)]) ** 2 <= r + 1e-9


class TestResistanceMatrix:
    def test_k2(self):
        matrix = dk.resistance_matrix(dk.generate("complete", 2))
        assert np.allclose(matrix.d, [[0.0, 1.0], [1.0, 0.0]])

    def test_triangle(self):
        matrix = dk.resistance_matrix(dk.generate("complete", 3))
        off = matrix.d[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0 / 3.0)

    def test_triangle_inequality_random(self):
        rng = rng_for(72)
        for _ in range(15):
            form = random_form(rng, int(rng.integers(2, 9)), recurrent=True)
            matrix = dk.resistance_matrix(form)  # constructor enforces the axioms
            assert np.all(matrix.d >= 0.0)

    def test_sierpinski_renormalization(self):
        values = []
        for level in range(4):
            form = dk.generate("sierpinski", level)
            c0, c1, _ = dk.sierpinski_corners(level)
            values.append(dk.effective_resistance(form, c0, c1))
        for low, high in zip(values, values[1:]):
            assert high / low == pytest.approx(5.0 / 3.0, abs=1e-9)

    def test_overflowing_spectrum_is_finite(self):
        # the form matrix is finite, but its top eigenvalue 3e308 is not; the
        # grounded inverse never forms the spectrum and resolves both edges
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.5e308), ("b", "c", 1.0)])
        d = dk.resistance_matrix(form).d
        assert d[0, 1] == pytest.approx(1.0 / 1.5e308, rel=1e-12)
        assert d[1, 2] == pytest.approx(1.0, rel=1e-12)

    def test_matches_unbuffered_expression(self):
        rng = rng_for(76)
        forms = [random_form(rng, int(rng.integers(2, 12)), recurrent=True) for _ in range(20)]
        forms += [dk.generate("sierpinski", level) for level in range(5)]
        for form in forms:
            pinv = form.green
            diag = np.diag(pinv)
            r = diag[:, None] + diag[None, :] - 2.0 * pinv
            r = np.maximum(0.5 * (r + r.T), 0.0)
            np.fill_diagonal(r, 0.0)
            assert np.array_equal(dk.resistance_matrix(form).d, r)

    def test_l5_in_two_buffers(self):
        # beyond the form's cached Green function: the result and one
        # scratch buffer, plus the validation's boolean masks
        form = dk.generate("sierpinski", 5)
        form.green
        n = len(form.space)
        tracemalloc.start()
        try:
            dk.resistance_matrix(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8

    def test_tolerance_reaches_validation(self):
        # every triple of a path is tight, so rounding leaves gaps of about
        # 1e-14 that the default tolerance absorbs and 1e-300 does not
        form = dk.generate("path", 20, conductance=0.7)
        dk.resistance_matrix(form)
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.resistance_matrix(form, Tolerance(rel=1e-300, abs=1e-303))


def mp_resistances(form, dps=60):
    """Oracle: every effective resistance at ``dps`` digits, from the
    Laplacian of the conductances grounded at vertex 0 and inverted in
    mpmath."""
    n = len(form.space)
    with mpmath.workdps(dps):
        lap = mpmath.zeros(n, n)
        for (u, v), b in form.b.items():
            i, j = form.space.index(u), form.space.index(v)
            lap[i, i] += b
            lap[j, j] += b
            lap[i, j] -= b
            lap[j, i] -= b
        grounded = mpmath.inverse(lap[1:, 1:])
        g = lambda i, j: grounded[i - 1, j - 1] if i and j else 0
        return [[float(g(i, i) + g(j, j) - 2 * g(i, j)) for j in range(n)] for i in range(n)]


def path_orders(bottleneck):
    """The path a - b - c with b(a,b) = bottleneck and b(b,c) = 1, in every
    vertex order."""
    edges = [("a", "b", bottleneck), ("b", "c", 1.0)]
    return [dk.build_form(order, 1.0, edges) for order in itertools.permutations("abc")]


class TestResistanceOracle:
    @pytest.mark.parametrize("bottleneck", [1e-10, 1e-12, 1e-14])
    def test_bottleneck_path(self, bottleneck):
        for form in path_orders(bottleneck):
            r = dk.effective_resistance(form, "a", "b")
            assert r == pytest.approx(1.0 / bottleneck, rel=1e-9)
            matrix = dk.resistance_matrix(form)
            assert np.allclose(matrix.d, mp_resistances(form), rtol=1e-9, atol=0.0)

    def test_subnormal_bottleneck_overflows(self):
        # the true R(a, b) = 2e323 is beyond the float range
        for form in path_orders(5e-324):
            with pytest.raises(NumericOverflow):
                dk.effective_resistance(form, "a", "b")
            with pytest.raises(NumericOverflow):
                dk.resistance_matrix(form)

    def test_overflowing_diagonal_sum(self):
        # the grounded Green function is finite, but G[v0,v0] + G[v1,v1]
        # overflows
        form = diagonal_overflow_form()
        with pytest.raises(NumericOverflow):
            dk.effective_resistance(form, "v0", "v1")
        with pytest.raises(NumericOverflow):
            dk.resistance_matrix(form)
        # a pair whose sum stays in range is unchanged
        green = form.green
        i, j = form.space.index("v2"), form.space.index("v3")
        assert dk.effective_resistance(form, "v2", "v3") == float(
            green[i, i] + green[j, j] - 2.0 * green[i, j]
        )

    def test_ill_conditioned_random(self):
        rng = rng_for(77)
        for _ in range(100):
            base = random_form(rng, int(rng.integers(3, 9)), recurrent=True)
            edges = [(u, v, 10.0 ** rng.uniform(-14.0, 0.0)) for u, v in base.b]
            form = dk.build_form(base.space.vertices, base.space.m, edges)
            exact = np.array(mp_resistances(form))
            off = ~np.eye(len(form.space), dtype=bool)
            assert np.allclose(dk.resistance_matrix(form).d[off], exact[off], rtol=1e-3, atol=0.0)

    def test_unit_scale_random(self):
        rng = rng_for(78)
        for _ in range(20):
            form = random_form(rng, int(rng.integers(2, 9)), recurrent=True)
            assert np.allclose(
                dk.resistance_matrix(form).d, mp_resistances(form), rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize("bottleneck", [1e-10, 1e-12, 1e-14])
    def test_maximizer_on_bottleneck_path(self, bottleneck):
        for form in path_orders(bottleneck):
            f = resistance_maximizer(form, "a", "b")
            i, j = form.space.index("a"), form.space.index("b")
            assert measure_free_energy(form, f) == pytest.approx(1.0, rel=1e-9)
            assert (f[i] - f[j]) ** 2 == pytest.approx(
                dk.effective_resistance(form, "a", "b"), rel=1e-9
            )


class TestResistanceIsometry:
    def test_identity(self):
        form = dk.generate("cycle", 4)
        report = dk.verify_resistance_isometry(dk.OrderIso.identity(form.space), form, form)
        assert report.verdict
        assert report["resistance_isometry"].residual == 0.0
        assert report["equal_mass_isometry"].passed

    def test_rotated_triangle(self):
        form = dk.generate("complete", 3)
        rotated = dk.build_form(["w0", "w1", "w2"], 1.0,
                                [("w0", "w1", 1.0), ("w1", "w2", 1.0), ("w0", "w2", 1.0)])
        tau = {"w0": "v1", "w1": "v2", "w2": "v0"}
        iso = dk.OrderIso(form.space, rotated.space, tau, {y: 1.0 for y in tau})
        report = dk.verify_resistance_isometry(iso, form, rotated)
        assert report.verdict

    def test_scaled_triangle(self):
        # quadruple measure and conductances: intertwined with h = 1/2 and
        # resistances scaled down by 4
        form1 = dk.generate("complete", 3)
        form2 = dk.generate("complete", 3, conductance=4.0, measure=4.0)
        iso = dk.OrderIso(form1.space, form2.space,
                          {v: v for v in form1.space.vertices},
                          {v: 0.5 for v in form1.space.vertices})
        report = dk.verify_resistance_isometry(iso, form1, form2)
        assert report.verdict
        r1 = dk.effective_resistance(form1, "v0", "v1")
        r2 = dk.effective_resistance(form2, "v0", "v1")
        alpha, beta = 0.5, dk.operator_constant(iso)
        assert beta == pytest.approx(1.0)
        assert alpha**2 * r1 == pytest.approx(beta * r2)
        assert "skipped" in report["equal_mass_isometry"].detail

    def test_requires_recurrent(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        partner, iso = dk.doob_pair(form, [1.0, 2.0])
        with pytest.raises(NotRecurrent):
            dk.verify_resistance_isometry(iso, form, partner)

    def test_search_witnesses_random(self):
        rng = rng_for(73)
        for _ in range(10):
            form1 = random_form(rng, int(rng.integers(2, 7)), recurrent=True)
            form2, _ = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            for iso in dk.find_intertwiners(form1, form2):
                report = dk.verify_resistance_isometry(iso, form1, form2)
                assert report.verdict


class TestIsIntrinsic:
    def test_k2_unit_distance(self):
        form = dk.generate("complete", 2)
        metric = dk.PseudoMetric(form.space.vertices, np.array([[0.0, 1.0], [1.0, 0.0]]))
        ok, slack = dk.is_intrinsic(form, metric)
        assert ok
        assert np.allclose(slack, 0.0)

    def test_k2_doubled_distance(self):
        form = dk.generate("complete", 2)
        metric = dk.PseudoMetric(form.space.vertices, np.array([[0.0, 2.0], [2.0, 0.0]]))
        ok, slack = dk.is_intrinsic(form, metric)
        assert not ok
        assert slack[0] == pytest.approx(-3.0)

    def test_zero_metric_always_intrinsic(self):
        rng = rng_for(74)
        for _ in range(5):
            form = random_form(rng, 5)
            metric = dk.PseudoMetric(form.space.vertices, np.zeros((5, 5)))
            assert dk.is_intrinsic(form, metric).ok

    def test_dimension_mismatch(self):
        form = dk.generate("path", 3)
        metric = dk.PseudoMetric(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            dk.is_intrinsic(form, metric)


class TestPseudoMetricValidation:
    def test_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InvalidMetric):
            dk.PseudoMetric(("a", "b", "c"), d)

    def test_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidMetric):
            dk.PseudoMetric(("a", "b"), d)

    def test_negative_entry(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidMetric):
            dk.PseudoMetric(("a", "b"), d)

    def test_tolerance(self):
        d = np.array([[0.0, 1.0, 2.0 + 1e-6], [1.0, 0.0, 1.0], [2.0 + 1e-6, 1.0, 0.0]])
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.PseudoMetric(("a", "b", "c"), d)
        loose = dk.PseudoMetric(("a", "b", "c"), d, Tolerance(rel=1e-6))
        assert np.array_equal(loose.d, d)


def broadcast_violation(d):
    # independent route: every d[i,k] - (d[i,j] + d[j,k]) in one n^3 array
    return float(np.max(d[:, None, :] - (d[:, :, None] + d[None, :, :])))


def last_pivot_metric(n, excess):
    """Distances in [1, 1.5] among the first n - 1 vertices, and a last
    vertex half a unit from vertices 0 and 1: d[0,1] = 1 + excess breaks
    the triangle inequality through the last pivot only."""
    d = np.full((n, n), 1.5)
    d[:, -1] = d[-1, :] = 1.0
    d[0, -1] = d[-1, 0] = d[1, -1] = d[-1, 1] = 0.5
    d[0, 1] = d[1, 0] = 1.0 + excess
    np.fill_diagonal(d, 0.0)
    return d


class TestTriangleCheck:
    def test_matches_broadcast_oracle(self):
        rng = rng_for(75)
        for _ in range(120):
            n = int(rng.integers(2, 31))
            points = rng.normal(size=(n, 2))
            d = np.sqrt(np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2))
            if rng.random() < 0.5:
                noise = rng.uniform(0.0, rng.choice([1e-12, 1e-9, 1e-3, 1.0]), size=(n, n))
                d = d + noise + noise.T
                np.fill_diagonal(d, 0.0)
            bound = DEFAULT_TOL.bound(max(1.0, float(np.max(d))))
            if broadcast_violation(d) > bound:
                with pytest.raises(InvalidMetric, match="triangle"):
                    dk.PseudoMetric(tuple(f"v{i}" for i in range(n)), d)
            else:
                metric = dk.PseudoMetric(tuple(f"v{i}" for i in range(n)), d)
                assert np.array_equal(metric.d, d)

    def test_violation_only_at_last_pivot(self):
        n = 9
        d = last_pivot_metric(n, 0.5)
        per_pivot = [float(np.max(d - (d[:, j, None] + d[j]))) for j in range(n)]
        assert max(per_pivot[:-1]) <= 0.0 < per_pivot[-1]
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.PseudoMetric(tuple(f"v{i}" for i in range(n)), d)

    def test_violation_at_the_bound(self):
        n = 6
        names = tuple(f"v{i}" for i in range(n))
        bound = DEFAULT_TOL.bound(1.5)
        inside = last_pivot_metric(n, 0.5 * bound)
        assert 0.0 < broadcast_violation(inside) <= bound
        assert np.array_equal(dk.PseudoMetric(names, inside).d, inside)
        outside = last_pivot_metric(n, 2.0 * bound)
        assert broadcast_violation(outside) > bound
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.PseudoMetric(names, outside)

    def test_sierpinski_l6_in_quadratic_memory(self):
        # 1095 vertices: an n^3 check would need about 10 GB per temporary
        level = 6
        form = dk.generate("sierpinski", level)
        tracemalloc.start()
        try:
            matrix = dk.resistance_matrix(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100e6
        c0, c1, _ = dk.sierpinski_corners(level)
        i, j = form.space.index(c0), form.space.index(c1)
        assert matrix.d[i, j] == pytest.approx((2.0 / 3.0) * (5.0 / 3.0) ** level, rel=1e-9)


class TestCanonicalIntrinsicMetric:
    def test_k2(self):
        metric = dk.canonical_intrinsic_metric(dk.generate("complete", 2))
        assert metric.d[0, 1] == pytest.approx(1.0)

    def test_unit_path(self):
        metric = dk.canonical_intrinsic_metric(dk.generate("path", 3))
        assert metric.d[0, 1] == pytest.approx(math.sqrt(0.5))
        assert metric.d[0, 2] == pytest.approx(math.sqrt(2.0))

    def test_star(self):
        form = dk.build_form(
            ["c", "l1", "l2", "l3"], 1.0,
            [("c", "l1", 1.0), ("c", "l2", 1.0), ("c", "l3", 1.0)],
        )
        metric = dk.canonical_intrinsic_metric(form)
        i, j = form.space.index("l1"), form.space.index("l2")
        assert metric.d[i, j] == pytest.approx(2.0 / math.sqrt(3.0))

    def test_always_intrinsic(self):
        rng = rng_for(75)
        for _ in range(15):
            form = random_form(rng, int(rng.integers(1, 9)))
            metric = dk.canonical_intrinsic_metric(form)
            ok, slack = dk.is_intrinsic(form, metric)
            assert ok
            assert np.min(slack) >= -1e-9

    def test_requires_connected(self):
        with pytest.raises(NotConnected):
            dk.canonical_intrinsic_metric(dk.build_form(["a", "b"], 1.0, []))

    def test_exact_zero_slack_with_degree_measure(self):
        # m(x) = deg(x) makes all edge lengths exactly 1 and the hop metric
        # saturates every vertex bound with slack exactly zero
        form = dk.generate("cycle", 5)
        metric = dk.canonical_intrinsic_metric(
            dk.build_form(form.space.vertices, {v: 2.0 for v in form.space.vertices},
                          dict(form.b))
        )
        degree_form = dk.build_form(
            form.space.vertices, {v: 2.0 for v in form.space.vertices}, dict(form.b)
        )
        ok, slack = dk.is_intrinsic(degree_form, metric)
        assert ok
        assert np.max(np.abs(slack)) <= 1e-12


class TestPushforward:
    def test_identity_and_swap(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        metric = dk.PseudoMetric(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]))
        ident = dk.OrderIso.identity(space)
        assert np.array_equal(dk.pushforward_metric(metric, ident).d, metric.d)
        swap = dk.OrderIso(space, space, {"a": "b", "b": "a"}, {"a": 1.0, "b": 1.0})
        assert np.array_equal(dk.pushforward_metric(metric, swap).d, metric.d)

    def test_rotation_permutes(self):
        space1 = dk.MeasureSpace(["v0", "v1", "v2"], 1.0)
        space2 = dk.MeasureSpace(["w0", "w1", "w2"], 1.0)
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        metric = dk.PseudoMetric(space1.vertices, d)
        tau = {"w0": "v1", "w1": "v2", "w2": "v0"}
        iso = dk.OrderIso(space1, space2, tau, {y: 1.0 for y in tau})
        pushed = dk.pushforward_metric(metric, iso)
        assert pushed.d[0, 1] == d[1, 2]
        assert pushed.d[0, 2] == d[1, 0]

    def test_space_mismatch(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        other = dk.PseudoMetric(("x", "y"), np.zeros((2, 2)))
        with pytest.raises(SpaceMismatch):
            dk.pushforward_metric(other, dk.OrderIso.identity(space))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
    def test_preserves_axioms(self, sides):
        # clip into a valid triangle of distances, then push along a rotation
        a, b, c = sides
        a = min(a, b + c)
        b = min(b, a + c)
        c = min(c, a + b)
        d = np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
        space1 = dk.MeasureSpace(["v0", "v1", "v2"], 1.0)
        space2 = dk.MeasureSpace(["w0", "w1", "w2"], 1.0)
        metric = dk.PseudoMetric(space1.vertices, d)
        tau = {"w0": "v2", "w1": "v0", "w2": "v1"}
        iso = dk.OrderIso(space1, space2, tau, {y: 1.0 for y in tau})
        dk.pushforward_metric(metric, iso)  # constructor re-checks the axioms


class TestIntrinsicBijection:
    def test_identity(self):
        form = dk.generate("cycle", 4)
        report = dk.verify_intrinsic_bijection(dk.OrderIso.identity(form.space), form, form)
        assert report.verdict

    def test_relabeled_path_samples(self):
        rng = rng_for(76)
        form1 = random_form(rng, 6, recurrent=True)
        form2, iso = relabel_pair(rng, form1)
        report = dk.verify_intrinsic_bijection(iso, form1, form2)
        assert report.verdict
        names = [c.name for c in report.checks]
        assert "intrinsic_pushforward_canonical" in names
        assert "intrinsic_pushforward_inflated" in names

    def test_inflated_metric_fails_on_both_sides(self):
        form = dk.generate("cycle", 4)
        canonical = dk.canonical_intrinsic_metric(form)
        inflated = canonical.scaled(2.0)
        assert not dk.is_intrinsic(form, inflated).ok
        iso = dk.OrderIso.identity(form.space)
        assert not dk.is_intrinsic(form, dk.pushforward_metric(inflated, iso)).ok

    def test_boundary_rescaling_saturates(self):
        rng = rng_for(77)
        form = random_form(rng, 5, recurrent=True)
        boundary = boundary_rescaled(form, dk.canonical_intrinsic_metric(form))
        ok, slack = dk.is_intrinsic(form, boundary)
        assert ok
        assert np.min(np.abs(slack)) <= 1e-10

    def test_requires_recurrent(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        partner, iso = dk.doob_pair(form, [1.0, 2.0])
        with pytest.raises(NotRecurrent):
            dk.verify_intrinsic_bijection(iso, form, partner)

    def test_default_samples_cover_both_classes(self):
        form = dk.generate("path", 4)
        samples = dict(default_metric_samples(form))
        assert dk.is_intrinsic(form, samples["zero"]).ok
        assert dk.is_intrinsic(form, samples["canonical"]).ok
        assert dk.is_intrinsic(form, samples["boundary"]).ok
        assert not dk.is_intrinsic(form, samples["inflated"]).ok
