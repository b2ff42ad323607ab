import collections
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import dirikit as dk
from dirikit import metrics
from dirikit.errors import (
    DimensionMismatch,
    DirikitError,
    InvalidMetric,
    NotIrreducible,
    NotRecurrent,
    NumericOverflow,
    SpaceMismatch,
)
from dirikit.sampling import random_form, random_intertwined_pair, relabel_pair
from dirikit.tolerances import DEFAULT_TOL, Tolerance

from conftest import (
    boundary_factor,
    dense_canonical_distances,
    diagonal_overflow_form,
    matrix_jump_energy,
    oracle_intrinsic_bijection,
    oracle_triangle_ok,
    resistance_maximizer,
    rng_for,
)


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
        with pytest.raises(NotIrreducible, match="^effective resistance needs a connected"):
            dk.effective_resistance(form, "a", "b")

    def test_rejects_killing(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        with pytest.raises(NotRecurrent, match="^effective resistance is undefined in the"):
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
        # scratch buffer, plus the entry check's boolean masks
        form = dk.generate("sierpinski", 5)
        form.green
        n = len(form.space)
        tracemalloc.start()
        try:
            matrix = dk.resistance_matrix(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8
        assert dk.PseudoMetric(form.space.vertices, matrix.d) == matrix  # the full check

    def test_tolerance_reaches_validation(self):
        # the resistance metric is a metric by theorem and takes no
        # tolerance; one reaches the full check of the same matrix as outside
        # input, where the rounding gaps of a path's tight triangles (about
        # 1e-14) pass by default and fail at 1e-300
        form = dk.generate("path", 20, conductance=0.7)
        matrix = dk.resistance_matrix(form)
        with pytest.raises(TypeError):
            dk.resistance_matrix(form, DEFAULT_TOL)
        assert dk.PseudoMetric(form.space.vertices, matrix.d) == matrix
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.PseudoMetric(form.space.vertices, matrix.d, Tolerance(rel=1e-300))


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
            assert dk.PseudoMetric(form.space.vertices, matrix.d) == matrix  # the full check

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

    def test_constant_scaling_with_equal_masses(self):
        # tau = id on C5 with h = pi 1e10 intertwines C5 with itself; mean h
        # and sqrt(mean h^2) differ by 3.8e-6, far above a bound in the
        # units of R, and the plain isometry holds exactly
        form = dk.generate("cycle", 5)
        names = form.space.vertices
        iso = dk.OrderIso(form.space, form.space, {v: v for v in names},
                          {v: math.pi * 1e10 for v in names})
        reports = certify_reports(form, form, iso)
        assert [report["verdict"] for report in reports] == [True] * 4
        check = reports[2]["checks"][1]
        assert (check["name"], check["residual"]) == ("equal_mass_isometry", 0.0)

    def test_tolerance_reaches_validation(self):
        # the tolerance bounds the identities, not the resistance matrices,
        # which are metrics by theorem: at 1e-300 the path's tight triangles
        # raise nothing, and the identity holds exactly
        form = dk.generate("path", 20, conductance=0.7)
        iso = dk.OrderIso.identity(form.space)
        assert dk.verify_resistance_isometry(iso, form, form).verdict
        report = dk.verify_resistance_isometry(iso, form, form, Tolerance(rel=1e-300))
        assert report.verdict
        assert report["resistance_isometry"].residual == 0.0
        assert report["resistance_isometry"].tol < 1e-290

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

    @pytest.mark.parametrize("factor", [-1.0, math.nan])
    def test_scaled_checks_entries(self, factor):
        # a multiple of a metric is one, and only its entries are checked
        metric = dk.PseudoMetric(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(metric.scaled(2.0).d, 2.0 * metric.d)
        with pytest.raises(InvalidMetric, match="finite and >= 0"):
            metric.scaled(factor)

    def test_input_array_is_copied(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        metric = dk.PseudoMetric(("a", "b"), a)
        assert a.flags.writeable and not metric.d.flags.writeable
        a[0, 1] = 5.0
        assert metric.d[0, 1] == 1.0


def broadcast_violation(d):
    # independent route: every d[i,k] - (d[i,j] + d[j,k]) in one n^3 array
    return float(np.max(d[:, None, :] - (d[:, :, None] + d[None, :, :])))


def last_pivot_metric(n, excess, pair=(0, 1)):
    """Distances in [1, 1.5] among the first n - 1 vertices, and a last
    vertex half a unit from the two vertices of ``pair``: d[pair] = 1 + excess
    breaks the triangle inequality through the last pivot only."""
    i, k = pair
    d = np.full((n, n), 1.5)
    d[:, -1] = d[-1, :] = 1.0
    d[i, -1] = d[-1, i] = d[k, -1] = d[-1, k] = 0.5
    d[i, k] = d[k, i] = 1.0 + excess
    np.fill_diagonal(d, 0.0)
    return d


TRIANGLE_SIZES = [1, 2, 63, 64, 65, 128, 129, 200]
TRIANGLE_KINDS = ["symmetric", "near_symmetric", "lower", "upper", "negative_zero"]


def triangle_case(rng, n, kind):
    """Distances between points on a line, where every triangle through a
    point between two others is tight, with the pair (i, k) pushed apart by
    about the tolerance bound.

    symmetric: both entries of the pair, by half or twice the bound;
    near_symmetric: the same, plus one-sided noise below half the bound on
    random entries, so the matrix is symmetric within tolerance only;
    lower / upper: half the bound on both entries and another 1/4 or 3/4 on
    the entry below or above the diagonal alone;
    negative_zero: as symmetric, with every zero entry written as -0.0.
    """
    # the pair sits at a tile edge or anywhere; every other point lies
    # between its two points, so each one is a tight pivot for it
    edges = [v for v in (0, 63, 64, 65, 127, 128, n - 1) if v < n]
    i, k = (rng.choice(edges, size=2, replace=False) if n > 1 and rng.random() < 0.5
            else rng.choice(n, size=2, replace=n < 2))
    x = rng.choice(rng.uniform(0.0, 4.0, size=max(1, n // 3)), size=n)
    x[i], x[k] = -1.0, 5.0
    d = np.abs(x[:, None] - x[None, :])
    bound = DEFAULT_TOL.bound(max(1.0, float(np.max(d))))
    if i == k:
        return d
    if kind in ("lower", "upper"):
        d[i, k] += 0.5 * bound
        d[k, i] = d[i, k]
        one_sided = (max(i, k), min(i, k)) if kind == "lower" else (min(i, k), max(i, k))
        d[one_sided] += rng.choice([0.25, 0.75]) * bound
        return d
    d[i, k] += rng.choice([0.5, 2.0]) * bound
    d[k, i] = d[i, k]
    if kind == "near_symmetric":
        noise = rng.uniform(0.0, 0.5 * bound, size=(n, n)) * (rng.random((n, n)) < 0.1)
        np.fill_diagonal(noise, 0.0)
        d += noise
    if kind == "negative_zero":
        d[d == 0.0] = -0.0
    return d


def assert_matches_triangle_oracle(d, tol=DEFAULT_TOL):
    """PseudoMetric accepts d exactly when the pivot oracle does; returns
    the oracle's verdict."""
    names = tuple(f"v{i}" for i in range(len(d)))
    bound = tol.bound(max(1.0, float(np.max(d))))
    assert np.max(np.abs(d - d.T)) <= bound  # the case reaches the triangle check
    ok = oracle_triangle_ok(d, bound)
    if ok:
        assert np.array_equal(dk.PseudoMetric(names, d, tol).d, d)
    else:
        with pytest.raises(InvalidMetric, match="triangle"):
            dk.PseudoMetric(names, d, tol)
    return ok


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

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_pivot_oracle(self, seed):
        rng = rng_for(seed)
        n = int(rng.choice(TRIANGLE_SIZES))
        kind = str(rng.choice(TRIANGLE_KINDS))
        assert_matches_triangle_oracle(triangle_case(rng, n, kind))

    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_seeded_cases_around_tile_edges(self, kind):
        rng = rng_for(77)
        verdicts = set()
        for n in TRIANGLE_SIZES:
            for _ in range(2):
                verdicts.add(assert_matches_triangle_oracle(triangle_case(rng, n, kind)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("below", [True, False])
    def test_one_sided_violation(self, below):
        # symmetric within tolerance, with the violation at (65, 0) or
        # (0, 65) alone: outside the square of either 64-row tile
        n = 70
        bound = DEFAULT_TOL.bound(1.5)
        d = last_pivot_metric(n, 0.5 * bound, pair=(0, 65))
        d[(65, 0) if below else (0, 65)] += 0.75 * bound
        assert not np.array_equal(d, d.T)
        assert not assert_matches_triangle_oracle(d)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_violation_at_last_pivot_of_last_tile(self, factor):
        # rows 128-130 form the last tile, 130 is the last pivot
        n = 131
        bound = DEFAULT_TOL.bound(1.5)
        d = last_pivot_metric(n, factor * bound, pair=(128, 129))
        per_pivot = [float(np.max(d - (d[:, j, None] + d[j]))) for j in range(n)]
        assert max(per_pivot[:-1]) <= 0.0 < per_pivot[-1]
        assert assert_matches_triangle_oracle(d) == (factor < 1.0)

    def test_sierpinski_l6_in_quadratic_memory(self):
        # 1095 vertices: an n^3 check would need about 10 GB per temporary
        level = 6
        form = dk.generate("sierpinski", level)
        tracemalloc.start()
        try:
            matrix = dk.resistance_matrix(form)
            assert dk.PseudoMetric(form.space.vertices, matrix.d) == matrix  # the full check
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
        with pytest.raises(NotIrreducible, match="^path metric needs a connected"):
            dk.canonical_intrinsic_metric(dk.build_form(["a", "b"], 1.0, []))

    def test_matches_dense_undirected_paths(self):
        # every edge length is at least sqrt(1e-3 / (30 * 1e3)), far above
        # the 1e-8 below which the dense route drops edges
        rng = rng_for(78)
        forms = [
            random_form(rng, int(rng.integers(2, 31)), recurrent=bool(rng.random() < 0.5),
                        b_range=(1e-3, 1e3), m_range=(1e-3, 1e3))
            for _ in range(40)
        ]
        forms += [dk.generate("sierpinski", level) for level in (3, 5)]
        for form in forms:
            # the two routes round d(x, y) and d(y, x) alike, and the
            # canonical metric keeps the shorter of the two
            dense = dense_canonical_distances(form)
            assert np.array_equal(dk.canonical_intrinsic_metric(form).d,
                                  np.minimum(dense, dense.T))

    def test_exactly_symmetric(self):
        # Dijkstra rounds d(x, y) and d(y, x) apart on many random forms;
        # the symmetric minimum still passes the full check
        rng = rng_for(79)
        for _ in range(100):
            form = random_form(rng, int(rng.integers(2, 40)))
            metric = dk.canonical_intrinsic_metric(form)
            assert np.array_equal(metric.d, metric.d.T)
            assert dk.PseudoMetric(form.space.vertices, metric.d) == metric

    def test_edges_shorter_than_1e_8(self):
        # m = 1e-16 on a unit path: edges of length sqrt(0.5e-16) ~ 7e-9,
        # which a dense graph input masks as missing
        form = dk.generate("path", 3, measure=1e-16)
        assert np.isinf(dense_canonical_distances(form)[0, 1])
        metric = dk.canonical_intrinsic_metric(form)
        edge = math.sqrt(0.5e-16)
        assert metric.d[0, 1] == metric.d[1, 2] == pytest.approx(edge, rel=1e-15)
        assert metric.d[0, 2] == pytest.approx(2.0 * edge, rel=1e-15)
        assert dk.is_intrinsic(form, metric).ok

    def test_overflowing_degree_raises(self):
        # deg(v1) = 3e308 overflows, so both edges get length 0 and are
        # dropped: v0 and v2 are then infinitely far apart
        form = dk.build_form(["v0", "v1", "v2"], 1.0,
                             [("v0", "v1", 1.5e308), ("v1", "v2", 1.5e308)])
        with pytest.raises(InvalidMetric, match="finite"):
            dk.canonical_intrinsic_metric(form)

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

    def test_asymmetric_within_tolerance(self):
        # the constructor accepts asymmetry within tol, and transport keeps it
        space = dk.MeasureSpace(["a", "b"], 1.0)
        d = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        metric = dk.PseudoMetric(space.vertices, d)
        swap = dk.OrderIso(space, space, {"a": "b", "b": "a"}, {"a": 1.0, "b": 1.0})
        assert np.array_equal(dk.pushforward_metric(metric, swap).d, d.T)

    def test_space_mismatch(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        other = dk.PseudoMetric(("x", "y"), np.zeros((2, 2)))
        with pytest.raises(SpaceMismatch):
            dk.pushforward_metric(other, dk.OrderIso.identity(space))

    @pytest.mark.parametrize("seed", range(40))
    def test_preserves_axioms(self, seed):
        # clip into a valid triangle of distances, then push along a rotation
        a, b, c = rng_for(seed).uniform(0.0, 10.0, size=3)
        a = min(a, b + c)
        b = min(b, a + c)
        c = min(c, a + b)
        d = np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
        space1 = dk.MeasureSpace(["v0", "v1", "v2"], 1.0)
        space2 = dk.MeasureSpace(["w0", "w1", "w2"], 1.0)
        metric = dk.PseudoMetric(space1.vertices, d)
        tau = {"w0": "v2", "w1": "v0", "w2": "v1"}
        iso = dk.OrderIso(space1, space2, tau, {y: 1.0 for y in tau})
        pushed = dk.pushforward_metric(metric, iso)
        assert pushed == dk.PseudoMetric(space2.vertices, pushed.d)  # re-checks the axioms

    def test_transported_metrics_pass_full_validation(self):
        rng = rng_for(83)
        for n in (1, 2, 5, 17, 40):
            form = random_form(rng, n, recurrent=True)
            _, iso = relabel_pair(rng, form, scale=float(rng.uniform(0.5, 2.0)))
            idx = iso.tau_indices
            canonical = dk.canonical_intrinsic_metric(form)
            scaled = canonical.scaled(float(rng.uniform(0.1, 3.0)))
            for metric in (dk.resistance_matrix(form), canonical, scaled):
                pushed = dk.pushforward_metric(metric, iso)
                assert pushed == dk.PseudoMetric(iso.target.vertices, metric.d[np.ix_(idx, idx)])
                assert pushed.vertices == iso.target.vertices
                assert not pushed.d.flags.writeable


def certify_reports(form1, form2, iso):
    """The reports ``dirikit certify`` joins, as dicts."""
    reports = [dk.certify(iso, form1, form2), dk.verify_jump_transform(iso, form1, form2)]
    if dk.is_recurrent(form1) and dk.is_recurrent(form2):
        reports.append(dk.verify_resistance_isometry(iso, form1, form2))
        reports.append(dk.verify_intrinsic_bijection(iso, form1, form2))
    return [report.to_dict() for report in reports]


class TestReportsWithoutRevalidation:
    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    def test_same_as_full_validation(self, monkeypatch, transform):
        def pair(n):
            return random_intertwined_pair(rng_for(85 + n), n, transform, recurrent=True)

        sizes = (2, 6, 17, 40)
        got = [certify_reports(*pair(n)) for n in sizes]
        # every metric the library builds validated in full, on freshly
        # built forms: per recurrent pair the two resistance matrices (the
        # intrinsic certificate reads the canonical metric on edges only)
        validated = []

        def full(cls, vertices, d):
            validated.append(d)
            return cls(vertices, d)

        monkeypatch.setattr(dk.PseudoMetric, "_trusted", classmethod(full))
        assert got == [certify_reports(*pair(n)) for n in sizes]
        assert len(validated) == (2 * len(sizes) if transform == "relabel" else 0)
        assert all(len(reports) == (4 if transform == "relabel" else 2) for reports in got)


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

    def test_canonical_metric_saturates(self):
        # at a vertex x that minimises m/deg every edge of x is a shortest
        # path of length sqrt(m(x)/deg(x)), so its jump energy is m(x) and
        # the boundary factor is 1: no separate boundary sample is needed
        rng = rng_for(77)
        worst = 0.0
        for i in range(240):
            n = int(rng.integers(2, 41))
            form = random_form(rng, n, recurrent=True)
            if i % 2:  # b and m spread over [1e-3, 1e3]
                form = scaled_pair_form(form, 1.0, 10.0 ** rng.uniform(-3, 3, n),
                                        10.0 ** rng.uniform(-3, 3, len(form.weights)))
            f = boundary_factor(form, dk.canonical_intrinsic_metric(form))
            worst = max(worst, abs(f - 1.0))
        assert worst <= 4 * np.finfo(float).eps, worst

    def test_requires_recurrent(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        partner, iso = dk.doob_pair(form, [1.0, 2.0])
        with pytest.raises(NotRecurrent):
            dk.verify_intrinsic_bijection(iso, form, partner)

    def test_default_samples_cover_both_classes(self):
        form = dk.generate("path", 4)
        report = dk.verify_intrinsic_bijection(dk.OrderIso.identity(form.space), form, form)
        assert [(c.name, c.detail) for c in report.checks] == [
            ("intrinsic_pushforward_canonical", "source=in target=in"),
            ("intrinsic_pushforward_inflated", "source=out target=out"),
        ]


def scaled_pair_form(form, factor, m=None, weights=None):
    """The form with its measure and conductances replaced (by default kept)
    and every b, c and m then multiplied by ``factor``."""
    m = form.space.m if m is None else m
    weights = form.weights if weights is None else weights
    space = dk.MeasureSpace(form.space.vertices, factor * m)
    return dk.GraphForm._from_columns(space, *form.edge_ends(), factor * weights, factor * form.c)


def printed_slacks(detail):
    source, target = detail.split("; source slack=")[1].split(" target slack=")
    return [np.array(text.strip("[]").split(), dtype=float) for text in (source, target)]


def compare_with_matrix_route(iso, form1, form2, tol=DEFAULT_TOL):
    """Require the report of the route that builds each sample as a matrix:
    the same checks, residuals, tols and details, or the same exception
    type.  The slack vectors that an inflated disagreement prints are
    m - c^2 E here and m - energy(c d) there, so those agree to rounding,
    not bit for bit.  Returns the exception's name, or the number
    of checks and the names of the samples whose slacks were printed."""
    outcomes = []
    for route in (dk.verify_intrinsic_bijection, oracle_intrinsic_bijection):
        try:
            outcomes.append(route(iso, form1, form2, tol).to_dict()["checks"])
        except DirikitError as exc:
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, type):
        assert got is want
        return [want.__name__]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    seen = [len(got)]
    for check, base in zip(got, want):
        name = check["name"].removeprefix("intrinsic_pushforward_")
        if name == "inflated" and "slack" in base["detail"]:
            seen.append(f"printed {name}")
            prefix = base["detail"].split(";")[0]
            assert check["detail"].startswith(prefix + "; source slack="), name
            for ours, theirs in zip(printed_slacks(check["detail"]),
                                    printed_slacks(base["detail"]), strict=True):
                atol = 1e-12 * float(np.max(np.abs(theirs)))
                assert np.allclose(ours, theirs, rtol=1e-5, atol=atol), name
            check, base = dict(check, detail=None), dict(base, detail=None)
        assert check == base, name
    return seen


class TestIntrinsicBijectionOracle:
    def test_matches_matrix_route(self):
        rng = rng_for(86)
        seen = collections.Counter()
        for i in range(760):
            n = int(rng.integers(1, 61))
            form1 = random_form(rng, n, recurrent=i % 8 != 7)
            if i % 3 == 1:  # b and m spread over [1e-3, 1e3]
                form1 = scaled_pair_form(form1, 1.0, 10.0 ** rng.uniform(-3, 3, n),
                                         10.0 ** rng.uniform(-3, 3, len(form1.weights)))
            k = int(rng.integers(-199, 200)) if i % 3 == 2 else 0
            form2, iso = relabel_pair(rng, form1, scale=2.0**k)
            if i % 4 == 3:  # both forms scaled by one power of two
                j = int(rng.integers(-300, 301))
                form1, form2 = scaled_pair_form(form1, 2.0**j), scaled_pair_form(form2, 2.0**j)
                iso = dk.OrderIso(form1.space, form2.space, iso.tau, iso.h)
            swapped = i % 10 == 9 and n >= 2
            if swapped:  # two images of tau swapped
                y0, y1 = iso.target.vertices[:2]
                tau = dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]})
                iso = dk.OrderIso(iso.source, iso.target, tau, iso.h)
            outcome = compare_with_matrix_route(iso, form1, form2)
            if swapped:
                # the guard's bound is relative at every entry with no
                # floor, so a small h or L does not let a wrong tau pass
                assert outcome in (["NotIntertwining"], ["NotRecurrent"]), (i, outcome)
            seen.update(outcome)
        # a target measure 1.5 times too large, which a loose tolerance lets
        # past the guard (L2 = L1 / 1.5 on the diagonal is within 0.9 of
        # it): the inflated sample is out on the source only
        loose = Tolerance(rel=0.9)
        for _ in range(40):
            form1 = random_form(rng, int(rng.integers(2, 61)), recurrent=True)
            form2, iso = relabel_pair(rng, form1)
            form2 = scaled_pair_form(form2, 1.0, 1.5 * form2.space.m)
            iso = dk.OrderIso(form1.space, form2.space, iso.tau, iso.h)
            seen.update(compare_with_matrix_route(iso, form1, form2, loose))
        # every branch is reached: one-vertex forms, two samples, transient
        # pairs, swapped images that fail the guard, and printed slacks
        assert seen[1] and seen[1] + seen[2] >= 600, seen
        assert seen["NotRecurrent"] and seen["NotIntertwining"], seen
        assert seen["printed inflated"] >= 40, seen

    def test_infinite_energy_is_out_on_both_sides(self, monkeypatch):
        # m - E and m - 2.25 E are -inf, not NaN, and raise no warning
        form = dk.generate("path", 3)
        monkeypatch.setattr(metrics, "_jump_energy",
                            lambda form, d_ij, d_ji: np.full(len(form.space), np.inf))
        report = dk.verify_intrinsic_bijection(dk.OrderIso.identity(form.space), form, form)
        assert [(c.name, c.detail) for c in report.checks] == [
            ("intrinsic_pushforward_canonical", "source=out target=out"),
            ("intrinsic_pushforward_inflated", "source=out target=out"),
        ]


def edge_route_calls(monkeypatch, iso, form1, form2):
    """The certificate's two energies, required to equal bit for bit the
    matrix oracle's energies of the canonical metric and of its
    pushforward; returns the routes the edge route took: the number of
    pairs of each Dijkstra run, or "full" for the full matrix."""
    calls = []
    dijkstra_to, full = metrics._dijkstra_to, metrics.canonical_intrinsic_metric

    def spy_dijkstra(lengths, x, y):
        calls.append(len(x) // 2)  # each pair runs from both of its ends
        return dijkstra_to(lengths, x, y)

    def spy_full(form):
        calls.append("full")
        return full(form)

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_dijkstra_to", spy_dijkstra)
        patch.setattr(metrics, "canonical_intrinsic_metric", spy_full)
        e1, e2 = metrics._canonical_energies(iso, form1, form2)
    canonical = dk.canonical_intrinsic_metric(form1)
    assert np.array_equal(e1, matrix_jump_energy(form1, canonical))
    assert np.array_equal(e2, matrix_jump_energy(form2, dk.pushforward_metric(canonical, iso)))
    return calls


class TestCanonicalOnEdges:
    def test_matches_matrix_route(self, monkeypatch):
        rng = rng_for(87)
        forms = []
        for i in range(200):
            n = int(rng.integers(2, 81))
            form = random_form(rng, n, recurrent=True)
            if i % 2:  # b and m spread over [1e-6, 1e6]
                form = scaled_pair_form(form, 1.0, 10.0 ** rng.uniform(-6, 6, n),
                                        10.0 ** rng.uniform(-6, 6, len(form.weights)))
            forms.append(form)
        # families whose edges tie in length
        forms += [dk.generate("cycle", n) for n in (3, 8, 25)]
        forms += [dk.generate("complete", n) for n in (2, 6, 17)]
        forms += [dk.generate("sierpinski", level) for level in (1, 3, 4)]
        forms.append(dk.generate("path", 1))
        runs = collections.Counter()
        for form in forms:
            form2, iso = relabel_pair(rng, form, scale=float(rng.uniform(0.5, 2.0)))
            calls = edge_route_calls(monkeypatch, iso, form, form2)
            assert "full" not in calls
            runs["dijkstra" if calls else "shortcut only"] += 1
        assert runs["dijkstra"] >= 20 and runs["shortcut only"] >= 20, runs

    def test_edge_longer_than_a_path(self, monkeypatch):
        # the light vertex z makes the canonical lengths sqrt(1/2) on x y
        # and sqrt(1e-4 / 2) on the two edges at z, so x y fails the
        # one-edge test and the path through z settles it
        form = dk.build_form(["x", "y", "z"], {"x": 1.0, "y": 1.0, "z": 1e-4},
                             [("x", "y", 1.0), ("x", "z", 1.0), ("y", "z", 1.0)])
        d = dk.canonical_intrinsic_metric(form).d
        assert d[0, 1] == 2.0 * d[0, 2] < math.sqrt(0.5)
        form2, iso = relabel_pair(rng_for(88), form)
        assert edge_route_calls(monkeypatch, iso, form, form2) == []

    def test_edge_longer_than_a_three_edge_path(self, monkeypatch):
        # the square x a b y with light a and b: the edge x y of length
        # sqrt(1/2) fails both tests, as x and y share no neighbour, and
        # Dijkstra finds x a b y
        m = {"x": 1.0, "y": 1.0, "a": 1e-4, "b": 1e-4}
        form = dk.build_form(list(m), m, [("x", "y", 1.0), ("x", "a", 1.0),
                                          ("a", "b", 1.0), ("b", "y", 1.0)])
        d = dk.canonical_intrinsic_metric(form).d
        assert d[0, 1] < math.sqrt(0.5)
        form2, iso = relabel_pair(rng_for(89), form)
        # the edge x y and its tau-image, which is x y again
        assert edge_route_calls(monkeypatch, iso, form, form2) == [2]

    def test_path_shorter_from_one_end(self, monkeypatch):
        # the square x a b y with edge lengths 1 on x a, beta on a b and b y,
        # and (1 + beta) + beta on x y: the path x a b y adds to that from x
        # and to one ulp less from y, so x y passes the three-edge bound
        # from x only, and Dijkstra from y finds the shorter sum
        beta = 0.072
        edge = (1.0 + beta) + beta
        assert (beta + beta) + 1.0 < edge
        m = {"x": 2.0 * edge**2, "a": 2.0, "b": 2.0 * beta**2, "y": 2.0 * edge**2}
        form = dk.build_form(list(m), m, [("x", "y", 1.0), ("x", "a", 1.0),
                                          ("a", "b", 1.0), ("b", "y", 1.0)])
        _, _, sigma = metrics._edge_lengths(form)
        assert sorted(sigma) == [beta, beta, 1.0, edge]
        assert dk.canonical_intrinsic_metric(form).d[0, 3] == (beta + beta) + 1.0
        iso = dk.OrderIso.identity(form.space)
        assert edge_route_calls(monkeypatch, iso, form, form) == [2]

    def test_tau_image_off_the_edges(self, monkeypatch):
        # an edge of 1e-12 between the ends of the unit path P4 is within
        # the intertwining bound, and its image under the identity is no
        # edge of the path and has no path of two edges: Dijkstra finds it
        path = dk.generate("path", 4)
        names = path.space.vertices
        chord = dk.build_form(names, 1.0, [("v0", "v1", 1.0), ("v1", "v2", 1.0),
                                           ("v2", "v3", 1.0), ("v0", "v3", 1e-12)])
        iso = dk.OrderIso(path.space, chord.space, {v: v for v in names},
                          {v: 1.0 for v in names})
        assert edge_route_calls(monkeypatch, iso, path, chord) == [1]
        assert compare_with_matrix_route(iso, path, chord) == [2]

    @pytest.mark.parametrize("connected", [True, False])
    def test_infinite_edge_length(self, monkeypatch, connected):
        # m / deg overflows at x and y, so the edge x y has length inf; the
        # full route drops it, which leaves the path x z w y, or nothing
        m = {"x": 1e300, "y": 1e300, "z": 1.0, "w": 1.0}
        edges = [("x", "y", 1e-10)]
        if connected:
            edges += [("x", "z", 1e-10), ("y", "w", 1e-10), ("z", "w", 1.0)]
        else:
            m = {"x": 1e300, "y": 1e300}
        form = dk.build_form(list(m), m, edges)
        _, _, sigma = metrics._edge_lengths(form)
        assert np.count_nonzero(sigma == math.inf) == 1
        iso = dk.OrderIso.identity(form.space)
        if connected:
            assert edge_route_calls(monkeypatch, iso, form, form) == ["full"]
            assert compare_with_matrix_route(iso, form, form) == [2]
        else:
            assert compare_with_matrix_route(iso, form, form) == ["InvalidMetric"]
