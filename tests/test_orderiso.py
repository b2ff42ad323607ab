import math
import warnings

import numpy as np
import pytest

import dirikit as dk
from dirikit.errors import (
    DirikitError,
    NonPositive,
    NotBijective,
    NotExcessive,
    NotIntertwining,
    NotIrreducible,
    NumericOverflow,
)
from dirikit import jsonio
from dirikit.orderiso import _entry_scale, require_intertwining
from dirikit.sampling import doob_pair_sample, random_form, random_intertwined_pair, relabel_pair
from dirikit.search import SearchOptions, residual_bound

from conftest import (
    adjoint,
    apply,
    brute_force_intertwiners,
    construction_outcome,
    inner,
    iso_matrix,
    l_only_intertwiners,
    oracle_worst_entry,
    rng_for,
)


def killed_pair():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})


def swap_iso(space1, space2, h=1.0):
    names1, names2 = space1.vertices, space2.vertices
    tau = {names2[0]: names1[1], names2[1]: names1[0]}
    return dk.OrderIso(space1, space2, tau, {v: h for v in names2})


class TestApply:
    def test_identity(self):
        form = killed_pair()
        iso = dk.OrderIso.identity(form.space)
        f = np.array([3.0, 5.0])
        assert np.array_equal(apply(iso, f), f)

    def test_swap(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        iso = swap_iso(space, space)
        assert np.array_equal(apply(iso, [3.0, 5.0]), [5.0, 3.0])

    def test_doob_scaling(self):
        space1 = dk.MeasureSpace(["a", "b"], 1.0)
        space2 = dk.MeasureSpace(["a", "b"], {"a": 1.0, "b": 4.0})
        iso = dk.OrderIso(space1, space2, {"a": "a", "b": "b"}, {"a": 1.0, "b": 0.5})
        assert np.allclose(apply(iso, [1.0, 2.0]), [1.0, 1.0])

    def test_positivity_preserving(self):
        rng = rng_for(41)
        form = random_form(rng, 5)
        form2, iso = relabel_pair(rng, form, scale=1.7)
        f = rng.uniform(0.0, 3.0, size=5)
        assert np.all(apply(iso, f) >= 0.0)


class TestValidation:
    def test_tau_must_be_bijection(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        with pytest.raises(NotBijective):
            dk.OrderIso(space, space, {"a": "a", "b": "a"}, {"a": 1.0, "b": 1.0})
        with pytest.raises(NotBijective):
            dk.OrderIso(space, space, {"a": "a"}, {"a": 1.0, "b": 1.0})

    def test_h_must_be_positive(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        with pytest.raises(NonPositive):
            dk.OrderIso(space, space, {"a": "a", "b": "b"}, {"a": 1.0, "b": 0.0})


class TestAdjoint:
    def test_identity(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        iso = dk.OrderIso.identity(space)
        assert np.allclose(adjoint(iso), np.eye(2))

    def test_swap_equal_measures(self):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        iso = swap_iso(space, space)
        assert np.allclose(adjoint(iso), [[0.0, 1.0], [1.0, 0.0]])

    def test_doob_iso_is_isometry(self):
        # target measure h_ex^2 m with scaling 1/h_ex gives U*U = I
        space1 = dk.MeasureSpace(["a", "b"], 1.0)
        space2 = dk.MeasureSpace(["a", "b"], {"a": 1.0, "b": 4.0})
        iso = dk.OrderIso(space1, space2, {"a": "a", "b": "b"}, {"a": 1.0, "b": 0.5})
        assert np.allclose(adjoint(iso) @ iso_matrix(iso), np.eye(2))

    def test_pairing_identity_random(self):
        rng = rng_for(42)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            form = random_form(rng, n)
            form2, iso = relabel_pair(rng, form, scale=float(rng.uniform(0.5, 2.0)))
            # arbitrary positive rescaling of h keeps it an order isomorphism
            factor = float(rng.uniform(0.5, 2.0))
            iso = dk.OrderIso(
                iso.source, iso.target, iso.tau,
                {y: factor * v for y, v in iso.h.items()},
            )
            f = rng.normal(size=n)
            g = rng.normal(size=n)
            lhs = inner(iso.target, apply(iso, f), g)
            rhs = inner(iso.source, f, adjoint(iso) @ g)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert np.all(adjoint(iso) @ np.abs(g) >= 0.0)


def dense_residual(iso, gen1, gen2):
    # independent route: the matrix of U and two dense products
    u = iso_matrix(iso)
    return float(np.max(np.abs(u @ gen1.L - gen2.L @ u)))


def residual_sample(rng, kind):
    n = int(rng.integers(2, 9))
    if kind == "doob":
        return doob_pair_sample(rng, n)
    form1 = random_form(rng, n)
    form2, iso = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
    if kind == "swapped":
        y0, y1 = iso.target.vertices[:2]
        tau = dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]})
        iso = dk.OrderIso(iso.source, iso.target, tau, iso.h)
    return form1, form2, iso


class TestResidual:
    @pytest.mark.parametrize("kind", ["relabel", "doob", "swapped"])
    def test_matches_dense_oracle(self, kind):
        rng = rng_for(44)
        for _ in range(20):
            form1, form2, iso = residual_sample(rng, kind)
            gen1, gen2 = dk.generator(form1), dk.generator(form2)
            assert dk.intertwining_residual(iso, gen1, gen2) == dense_residual(iso, gen1, gen2)

    @pytest.mark.parametrize("kind", ["relabel", "doob", "swapped"])
    def test_certify_matches_dense_oracle(self, kind):
        # dense U, U* and U^T F2 U against certify's gathered residuals; the
        # loose tolerance lets the swapped (non-intertwining) pairs through
        loose = dk.Tolerance(rel=1e6)
        rng = rng_for(45)
        for _ in range(20):
            form1, form2, iso = residual_sample(rng, kind)
            beta = dk.operator_constant(iso)
            u, u_star = iso_matrix(iso), adjoint(iso)
            op = max(
                float(np.max(np.abs(u_star @ u - beta * np.eye(len(iso.source))))),
                float(np.max(np.abs(u @ u_star - beta * np.eye(len(iso.target))))),
            )
            gram2 = u.T @ form2.form_matrix @ u
            # in target order, as certify reads them, so that ties resolve alike
            back = np.ix_(iso.tau_indices, iso.tau_indices)
            form_gap = np.abs(gram2 - beta * form1.form_matrix)[back]
            root = np.sqrt(np.diag(gram2[back]))
            bound = loose.rel * np.outer(root, root)
            report = dk.certify(iso, form1, form2, loose)
            assert report["operator_constant"].residual == op
            # the worst entry against h(y) h(z) sqrt(F2[y, y] F2[z, z]); the
            # square roots of h^2 F2 here round apart from h sqrt(F2) there
            entry = oracle_worst_entry(form_gap, bound)
            assert report["form_scaling"].residual == form_gap[entry]
            assert report["form_scaling"].tol == pytest.approx(bound[entry], rel=1e-14)

    def test_identity_on_same_form(self):
        form = killed_pair()
        gen = dk.generator(form)
        iso = dk.OrderIso.identity(form.space)
        assert dk.intertwining_residual(iso, gen, gen) == 0.0

    def test_doob_pair_residual(self):
        form = killed_pair()
        form2, iso = dk.doob_pair(form, [1.0, 2.0])
        assert dk.intertwining_residual(iso, dk.generator(form), dk.generator(form2)) <= 1e-12

    def test_nan_residual_rejected(self):
        # h L1 and L2 h both overflow: the residual is inf - inf = NaN against
        # an infinite bound, and NaN > bound is False
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1e200)])
        gen = dk.generator(form)
        iso = dk.OrderIso(form.space, form.space, {"a": "a", "b": "b"},
                          {"a": 1e200, "b": 1e200})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotIntertwining):
                require_intertwining(iso, gen, gen)

    def test_guard_bound_is_relative(self):
        # h = 2^-50: the residual of a wrong tau is far below an absolute
        # floor of 1e-12, but not below rel * max h * max|L|
        rng = np.random.default_rng(5)
        form1 = random_form(rng, 6, recurrent=True)
        form2, iso = relabel_pair(rng, form1, scale=2.0**100)
        assert dk.certify(iso, form1, form2).verdict
        y0, y1 = iso.target.vertices[:2]
        tau = dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]})
        swapped = dk.OrderIso(iso.source, iso.target, tau, iso.h)
        assert 0.0 < dk.intertwining_residual(swapped, form1, form2) < 1e-12
        with pytest.raises(NotIntertwining):
            dk.certify(swapped, form1, form2)

    def test_overflowing_guard_scale(self):
        # the bound of the entry (a, c) is rel h(a) sqrt(m(c) / m(a)) times
        # about 1, 1e-9 * 1e209 * 1e100, and no entry of h L overflows; an
        # infinite bound would pass its residual 1e209
        form = dk.build_form(["a", "b", "c"], {"a": 1.0, "b": 1.0, "c": 1e200},
                             [("a", "c", 1.0), ("b", "c", 1e200)])
        iso = dk.OrderIso(form.space, form.space, {v: v for v in "abc"},
                          {"a": 1e209, "b": 1.0, "c": 1.0})
        assert dk.intertwining_residual(iso, form, form) == 1e209
        with pytest.raises(NumericOverflow):
            require_intertwining(iso, form, form)

    def test_mismatched_k2s(self):
        q1 = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        q2 = dk.build_form(["a", "b"], 1.0, [("a", "b", 3.0)])
        iso = swap_iso(q1.space, q2.space)
        residual = dk.intertwining_residual(iso, dk.generator(q1), dk.generator(q2))
        assert residual > 0.1


class TestNonFiniteResidual:
    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_never_passes(self, residual):
        assert not dk.VerificationReport().add("check", residual, math.inf).passed


class TestToleranceValidation:
    @pytest.mark.parametrize("rel", [math.nan, math.inf, 0.0, -1.0])
    def test_rel_positive_and_finite(self, rel):
        with pytest.raises(DirikitError):
            dk.Tolerance(rel=rel)

    def test_smallest_values_accepted(self):
        assert dk.Tolerance(rel=5e-324).bound(1.0) == 5e-324


class TestBoundOverflow:
    """A finite tolerance whose bound leaves the float range raises instead
    of accepting every residual (pytest turns a RuntimeWarning into an
    error, so none may be emitted on the way)."""

    @pytest.mark.parametrize("scale", [2.0, np.float64(2.0), np.array([1.0, 2.0])],
                             ids=["float", "numpy-float", "array"])
    def test_finite_scale_raises(self, scale):
        with pytest.raises(NumericOverflow):
            dk.Tolerance(rel=1e308).bound(scale)

    def test_largest_finite_bound_is_kept(self):
        assert dk.Tolerance(rel=1e308).bound(1.0) == 1e308 + 1e-12
        assert math.isfinite(dk.DEFAULT_TOL.bound(1.7976931348623157e308))

    def test_infinite_scale_keeps_infinite_bound(self):
        assert dk.DEFAULT_TOL.bound(math.inf) == math.inf
        bound = dk.Tolerance(rel=1e308).bound(np.array([math.inf, 1.0]))
        assert bound[0] == math.inf and math.isfinite(bound[1])

    def test_per_vertex_scale(self):
        form = dk.generate("path", 3, measure=2.0)
        metric = dk.canonical_intrinsic_metric(form)
        assert dk.is_intrinsic(form, metric).ok
        with pytest.raises(NumericOverflow):
            dk.is_intrinsic(form, metric, dk.Tolerance(rel=1e308))


class TestCertify:
    def test_identity_iso(self):
        form = dk.generate("cycle", 4)
        report = dk.certify(dk.OrderIso.identity(form.space), form, form)
        assert report.verdict
        assert "beta=1.0" in report["operator_constant"].detail
        assert report["scaling_constancy"].passed
        assert "alpha=1.0" in report["measure_pushforward"].detail

    def test_doob_pair_transient(self):
        form = killed_pair()
        form2, iso = dk.doob_pair(form, [1.0, 2.0])
        report = dk.certify(iso, form, form2)
        assert report.verdict
        assert dk.operator_constant(iso) == pytest.approx(1.0)
        assert "skipped" in report["scaling_constancy"].detail
        assert max(iso.h.values()) / min(iso.h.values()) == pytest.approx(2.0)

    def test_reflected_path_recurrent(self):
        form = dk.build_form(
            ["x0", "x1", "x2"], {"x0": 1.0, "x1": 2.0, "x2": 1.0},
            [("x0", "x1", 1.0), ("x1", "x2", 1.0)],
        )
        reflected = dk.build_form(
            ["y0", "y1", "y2"], {"y0": 1.0, "y1": 2.0, "y2": 1.0},
            [("y0", "y1", 1.0), ("y1", "y2", 1.0)],
        )
        tau = {"y0": "x2", "y1": "x1", "y2": "x0"}
        iso = dk.OrderIso(form.space, reflected.space, tau, {y: 1.0 for y in tau})
        report = dk.certify(iso, form, reflected)
        assert report.verdict
        assert "alpha=1.0" in report["measure_pushforward"].detail

    def test_rejects_non_intertwiner(self):
        q1 = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        q2 = dk.build_form(["a", "b"], 1.0, [("a", "b", 3.0)])
        with pytest.raises(NotIntertwining):
            dk.certify(dk.OrderIso.identity(q1.space), q1, q2)

    def test_requires_irreducible(self):
        form = dk.build_form(["a", "b"], 1.0, [])
        with pytest.raises(NotIrreducible):
            dk.certify(dk.OrderIso.identity(form.space), form, form)

    def test_overflowing_generator_raises(self):
        # b = 1e300 over m = 1e-300 overflows L; the NaN residual once passed
        form = dk.build_form(["a", "b", "c"], 1e-300, [("a", "b", 1e300), ("b", "c", 1e300)])
        with pytest.raises(NumericOverflow):
            dk.certify(dk.OrderIso.identity(form.space), form, form)

    def test_beta_scales_quadratically_in_h(self):
        form = dk.generate("cycle", 4)
        names = form.space.vertices
        iso = dk.OrderIso(form.space, form.space, {v: v for v in names},
                          {v: 2.0 for v in names})
        report = dk.certify(iso, form, form)
        assert report.verdict
        assert dk.operator_constant(iso) == pytest.approx(4.0)

    def test_alpha_out_of_float_range_raises(self):
        # m2 / m1 = 2^1040 with h = 2^-520 on a recurrent pair: beta is 1,
        # but alpha = beta / h^2 is no float; it once read inf, and the
        # pushforward residual NaN
        form1 = dk.generate("path", 3, conductance=2.0**-1000, measure=2.0**-1000)
        form2 = dk.generate("path", 3, conductance=2.0**40, measure=2.0**40)
        names = form1.space.vertices
        iso = dk.OrderIso(form1.space, form2.space, {v: v for v in names},
                          {v: 2.0**-520 for v in names})
        assert iso.beta == 1.0
        with pytest.raises(NumericOverflow, match="^alpha=inf "):
            dk.certify(iso, form1, form2)

    def test_alpha_where_mean_h_squared_underflows(self):
        # mean(h)^2 = 2^-1076 rounds to 0, which once ended in a
        # ZeroDivisionError; beta / h / h is 2^61, and the report is a FAIL
        # on scaling_constancy, which the loose tolerance lets h vary past.
        # The guard's entry (b, a), 2^-537 * 7/8 against rel * 2^-600, needs
        # rel >= 2^63 * 7/8; the ratio of h is 2^63
        form1 = dk.build_form(["a", "b"], 2.0**-60, [("a", "b", 1.0)])
        form2 = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        iso = dk.OrderIso(form1.space, form2.space, {"a": "a", "b": "b"},
                          {"a": 2.0**-537, "b": 2.0**-600})
        report = dk.certify(iso, form1, form2, dk.Tolerance(0.9 * 2.0**63))
        checks = {check.name: check for check in report.checks}
        assert not checks["scaling_constancy"].passed
        assert checks["measure_pushforward"].detail == f"alpha={2.0**61!r}"


def scaled_form(form, factor):
    """The form with every b, c and m multiplied by ``factor``."""
    space = dk.MeasureSpace(form.space.vertices, factor * form.space.m)
    return dk.GraphForm(space, {e: factor * w for e, w in form.b.items()}, factor * form.c)


def scaled_measure(form, factor):
    """The form with every m multiplied by ``factor``."""
    space = dk.MeasureSpace(form.space.vertices, factor * form.space.m)
    return dk.GraphForm(space, form.b, form.c)


def scaled_conductances(form, factor):
    """The form with every b and c multiplied by ``factor``."""
    return dk.GraphForm(form.space, {e: factor * w for e, w in form.b.items()}, factor * form.c)


def pair_reports(form1, form2, iso):
    reports = [dk.certify(iso, form1, form2), dk.verify_jump_transform(iso, form1, form2)]
    if dk.is_recurrent(form1) and dk.is_recurrent(form2):
        reports += [dk.verify_resistance_isometry(iso, form1, form2),
                    dk.verify_intrinsic_bijection(iso, form1, form2)]
    return reports


def search_pairs(rng, kind):
    """Intertwined pairs: random, and scrambled symmetric forms with many
    solutions.  Unrelated pairs: random forms, P6 against C6, and an
    isospectral pair that no bijection intertwines.  Pairs near the bound:
    relabel pairs with conductances moved by up to 3e-8 relative, whose
    outcome (equivalent, spectrum or exhausted) depends on the seed."""
    if kind == "intertwined":
        pairs = [random_intertwined_pair(rng, int(rng.integers(2, 9)), transform)[:2]
                 for transform in ("relabel", "doob") for _ in range(6)]
        for family, n in (("cycle", 6), ("complete", 4), ("sierpinski", 1)):
            form = dk.generate(family, n, conductance=0.9, measure=1.3)
            pairs.append((form, relabel_pair(rng, form, scale=1.7)[0]))
        return pairs
    if kind == "unrelated":
        pairs = [(random_form(rng, n), random_form(rng, n)) for n in (3, 5, 8)]
        pairs.append((dk.generate("path", 6), dk.generate("cycle", 6)))
        pairs.append((dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)]),
                      dk.build_form(["a", "b"], {"a": 2.0, "b": 2.0 / 3.0}, [("a", "b", 1.0)])))
        return pairs
    pairs = []
    for _ in range(10):
        form1 = random_form(rng, 6)
        form2, _ = relabel_pair(rng, form1)
        moved = {e: w * (1.0 + 3e-8 * rng.uniform(-1.0, 1.0)) for e, w in form2.b.items()}
        pairs.append((form1, dk.GraphForm(form2.space, moved, form2.c)))
    return pairs


def search_outcome(form1, form2):
    verdict = dk.equivalence_verdict(form1, form2)
    return verdict.reason, [iso.tau for iso in verdict.solutions]


class TestScaleInvariance:
    """Multiplying b, c and m of both forms by 2^k scales every quantity the
    reports compare by an exact power of two, so each report keeps its
    verdicts, each residual its mantissa and each intrinsic sample the
    membership on either side that its detail names.  The search compares
    the symmetrized generators S_i = M_i^{1/2} L_i M_i^{-1/2} entrywise
    within rel sqrt(s(y) s(z)), s the diagonal of S2, and their spectra.
    Multiplying b and c of both forms by 2^k and m of both by 2^j scales
    both by 2^(k - j); multiplying b, c and m of one form by 2^k and those
    of the other by 2^j leaves them as they are.  Either way the search
    keeps its reason and its tau list: only the square roots of the scaled
    measures round differently, by an ulp, and no entry of these pairs is
    that close to its bound."""

    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    def test_power_of_two_scaling(self, transform):
        rng = rng_for(0)
        for _ in range(40):
            form1, form2, iso = random_intertwined_pair(rng, int(rng.integers(2, 31)), transform)
            expected = pair_reports(form1, form2, iso)
            for _ in range(8):
                k = int(rng.integers(-500, 501))
                g1, g2 = scaled_form(form1, 2.0**k), scaled_form(form2, 2.0**k)
                scaled_iso = dk.OrderIso(g1.space, g2.space, iso.tau, iso.h)
                try:
                    got = pair_reports(g1, g2, scaled_iso)
                except NumericOverflow:
                    continue
                for report, want in zip(got, expected, strict=True):
                    assert [(c.name, c.passed) for c in report.checks] == \
                        [(c.name, c.passed) for c in want.checks], k
                    for check, base in zip(report.checks, want.checks):
                        assert (check.residual == base.residual == 0.0 or math.frexp(
                            check.residual)[0] == math.frexp(base.residual)[0]), (check.name, k)
                        if check.name.startswith("intrinsic_pushforward_"):
                            assert check.detail == base.detail, (check.name, k)

    @pytest.mark.parametrize("kind", ["intertwined", "unrelated", "near_bound"])
    def test_search_under_power_of_two_conductances(self, kind):
        rng = rng_for(3)
        outcomes = set()
        for form1, form2 in search_pairs(rng, kind):
            expected = search_outcome(form1, form2)
            outcomes.add(expected[0])
            for _ in range(8):
                k, j = (int(e) for e in rng.integers(-500, 501, size=2))
                by_k = [scaled_conductances(form, 2.0**k) for form in (form1, form2)]
                scalings = {
                    "b, c": by_k,
                    "b, c and m": [scaled_measure(form, 2.0**j) for form in by_k],
                    # each form in its own units: h is 2^((k - j) / 2) times what it was
                    "forms": [scaled_form(form1, 2.0**k), scaled_form(form2, 2.0**j)],
                }
                for name, (g1, g2) in scalings.items():
                    try:
                        got = search_outcome(g1, g2)
                    except NumericOverflow:
                        continue
                    assert got == expected, (name, k, j)
        want = {"intertwined": {None}, "unrelated": {"spectrum", "exhausted"},
                "near_bound": {None, "spectrum", "exhausted"}}
        assert outcomes == want[kind]


class TestDoobPair:
    def test_constant_profile_rescales_measure(self):
        # scalar conjugation leaves the generator alone: the extracted form
        # is the original with measure, conductances and killing scaled by k^2
        form = dk.generate("cycle", 3)
        form2, iso = dk.doob_pair(form, 3.0)
        assert np.allclose(form2.space.m, 9.0 * form.space.m)
        assert set(form2.b) == set(form.b)
        assert all(form2.b[k] == pytest.approx(9.0 * form.b[k]) for k in form.b)
        assert all(v == pytest.approx(1.0 / 3.0) for v in iso.h.values())
        assert np.allclose(form2.c, 0.0)
        assert np.allclose(dk.generator(form2).L, dk.generator(form).L)

    def test_two_vertex_example(self):
        form2, iso = dk.doob_pair(killed_pair(), [1.0, 2.0])
        assert form2.b == {("a", "b"): 2.0}
        assert np.allclose(form2.c, [0.0, 2.0])
        assert np.allclose(form2.space.m, [1.0, 4.0])

    def test_partner_conductances_are_the_products(self):
        # b2(x, y) = h(x) h(y) b(x, y) multiplied left to right, bit for bit
        # what a construction from the product dict gives
        rng = rng_for(44)
        for n in (2, 8, 60):
            base = random_form(rng, n, recurrent=True)
            h = rng.uniform(1.0, 2.0, size=n)
            w = base.weight_matrix
            form = dk.GraphForm(base.space, base.b,
                                np.maximum((w @ h - w.sum(axis=1) * h) / h, 0.0) + 0.02)
            form2, _ = dk.doob_pair(form, h)
            index = form.space.index
            products = {(u, v): h[index(u)] * h[index(v)] * b for (u, v), b in form.b.items()}
            want = construction_outcome(dk.GraphForm, form2.space, products, form2.c)
            assert construction_outcome(lambda: form2) == want

    def test_rejects_non_excessive(self):
        with pytest.raises(NotExcessive):
            dk.doob_pair(killed_pair(), [2.0, 1.0])

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositive):
            dk.doob_pair(killed_pair(), [1.0, 0.0])

    def test_random_doob_pairs_certify_with_beta_one(self):
        rng = rng_for(43)
        for _ in range(10):
            form1, form2, iso = doob_pair_sample(rng, int(rng.integers(2, 8)))
            report = dk.certify(iso, form1, form2)
            assert report.verdict
            assert dk.operator_constant(iso) == pytest.approx(1.0, abs=1e-12)
            residual = dk.intertwining_residual(
                iso, dk.generator(form1), dk.generator(form2)
            )
            assert residual <= 1e-10


class TestBeta:
    def test_beta_is_derived(self):
        # every way an iso is built gives beta = operator_constant bit for
        # bit, a loaded one too; relabel pairs at a scale s != 1 round
        # h^2 m2 / m1 to a neighbour of 1
        rng = rng_for(231)
        isos = []
        for transform in ("relabel", "doob"):
            for n in (2, 7, 30):
                pair = random_intertwined_pair(rng, n, transform)
                isos += [pair[2], jsonio.pair_from_obj(jsonio.pair_to_obj(*pair))[2]]
        form1 = random_form(rng, 6)
        isos.append(dk.OrderIso.identity(form1.space))
        isos.append(dk.doob_pair(killed_pair(), [1.0, 2.0])[1])
        wide = SearchOptions(max_solutions=10**6)
        for scale in (1.0, 3.0, float(10 ** rng.uniform(-3, 3))):
            form2, iso = relabel_pair(rng, form1, scale=scale)
            found = dk.find_intertwiners(form1, form2, wide)
            assert found and all("beta" in vars(s) for s in found)  # computed by the search
            isos += [iso, *found, *brute_force_intertwiners(form1, form2, wide),
                     *l_only_intertwiners(form1, form2, wide)]
        cycle = dk.generate("cycle", 6)
        isos += dk.find_intertwiners(cycle, cycle, wide)
        assert any(iso.beta != 1.0 for iso in isos)
        for iso in isos:
            assert iso.beta.hex() == dk.operator_constant(iso).hex()

    def test_verifiers_read_beta_once(self, monkeypatch):
        # the jump and resistance checks read iso.beta, computed once, and do
        # not call operator_constant again
        form1, form2, iso = random_intertwined_pair(rng_for(232), 7, "relabel")
        beta = iso.beta
        monkeypatch.setattr("dirikit.orderiso.operator_constant", None)
        for verify in (dk.verify_jump_transform, dk.verify_resistance_isometry):
            report = verify(iso, form1, form2)
            assert report.verdict
            assert f"beta={beta!r}" in report.checks[0].detail

    def test_overflowing_beta_fails_without_warning(self):
        # h = 2^600 passes the guard, as every residual scales exactly, but
        # h^2 overflows: beta is inf and the jump and resistance checks FAIL,
        # with no RuntimeWarning; alpha**2 once raised OverflowError
        form = dk.generate("cycle", 5)
        names = form.space.vertices
        iso = dk.OrderIso(form.space, form.space, {v: v for v in names},
                          {v: 2.0**600 for v in names})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jump = dk.verify_jump_transform(iso, form, form)
            resistance = dk.verify_resistance_isometry(iso, form, form)
        assert jump["jump_transform"].detail == "beta=inf"
        assert resistance["resistance_isometry"].detail.endswith(" beta=inf")
        assert not jump.verdict and not resistance.verdict


class TestGuardPerEntry:
    """The guard holds entry (y, z) of U L1 - L2 U within rel h(y)
    sqrt(m1(tau z) / m1(tau y)) sqrt(s(y) s(z)), s = diag L2, the search's
    bound in L coordinates, and names its worst entry when it fails."""

    def test_message_names_the_worst_entry(self):
        # a relabel pair with two images swapped: the named entry's residual
        # and bound, recomputed from the forms, are the largest failure
        form1, form2, iso = random_intertwined_pair(rng_for(233), 9, "relabel")
        y0, y1 = iso.target.vertices[:2]
        tau = dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]})
        swapped = dk.OrderIso(iso.source, iso.target, tau, iso.h)
        with pytest.raises(NotIntertwining) as caught:
            require_intertwining(swapped, form1, form2)
        idx, h = swapped.tau_indices, swapped.h_values
        gap = np.abs(h[:, None] * form1.L[np.ix_(idx, idx)] - form2.L * h[None, :])
        m1 = form1.space.m[idx]
        s = np.diag(form2.L)
        bound = 1e-9 * h[:, None] * np.sqrt(m1[None, :] / m1[:, None]) * np.sqrt(np.outer(s, s))
        y, z = oracle_worst_entry(gap, bound)
        names = form2.space.vertices
        assert str(caught.value) == (
            f"intertwining residual {gap[y, z]:.3e} exceeds its bound {bound[y, z]:.3e}"
            f" at the entry ({names[y]!r}, {names[z]!r}) of the targets")

    def test_bound_is_the_search_bound_in_l_coordinates(self):
        # with h = c sqrt(m1(tau) / m2) the guard's bound at (y, z) is the
        # search's residual_bound times c sqrt(m1(tau z) / m2(y)), to rounding
        form1, form2, iso = random_intertwined_pair(rng_for(234), 8, "doob")
        c = 3.0
        scaled = dk.OrderIso(iso.source, iso.target, iso.tau,
                             {y: c * x for y, x in iso.h.items()})
        idx = scaled.tau_indices
        m1, m2 = form1.space.m[idx], form2.space.m
        factor = c * np.sqrt(m1[None, :] / m2[:, None])
        want = residual_bound(form2, SearchOptions()) * factor
        root_m1 = np.sqrt(m1)
        got = dk.Tolerance(1e-8).bound(
            _entry_scale(form2.L, scaled.h_values / root_m1, root_m1))
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

