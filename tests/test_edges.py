"""Certify on edges: the guard, ``form_scaling``, ``scaling_excessive`` and
``jump_transform`` read the diagonal and the two edge lists only, and each
dense matrix of a form is one scatter of its edge columns.  Each is checked
here against its dense oracle in conftest, on n x n matrices, and the
report of ``dirikit certify``, one composition of the checks behind one
guard, against the four public certificates composed."""

import math

import numpy as np
import pytest

import dirikit as dk
from dirikit import jsonio, metrics
from dirikit.cli import run
from dirikit.core import _INVERSE_LEAF
from dirikit.errors import DirikitError
from dirikit.sampling import (
    doob_pair_sample,
    random_form,
    random_intertwined_pair,
    relabel_pair,
)
from dirikit.spectral import _excess
from dirikit.tolerances import _nonfinite_products

from conftest import (
    ORACLE_MATRICES,
    oracle_certify,
    oracle_generator_times,
    oracle_jump_transform,
    rng_for,
    sierpinski_doob_pair,
)
from test_falsifiers import FALSIFIERS


def with_arrays(form, m=None, weights=None, c=None):
    """The form on the same edge keys with its measure, weights or killing replaced."""
    return form._on_keys(form.space.m if m is None else m,
                         form.weights if weights is None else weights,
                         form.c if c is None else c)


def swapped(iso):
    """The iso with the images of its first two targets swapped."""
    y0, y1 = iso.target.vertices[:2]
    return dk.OrderIso(iso.source, iso.target, dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]}),
                       iso.h)


def spread(rng, form, e=6):
    """The form with m, the key-order weights and c times 10^U(-e, e)."""
    n, count = len(form.space), len(form.weights)
    return with_arrays(form, form.space.m * 10 ** rng.uniform(-e, e, n),
                       form.weights * 10 ** rng.uniform(-e, e, count),
                       form.c * 10 ** rng.uniform(-e, e, n))


def parity_pair(rng, kind):
    """A seeded pair of the kind, on 1 to 60 vertices (2 to 60 for a swap)."""
    n = int(rng.integers(2 if kind == "swapped" else 1, 61))
    if kind == "random":
        form1, form2 = random_form(rng, n), random_form(rng, n, prefix="w")
        tau = dict(zip(form2.space.vertices, rng.permutation(form1.space.vertices).tolist()))
        h = dict(zip(form2.space.vertices, rng.uniform(0.5, 2.0, n).tolist()))
        return form1, form2, dk.OrderIso(form1.space, form2.space, tau, h)
    if kind == "doob":
        return doob_pair_sample(rng, n)
    if kind == "relabel":
        return random_intertwined_pair(rng, n, "relabel")
    if kind == "swapped":
        form1, form2, iso = random_intertwined_pair(rng, n, "relabel")
        return form1, form2, swapped(iso)
    if kind == "spread_relabel":
        form1 = spread(rng, random_form(rng, n))
        return (form1, *relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0))))
    if kind == "spread_doob":
        form1 = spread(rng, random_form(rng, n, recurrent=False))
        h = dk.find_nonconstant_excessive(form1)
        return (form1, *dk.doob_pair(form1, np.ones(n) if h is None else h / np.max(h)))
    if kind == "one_sided":
        # g2 has one edge more or one fewer than g1's image under tau
        form1, form2, iso = random_intertwined_pair(rng, max(n, 3), "relabel")
        if rng.random() < 0.5 and len(form2.weights) > 1:
            keep = np.arange(len(form2.weights)) != rng.integers(len(form2.weights))
            edges = zip(*np.array(form2.edge_ends())[:, keep].tolist(),
                        form2.weights[keep].tolist())
        else:
            names, have = form2.space.vertices, set(form2.b)
            missing = [(u, v) for u in names for v in names if u < v and (u, v) not in have]
            if not missing:
                return form1, form2, iso
            u, v = missing[int(rng.integers(len(missing)))]
            edges = [*((a, b, w) for (a, b), w in form2.b.items()), (u, v, 1e-3)]
        return form1, dk.GraphForm(form2.space, edges, form2.c), iso
    if kind == "zero_weights":
        # zero weights, on the same edges of both forms or on edges of one
        form1, form2, iso = random_intertwined_pair(rng, max(n, 3), "relabel")
        zero1 = rng.random(len(form1.weights)) < 0.2
        form1 = with_arrays(form1, weights=np.where(zero1, 0.0, form1.weights))
        if rng.random() < 0.5:
            form2 = with_arrays(form2, weights=np.where(
                rng.random(len(form2.weights)) < 0.2, 0.0, form2.weights))
        return form1, form2, iso
    raise ValueError(kind)


KINDS = ("random", "doob", "relabel", "swapped", "spread_relabel", "spread_doob",
         "one_sided", "zero_weights")


def outcome(call, *args):
    """The checks of a report, floats as hex, or the error's type and message."""
    try:
        report = call(*args)
    except DirikitError as exc:
        return type(exc).__name__, str(exc)
    return [(c.name, float(c.residual).hex(), float(c.tol).hex(), c.passed, c.detail)
            for c in report.checks]


def cli_checks(iso, form1, form2, tol):
    """The report of ``dirikit certify``: its checks behind one guard."""
    return metrics._certificate(iso, form1, form2, tol)


def oracle_cli_checks(iso, form1, form2, tol):
    """The dense oracles of certify and the jump transform, then on a
    recurrent pair the resistance and intrinsic certificates, which read no
    entry list."""
    report = oracle_certify(iso, form1, form2, tol)
    report.extend(oracle_jump_transform(iso, form1, form2, tol))
    if form1.recurrent and form2.recurrent:
        report.extend(dk.verify_resistance_isometry(iso, form1, form2, tol))
        report.extend(dk.verify_intrinsic_bijection(iso, form1, form2, tol))
    return report


def h_scaled(iso, k):
    """The iso with h multiplied by 2^k."""
    return dk.OrderIso(iso.source, iso.target, iso.tau,
                       {y: math.ldexp(value, k) for y, value in iso.h.items()})


def assert_parity(form1, form2, iso, tol, label):
    for edge, dense in ((dk.certify, oracle_certify),
                        (dk.verify_jump_transform, oracle_jump_transform),
                        (cli_checks, oracle_cli_checks)):
        want = outcome(dense, iso, form1, form2, tol)
        assert outcome(edge, iso, form1, form2, tol) == want, (label, edge.__name__)
    residual = dk.intertwining_residual(iso, form1, form2)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(iso.h_values[:, None] * form1.L[np.ix_(iso.tau_indices, iso.tau_indices)]
                     - form2.L * iso.h_values[None, :])
    assert residual == np.max(gap) or (math.isnan(residual) and np.isnan(gap).any()), label


class TestParity:
    """Verdicts, worst entries, residuals, bounds and error messages of the
    edge route equal those of the dense oracles, bit for bit; with h
    scaled by 2^+-600, 2^1000 and 2^-1070 the outcomes include NumericOverflow."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_seeded_pairs(self, kind):
        rng = rng_for(4400 + KINDS.index(kind))
        outcomes = set()
        for seed in range(12):
            form1, form2, iso = parity_pair(rng, kind)
            for tol in (dk.DEFAULT_TOL, dk.Tolerance(1e-3), dk.Tolerance(1e6)):
                for k in (0, 600, -600, 1000, -1070):
                    assert_parity(form1, form2, h_scaled(iso, k), tol, (kind, seed, tol, k))
                    outcomes.add(outcome(dk.certify, h_scaled(iso, k), form1, form2, tol)[0])
        assert "NumericOverflow" in outcomes

    @pytest.mark.parametrize("case", FALSIFIERS)
    def test_falsifiers(self, case):
        form1, form2, iso = FALSIFIERS[case][0]()
        for tol in (dk.DEFAULT_TOL, dk.Tolerance(0.9)):
            assert_parity(form1, form2, iso, tol, case)

    def test_excessive_witness_doob_pair(self):
        # the chain find_nonconstant_excessive -> doob_pair -> certify on the
        # recipe of perfbench's excessive workload: a seeded transient form
        # with killing at its first vertex, n = 8, 12, 16
        rng = rng_for(4415)
        for n in (8, 12, 16):
            for seed in range(4):
                form = random_form(rng, n, recurrent=False)
                c = form.c.copy()
                c[0] = max(c[0], float(rng.uniform(0.5, 2.0)))
                form = dk.GraphForm(form.space, form.b, c)
                h = dk.find_nonconstant_excessive(form)
                assert h is not None and dk.is_excessive(form, h)
                form2, iso = dk.doob_pair(form, h)
                assert dk.certify(iso, form, form2).verdict
                for tol in (dk.DEFAULT_TOL, dk.Tolerance(1e-3), dk.Tolerance(1e6)):
                    assert_parity(form, form2, iso, tol, (n, seed, tol))
                    assert_parity(form, form2, swapped(iso), tol, (n, seed, tol, "swapped"))

    def test_sierpinski_l5_doob_pair(self):
        form1, form2, iso = sierpinski_doob_pair(5)
        assert_parity(form1, form2, iso, dk.DEFAULT_TOL, "L5")
        assert_parity(form1, form2, swapped(iso), dk.DEFAULT_TOL, "L5 swapped")

    def test_ties_go_to_the_first_entry_in_row_major_order(self):
        # h = 2^-1070 under a swapped tau: every bound underflows to 0, so
        # each nonzero gap is infinitely over it, on the diagonal and off
        # it, and the message names the row-major first of them
        for form in (dk.generate("cycle", 8), dk.generate("sierpinski", 2),
                     dk.generate("complete", 5), random_form(rng_for(4414), 9)):
            names = form.space.vertices
            for y0, y1 in ((names[0], names[1]), (names[-1], names[2]), (names[3], names[1])):
                tau = {v: v for v in names}
                tau[y0], tau[y1] = y1, y0
                iso = dk.OrderIso(form.space, form.space, tau,
                                  {v: math.ldexp(1.0, -1070) for v in names})
                assert_parity(form, form, iso, dk.DEFAULT_TOL, (form, y0, y1))
                assert_parity(form, form, iso, dk.Tolerance(0.5), (form, y0, y1))


    def test_bound_overflows_off_the_edges_only(self):
        # a 3-path a - b - c under the identity, every gap 0: the bound of
        # the one entry off the edges, (a, c), is rel sqrt(F[a, a] F[c, c]) /
        # m(a) = 1e-9 1e-5 1e100 / 1e-300, past the float range, and every
        # bound on the diagonal and the edges is finite
        form = dk.build_form(["a", "b", "c"], {"a": 1e-300, "b": 1.0, "c": 1.0},
                             [("a", "b", 1e-10), ("b", "c", 1.0)], {"a": 0.0, "b": 0.0, "c": 1e200})
        iso = dk.OrderIso.identity(form.space)
        assert_parity(form, form, iso, dk.DEFAULT_TOL, "off the edges")
        assert outcome(dk.certify, iso, form, form, dk.DEFAULT_TOL) == (
            "NumericOverflow", "intertwining residual bound leaves the floating-point range")


def public_certificate(iso, form1, form2, tol):
    """The four public certificates, each behind its own guard, composed as
    ``dirikit certify`` composes their checks."""
    report = dk.certify(iso, form1, form2, tol)
    report.extend(dk.verify_jump_transform(iso, form1, form2, tol))
    if form1.recurrent and form2.recurrent:
        report.extend(dk.verify_resistance_isometry(iso, form1, form2, tol))
        report.extend(dk.verify_intrinsic_bijection(iso, form1, form2, tol))
    return report


def with_zero_key(rng, form):
    """The form with a key that it lacks added at weight 0, or the form
    when it has every key."""
    names, have = form.space.vertices, set(form.b)
    missing = [(u, v) for u in names for v in names if u < v and (u, v) not in have]
    if not missing:
        return form
    u, v = missing[int(rng.integers(len(missing)))]
    return dk.GraphForm(form.space, [*((a, b, w) for (a, b), w in form.b.items()), (u, v, 0.0)],
                        form.c)


def certificate_pair(rng, transform, recurrent):
    """A seeded relabel or Doob pair of 2 to 40 vertices whose m, b and c
    spread over 10^+-6; a Doob pair of recurrent forms is by a constant h."""
    n = int(rng.integers(2, 41))
    form = spread(rng, random_form(rng, n, recurrent=recurrent))
    if transform == "relabel":
        return (form, *relabel_pair(rng, form, scale=float(rng.uniform(0.5, 2.0))))
    h = None if recurrent else dk.find_nonconstant_excessive(form)
    h = np.full(n, rng.uniform(0.5, 2.0)) if h is None else h / np.max(h)
    return (form, *dk.doob_pair(form, h))


class TestCertificate:
    """``metrics._certificate``, the report of ``dirikit certify``, equals the
    four public certificates composed, check by check with floats in hex,
    errors included; the CLI writes its document."""

    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    @pytest.mark.parametrize("recurrent", [True, False])
    def test_equals_the_public_certificates(self, transform, recurrent):
        rng = rng_for(4700 + 2 * (transform == "doob") + recurrent)
        names, verdicts, errors, unions = set(), set(), set(), 0
        for seed in range(10):
            form1, form2, iso = certificate_pair(rng, transform, recurrent)
            assert (form1.recurrent and form2.recurrent) == recurrent
            # a zero-weight key of g1 that g2 lacks: the entries are the
            # union of both forms' pairs, and W = -F reads 0 there
            keyed = with_zero_key(rng, form1)
            unions += len(keyed.weights) > len(form2.weights)
            for g1 in (form1, keyed):
                for tol in (dk.DEFAULT_TOL, dk.Tolerance(1e-3), dk.Tolerance(1e-15)):
                    for k in (0, 40, -40, 600):
                        scaled = h_scaled(iso, k)
                        want = outcome(public_certificate, scaled, g1, form2, tol)
                        got = outcome(metrics._certificate, scaled, g1, form2, tol)
                        assert got == want, (transform, recurrent, seed, g1 is keyed, tol, k)
                        if isinstance(got, list):
                            names.add(tuple(check[0] for check in got))
                            verdicts.add(all(check[3] for check in got))
                        else:
                            errors.add(got[0])
        assert unions >= 5 and "NumericOverflow" in errors and True in verdicts
        assert names and all(("resistance_isometry" in checks) == recurrent for checks in names)

    def test_cli_writes_the_document_of_the_report(self, tmp_path):
        rng = rng_for(4710)
        for transform in ("relabel", "doob"):
            for recurrent in (True, False):
                form1, form2, iso = certificate_pair(rng, transform, recurrent)
                for g1 in (form1, with_zero_key(rng, form1)):
                    pair, out = tmp_path / "pair.json", tmp_path / "report.json"
                    pair.write_bytes(jsonio.document(jsonio.pair_to_obj(g1, form2, iso)))
                    read1, read2, read_iso = jsonio.pair_from_obj(jsonio.loads(pair.read_bytes()))
                    report = metrics._certificate(read_iso, read1, read2, dk.DEFAULT_TOL)
                    code = run(["certify", str(pair), "--out", str(out)])
                    assert code == (0 if report.verdict else 1)
                    assert out.read_bytes() == jsonio.document(report.to_dict())


def matrix_outcome(read):
    """The shape and bytes of the array that ``read()`` returns, or the type
    and message of the error it raises."""
    try:
        array = read()
    except DirikitError as exc:
        return type(exc).__name__, str(exc)
    return array.shape, array.tobytes()


def assert_dense_parity(form, label):
    """Each dense matrix of the form, and its spectrum, equals its oracle."""
    for name, oracle in ORACLE_MATRICES.items():
        want = matrix_outcome(lambda: oracle(form))
        assert matrix_outcome(lambda: getattr(form, name)) == want, (label, name)


class TestDenseMatrices:
    """W, F, L, S, the spectrum and G, each scattered from the edge columns,
    equal the dense chain W -> F -> L -> S and G gathered from F, bit for
    bit, errors included."""

    @pytest.mark.parametrize("e", [0, 3, 6, 100, 300])
    def test_seeded_spread_forms(self, e):
        # m, b and c spread over 10^+-e, a fifth of the weights 0, half of
        # the forms killed; up to 70 vertices, past the leaf of the blocked
        # Green function
        rng = rng_for(4600 + e)
        errors = set()
        for seed in range(60):
            form = random_form(rng, int(rng.integers(1, 71)), recurrent=rng.random() < 0.5)
            zero = rng.random(len(form.weights)) < 0.2
            form = spread(rng, with_arrays(form, weights=np.where(zero, 0.0, form.weights)), e)
            assert_dense_parity(form, (e, seed))
            errors.update(matrix_outcome(lambda: getattr(form, name))[0]
                          for name in ORACLE_MATRICES)
        assert ("NumericOverflow" in errors) == (e >= 100)
        assert "NotIrreducible" in errors

    @pytest.mark.parametrize("level", range(6))
    def test_sierpinski(self, level):
        form = dk.generate("sierpinski", level)
        assert (len(form.space) > _INVERSE_LEAF + 1) == (level >= 4)
        assert_dense_parity(form, level)


class TestEdgeSums:
    def test_generator_times_sums_as_the_oracle(self):
        # L h on the edges has the bits of the Python loop, and is the dense
        # product's to rounding: n eps max|L| max|h|
        rng = rng_for(4410)
        for _ in range(40):
            form = random_form(rng, int(rng.integers(1, 40)))
            h = rng.uniform(0.5, 2.0, len(form.space))
            lh = _excess(form, h)[0]
            assert lh.tobytes() == oracle_generator_times(form, h).tobytes()
            scale = len(h) * np.finfo(float).eps * np.max(np.abs(form.L)) * np.max(h)
            assert np.max(np.abs(lh - form.L @ h)) <= scale

    def test_largest_rate_is_on_the_diagonal(self):
        # max|L| over every entry is the largest diagonal entry, bit for bit
        rng = rng_for(4411)
        for _ in range(40):
            form = spread(rng, random_form(rng, int(rng.integers(1, 40))))
            assert np.max(np.abs(form.L)) == np.max(form.generator_diagonal)

    def test_degrees_are_the_row_sums(self):
        rng = rng_for(4412)
        for _ in range(40):
            form = random_form(rng, int(rng.integers(1, 40)))
            assert np.allclose(form.degrees, form.weight_matrix.sum(axis=1), rtol=1e-14, atol=0.0)

    def test_nonfinite_products_counts_the_outer_product(self):
        # the count of non-finite entries of factor |a(y) b(z)| without the
        # outer product, against it, with zeros, infs, NaNs and extremes
        rng = rng_for(4413)
        for _ in range(2000):
            def vector(size):
                v = 10.0 ** rng.uniform(-320, 308, size) * rng.choice([-1.0, 1.0], size)
                special = rng.random(size)
                v[special < 0.1] = np.inf
                v[(special >= 0.1) & (special < 0.15)] = np.nan
                v[(special >= 0.15) & (special < 0.25)] = 0.0
                v[(special >= 0.25) & (special < 0.3)] = 1.7e308
                return v
            a, b = vector(int(rng.integers(1, 12))), vector(int(rng.integers(1, 12)))
            factor = float(rng.choice([1.0, 1e-9, 2.0, 10.0, 1e300]))
            with np.errstate(all="ignore"):
                want = np.count_nonzero(~np.isfinite(factor * np.abs(np.outer(a, b))))
            assert _nonfinite_products(a, b, factor) == want
