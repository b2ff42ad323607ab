import numpy as np
import pytest

import dirikit as dk
from dirikit import jsonio
from dirikit.errors import NotIntertwining, SpaceMismatch
from dirikit.sampling import doob_pair_sample, random_form, relabel_pair

from conftest import (
    NotMarkovian,
    decompose,
    evaluate,
    induced_killing,
    iso_inverse_matrix,
    iso_matrix,
    jump_matrix,
    operator_constant,
    oracle_decompose,
    oracle_jump_to_obj,
    oracle_worst_entry,
    random_function,
    reconstruct,
    rng_for,
    truncated_form,
    truncated_form_via_jump,
)


def killed_pair():
    return dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})


class TestDecompose:
    def test_k2(self):
        data = decompose(dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)]))
        assert data.J == {("a", "b"): 0.5, ("b", "a"): 0.5}
        assert data.k == {"a": 0.0, "b": 0.0}

    def test_single_killed_vertex(self):
        data = decompose(dk.build_form(["a"], 1.0, [], {"a": 1.0}))
        assert data.J == {}
        assert data.k == {"a": 1.0}

    def test_doob_partner(self):
        partner, _ = dk.doob_pair(killed_pair(), [1.0, 2.0])
        data = decompose(partner)
        assert data.J == {("a", "b"): 1.0, ("b", "a"): 1.0}
        assert data.k == {"a": 0.0, "b": 2.0}

    def test_reconstruction_identity_random(self):
        rng = rng_for(61)
        for _ in range(100):
            form = random_form(rng, int(rng.integers(2, 8)))
            data = decompose(form)
            j = jump_matrix(data)
            k = np.array([data.k[v] for v in form.space.vertices])
            checks = [np.eye(len(form.space))[i] for i in range(len(form.space))]
            checks += [random_function(rng, form.space) for _ in range(20)]
            for f in checks:
                df = f[:, None] - f[None, :]
                rebuilt = float(np.sum(j * df * df) + np.sum(k * f * f))
                assert rebuilt == pytest.approx(evaluate(form, f), rel=1e-10, abs=1e-12)

    def test_same_bytes_as_the_oracle(self):
        rng = rng_for(61)
        forms = [random_form(rng, int(rng.integers(2, 8))) for _ in range(100)]
        # zero weights, also on every edge, one vertex with and without
        # killing, K17 (v10 sorts before v2), signed zeros and a doob partner
        for form in forms[:20]:
            b = {e: 0.0 if rng.random() < 0.5 else w for e, w in form.b.items()}
            forms += [dk.GraphForm(form.space, b, form.c),
                      dk.GraphForm(form.space, dict.fromkeys(form.b, 0.0), form.c)]
        forms += [dk.build_form(["a"], 1.0, []), dk.build_form(["a"], 1.0, [], {"a": 1.0}),
                  dk.generate("complete", 17),
                  dk.build_form(["b", "a"], 1.0, [("a", "b", -0.0)], {"a": -0.0, "b": 0.0}),
                  dk.doob_pair(killed_pair(), [1.0, 2.0])[0]]
        for form in forms:
            assert jsonio.dumps(jsonio.jump_to_obj(form)) == jsonio.dumps(oracle_jump_to_obj(form))

    def test_roundtrip_is_identity(self):
        rng = rng_for(62)
        for _ in range(10):
            form = random_form(rng, int(rng.integers(2, 7)))
            data = decompose(form)
            again = decompose(reconstruct(form.space, data))
            assert again == data
            assert reconstruct(form.space, data) == form


class TestTruncatedForm:
    def test_k2_unit_cutoff(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        assert truncated_form(form, 1.0, [1.0, 0.0]) == pytest.approx(1.0)

    def test_zero_cutoff(self):
        form = killed_pair()
        assert truncated_form(form, 0.0, [3.0, -2.0]) == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_jump_route(self):
        rng = rng_for(63)
        for _ in range(25):
            form = random_form(rng, 6)
            phi = random_function(rng, form.space, lo=0.0, hi=2.0)
            f = random_function(rng, form.space, lo=-2.0, hi=2.0)
            direct = truncated_form(form, phi, f)
            via_jump = truncated_form_via_jump(form, phi, f)
            assert direct == pytest.approx(via_jump, rel=1e-10, abs=1e-10)


class TestJumpTransform:
    def test_identity_iso(self):
        form = dk.generate("cycle", 4)
        report = dk.verify_jump_transform(dk.OrderIso.identity(form.space), form, form)
        assert report.verdict
        assert report["jump_transform"].residual == 0.0

    def test_relabeled_graph_pushforward(self):
        rng = rng_for(64)
        form1 = random_form(rng, 6)
        form2, iso = relabel_pair(rng, form1)  # scale 1: h = 1, beta = 1
        report = dk.verify_jump_transform(iso, form1, form2)
        assert report.verdict
        data1 = decompose(form1)
        data2 = decompose(form2)
        for (y, z), value in data2.J.items():
            assert data1.J[(iso.tau[y], iso.tau[z])] == pytest.approx(value)

    def test_doob_pair_weights(self):
        form = killed_pair()
        partner, iso = dk.doob_pair(form, [1.0, 2.0])
        report = dk.verify_jump_transform(iso, form, partner)
        assert report.verdict
        # beta J1(a,b) = 1/2 equals h(a) h(b) J2(a,b) = 1 * 1/2 * 1
        assert report["jump_transform"].residual <= 1e-12

    def test_random_certified_pairs(self):
        rng = rng_for(65)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            if rng.random() < 0.5:
                form1 = random_form(rng, n)
                form2, iso = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            else:
                form1, form2, iso = doob_pair_sample(rng, n)
            report = dk.verify_jump_transform(iso, form1, form2)
            assert report.verdict

    def test_search_found_intertwiners(self):
        rng = rng_for(67)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            form1 = random_form(rng, n)
            form2, _ = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            for iso in dk.find_intertwiners(form1, form2):
                assert dk.verify_jump_transform(iso, form1, form2).verdict


def dict_route(iso, form1, form2, tol=dk.Tolerance()):
    """Reference: (residual, tol) of the jump check computed through the
    jump/killing dicts, jump_matrix(oracle_decompose(f)), at the worst entry
    against the bound rel h(y) h(z) sqrt(F2[y, y] F2[z, z])."""
    beta = operator_constant(iso)
    idx, h = iso.tau_indices, iso.h_values
    lhs = beta * jump_matrix(oracle_decompose(form1))[np.ix_(idx, idx)]
    rhs = np.outer(h, h) * jump_matrix(oracle_decompose(form2))
    np.fill_diagonal(rhs, 0.0)
    root = h * np.sqrt(np.diag(form2.form_matrix))
    gap, bound = np.abs(lhs - rhs), tol.rel * np.outer(root, root)
    entry = oracle_worst_entry(gap, bound)
    return float(gap[entry]), float(bound[entry])


def jump_sample(rng, kind):
    n = int(rng.integers(2, 9))
    if kind == "doob":
        return doob_pair_sample(rng, n)
    form1 = random_form(rng, n)
    if kind in ("zero_weights", "subnormal"):
        # zero some conductances, or make one the smallest subnormal double
        b = {e: 0.0 if rng.random() < 0.3 else w for e, w in form1.b.items()}
        if kind == "subnormal":
            b[next(iter(b))] = 5e-324
        form1 = dk.GraphForm(form1.space, b, form1.c)
    scale = 1.0 if kind == "subnormal" else float(rng.uniform(0.5, 2.0))
    form2, iso = relabel_pair(rng, form1, scale=scale)
    return form1, form2, iso


class TestJumpTransformOracle:
    @pytest.mark.parametrize("kind", ["relabel", "doob", "zero_weights", "subnormal"])
    def test_matches_dict_route(self, kind):
        rng = rng_for(69)
        for _ in range(10):
            form1, form2, iso = jump_sample(rng, kind)
            report = dk.verify_jump_transform(iso, form1, form2)
            jump = dict_route(iso, form1, form2)
            assert (report["jump_transform"].residual, report["jump_transform"].tol) == jump
            assert [c.name for c in report.checks] == ["jump_transform"]
            assert report.verdict

    def test_swapped_tau_raises(self):
        rng = rng_for(70)
        form1 = random_form(rng, 6)
        form2, iso = relabel_pair(rng, form1)
        y0, y1 = iso.target.vertices[:2]
        tau = dict(iso.tau, **{y0: iso.tau[y1], y1: iso.tau[y0]})
        swapped = dk.OrderIso(iso.source, iso.target, tau, iso.h)
        with pytest.raises(NotIntertwining):
            dk.verify_jump_transform(swapped, form1, form2)

    def test_builds_no_dicts_or_forms(self, monkeypatch):
        rng = rng_for(71)
        form1, form2, iso = doob_pair_sample(rng, 6)

        def forbidden(*args, **kwargs):
            raise AssertionError("the jump check must read the cached matrices")

        monkeypatch.setattr(jsonio, "jump_to_obj", forbidden)
        monkeypatch.setattr(dk.GraphForm, "b", property(forbidden))
        monkeypatch.setattr(dk.GraphForm, "__init__", forbidden)
        assert dk.verify_jump_transform(iso, form1, form2).verdict


class TestInducedKilling:
    def test_identity(self):
        form = killed_pair()
        killing = induced_killing(dk.OrderIso.identity(form.space), form)
        assert np.allclose(killing, form.c)

    def test_relabeling_permutes(self):
        rng = rng_for(66)
        form1 = random_form(rng, 6, recurrent=False)
        form2, iso = relabel_pair(rng, form1)
        killing = induced_killing(iso, form1)
        expected = [form1.c[form1.space.index(iso.tau[y])] for y in form2.space.vertices]
        assert np.allclose(killing, expected)

    def test_doob_pair_moves_killing(self):
        form = killed_pair()
        partner, iso = dk.doob_pair(form, [1.0, 2.0])
        killing = induced_killing(iso, form)
        assert np.allclose(killing, [0.0, 2.0])
        assert np.allclose(killing, partner.c)

    def test_non_markovian_conjugation(self):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)])
        iso = dk.OrderIso(form.space, form.space, {"a": "a", "b": "b"},
                          {"a": 1.0, "b": 3.0})
        with pytest.raises(NotMarkovian):
            induced_killing(iso, form)

    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    def test_matches_dense_oracle(self, transform):
        rng = rng_for(68)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            if transform == "relabel":
                form1 = random_form(rng, n, recurrent=False)
                _, iso = relabel_pair(rng, form1, scale=float(rng.uniform(0.5, 2.0)))
            else:
                form1, _, iso = doob_pair_sample(rng, n)
            conjugated = iso_matrix(iso) @ dk.generator(form1).L @ iso_inverse_matrix(iso)
            m2 = iso.target.m
            b_rows = np.maximum(-(conjugated - np.diag(np.diag(conjugated))) * m2[:, None], 0.0)
            expected = np.maximum(np.diag(conjugated) * m2 - b_rows.sum(axis=1), 0.0)
            assert np.array_equal(induced_killing(iso, form1), expected)

    def test_space_mismatch(self):
        form = killed_pair()
        other = dk.build_form(["p", "q"], 1.0, [("p", "q", 1.0)])
        with pytest.raises(SpaceMismatch):
            induced_killing(dk.OrderIso.identity(other.space), form)
