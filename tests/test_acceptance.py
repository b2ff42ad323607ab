"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a pass/fail line with the
observed worst residual.  Tolerances are fixed here, not configurable.
"""

import itertools
import math

import numpy as np

import dirikit as dk
from dirikit.sampling import (
    doob_pair_sample,
    random_form,
    relabel_pair,
)
from dirikit.search import SearchOptions

from conftest import (
    boundary_factor,
    brute_force_intertwiners,
    check_truncation,
    evaluate,
    random_function,
    resistance_maximizer,
    rng_for,
    tau_signature,
    truncated_form,
    truncated_form_via_jump,
)


def report_line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def build_intertwined_pairs(rng, count_relabel, count_doob, recurrent=None):
    pairs = []
    for _ in range(count_relabel):
        n = int(rng.integers(2, 9))
        form1 = random_form(rng, n, recurrent=recurrent)
        scale = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0
        form2, iso = relabel_pair(rng, form1, scale=scale)
        pairs.append((form1, form2, iso))
    for _ in range(count_doob):
        pairs.append(doob_pair_sample(rng, int(rng.integers(2, 9))))
    return pairs


def test_1_unitarity_rigidity():
    rng = rng_for(101)
    pairs = build_intertwined_pairs(rng, 100, 100)
    worst_op = worst_measure = 0.0
    for form1, form2, iso in pairs:
        report = dk.certify(iso, form1, form2)
        assert report.verdict
        worst_op = max(worst_op, report["operator_constant"].residual)
        # the measure identity h^2 m2 = beta m1(tau), relatively
        pullback = iso.beta * iso.source.m[iso.tau_indices]
        measure = np.abs(iso.h_values**2 * iso.target.m - pullback) / pullback
        worst_measure = max(worst_measure, float(np.max(measure)))
    ok = worst_op <= 1e-9 and worst_measure <= 1e-9
    report_line(
        "1 unitarity rigidity (200 pairs)", ok,
        f"max |U*U - beta I| = {worst_op:.2e}, max measure residual = {worst_measure:.2e}",
    )


def test_2_recurrent_scaling_constancy():
    rng = rng_for(102)
    worst_ratio = 0.0
    for _ in range(100):
        form1 = random_form(rng, int(rng.integers(2, 9)), recurrent=True)
        scale = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0
        form2, iso = relabel_pair(rng, form1, scale=scale)
        report = dk.certify(iso, form1, form2)
        assert report.verdict
        worst_ratio = max(worst_ratio, report["scaling_constancy"].residual)
    min_doob_ratio = math.inf
    for _ in range(25):
        form1, form2, iso = doob_pair_sample(rng, int(rng.integers(2, 9)))
        report = dk.certify(iso, form1, form2)
        assert report.verdict
        ratio = max(iso.h.values()) / min(iso.h.values())
        min_doob_ratio = min(min_doob_ratio, ratio)
        assert "skipped" in report["scaling_constancy"].detail
    ok = worst_ratio <= 1e-9 and min_doob_ratio >= 1.1
    report_line(
        "2 recurrent scaling constancy", ok,
        f"max h-ratio deviation = {worst_ratio:.2e} on 100 recurrent pairs; "
        f"min transient h-ratio = {min_doob_ratio:.3f} (>= 1.1)",
    )


def test_3_form_scaling():
    rng = rng_for(103)
    pairs = build_intertwined_pairs(rng, 50, 50)
    worst = 0.0
    for form1, form2, iso in pairs:
        report = dk.certify(iso, form1, form2)
        assert report.verdict
        worst = max(worst, report["form_scaling"].residual)
    ok = worst <= 1e-9
    report_line(
        "3 form scaling on basis pairs (100 pairs)", ok,
        f"max |Q2(Ue_i, Ue_j) - beta Q1(e_i, e_j)| = {worst:.2e}",
    )


def test_4_jump_transformation():
    rng = rng_for(104)
    pairs = build_intertwined_pairs(rng, 50, 50)
    worst_jump = 0.0
    for form1, form2, iso in pairs:
        report = dk.verify_jump_transform(iso, form1, form2)
        assert report.verdict
        worst_jump = max(worst_jump, report["jump_transform"].residual)
    worst_trunc = 0.0
    for _ in range(100):
        form = random_form(rng, int(rng.integers(2, 9)))
        phi = random_function(rng, form.space, lo=0.0, hi=2.0)
        f = random_function(rng, form.space, lo=-2.0, hi=2.0)
        gap = abs(truncated_form(form, phi, f) - truncated_form_via_jump(form, phi, f))
        worst_trunc = max(worst_trunc, gap)
    ok = worst_jump <= 1e-9 and worst_trunc <= 1e-10
    report_line(
        "4 jump transformation + truncation identity", ok,
        f"max jump residual = {worst_jump:.2e} (100 pairs), "
        f"max truncation gap = {worst_trunc:.2e} (100 triples)",
    )


def test_5_search_soundness_completeness():
    rng = rng_for(105)
    opts = SearchOptions(max_solutions=10**6)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        roll = rng.random()
        if roll < 0.35:
            form1 = random_form(rng, n)
            form2, _ = relabel_pair(rng, form1,
                                    scale=float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0)
        elif roll < 0.55:
            form1, form2, _ = doob_pair_sample(rng, n)
        else:
            form1 = random_form(rng, n)
            form2 = random_form(rng, n, prefix="w")
        found = [tau_signature(s) for s in dk.find_intertwiners(form1, form2, opts)]
        oracle = [tau_signature(s) for s in brute_force_intertwiners(form1, form2, opts)]
        assert found == oracle, f"search mismatch: {found} vs {oracle}"
        for iso in dk.find_intertwiners(form1, form2, opts):
            assert dk.certify(iso, form1, form2).verdict
        checked += 1
    report_line(
        "5 search soundness/completeness", checked == 50,
        "pruned search equals brute force over all bijections on 50 pairs",
    )


def test_6_resistance_isometry_and_oracle():
    rng = rng_for(106)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        form1 = random_form(rng, n, recurrent=True)
        scale = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0
        form2, iso = relabel_pair(rng, form1, scale=scale)
        assert dk.certify(iso, form1, form2).verdict
        report = dk.verify_resistance_isometry(iso, form1, form2)
        assert report.verdict
        alpha = float(np.mean(iso.h_values))
        beta = iso.beta
        r1 = dk.resistance_matrix(form1).d
        r2 = dk.resistance_matrix(form2).d
        idx = iso.tau_indices
        worst = max(worst, float(np.max(np.abs(alpha**2 * r1[np.ix_(idx, idx)] - beta * r2))))

    worst_gap = 0.0
    for n in range(2, 7):
        for _ in range(2):
            form = random_form(rng, n, recurrent=True)
            names = form.space.vertices
            b_matrix = np.diag(form.degrees) - form.weight_matrix
            for x, y in itertools.combinations(range(n), 2):
                r = dk.effective_resistance(form, names[x], names[y])
                f_star = resistance_maximizer(form, names[x], names[y])
                attained = (f_star[x] - f_star[y]) ** 2
                worst_gap = max(worst_gap, abs(attained - r))
                samples = rng.normal(size=(1000, n))
                energy = np.einsum("ki,ij,kj->k", samples, b_matrix, samples)
                keep = energy > 1e-12
                normalized = samples[keep] / np.sqrt(energy[keep])[:, None]
                gaps = (normalized[:, x] - normalized[:, y]) ** 2
                assert np.all(gaps <= r + 1e-9), "a random unit-energy function beat the supremum"
    ok = worst <= 1e-9 and worst_gap <= 1e-9
    report_line(
        "6 resistance isometry + supremum oracle", ok,
        f"max isometry residual = {worst:.2e} (40 recurrent pairs), "
        f"max attainment gap = {worst_gap:.2e}, 1000 random unit-energy probes per pair",
    )


def test_7_sierpinski_renormalization():
    resistances = []
    for level in range(4):
        form = dk.generate("sierpinski", level)
        c0, c1, _ = dk.sierpinski_corners(level)
        resistances.append(dk.effective_resistance(form, c0, c1))
    worst = max(
        abs(resistances[n + 1] / resistances[n] - 5.0 / 3.0) for n in range(3)
    )
    report_line(
        "7 sierpinski corner resistance ratio 5/3 (levels 0..3)", worst <= 1e-9,
        f"max |ratio - 5/3| = {worst:.2e}",
    )


def test_8_intrinsic_bijection():
    rng = rng_for(108)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        form1 = random_form(rng, n, recurrent=True)
        scale = float(rng.uniform(0.5, 2.0)) if rng.random() < 0.5 else 1.0
        form2, iso = relabel_pair(rng, form1, scale=scale)
        assert dk.certify(iso, form1, form2).verdict
        report = dk.verify_intrinsic_bijection(iso, form1, form2)
        assert report.verdict

    # boundary cases with exactly zero slack: with m = deg every edge has
    # length exactly 1, the canonical metric is the hop metric, and the
    # per-vertex bound is saturated by exact float arithmetic
    worst_slack = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        base = random_form(rng, n, recurrent=True)
        form1 = dk.build_form(
            base.space.vertices,
            {v: float(base.degrees[i]) for i, v in enumerate(base.space.vertices)},
            dict(base.b),
        )
        metric = dk.canonical_intrinsic_metric(form1)
        ok1, slack1 = dk.is_intrinsic(form1, metric)
        assert ok1
        worst_slack = max(worst_slack, float(np.max(np.abs(slack1))))
        form2, iso = relabel_pair(rng, form1)
        tau = iso.tau_indices
        pushed = dk.PseudoMetric(form2.space.vertices, metric.d[np.ix_(tau, tau)])
        ok2, slack2 = dk.is_intrinsic(form2, pushed)
        assert ok2 == ok1
        worst_slack = max(worst_slack, float(np.max(np.abs(slack2))))
        for factor in (1.0, boundary_factor(form1, metric.d), 1.5):
            d = factor * metric.d
            sample1 = dk.PseudoMetric(form1.space.vertices, d)
            sample2 = dk.PseudoMetric(form2.space.vertices, d[np.ix_(tau, tau)])
            assert dk.is_intrinsic(form1, sample1).ok == dk.is_intrinsic(form2, sample2).ok
    ok = worst_slack <= 1e-12
    report_line(
        "8 intrinsic-family bijection", ok,
        f"40 recurrent pairs with default samples; boundary slack = {worst_slack:.1e} (<= 1e-12)",
    )


def test_9_excessive_liouville_truncation():
    rng = rng_for(109)
    sample_times = [2.0**k for k in range(-10, 5)]
    agreements = 0
    for _ in range(200):
        form = random_form(rng, int(rng.integers(2, 8)))
        gen = dk.generator(form)
        roll = rng.random()
        if roll < 0.45:
            h = rng.uniform(0.0, 2.0, size=len(form.space))
        elif roll < 0.75:
            h = np.full(len(form.space), float(rng.uniform(0.5, 2.0)))
        else:
            witness = dk.find_nonconstant_excessive(gen)
            h = witness if witness is not None else np.ones(len(form.space))
        claim = dk.is_excessive(gen, h)
        scale = max(1.0, float(np.max(np.abs(gen.L)))) * max(1.0, float(np.max(h)))
        sampled = all(
            np.min(h - dk.semigroup(gen, t) @ h) >= -1e-7 * scale for t in sample_times
        )
        assert claim == sampled
        agreements += 1

    liouville = 0
    for _ in range(100):
        form = random_form(rng, int(rng.integers(2, 8)))
        witness = dk.find_nonconstant_excessive(dk.generator(form))
        assert (witness is None) == dk.is_recurrent(form)
        if witness is not None:
            assert dk.is_excessive(dk.generator(form), witness)
        liouville += 1

    truncations = 0
    for _ in range(200):
        form = random_form(rng, int(rng.integers(2, 8)))
        gen = dk.generator(form)
        roll = rng.random()
        if roll < 0.4:
            h = np.full(len(form.space), float(rng.uniform(0.0, 2.0)))
        elif roll < 0.7 and not dk.is_recurrent(form):
            witness = dk.find_nonconstant_excessive(gen)
            h = witness if witness is not None else np.zeros(len(form.space))
            if dk.is_recurrent(form):
                h = np.zeros(len(form.space))
        else:
            h = np.zeros(len(form.space)) if dk.is_recurrent(form) else np.full(
                len(form.space), float(rng.uniform(0.5, 2.0))
            )
        f = random_function(rng, form.space, lo=-2.0, hi=3.0)
        q_min, q_plus, ok = check_truncation(form, f, h)
        assert ok, (q_min, q_plus, evaluate(form, f))
        truncations += 1

    report_line(
        "9 excessive/liouville/truncation suite",
        agreements == 200 and liouville == 100 and truncations == 200,
        "200 semigroup-oracle agreements, 100 liouville equivalences, 200 truncation triples",
    )
