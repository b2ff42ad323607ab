"""One falsifier per check of `dirikit certify`.

A certificate should print only checks that some input can fail.  Each
case below is a pair with a candidate that passes the intertwining guard,
run through the CLI, with the exact set of checks that fail on it.  The
guard holds each entry of U L1 - L2 U to ``tol.rel`` of its own scale, the
search's bound |S1[tau y, tau z] - S2[y, z]| <= rel sqrt(s(y) s(z)) carried
to L coordinates, so a case hides its fault where that per-entry bound
leaves room: in a sum along a path or over a row, in two checks whose
slacks add up at one entry, or at an entry far below the sqrt(s(y) s(z))
of its ends, a weak edge or a new one.  Every bound is ``tol.rel`` times
the size of what it compares, with no floor, so a case fails the same
checks in any units.

Every check has a case, and all but three have one that fails it alone:

* ``jump_transform`` fails beside ``form_scaling``: both bound entry
  (y, z) by rel h(y) h(z) sqrt(F2[y, y] F2[z, z]), and off the diagonal
  the jump residual is half that of the form, so no candidate fails it
  alone.
* ``equal_mass_isometry`` fails beside ``resistance_isometry``: with
  equal masses and constant h, alpha^2 = beta to within rel, and the two
  compare the same resistances, so one fails alone only near its bound.
* ``intrinsic_pushforward_inflated`` (1.5 times the canonical metric d) is
  out on the source at the vertex x that minimises m/deg, where the energy
  of d is m(x).  Inside the guard the energy of the pushforward at x is at
  least m2 / (1 + rel) of the target measure, so 2.25 times it is out on
  the target too, unless (1 + rel)^2 >= 2.25.  Its case runs at
  ``--tol 0.9``, where a target measure 1.5 times too large passes the
  guard and puts the inflated metric in the target's family only.
"""

import json

import numpy as np
import pytest

import dirikit as dk
from dirikit import cli, jsonio
from dirikit.sampling import random_form

from conftest import rng_for


def identity_iso(form1, form2, h):
    names = form2.space.vertices
    h = np.broadcast_to(np.asarray(h, dtype=float), (len(names),))
    return dk.OrderIso(form1.space, form2.space, {v: v for v in names},
                       dict(zip(names, h.tolist())))


def with_columns(form, m=None, weights=None, c=None):
    """The form with its measure, conductances or killing replaced."""
    m = form.space.m if m is None else m
    weights = form.weights if weights is None else weights
    c = form.c if c is None else c
    space = dk.MeasureSpace(form.space.vertices, m)
    return dk.GraphForm._from_columns(space, *form.edge_ends(), weights, c)


def drifted_path():
    # tau = id on P12 with h(y) = (1 + 1.4e-9)^y: each entry of the guard
    # is within its bound, 1.4e-9 against 1.41e-9 at the ends, but the
    # drift adds up to 1.54e-8 along the path
    path = dk.generate("path", 12)
    return path, path, identity_iso(path, path, (1 + 1.4e-9) ** np.arange(12))


def small_beta():
    # h = 0.01 with one entry raised by 0.9e-9: beta = 1e-4, and
    # h^2 m2 / m1 is 1.6e-9 off beta relative at that vertex
    form = random_form(rng_for(910), 8, recurrent=False)
    h = np.full(8, 0.01)
    h[0] *= 1 + 0.9e-9
    return form, form, identity_iso(form, form, h)


def raised_vertex(seed, ratio, killing):
    """A transient form and itself under tau = id, h = 1 but at the vertex y
    of least degree, where h^2 is raised so that h^2 m2 / m1 is ``ratio``
    above beta relative, with the killing at y raised by ``killing`` times
    F[y, y] in the first form (positive) or the second (negative)."""
    form = random_form(rng_for(seed), 8, recurrent=False)
    y = int(np.argmin(form.degrees))
    h = np.ones(8)
    h[y] = np.sqrt(1 + ratio / (1 - 1 / 8))
    c = form.c.copy()
    c[y] += abs(killing) * form.form_matrix[y, y]
    raised = with_columns(form, c=c)
    form1, form2 = (raised, form) if killing > 0 else (form, raised)
    return form1, form2, identity_iso(form1, form2, h)


def raised_ratio():
    # h^2 m2 / m1 1.2e-9 above beta at y, and F1[y, y] raised by 0.9e-9 of
    # it: the entry (y, y) of h F2 h - beta F1 is 1.2e-9 - 0.9e-9 of its
    # scale, and that of the guard 0.9e-9
    return raised_vertex(940, 1.2e-9, 0.9e-9)


def raised_killing():
    # h^2 m2 / m1 0.9e-9 above beta at y, and F2[y, y] raised by 0.9e-9 of
    # it: each within its own bound, but the entry (y, y) of h F2 h - beta
    # F1 adds them up to 1.8e-9
    return raised_vertex(920, 0.9e-9, -0.9e-9)


def star_deficit():
    # the exact conjugate of a star by h = 1 at the centre and 2 at its ten
    # leaves, then 2.7e-12 of the centre's killing moved onto each of its
    # edges: each entry of the guard is 2.7e-12 h / m2, within its bound,
    # and L2 h at the centre sums all ten to -5.4e-8, against 1e-9 of
    # max|L| max h = 2e1
    names = [f"v{i}" for i in range(11)]
    c1 = np.full(11, 2e-3)
    c1[0] = 0.0
    form1 = dk.build_form(names, 1e-3, [("v0", v, 1e-3) for v in names[1:]], c1)
    h = np.full(11, 2.0)
    h[0] = 1.0
    i, j = form1.edge_indices
    exact = with_columns(form1, m=form1.space.m / h**2, weights=form1.weights / (h[i] * h[j]))
    c2 = (form1.degrees + form1.c) / h**2 - exact.degrees
    delta = 2.7e-12
    c2[0] -= 10 * delta
    c2[1:] -= delta
    form2 = with_columns(exact, weights=exact.weights + delta, c=c2)
    return form1, form2, identity_iso(form1, form2, h)


def conjugate_without_killing():
    # h = 1 at one vertex and 1 + 0.9e-9 at nine, b2 = b1 / (h h) and
    # m2 = m1 / h^2 on a recurrent form without killing: h^2 m2 / m1 is 1
    # and h is constant to 0.9e-9, but m2 / m1 = 1 / h^2 is 1.62e-9 off the
    # multiple (mean h)^-2 at the one vertex
    form1 = random_form(rng_for(900), 10, recurrent=True)
    h = np.full(10, 1 + 0.9e-9)
    h[0] = 1.0
    i, j = form1.edge_indices
    form2 = with_columns(form1, m=form1.space.m / h**2, weights=form1.weights / (h[i] * h[j]))
    return form1, form2, identity_iso(form1, form2, h)


def split_scaling():
    # two triangles S and T joined by a weak edge; h = 1 on S and 1 + 1.5e-9
    # on T, and h^2 m2 / m1 = 1 -+ 0.75e-9: operator_constant and
    # measure_pushforward each stay within 0.75e-9, h varies by 1.5e-9.
    # Both forms are doubled so that their total masses differ
    names = ["s0", "s1", "s2", "t0", "t1", "t2"]
    form1 = dk.build_form(names, 1.0, [
        ("s0", "s1", 1.0), ("s1", "s2", 1.0), ("s0", "s2", 1.0),
        ("t0", "t1", 1.0), ("t1", "t2", 1.0), ("t0", "t2", 1.0), ("s0", "t0", 1e-3)])
    h = np.repeat([1.0, 1 + 1.5e-9], 3)
    r = np.repeat([1 - 0.75e-9, 1 + 0.75e-9], 3)
    i, j = form1.edge_indices
    form2 = with_columns(form1, m=2.0 * form1.space.m * r / h**2,
                         weights=2.0 * form1.weights / (h[i] * h[j]))
    return form1, form2, identity_iso(form1, form2, h / np.sqrt(2.0))


def split_killed():
    # two killed unit triangles joined by an edge of 1e-3, h = 1 on one and
    # 1 + 1e-8 on the other: the guard sees the step of h only on the weak
    # edge, 1e-11 against 3e-9, while h^2 m2 / m1 is 1e-8 off beta, and
    # h h J2 of each jump 1/2 of the second triangle is 5e-9 off beta J1,
    # beside a bound of 1e-9 sqrt(F2[y, y] F2[z, z]) = 3e-9
    names = ["s0", "s1", "s2", "t0", "t1", "t2"]
    form = dk.build_form(names, 1.0, [
        ("s0", "s1", 1.0), ("s1", "s2", 1.0), ("s0", "s2", 1.0),
        ("t0", "t1", 1.0), ("t1", "t2", 1.0), ("t0", "t2", 1.0), ("s0", "t0", 1e-3)],
        {v: 1.0 for v in names})
    return form, form, identity_iso(form, form, np.repeat([1.0, 1 + 1e-8], 3))


def bridged_path(scale):
    # P6 with a middle edge of 1e-3, the second form scaled by `scale` with
    # that edge raised by 1e-7 relative: the change is below 1e-9 of max|L|
    # and of max|F|, but the bridge carries most of the resistance
    names = [f"v{i}" for i in range(6)]

    def path(factor, eps):
        b = [1.0, 1.0, 1e-3 * (1 + eps), 1.0, 1.0]
        return dk.build_form(names, factor, [(names[k], names[k + 1], factor * b[k])
                                             for k in range(5)])

    form1, form2 = path(1.0, 0.0), path(scale, 1e-7)
    return form1, form2, identity_iso(form1, form2, 1 / np.sqrt(scale))


def long_chord():
    # P12 with a chord of 1e-10 from v2 to v9 in the second form: within
    # 1e-9 of sqrt(s(y) s(z)) = 2 on the guard's entries, and a resistance
    # change of 4.9e-9 against 1e-9 of the largest, 11.  The canonical
    # metric of P12 puts v2 and v9 7 / sqrt(2) apart, so the chord adds
    # 2.45e-9 m to the energy at v2, which m saturates
    form1 = dk.generate("path", 12)
    form2 = dk.build_form(form1.space.vertices, 1.0,
                          [*((u, v, w) for (u, v), w in form1.b.items()), ("v2", "v9", 1e-10)])
    return form1, form2, identity_iso(form1, form2, 1.0)


def heavy_target():
    # a relabel pair whose target measure is 1.5 times too large, at
    # --tol 0.9: L2 = L1 / 1.5 is within 0.9 of it on the diagonal, and the
    # inflated metric's energy, 2.25 m at the saturated vertex, is within
    # 1.9 m on the source's measure and 2.85 m on the target's
    form1 = random_form(rng_for(950), 8, recurrent=True)
    form2 = with_columns(form1, m=1.5 * form1.space.m)
    return form1, form2, identity_iso(form1, form2, 1.0)


FALSIFIERS = {
    "drifted_path": (drifted_path, {
        "operator_constant", "form_scaling", "scaling_constancy", "jump_transform"}),
    "operator_constant": (raised_ratio, {"operator_constant"}),
    "small_beta": (small_beta, {"operator_constant", "form_scaling"}),
    "form_scaling": (raised_killing, {"form_scaling"}),
    "jump_transform": (split_killed, {"operator_constant", "form_scaling", "jump_transform"}),
    "scaling_excessive": (star_deficit, {"scaling_excessive"}),
    "scaling_constancy": (split_scaling, {"scaling_constancy"}),
    "measure_pushforward": (conjugate_without_killing, {"measure_pushforward"}),
    "resistance_isometry": (lambda: bridged_path(2.0), {"resistance_isometry"}),
    "equal_mass_isometry": (lambda: bridged_path(1.0), {
        "resistance_isometry", "equal_mass_isometry"}),
    "intrinsic_pushforward_canonical": (long_chord, {"intrinsic_pushforward_canonical"}),
    "intrinsic_pushforward_inflated": (heavy_target, {"intrinsic_pushforward_inflated"}),
}
FLAGS = {"intrinsic_pushforward_inflated": ["--tol", "0.9"]}


def certify_cli(tmp_path, capsys, form1, form2, iso, flags=()):
    """Exit code and report of `dirikit certify` on the pair."""
    path = tmp_path / "pair.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_obj(form1, form2, iso)), encoding="utf-8")
    code = cli.run(["certify", str(path), *flags])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", FALSIFIERS)
def test_falsifier(tmp_path, capsys, case):
    build, failing = FALSIFIERS[case]
    form1, form2, iso = build()
    assert dk.intertwining_residual(iso, form1, form2) > 0.0
    code, report = certify_cli(tmp_path, capsys, form1, form2, iso, FLAGS.get(case, ()))
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failing
    assert (code, report["verdict"]) == (1, False)


def test_every_check_has_a_falsifier(tmp_path, capsys):
    # the names a recurrent witness pair prints are every name certify has
    form1 = random_form(rng_for(930), 6, recurrent=True)
    code, report = certify_cli(tmp_path, capsys, form1, form1,
                               dk.OrderIso.identity(form1.space))
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert len(names) == 10
    assert set().union(*(failing for _, failing in FALSIFIERS.values())) == names
