"""One falsifier per check of `dirikit certify`.

A certificate should print only checks that some input can fail.  Each
case below is a pair with a candidate that passes the intertwining guard,
run through the CLI, with the exact set of checks that fail on it.  The
guard bounds U L1 - L2 U entrywise by rel * max h * max|L|, so a case
hides its fault where that normwise bound is loose: in a sum along a path
or over a row, in a row of small L (a heavy vertex), or in the F = M L
scale that the form checks use in place of the L scale.  Every bound is
``tol.rel`` times the size of what it compares, with no floor, so a case
fails the same checks in any units.

Every check has a case, and all but three have one that fails it alone:

* ``scaling_excessive`` fails beside ``jump_transform`` on a star whose
  conductances are 1e-3: the fault moved onto its edges is small against
  1, but not against the largest jump.  The same holds for
  ``operator_constant`` and ``form_scaling`` at beta = 1e-4
  (``small_beta``).  Both cases passed these checks while their bounds
  were floored at 1.
* ``equal_mass_isometry`` fails beside ``resistance_isometry``: with
  equal masses and constant h, alpha^2 = beta, and the two compare the
  same resistances.
* ``intrinsic_pushforward_inflated`` (1.5 times the canonical metric d) is
  out on the source at the vertex x that minimises m/deg, where the
  energy of d is m(x).  That vertex has the largest diagonal of L, so the
  guard holds its row to 1e-9 relative unless h varies, and the target is
  out there too.  Its case varies h by a factor 2e9, which blinds the
  guard to the row of x and fails nearly every other check as well.
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
    # tau = id on P12 with h(y) = (1 + 1.5e-9)^y: each entry of the guard
    # is within its bound, but the drift adds up to 1.65e-8 along the path
    path = dk.generate("path", 12)
    return path, path, identity_iso(path, path, (1 + 1.5e-9) ** np.arange(12))


def raised_ratio():
    # beta = 2 and one h^2 m2 / m1 raised so that it is 1e-9 + 0.75e-12
    # above beta relative, at the vertex of least degree
    form = random_form(rng_for(940), 8, recurrent=False)
    eps = (1e-9 + 0.75e-12) / (1 - 1 / 8)
    h = np.full(8, np.sqrt(2.0))
    h[np.argmin(form.degrees)] = np.sqrt(2 * (1 + eps))
    return form, form, identity_iso(form, form, h)


def small_beta():
    # h = 0.01 with one entry raised by 0.9e-9: beta = 1e-4, and
    # h^2 m2 / m1 is 1.6e-9 off beta relative at that vertex
    form = random_form(rng_for(910), 8, recurrent=False)
    h = np.full(8, 0.01)
    h[0] *= 1 + 0.9e-9
    return form, form, identity_iso(form, form, h)


def heavy_form():
    """A transient form whose first two vertices (an edge) weigh 1e4: their
    rows of L are small next to max|L|, their rows of F are not."""
    form = random_form(rng_for(920), 8, recurrent=False)
    m = form.space.m.copy()
    m[:2] = 1e4
    return with_columns(form, m=m)


def heavy_killing():
    # killing at a heavy vertex raised by 3e-9 max|F|
    form1 = heavy_form()
    c = form1.c.copy()
    c[0] += 3e-9 * float(np.max(np.abs(form1.form_matrix)))
    form2 = with_columns(form1, c=c)
    return form1, form2, identity_iso(form1, form2, 1.0)


def heavy_edge():
    # the edge between the heavy vertices raised by 0.7e-9 max|F|: within
    # the bound of form_scaling, whose scale includes the degrees, but not
    # within that of jump_transform, whose scale is max J
    form1 = heavy_form()
    ends = list(zip(*form1.edge_ends()))
    assert ends[0] == ("v0", "v1")
    weights = form1.weights.copy()
    weights[0] += 0.7e-9 * float(np.max(np.abs(form1.form_matrix)))
    form2 = with_columns(form1, weights=weights)
    return form1, form2, identity_iso(form1, form2, 1.0)


def star_deficit():
    # the exact conjugate of a star by h = 1 at the centre and 2 at its ten
    # leaves, then 3e-12 of the centre's killing moved onto each of its
    # edges: each entry of the guard is 3e-12 * h / m2, and L2 h at the
    # centre sums all ten to -6e-8.  Each jump is then 3e-12 off, six times
    # 1e-9 of the largest, 5e-4
    names = [f"v{i}" for i in range(11)]
    c1 = np.full(11, 2e-3)
    c1[0] = 0.0
    form1 = dk.build_form(names, 1e-3, [("v0", v, 1e-3) for v in names[1:]], c1)
    h = np.full(11, 2.0)
    h[0] = 1.0
    i, j = form1.edge_indices
    exact = with_columns(form1, m=form1.space.m / h**2, weights=form1.weights / (h[i] * h[j]))
    c2 = (form1.degrees + form1.c) / h**2 - exact.degrees
    delta = 3e-12
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


def saturated_leaf():
    # the leaf x saturates its intrinsic bound (m/deg is 1 there and 10/2.01
    # at its neighbour) but its diagonal of L is 1 next to max|L| = 100 at
    # D; raising its edge by 1e-8 puts its energy 1e-8 above m on the
    # target.  The weaker bridge B-C keeps the resistance change below 1e-9
    names = ["x", "H", "A", "B", "C", "D"]
    m = [1e-2, 10.0, 1.0, 1.0, 1.0, 1e-2]

    def form(eps):
        return dk.build_form(names, m, [
            ("x", "H", 1e-2 * (1 + eps)), ("H", "A", 1.0), ("H", "B", 1.0), ("A", "B", 1.0),
            ("B", "C", 1e-4), ("C", "D", 1.0)])

    form1, form2 = form(0.0), form(1e-8)
    return form1, form2, identity_iso(form1, form2, 1.0)


def blind_row():
    # h(a) = 5e-10 h(b) and m1(a) = 1e-12: the row and column of a in the
    # guard are below 1e-9 max h max|L| = 1e3 whatever form2 puts there
    form1 = dk.build_form(["a", "b"], [1e-12, 1.0], [("a", "b", 1.0)])
    form2 = dk.build_form(["a", "b"], [2e-3, 1.0], [("a", "b", 1.0)])
    return form1, form2, identity_iso(form1, form2, [0.5e-9, 1.0])


FALSIFIERS = {
    "drifted_path": (drifted_path, {
        "operator_constant", "form_scaling", "scaling_constancy", "jump_transform"}),
    "operator_constant": (raised_ratio, {"operator_constant"}),
    "small_beta": (small_beta, {"operator_constant", "form_scaling"}),
    "form_scaling": (heavy_killing, {"form_scaling"}),
    "jump_transform": (heavy_edge, {"jump_transform"}),
    "scaling_excessive": (star_deficit, {"scaling_excessive", "jump_transform"}),
    "scaling_constancy": (split_scaling, {"scaling_constancy"}),
    "measure_pushforward": (conjugate_without_killing, {"measure_pushforward"}),
    "resistance_isometry": (lambda: bridged_path(2.0), {"resistance_isometry"}),
    "equal_mass_isometry": (lambda: bridged_path(1.0), {
        "resistance_isometry", "equal_mass_isometry"}),
    "intrinsic_pushforward_canonical": (saturated_leaf, {"intrinsic_pushforward_canonical"}),
    "intrinsic_pushforward_inflated": (blind_row, {
        "operator_constant", "form_scaling", "scaling_excessive", "scaling_constancy",
        "measure_pushforward", "jump_transform", "resistance_isometry",
        "intrinsic_pushforward_inflated"}),
}


def certify_cli(tmp_path, capsys, form1, form2, iso):
    """Exit code and report of `dirikit certify` on the pair."""
    path = tmp_path / "pair.json"
    path.write_text(jsonio.dumps(jsonio.pair_to_obj(form1, form2, iso)), encoding="utf-8")
    code = cli.run(["certify", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", FALSIFIERS)
def test_falsifier(tmp_path, capsys, case):
    build, failing = FALSIFIERS[case]
    form1, form2, iso = build()
    assert dk.intertwining_residual(iso, form1, form2) > 0.0
    code, report = certify_cli(tmp_path, capsys, form1, form2, iso)
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
