import contextlib
import io
import itertools
import json
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirikit as dk
from dirikit import jsonio
from dirikit.cli import run

from conftest import diagonal_overflow_form


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def gen(tmp_path, name, *args):
    path = tmp_path / name
    assert run(["gen", *args, "--out", str(path)]) == 0
    return str(path)


class TestGen:
    def test_emits_valid_graph(self, tmp_path, capsys):
        assert run(["gen", "--family", "complete", "--n", "2"]) == 0
        out = capsys.readouterr().out
        form = jsonio.graph_loads(out)
        assert len(form.space) == 2
        assert form.edge_weight("v0", "v1") == 1.0

    def test_roundtrip_equality(self, tmp_path):
        for family, n in (("path", 4), ("cycle", 5), ("complete", 3), ("sierpinski", 1)):
            path = gen(tmp_path, f"{family}.json", "--family", family, "--n", str(n))
            form = dk.generate(family, n)
            parsed = jsonio.graph_loads(pathlib.Path(path).read_text())
            assert parsed == form
            assert jsonio.graph_loads(jsonio.graph_dumps(parsed)) == parsed

    def test_roundtrip_with_killing_and_awkward_doubles(self):
        form = dk.build_form(
            ["a", "b"], {"a": 1.0 / 3.0, "b": 2.0**0.5},
            [("a", "b", 0.1)], {"a": 1e-17, "b": 0.0},
        )
        assert jsonio.graph_loads(jsonio.graph_dumps(form)) == form

    def test_invalid_size_exits_2(self, capsys):
        assert run(["gen", "--family", "cycle", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["gen", "--family", "path", "--n", "3", "--bogus"]) == 2


class TestCheck:
    def test_structural_predicates(self, tmp_path, capsys):
        path = gen(tmp_path, "g.json", "--family", "path", "--n", "3")
        assert run(["check", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["irreducible"] is True
        assert payload["recurrent"] is True
        assert payload["vertices"] == 3
        assert len(payload["spectrum"]) == 3
        assert payload["spectrum"][0] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        assert run(["check", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"vertices": ["a"], "m": {}}')
        assert run(["check", path]) == 2

    def test_invalid_weights_exit_2(self, tmp_path):
        obj = {"vertices": ["a", "b"], "m": {"a": 1.0, "b": 1.0},
               "edges": [{"u": "a", "v": "b", "b": -2.0}], "killing": {}}
        path = write(tmp_path, "neg.json", json.dumps(obj))
        assert run(["check", path]) == 2

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        payload = jsonio.graph_dumps(dk.generate("path", 3))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert run(["check", "-"]) == 0

    def test_text_format(self, tmp_path, capsys):
        path = gen(tmp_path, "g.json", "--family", "path", "--n", "3")
        assert run(["check", path, "--format", "text"]) == 0
        assert "irreducible: True" in capsys.readouterr().out


class TestSearch:
    def test_size_mismatch(self, tmp_path, capsys):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        assert run(["search", k2, p3]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is False
        assert payload["reason"] == "size"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_max_solutions_exits_2(self, tmp_path, capsys, cap):
        k5 = gen(tmp_path, "k5.json", "--family", "complete", "--n", "5")
        assert run(["search", k5, k5, "--max-solutions", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_self_search_path(self, tmp_path, capsys):
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        assert run(["search", p3, p3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert len(payload["intertwiners"]) == 2
        taus = [tuple(sorted(i["tau"].items())) for i in payload["intertwiners"]]
        assert len(set(taus)) == 2


class TestCertify:
    def test_doob_pair_roundtrip(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "doob", "--seed", "7",
                    "--out", str(pair)]) == 0
        assert run(["certify", str(pair)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        by_name = {c["name"]: c for c in payload["checks"]}
        assert "beta=1.0" in by_name["operator_constant"]["detail"]
        assert "skipped" in by_name["scaling_constancy"]["detail"]

    def test_relabel_pair_three_files(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--seed", "3",
                    "--out", str(pair)]) == 0
        obj = json.loads(pair.read_text())
        g1 = write(tmp_path, "g1.json", json.dumps(obj["g1"]))
        g2 = write(tmp_path, "g2.json", json.dumps(obj["g2"]))
        u = write(tmp_path, "u.json", json.dumps(obj["iso"]))
        assert run(["certify", g1, g2, u]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True

    def test_non_intertwiner_exits_2(self, tmp_path, capsys):
        g1 = gen(tmp_path, "g1.json", "--family", "complete", "--n", "2")
        g2 = write(tmp_path, "g2.json", jsonio.graph_dumps(
            dk.build_form(["v0", "v1"], 1.0, [("v0", "v1", 3.0)])
        ))
        u = write(tmp_path, "u.json", json.dumps(
            {"tau": {"v0": "v0", "v1": "v1"}, "h": {"v0": 1.0, "v1": 1.0}}
        ))
        assert run(["certify", g1, g2, u]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, tmp_path, capsys):
        g1 = gen(tmp_path, "g1.json", "--family", "complete", "--n", "2")
        assert run(["certify", g1, g1]) == 2


class TestResistance:
    def test_k2_matrix(self, tmp_path, capsys):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        assert run(["resistance", k2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == ["v0", "v1"]
        r = np.array(payload["R"])
        assert np.allclose(r, [[0.0, 1.0], [1.0, 0.0]])

    def test_killing_exits_2(self, tmp_path, capsys):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", 1.0)], {"a": 1.0, "b": 0.0})
        path = write(tmp_path, "killed.json", jsonio.graph_dumps(form))
        assert run(["resistance", path]) == 2

    def test_reads_tolerance(self, tmp_path, capsys, monkeypatch):
        # the rounding gaps of a path's tight triangles (about 1e-14) pass
        # the default tolerance and fail at 1e-300
        path = gen(tmp_path, "p20.json", "--family", "path", "--n", "20", "--conductance", "0.7")
        assert run(["resistance", path]) == 0
        default = capsys.readouterr().out
        assert run(["resistance", path, "--tol", "1e-300"]) == 2
        assert "triangle" in capsys.readouterr().err
        monkeypatch.setenv("DIRIKIT_TOL", "1e-300")
        assert run(["resistance", path]) == 2
        monkeypatch.setenv("DIRIKIT_TOL", "1e-9")
        assert run(["resistance", path]) == 0
        assert capsys.readouterr().out == default

    def test_malformed_env_exits_2(self, tmp_path, capsys, monkeypatch):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        monkeypatch.setenv("DIRIKIT_TOL", "not-a-number")
        assert run(["resistance", k2]) == 2
        assert "DIRIKIT_TOL" in capsys.readouterr().err
        assert run(["resistance", k2, "--tol", "1e-6"]) == 0

    def test_weak_bottleneck(self, tmp_path, capsys):
        # b(a,b) = 1e-12 beside b(b,c) = 1 is a real bottleneck, not a cut
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1e-12), ("b", "c", 1.0)])
        path = write(tmp_path, "weak.json", jsonio.graph_dumps(form))
        assert run(["resistance", path]) == 0
        r = json.loads(capsys.readouterr().out)["R"]
        assert r[0][1] == pytest.approx(1e12, rel=1e-9)

    def test_overflowing_resistance_exits_2(self, tmp_path, capsys):
        # b(a,b) = 5e-324 puts R(a,b) = 2e323 beyond the float range
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 5e-324), ("b", "c", 1.0)])
        path = write(tmp_path, "subnormal.json", jsonio.graph_dumps(form))
        assert run(["resistance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


    def test_overflowing_diagonal_sum_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "hub.json", jsonio.graph_dumps(diagonal_overflow_form()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning reaches stderr
            assert run(["resistance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "non-finite" in captured.err
        assert "Traceback" not in captured.err


class TestIntrinsic:
    def test_overflow_off_the_edges(self, tmp_path, capsys):
        # m = 1.7e308 on a unit path: d(v0, v2)^2 overflows, but v0 and v2
        # share no edge, so it adds nothing to the jump energy
        form = dk.build_form(["v0", "v1", "v2"], 1.7e308, [("v0", "v1", 1.0), ("v1", "v2", 1.0)])
        path = write(tmp_path, "heavy.json", jsonio.graph_dumps(form))
        assert run(["intrinsic", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic"] is True
        assert payload["slack"] == pytest.approx([8.5e307, 0.0, 8.5e307], rel=1e-12)

    def test_canonical_output(self, tmp_path, capsys):
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        assert run(["intrinsic", p3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic"] is True
        assert payload["d"][0][2] == pytest.approx(2**0.5)

    def test_checking_a_metric(self, tmp_path, capsys):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        good = write(tmp_path, "good.json", json.dumps({"d": [[0.0, 1.0], [1.0, 0.0]]}))
        bad = write(tmp_path, "bad.json", json.dumps({"d": [[0.0, 2.0], [2.0, 0.0]]}))
        assert run(["intrinsic", k2, "--metric", good]) == 0
        capsys.readouterr()
        assert run(["intrinsic", k2, "--metric", bad]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic"] is False


class TestDecompose:
    def test_k2(self, tmp_path, capsys):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        assert run(["decompose", k2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["J"] == [
            {"x": "v0", "y": "v1", "value": 0.5},
            {"x": "v1", "y": "v0", "value": 0.5},
        ]
        assert payload["k"] == {"v0": 0.0, "v1": 0.0}


class TestDeterminism:
    def test_gen_pair_bytes_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen-pair", "--transform", "relabel", "--seed", "42",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["gen-pair", "--transform", "doob", "--seed", "1", "--out", str(a)]) == 0
        assert run(["gen-pair", "--transform", "doob", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_gen_pair_parses_and_certifies(self, tmp_path):
        for seed in (0, 1, 2):
            for transform in ("relabel", "doob"):
                pair = tmp_path / f"{transform}{seed}.json"
                assert run(["gen-pair", "--transform", transform,
                            "--seed", str(seed), "--out", str(pair)]) == 0
                obj = json.loads(pair.read_text())
                form1 = jsonio.graph_from_obj(obj["g1"])
                form2 = jsonio.graph_from_obj(obj["g2"])
                iso = jsonio.iso_from_obj(obj["iso"], form1.space, form2.space)
                assert dk.certify(iso, form1, form2).verdict


class TestTolerancePlumbing:
    def test_env_override(self, tmp_path, capsys, monkeypatch):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        monkeypatch.setenv("DIRIKIT_TOL", "not-a-number")
        assert run(["check", k2]) == 0  # check does not consult the tolerance
        bad_metric = write(tmp_path, "d.json", json.dumps({"d": [[0.0, 1.0], [1.0, 0.0]]}))
        assert run(["intrinsic", k2, "--metric", bad_metric]) == 2
        monkeypatch.setenv("DIRIKIT_TOL", "1e-6")
        assert run(["intrinsic", k2, "--metric", bad_metric]) == 0

    def test_flag_supersedes_env(self, tmp_path, capsys, monkeypatch):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        metric = write(tmp_path, "d.json", json.dumps({"d": [[0.0, 1.0], [1.0, 0.0]]}))
        monkeypatch.setenv("DIRIKIT_TOL", "not-a-number")
        assert run(["intrinsic", k2, "--metric", metric, "--tol", "1e-6"]) == 0

    def test_search_reads_env(self, tmp_path, capsys, monkeypatch):
        k2 = gen(tmp_path, "k2.json", "--family", "complete", "--n", "2")
        monkeypatch.setenv("DIRIKIT_TOL", "not-a-number")
        assert run(["search", k2, k2]) == 2
        assert run(["search", k2, k2, "--tol", "1e-6"]) == 0


# path a - b - c: b = 1e300 over m = 1e-300 overflows the generator; one
# conductance of 1.5e308 over unit measure overflows its symmetrization
OVERFLOWING_GENERATOR = {
    "vertices": ["a", "b", "c"], "m": {"a": 1e-300, "b": 1e-300, "c": 1e-300},
    "edges": [{"u": "a", "v": "b", "b": 1e300}, {"u": "b", "v": "c", "b": 1e300}],
}
OVERFLOWING_SPECTRUM = {
    "vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 1.0, "c": 1.0},
    "edges": [{"u": "a", "v": "b", "b": 1.5e308}, {"u": "b", "v": "c", "b": 1.0}],
}


class TestNonFinite:
    @pytest.mark.parametrize("graph", [OVERFLOWING_GENERATOR, OVERFLOWING_SPECTRUM])
    @pytest.mark.parametrize("command", ["check", "search"])
    def test_overflow_exits_2(self, tmp_path, capsys, graph, command):
        path = write(tmp_path, "g.json", json.dumps(graph))
        argv = [command, path] + ([path] if command == "search" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning reaches stderr
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "non-finite" in captured.err


GRID = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.5e308, 1.7e308)
FAULTS = (None, None, None, "negative", "nan", "string", "integer", "missing")


@st.composite
def graph_documents(draw):
    """Graphs of up to 4 vertices with grid-valued measures, conductances and
    killing, and at most one entry made negative, NaN, a string, an integer
    beyond the float range or absent."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    doc = {
        "vertices": names,
        "m": {v: draw(st.sampled_from(GRID[1:])) for v in names},
        "edges": [
            {"u": u, "v": v, "b": draw(st.sampled_from(GRID))}
            for u, v in itertools.combinations(names, 2)
            if int(v[1:]) == int(u[1:]) + 1 or draw(st.booleans())
        ],
        "killing": {v: draw(st.sampled_from(GRID)) for v in names if draw(st.booleans())},
    }
    fault = draw(st.sampled_from(FAULTS))
    if fault is not None:
        slots = [(doc, "vertices"), (doc, "m"), (doc, "edges")]
        slots += [(doc["m"], v) for v in names] + [(doc["killing"], v) for v in doc["killing"]]
        slots += [(edge, key) for edge in doc["edges"] for key in ("u", "b")]
        holder, key = draw(st.sampled_from(slots))
        if fault == "missing":
            del holder[key]
        else:
            holder[key] = {"negative": -draw(st.sampled_from(GRID[1:])),
                           "nan": math.nan, "string": "1.0", "integer": 10**400}[fault]
    return doc


class TestFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph_documents())
    def test_extreme_and_malformed_graphs(self, doc):
        names = doc.get("vertices")
        iso = {"tau": {v: v for v in names}, "h": {v: 1.0 for v in names}} \
            if isinstance(names, list) else {}
        with tempfile.TemporaryDirectory() as tmp:
            g = write(pathlib.Path(tmp), "g.json", json.dumps(doc))
            u = write(pathlib.Path(tmp), "u.json", json.dumps(iso))
            for argv in (["check", g], ["resistance", g], ["intrinsic", g],
                         ["decompose", g], ["search", g, g], ["certify", g, g, u]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
                assert code in (0, 1, 2), argv
                if code == 2:
                    assert any(line.startswith("error:") for line in err.getvalue().splitlines())
                if argv[0] in ("search", "certify"):
                    assert code != 1, (argv[0], out.getvalue())
