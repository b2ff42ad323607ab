import argparse
import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

import dirikit as dk
from dirikit import cli, jsonio, metrics, orderiso
from dirikit.cli import run
from dirikit.errors import InvalidSize, MalformedInput, NotIntertwining
from dirikit.sampling import doob_pair_sample, random_form, relabel_pair

from conftest import (
    PAST_LEAF,
    diagonal_overflow_form,
    edge_weight,
    eigh_calls,
    pick,
    rng_for,
    sierpinski_doob_pair,
    traced,
)

SRC = pathlib.Path(dk.__file__).resolve().parent.parent


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
        assert edge_weight(form, "v0", "v1") == 1.0

    def test_roundtrip_equality(self, tmp_path):
        for family, n in (("path", 4), ("cycle", 5), ("complete", 3), ("sierpinski", 1)):
            path = gen(tmp_path, f"{family}.json", "--family", family, "--n", str(n))
            form = dk.generate(family, n)
            parsed = jsonio.graph_loads(pathlib.Path(path).read_text())
            assert parsed == form
            assert jsonio.graph_loads(jsonio.dumps(jsonio.graph_to_obj(parsed))) == parsed

    def test_roundtrip_with_killing_and_awkward_doubles(self):
        form = dk.build_form(
            ["a", "b"], {"a": 1.0 / 3.0, "b": 2.0**0.5},
            [("a", "b", 0.1)], {"a": 1e-17, "b": 0.0},
        )
        assert jsonio.graph_loads(jsonio.dumps(jsonio.graph_to_obj(form))) == form

    def test_invalid_size_exits_2(self, capsys):
        assert run(["gen", "--family", "cycle", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["gen", "--family", "path", "--n", "3", "--bogus"]) == 2

    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_pair_size_below_one_exits_2(self, capsys, transform, n):
        assert run(["gen-pair", "--transform", transform, "--n", n]) == 2
        assert capsys.readouterr().err == "error: a random form needs n >= 1\n"
        with pytest.raises(InvalidSize):
            random_form(rng_for(0), int(n))


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

    # a 0xff byte, a truncated two-byte sequence and an encoded surrogate
    @pytest.mark.parametrize("data, start, reason", [
        (b'{"vertices": ["\xff"]}', 15, "invalid start byte"),
        (b'{"vertices": ["\xc3', 15, "unexpected end of data"),
        (b'{"vertices": ["\xed\xa0\x80"]}', 15, "invalid continuation byte"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["check", "certify", "certify g2"])
    def test_invalid_utf8_exits_2(self, tmp_path, capsys, data, start, reason, fmt, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        paths = [str(bad)]
        if command == "certify g2":
            pair = tmp_path / "pair.json"
            assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0
            docs = json.loads(pair.read_text(encoding="utf-8"))
            paths = [write(tmp_path, "g1.json", json.dumps(docs["g1"])), str(bad),
                     write(tmp_path, "iso.json", json.dumps(docs["iso"]))]
        capsys.readouterr()
        out = tmp_path / "out"
        assert run([command.split()[0], *paths, "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: invalid UTF-8 at byte {start}: {reason}\n"
        assert not out.exists()

    def test_byte_order_mark_keeps_jsons_message(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        graph = jsonio.dumps(jsonio.graph_to_obj(dk.generate("path", 3)))
        path.write_bytes(b"\xef\xbb\xbf" + graph.encode())
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
            " line 1 column 1 (char 0)\n")

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"vertices": ["a"], "m": {}}')
        assert run(["check", path]) == 2

    # json reads a lone surrogate, which no UTF-8 document or text can hold
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["check", "resistance", "decompose", "search",
                                         "certify", "certify tau", "certify h"])
    def test_lone_surrogate_id_exits_2(self, tmp_path, capsys, command, fmt):
        ok = {"vertices": ["a", "b"], "m": {"a": 1, "b": 1},
              "edges": {"u": ["a"], "v": ["b"], "b": [1]}}
        bad = json.loads(json.dumps(ok).replace('"a"', '"\\ud800"'))
        iso = {"tau": {"a": "a", "b": "b"}, "h": {"a": 1, "b": 1}}
        if command == "certify":
            docs = [{"g1": bad, "g2": ok, "iso": iso}]
        elif command.startswith("certify"):
            key = command.split()[1]
            iso[key] = json.loads(json.dumps(iso[key]).replace('"a":', '"\\ud800":'))
            docs = [{"g1": ok, "g2": ok, "iso": iso}]
        else:
            docs = [bad, ok][:2 if command == "search" else 1]
        paths = [write(tmp_path, f"{i}.json", json.dumps(doc)) for i, doc in enumerate(docs)]
        out = tmp_path / "out"
        argv = [command.split()[0], *paths, "--format", fmt, "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

    def test_invalid_weights_exit_2(self, tmp_path):
        obj = {"vertices": ["a", "b"], "m": {"a": 1.0, "b": 1.0},
               "edges": [{"u": "a", "v": "b", "b": -2.0}], "killing": {}}
        path = write(tmp_path, "neg.json", json.dumps(obj))
        assert run(["check", path]) == 2

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        payload = jsonio.dumps(jsonio.graph_to_obj(dk.generate("path", 3)))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
        assert run(["check", "-"]) == 0

    def test_text_format(self, tmp_path, capsys):
        path = gen(tmp_path, "g.json", "--family", "path", "--n", "3")
        assert run(["check", path, "--format", "text"]) == 0
        assert "irreducible: True" in capsys.readouterr().out

    def test_spectrum_is_the_forms_bit_for_bit(self, tmp_path, capsys, monkeypatch):
        # the corpus's stable view leaves the spectrum out, so it is pinned
        # here, on Sierpinski L3 and on a form with conductances and
        # measures over 12 orders of magnitude; no eigenvector is built
        eigh_calls(monkeypatch, fail=True)
        rng = rng_for(72)
        base = random_form(rng, 30)
        weights = base.weights * 10.0 ** rng.uniform(-6.0, 6.0, len(base.weights))
        spread = dk.build_form(base.space.vertices, 10.0 ** rng.uniform(-6.0, 6.0, 30),
                               list(zip(*base.edge_ends(), weights)), base.c)
        for form in (dk.generate("sierpinski", 3), spread):
            path = write(tmp_path, "g.json", jsonio.dumps(jsonio.graph_to_obj(form)))
            assert run(["check", path]) == 0
            spectrum = json.loads(capsys.readouterr().out)["spectrum"]
            assert [float(x).hex() for x in spectrum] == [x.hex() for x in form.spectrum.tolist()]


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

    # K7 has 5040 intertwiners and K6 720: capped iff more exist than the cap
    @pytest.mark.parametrize("n, cap, count, capped", [
        (7, 7, 7, True), (7, 1000, 1000, True), (6, 1000, 720, False), (6, 720, 720, False),
        (6, 719, 719, True)])
    def test_capped(self, tmp_path, capsys, n, cap, count, capped):
        k = gen(tmp_path, "k.json", "--family", "complete", "--n", str(n))
        argv = ["search", k, k, "--max-solutions", str(cap)]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["intertwiners"]) == count
        assert payload["capped"] is capped
        assert list(payload) == ["equivalent", "reason", "intertwiners", "capped"]
        assert run(argv + ["--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["equivalent: True", f"capped: {capped}"]
        assert len(lines) == 2 + count
        form = jsonio.graph_loads(pathlib.Path(k).read_text(encoding="utf-8"))
        verdict = dk.equivalence_verdict(form, form, dk.SearchOptions(max_solutions=cap))
        assert verdict.capped is capped


def test_no_command_reads_eigenvectors(tmp_path, monkeypatch, capsys):
    # certify on a recurrent relabel pair (seed 3) and a transient Doob pair,
    # the geometry commands, searches that build the resolvent layer, and
    # the excessive-function search: none of them calls eigh
    eigh_calls(monkeypatch, fail=True)
    gasket = gen(tmp_path, "l3.json", "--family", "sierpinski", "--n", "3")
    cycle = gen(tmp_path, "c12.json", "--family", "cycle", "--n", "12")
    argvs = [["search", cycle, cycle], ["search", gasket, gasket]]
    argvs += [[command, gasket] for command in ("check", "resistance", "intrinsic", "decompose")]
    for transform in ("relabel", "doob"):
        pair = str(tmp_path / f"{transform}.json")
        assert run(["gen-pair", "--transform", transform, "--n", "12", "--seed", "3",
                    "--out", pair]) == 0
        argvs.append(["certify", pair])
    for argv in argvs:
        assert run(argv) == 0, argv
    capsys.readouterr()
    transient = random_form(rng_for(73), 12, recurrent=False)
    assert dk.find_nonconstant_excessive(transient) is not None


def count_guards(monkeypatch) -> list:
    """The calls of ``require_intertwining`` from here on, through every
    dirikit module that binds it."""
    calls = []
    guard = orderiso.require_intertwining

    def counted(*args, **kwargs):
        calls.append(args)
        return guard(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "dirikit" and vars(module).get("require_intertwining") is guard:
            monkeypatch.setattr(module, "require_intertwining", counted)
    return calls


class TestCertify:
    @pytest.mark.parametrize("transform, recurrent", [("relabel", True), ("doob", False)])
    def test_one_guard_per_command(self, tmp_path, capsys, monkeypatch, transform, recurrent):
        # the public certificates each run the guard, 4 calls on a recurrent
        # pair and 2 on a transient one; the CLI runs it once, and prints
        # the bytes of their reports
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", transform, "--n", "8", "--out", str(pair)]) == 0
        form1, form2, iso = jsonio.pair_from_obj(json.loads(pair.read_text()))
        assert (dk.is_recurrent(form1) and dk.is_recurrent(form2)) == recurrent
        calls = count_guards(monkeypatch)
        for fmt in ("json", "text"):
            assert run(["certify", str(pair), "--format", fmt]) == 0
        assert len(calls) == 2
        out = capsys.readouterr().out
        report = dk.certify(iso, form1, form2)
        report.extend(dk.verify_jump_transform(iso, form1, form2))
        if recurrent:
            report.extend(dk.verify_resistance_isometry(iso, form1, form2))
            report.extend(dk.verify_intrinsic_bijection(iso, form1, form2))
        assert len(calls) == (6 if recurrent else 4)
        assert out == jsonio.dumps(report.to_dict()) + "\n" + cli._report_text(report)

    def test_positive_edges_once_per_form(self, tmp_path, capsys, monkeypatch):
        # a recurrent certify finds the positive edges of each of its two
        # forms once, and is_intrinsic those of its form once
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--n", "8", "--out", str(pair)]) == 0
        form1, form2, _ = jsonio.pair_from_obj(json.loads(pair.read_text()))
        assert dk.is_recurrent(form1) and dk.is_recurrent(form2)
        positive_edges, calls = metrics._positive_edges, []
        monkeypatch.setattr(metrics, "_positive_edges",
                            lambda form: calls.append(form) or positive_edges(form))
        assert run(["certify", str(pair)]) == 0
        assert len(calls) == 2 and calls[0] is not calls[1]
        metric = dk.canonical_intrinsic_metric(form1)
        calls.clear()
        assert dk.is_intrinsic(form1, metric).ok
        assert calls == [form1]

    def test_swapped_tau_exits_2_at_the_guard(self, tmp_path, capsys, monkeypatch):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--n", "8", "--out", str(pair)]) == 0
        obj = json.loads(pair.read_text())
        tau = obj["iso"]["tau"]
        y0, y1 = list(tau)[:2]
        tau[y0], tau[y1] = tau[y1], tau[y0]
        swapped = write(tmp_path, "swapped.json", json.dumps(obj))
        form1, form2, iso = jsonio.pair_from_obj(obj)
        messages = set()
        for verify in (dk.certify, dk.verify_jump_transform, dk.verify_resistance_isometry,
                       dk.verify_intrinsic_bijection):
            with pytest.raises(NotIntertwining) as exc:
                verify(iso, form1, form2)
            messages.add(f"error: {exc.value}\n")
        assert len(messages) == 1
        calls = count_guards(monkeypatch)
        assert run(["certify", swapped]) == 2
        assert len(calls) == 1
        assert capsys.readouterr() == ("", messages.pop())

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
        g2 = write(tmp_path, "g2.json", jsonio.dumps(jsonio.graph_to_obj(
            dk.build_form(["v0", "v1"], 1.0, [("v0", "v1", 3.0)])
        )))
        u = write(tmp_path, "u.json", json.dumps(
            {"tau": {"v0": "v0", "v1": "v1"}, "h": {"v0": 1.0, "v1": 1.0}}
        ))
        assert run(["certify", g1, g2, u]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_arity_exits_2(self, tmp_path, capsys):
        g1 = gen(tmp_path, "g1.json", "--family", "complete", "--n", "2")
        assert run(["certify", g1, g1]) == 2

    def test_one_file_and_three_files_print_the_same(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "doob", "--seed", "5",
                    "--out", str(pair)]) == 0
        obj = json.loads(pair.read_text())
        parts = [write(tmp_path, f"{key}.json", json.dumps(obj[key]))
                 for key in ("g1", "g2", "iso")]
        for fmt in ("json", "text"):
            assert run(["certify", str(pair), "--format", fmt]) == 0
            one_file = capsys.readouterr().out
            assert run(["certify", *parts, "--format", fmt]) == 0
            assert capsys.readouterr().out == one_file

    def test_json_run_builds_no_text(self, tmp_path, capsys, monkeypatch):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0

        def no_text(report):
            raise AssertionError("text built for a JSON run")

        monkeypatch.setattr(cli, "_report_text", no_text)
        assert run(["certify", str(pair)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    @pytest.mark.parametrize("transform, n, seed", [("relabel", "6", "4"), ("doob", "160", "1")])
    @pytest.mark.parametrize("power", [-600, 600])
    def test_beta_out_of_float_range_exits_2(self, tmp_path, capsys, transform, n, seed, power):
        # h times 2^-600 makes beta underflow to 0, and 2^600 overflow to
        # inf: the recurrent pair ended in a traceback at alpha, and the
        # transient one in a vacuous pass or in a NaN residual
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", transform, "--n", n, "--seed", seed,
                    "--out", str(pair)]) == 0
        obj = json.loads(pair.read_text())
        obj["iso"]["h"] = {y: x * 2.0**power for y, x in obj["iso"]["h"].items()}
        scaled = write(tmp_path, "scaled.json", json.dumps(obj))
        for fmt in ("json", "text"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning reaches stderr
                assert run(["certify", scaled, "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            beta = 0.0 if power < 0 else math.inf
            assert err == f"error: beta={beta!r} leaves the range of positive normal floats\n"

    @pytest.mark.parametrize("doc", ["[]", '"x"', "null"])
    def test_pair_not_an_object_exits_2(self, tmp_path, capsys, doc):
        assert run(["certify", write(tmp_path, "pair.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: pair:")


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
        path = write(tmp_path, "killed.json", jsonio.dumps(jsonio.graph_to_obj(form)))
        assert run(["resistance", path]) == 2

    def test_reads_no_tolerance(self, tmp_path, capsys):
        # the resistance metric is a metric by theorem, so nothing is
        # checked to a tolerance: a path's tight triangles, whose rounding
        # gaps (about 1e-14) fail the full check at 1e-300, print without
        # one, and --tol is a usage error
        path = gen(tmp_path, "p20.json", "--family", "path", "--n", "20", "--conductance", "0.7")
        assert run(["resistance", path]) == 0
        capsys.readouterr()
        assert run(["resistance", path, "--tol", "1e-300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --tol 1e-300" in err

    def test_weak_bottleneck(self, tmp_path, capsys):
        # b(a,b) = 1e-12 beside b(b,c) = 1 is a real bottleneck, not a cut
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1e-12), ("b", "c", 1.0)])
        path = write(tmp_path, "weak.json", jsonio.dumps(jsonio.graph_to_obj(form)))
        assert run(["resistance", path]) == 0
        r = json.loads(capsys.readouterr().out)["R"]
        assert r[0][1] == pytest.approx(1e12, rel=1e-9)

    def test_overflowing_resistance_exits_2(self, tmp_path, capsys):
        # b(a,b) = 5e-324 puts R(a,b) = 2e323 beyond the float range
        form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 5e-324), ("b", "c", 1.0)])
        path = write(tmp_path, "subnormal.json", jsonio.dumps(jsonio.graph_to_obj(form)))
        assert run(["resistance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_unserializable_matrix_writes_nothing(self, tmp_path, capsys, monkeypatch, bad):
        # a matrix whose last entry cannot be written: the error comes before
        # the first write, so --out is never created and stdout stays empty
        class Matrix:
            d = np.ones((40, 40))

        Matrix.d[-1, -1] = bad
        monkeypatch.setattr(metrics, "resistance_matrix", lambda form: Matrix)
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        out = tmp_path / "r.json"
        assert run(["resistance", p3, "--out", str(out)]) == 2
        assert run(["resistance", p3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot serialize non-finite number {bad}\n" * 2
        assert not out.exists()
        with pytest.raises(MalformedInput):
            cli._output(argparse.Namespace(format="json", out=str(out)), {"R": Matrix.d})
        assert not out.exists()

    def test_overflowing_diagonal_sum_exits_2(self, tmp_path, capsys):
        for tail in (0, PAST_LEAF):
            graph = jsonio.dumps(jsonio.graph_to_obj(diagonal_overflow_form(tail)))
            path = write(tmp_path, f"hub{tail}.json", graph)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning reaches stderr
                assert run(["resistance", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert "non-finite" in captured.err
            assert "Traceback" not in captured.err


class TestIntrinsic:
    def test_overflow_off_the_edges(self, tmp_path, capsys):
        # m = 1.7e308 on a unit path: d(v0, v2)^2 overflows, but v0 and v2
        # share no edge, so it adds nothing to the jump energy
        form = dk.build_form(["v0", "v1", "v2"], 1.7e308, [("v0", "v1", 1.0), ("v1", "v2", 1.0)])
        path = write(tmp_path, "heavy.json", jsonio.dumps(jsonio.graph_to_obj(form)))
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

    def test_tiny_measure(self, tmp_path, capsys):
        # edges of length about 7e-9 stay edges of the path metric
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3", "--measure", "1e-16")
        assert run(["intrinsic", p3]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intrinsic"] is True
        assert payload["d"][0][2] == pytest.approx(2.0 * math.sqrt(0.5e-16), rel=1e-15)

    def test_text_format_prints_plain_floats(self, tmp_path, capsys):
        p4 = gen(tmp_path, "p4.json", "--family", "path", "--n", "4")
        assert run(["intrinsic", p4, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "np.float64" not in text
        slack = text.splitlines()[1].removeprefix("slack: ")
        assert len(json.loads(slack)) == 4

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

    def test_blas_thread_counts(self, tmp_path):
        # identical bytes hold at a fixed BLAS build and thread count only:
        # under one and two OpenBLAS threads, Sierpinski L5 (366 vertices)
        # keeps its exit codes and vertices, and its spectrum and resistances
        # agree to 1e-13 of their largest value
        gen(tmp_path, "l5.json", "--family", "sierpinski", "--n", "5")
        for command, key in (("check", "spectrum"), ("resistance", "R")):
            runs = [TestModuleEntry.module(tmp_path, command, "l5.json",
                                           OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2")]
            assert [proc.returncode for proc in runs] == [0, 0], command
            one, two = (json.loads(proc.stdout) for proc in runs)
            a, b = np.array(one.pop(key)), np.array(two.pop(key))
            assert one == two  # the vertices, and check's predicates
            assert a.shape == b.shape and len(a) == 366
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a)), command
        # one payload, written twice
        form = jsonio.graph_loads((tmp_path / "l5.json").read_text(encoding="utf-8"))
        payload = {"vertices": list(form.space.vertices), "R": dk.resistance_matrix(form).d}
        assert jsonio.document(payload) == jsonio.document(payload)

    def test_transient_certify_bytes_under_blas_thread_counts(self, tmp_path):
        # a transient certify makes no BLAS call: the bytes of Doob pairs'
        # reports are the same under one and two OpenBLAS threads
        pairs = {"doob160.json": doob_pair_sample(rng_for(4420), 160),
                 "doob_l5.json": sierpinski_doob_pair(5)}
        for name, pair in pairs.items():
            (tmp_path / name).write_text(jsonio.dumps(jsonio.pair_to_obj(*pair)), encoding="utf-8")
            runs = [TestModuleEntry.module(tmp_path, "certify", name, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2")]
            assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, b"")] * 2, name
            assert runs[0].stdout == runs[1].stdout, name


def test_transient_certify_peak_memory(tmp_path):
    # a Sierpinski L6 Doob pair (1095 vertices, 2187 edges): the CLI's
    # certify, reading the pair included, stays under 10 MB traced, where
    # one n x n array takes 9.6 MB (the dense checks peaked at 111 MB)
    pair = tmp_path / "doob_l6.json"
    pair.write_text(jsonio.dumps(jsonio.pair_to_obj(*sierpinski_doob_pair(6))), encoding="utf-8")
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = run(["certify", str(pair), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out.read_text())["verdict"]
    assert peak < 10 * 2**20


def test_check_peak_memory(tmp_path):
    # Sierpinski L6 (1095 vertices): the form caches S alone, and eigvalsh
    # reads it; measured 1.07 times 8 n^2 bytes, reading included, where
    # the chain W -> F -> L -> S peaked at 5.06
    form = dk.generate("sierpinski", 6)
    n = len(form.space)
    graph = tmp_path / "l6.json"
    graph.write_text(jsonio.dumps(jsonio.graph_to_obj(form)), encoding="utf-8")
    code, peak = traced(lambda: run(["check", str(graph), "--out", str(tmp_path / "out.json")]))
    assert code == 0
    assert peak <= 2 * 8 * n * n


def test_recurrent_certify_peak_memory(tmp_path):
    # a relabelled copy of Sierpinski L6 at scale 1.7: each form caches its
    # Green function and no other n x n array; measured 9.17 times 8 n^2
    # bytes, where the forms also kept W and F (13.17)
    form = dk.generate("sierpinski", 6)
    n = len(form.space)
    pair = tmp_path / "relabel_l6.json"
    pair.write_text(jsonio.dumps(jsonio.pair_to_obj(
        form, *relabel_pair(rng_for(3), form, scale=1.7))), encoding="utf-8")
    out = tmp_path / "report.json"
    code, peak = traced(lambda: run(["certify", str(pair), "--out", str(out)]))
    assert code == 0 and json.loads(out.read_text())["verdict"]
    assert peak <= 10 * 8 * n * n


# the flags each command reads, and so accepts
FLAGS = {
    "check": {"--format", "--out"},
    "decompose": {"--format", "--out"},
    "search": {"--tol", "--format", "--out", "--max-solutions"},
    "certify": {"--tol", "--format", "--out"},
    "resistance": {"--format", "--out"},
    "intrinsic": {"--tol", "--format", "--out", "--metric"},
    "gen": {"--out", "--family", "--n", "--conductance", "--measure"},
    "gen-pair": {"--out", "--seed", "--transform", "--n"},
}
# flags that the command does not read: a parser shared by every command
# once accepted them, and resistance read --tol only to check a metric that
# is one by theorem
UNREAD = [
    ("check", "--tol", "1e-6"), ("check", "--seed", "3"),
    ("decompose", "--tol", "1e-6"), ("decompose", "--seed", "3"),
    ("search", "--seed", "3"), ("certify", "--seed", "3"),
    ("resistance", "--seed", "3"), ("intrinsic", "--seed", "3"),
    ("gen", "--tol", "1e-6"), ("gen", "--seed", "3"), ("gen", "--format", "text"),
    ("gen-pair", "--tol", "5"), ("gen-pair", "--format", "text"),
    ("resistance", "--tol", "1e-6"),
]


class TestFlags:
    def test_each_command_declares_the_flags_it_reads(self):
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        declared = {
            name: {flag for action in parser._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, parser in sub.choices.items()
        }
        assert declared == FLAGS

    @pytest.mark.parametrize("command, flag, value", UNREAD)
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        g = gen(tmp_path, "path3.json", "--family", "path", "--n", "3")
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0
        operands = {"search": [g, g], "certify": [str(pair)],
                    "gen": ["--family", "path", "--n", "2"],
                    "gen-pair": ["--transform", "doob"]}.get(command, [g])
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run([command, *operands, flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert not out.exists()


class TestTriangleCheckOnOutsideInput:
    """The O(n^3) triangle check runs on metrics read from a file only: the
    library builds metrics by theorem or by construction."""

    def test_library_metrics_skip_it(self, tmp_path, capsys, monkeypatch):
        c8 = gen(tmp_path, "c8.json", "--family", "cycle", "--n", "8")
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--n", "8", "--seed", "0",
                    "--out", str(pair)]) == 0
        metric = write(tmp_path, "d.json", json.dumps(
            {"d": [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]}))
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        gap, calls = metrics._triangle_gap, []

        def counting(*args):
            calls.append(args[1:])
            return gap(*args)

        monkeypatch.setattr(metrics, "_triangle_gap", counting)
        capsys.readouterr()
        assert run(["certify", str(pair)]) == 0
        # recurrent, so the resistance and intrinsic checks ran
        assert "resistance_isometry" in capsys.readouterr().out
        assert run(["resistance", c8]) == 0
        assert run(["intrinsic", c8]) == 0
        assert calls == []
        assert run(["intrinsic", p3, "--metric", metric]) == 0
        assert calls == [(0, 3)]


class TestModuleEntry:
    """``python -m dirikit.cli`` runs the CLI of the ``dirikit`` entry point."""

    @staticmethod
    def module(tmp_path, *argv, **env_vars):
        env = dict(os.environ, PYTHONPATH=str(SRC), **env_vars)
        return subprocess.run([sys.executable, "-m", "dirikit.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)

    def test_missing_file_exits_2(self, tmp_path):
        proc = self.module(tmp_path, "check", "nonexistent.json")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error:")

    def test_gen_prints_the_bytes_of_run(self, tmp_path, capsys):
        proc = self.module(tmp_path, "gen", "--family", "path", "--n", "3")
        assert proc.returncode == 0
        assert run(["gen", "--family", "path", "--n", "3"]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_non_ascii_ids_reach_stdout_as_utf8(self, tmp_path):
        # an ASCII locale and stdout encoding: the bytes are UTF-8 all the same
        form = dk.build_form(["é", "b"], 1.0, [("é", "b", 2.0)])
        (tmp_path / "g.json").write_text(jsonio.dumps(jsonio.graph_to_obj(form)), encoding="utf-8")
        for command in ("check", "decompose"):
            proc = self.module(tmp_path, command, "g.json",
                               PYTHONIOENCODING="ascii", LC_ALL="C")
            assert (proc.returncode, proc.stderr) == (0, b""), command
            payload = json.loads(proc.stdout.decode("utf-8"))
            if command == "check":
                assert payload["vertices"] == 2
            else:
                assert payload["vertices"] == ["é", "b"]
                assert [j["x"] for j in payload["J"]] == ["b", "é"]
                assert "é".encode() in proc.stdout


    def test_stdin_is_read_as_utf8(self, tmp_path):
        # an ASCII locale and stdin encoding: stdin is read as UTF-8 bytes,
        # as a file is, and bytes that are not UTF-8 are an input error
        form = dk.build_form(["é", "b"], 1.0, [("é", "b", 2.0)])
        document = jsonio.document(jsonio.graph_to_obj(form))
        assert "é".encode() in document
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="ascii", LC_ALL="C")

        def check(data: bytes):
            return subprocess.run([sys.executable, "-m", "dirikit.cli", "check", "-"],
                                  input=data, cwd=tmp_path, env=env, capture_output=True,
                                  timeout=60)

        proc = check(document)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["vertices"] == 2
        proc = check(b"\xff" + document)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: invalid UTF-8 at byte 0: invalid start byte\n"


def path_document(n: int) -> str:
    names = [f"v{i}" for i in range(n)]
    return json.dumps({"vertices": names, "m": dict.fromkeys(names, 1.0),
                       "edges": {"u": names[:-1], "v": names[1:], "b": [1.0] * (n - 1)}})


class TestOutOfMemory:
    """A child process limits its own address space before it runs the CLI,
    so a regression fails with a MemoryError instead of taking the machine's
    memory."""

    def run_limited(self, headroom: int, *argv):
        # the limit is the address space after import plus ``headroom`` bytes
        code = (
            "import resource, sys\n"
            "from dirikit.cli import run\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            f"limit = 1024 * size + {headroom}\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    limit = min(limit, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
            "sys.exit(run(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        return proc.stderr

    def test_over_cap_exits_2(self, tmp_path):
        # 20000 vertices: the dense weight matrix alone would take 3.2 GB
        path = write(tmp_path, "p20000.json", path_document(20000))
        err = self.run_limited(2 << 30, "check", path)
        assert err == f"error: 20000 vertices exceed the cap of {dk.core.MAX_VERTICES}\n"

    def test_memory_error_exits_2(self, tmp_path):
        # at the cap the weight matrix takes 134 MB, past 64 MB of headroom
        path = write(tmp_path, "p.json", path_document(dk.core.MAX_VERTICES))
        lines = self.run_limited(64 << 20, "check", path).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "vertices exceed" not in lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "path", "--n", "4097"], "4097 vertices exceed the cap of 4096"),
        (["gen", "--family", "complete", "--n", "20000"], "20000 vertices exceed the cap of 4096"),
        (["gen", "--family", "sierpinski", "--n", "8"],
         "sierpinski level 8 exceeds the cap of 4096 vertices"),
        (["gen-pair", "--transform", "relabel", "--n", "4097"],
         "4097 vertices exceed the cap of 4096"),
        (["gen-pair", "--transform", "doob", "--n", "20000"],
         "20000 vertices exceed the cap of 4096"),
    ])
    def test_generators_refuse_over_cap(self, capsys, argv, message):
        # refused before any edge is drawn
        assert dk.core.MAX_VERTICES == 4096
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTolerancePlumbing:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_metric_validated_at_tolerance(self, tmp_path, capsys, fmt):
        # d(v0, v2) = 1.0000001 breaks the triangle through v1 by 1e-7:
        # more than the default bound, less than the bound of --tol 1e-6
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        metric = write(tmp_path, "d.json", json.dumps(
            {"d": [[0.0, 0.5, 1.0000001], [0.5, 0.0, 0.5], [1.0000001, 0.5, 0.0]]}))
        argv = ["intrinsic", p3, "--metric", metric, "--format", fmt]
        capsys.readouterr()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "triangle inequality violated" in err
        assert run([*argv, "--tol", "1e-6"]) == 0
        assert "intrinsic" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["search", "certify"])
    @pytest.mark.parametrize("tol", [["--tol", "nan"], ["--tol", "inf"]])
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, command, tol):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0
        c6 = gen(tmp_path, "c6.json", "--family", "cycle", "--n", "6")
        argv = ["certify", str(pair)] if command == "certify" else ["search", c6, c6]
        capsys.readouterr()
        assert run([*argv, *tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tolerance must be")

    @pytest.mark.parametrize("command", ["certify", "certify-text", "search"])
    def test_overflowing_bound_exits_2(self, tmp_path, capsys, command):
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0
        c8 = gen(tmp_path, "c8.json", "--family", "cycle", "--n", "8")
        argv = {"certify": ["certify", str(pair)],
                "certify-text": ["certify", str(pair), "--format", "text"],
                "search": ["search", c8, c8]}[command]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning reaches stderr
            assert run([*argv, "--tol", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tolerance bound")


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


def nested(depth: int) -> list:
    obj = [0.5]
    for _ in range(depth):
        obj = [obj]
    return obj


# decompose payloads that the writer refuses: a NaN or inf in a nested
# list, in an array and as a numpy scalar; a type that JSON cannot hold, a
# key that is no str, nesting past orjson's depth limit and past Python's
UNWRITABLE = {
    "nan in a nested list": ({"J": [[1.0, ["x", math.nan]]]}, "non-finite number nan"),
    "inf in a transposed array": ({"J": np.array([[1.0, 2.0], [math.inf, 3.0]]).T},
                                  "non-finite number inf"),
    "numpy scalar": ({"k": {"a": np.float64(-math.inf)}}, "non-finite number -inf"),
    "set": ({"J": {1, 2}}, "cannot serialize: "),
    "int key": ({"k": {1: 0.5}}, "cannot serialize: "),
    "depth 300": ({"J": nested(300)}, "cannot serialize: "),
    "depth 5000": ({"J": nested(5000)}, "cannot serialize: "),
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

    @pytest.mark.parametrize("name", UNWRITABLE)
    def test_unwritable_payload_exits_2(self, tmp_path, capsys, monkeypatch, name):
        payload, message = UNWRITABLE[name]
        monkeypatch.setattr(jsonio, "jump_to_obj", lambda form: payload)
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        out = tmp_path / "out.json"
        assert run(["decompose", p3, "--out", str(out)]) == 2
        assert run(["decompose", p3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith("error: cannot serialize") and message in lines[0]
        assert not out.exists()

    def test_transposed_matrix(self, tmp_path, capsys, monkeypatch):
        # a matrix that is no C-contiguous array is written as its rows
        class Matrix:
            d = np.arange(12.0).reshape(3, 4)[:, :3].T

        monkeypatch.setattr(metrics, "resistance_matrix", lambda form: Matrix)
        p3 = gen(tmp_path, "p3.json", "--family", "path", "--n", "3")
        assert run(["resistance", p3]) == 0
        assert json.loads(capsys.readouterr().out)["R"] == Matrix.d.tolist()

    def test_inf_residual_in_a_report(self, tmp_path, capsys, monkeypatch):
        certify_checks = metrics._certify_checks

        def with_inf(*args):
            report = certify_checks(*args)
            report.add("overflowed", math.inf, 1.0)
            return report

        monkeypatch.setattr(metrics, "_certify_checks", with_inf)
        pair = tmp_path / "pair.json"
        assert run(["gen-pair", "--transform", "relabel", "--out", str(pair)]) == 0
        out = tmp_path / "report.json"
        assert run(["certify", str(pair), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot serialize non-finite number inf\n"
        assert not out.exists()
        # the text format ends alike: the payload is checked in both
        assert run(["certify", str(pair), "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot serialize non-finite number inf\n"


GRID = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.5e308, 1.7e308)
FAULTS = (None, None, None, "negative", "nan", "string", "integer", "missing")


def graph_document(rng):
    """A graph of up to 4 vertices with grid-valued measures, conductances and
    killing, and at most one entry made negative, NaN, a string, an integer
    beyond the float range or absent."""
    names = [f"v{i}" for i in range(int(rng.integers(1, 5)))]
    doc = {
        "vertices": names,
        "m": {v: pick(rng, GRID[1:]) for v in names},
        "edges": [
            {"u": u, "v": v, "b": pick(rng, GRID)}
            for u, v in itertools.combinations(names, 2)
            if int(v[1:]) == int(u[1:]) + 1 or rng.random() < 0.5
        ],
        "killing": {v: pick(rng, GRID) for v in names if rng.random() < 0.5},
    }
    fault = pick(rng, FAULTS)
    if fault is not None:
        slots = [(doc, "vertices"), (doc, "m"), (doc, "edges")]
        slots += [(doc["m"], v) for v in names] + [(doc["killing"], v) for v in doc["killing"]]
        slots += [(edge, key) for edge in doc["edges"] for key in ("u", "b")]
        holder, key = pick(rng, slots)
        if fault == "missing":
            del holder[key]
        else:
            holder[key] = {"negative": -pick(rng, GRID[1:]),
                           "nan": math.nan, "string": "1.0", "integer": 10**400}[fault]
    return doc


class TestFuzz:
    def test_extreme_and_malformed_graphs(self):
        for seed in range(100):
            doc = graph_document(rng_for(seed))
            names = doc.get("vertices")
            iso = {"tau": {v: v for v in names}, "h": {v: 1.0 for v in names}} \
                if isinstance(names, list) else {}
            with tempfile.TemporaryDirectory() as tmp:
                g = write(pathlib.Path(tmp), "g.json", json.dumps(doc))
                u = write(pathlib.Path(tmp), "u.json", json.dumps(iso))
                for argv in (["check", g], ["resistance", g], ["intrinsic", g],
                             ["decompose", g], ["search", g, g], ["certify", g, g, u]):
                    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                    err = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = run(argv)
                    assert code in (0, 1, 2), (seed, argv)
                    if code == 2:
                        lines = err.getvalue().splitlines()
                        assert any(line.startswith("error:") for line in lines)
                    if argv[0] in ("search", "certify"):
                        assert code != 1, (seed, argv[0], out.buffer.getvalue())
