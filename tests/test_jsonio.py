import argparse
import contextlib
import copy
import itertools
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import dirikit as dk
from dirikit import cli, jsonio, sampling
from dirikit.cli import run
from dirikit.errors import MalformedInput, UnknownVertex
from dirikit.jsonio import _number
from dirikit.sampling import random_form, random_intertwined_pair, relabel_pair
from dirikit.search import EquivalenceVerdict, SearchOptions

from conftest import (
    _oracle_float,
    construction_outcome,
    oracle_dumps,
    oracle_graph_from_obj,
    oracle_search_payload,
    pick,
    rng_for,
    traced,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_contract  # noqa: E402

MAX = 1.7976931348623157e308
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
    MAX, -MAX, 1.0, 1.0 / 3.0, -2.0,
)


def finite_float(rng):
    """A finite double: a special value, or random bits, so that every
    exponent is as likely."""
    if rng.random() < 0.3:
        return pick(rng, SPECIAL)
    while True:
        x = float(rng.integers(0, 2**64, size=1, dtype=np.uint64).view(np.float64)[0])
        if math.isfinite(x):
            return x


def float_array(rng):
    """A 1-D or 2-D float64 array drawn from a small pool of values, so most
    entries repeat; the pool mixes signed zeros, subnormals and the largest
    doubles with arbitrary finite floats."""
    pool = [finite_float(rng) for _ in range(int(rng.integers(1, 7)))]
    if rng.random() < 0.5:
        shape = (int(rng.integers(0, 31)),)
    else:
        shape = (int(rng.integers(0, 7)), int(rng.integers(0, 7)))
    picks = [pick(rng, pool) for _ in range(math.prod(shape))]
    return np.array(picks, dtype=float).reshape(shape)


def as_lists(obj):
    """The payload with every array replaced by its tolist(), for the oracle."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [as_lists(item) for item in obj]
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    return obj


# code point ranges: printable ASCII, control characters, Latin-1, the rest
# of the basic plane without surrogates, and the astral planes
CHARACTERS = ((0x20, 0x7F), (0x00, 0x20), (0x80, 0x100), (0x100, 0xD800), (0xE000, 0x110000))


def text(rng, max_size):
    return "".join(chr(int(rng.integers(*pick(rng, CHARACTERS))))
                   for _ in range(int(rng.integers(0, max_size + 1))))


def scalar(rng):
    """None, a bool, an integer of up to 19 digits, a float or a string."""
    kind = int(rng.integers(5))
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.random() < 0.5)
    if kind == 2:
        big = int.from_bytes(rng.bytes(9), "big") % (2 * 10**18 + 1) - 10**18
        return big if rng.random() < 0.5 else int(rng.integers(-5, 6))
    if kind == 3:
        return finite_float(rng)
    return text(rng, 8)


def key(rng):
    return text(rng, 6)


def flat_mapping(rng):
    """Up to 6 entries, all strings or all floats."""
    value = (lambda: text(rng, 8)) if rng.random() < 0.5 else (lambda: finite_float(rng))
    return {key(rng): value() for _ in range(int(rng.integers(0, 7)))}


def payload(rng, depth=0):
    """A scalar, array or flat mapping, or lists and mappings of up to 4
    payloads, nested at most 3 deep."""
    if depth == 3 or rng.random() < 0.4:
        return pick(rng, (scalar, float_array, flat_mapping))(rng)
    size = int(rng.integers(0, 5))
    if rng.random() < 0.5:
        return [payload(rng, depth + 1) for _ in range(size)]
    return {key(rng): payload(rng, depth + 1) for _ in range(size)}


class EntryMapping(Mapping):
    """A Mapping that is no dict."""

    def __init__(self, entries):
        self._entries = dict(entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def written(obj) -> str:
    """The text of ``document(obj)``, checked to be ``dumps(obj)`` and a
    newline."""
    data = jsonio.document(obj)
    assert data == (jsonio.dumps(obj) + "\n").encode()
    return data.decode()


class TestFloatArrays:
    def test_same_bytes_as_the_oracle(self):
        for seed in range(100):
            arr = float_array(rng_for(seed))
            part = arr.T if arr.ndim == 2 else arr[::2]  # not C-contiguous
            for case in (arr, part):
                want = oracle_dumps(case.tolist())
                assert jsonio.dumps(case) == want, seed
                assert jsonio.dumps(case.tolist()) == want, seed
                assert jsonio.dumps({"d": case}) == oracle_dumps({"d": case.tolist()}), seed

    def test_signed_zeros_stay_apart(self):
        arr = np.array([[0.0, -0.0], [-0.0, 0.0]])
        assert jsonio.dumps(arr) == oracle_dumps(arr.tolist())
        assert jsonio.dumps(arr).count("-0.0") == 2
        assert np.array_equal(np.signbit(jsonio.loads(jsonio.dumps(arr))), np.signbit(arr))

    def test_other_arrays_are_rejected(self):
        for arr in (np.ones(()), np.zeros(2, dtype=complex), np.array([None, 1.0]),
                    np.array(["a"])):
            with pytest.raises(MalformedInput, match="cannot serialize"):
                jsonio.document(arr)


class TestPayloads:
    def test_same_bytes_as_the_oracle(self):
        for seed in range(60):
            obj = payload(rng_for(seed))
            assert jsonio.dumps(obj) == oracle_dumps(as_lists(obj)), seed
            assert jsonio.dumps([obj]) == oracle_dumps([as_lists(obj)]), seed

    def test_flat_mappings(self):
        for mapping in ({"a": "x", "b": "é\n"}, {"1": 0.5, "b": -0.0, "c": 5e-324},
                        {"a": True, "b": 1.0}, {"a": 1, "b": 1.0}, {"a": "x", "b": 1.0}):
            assert jsonio.dumps(mapping) == oracle_dumps(mapping)

    def test_shortest_round_trip_floats(self):
        cases = {0.1: "0.1", 1.0: "1.0", 1e16: "1e16", 1e15: "1000000000000000.0",
                 1e-5: "0.00001", 1e-6: "1e-6", -0.0: "-0.0", 5e-324: "5e-324",
                 MAX: "1.7976931348623157e308", 1.0 / 3.0: "0.3333333333333333"}
        for value, want in cases.items():
            assert _oracle_float(value) == want
            assert jsonio.dumps(value) == want
            assert jsonio.dumps(np.float64(value)) == want
        rng = rng_for(7)
        for _ in range(20000):
            value = finite_float(rng)
            text = jsonio.dumps(value)
            assert text == _oracle_float(value)
            assert struct.pack("<d", jsonio.loads(text)) == struct.pack("<d", value)

    @pytest.mark.parametrize("obj", [
        {1: 0.5}, {"a": {None: []}}, {"s": {1, 2}}, {"x": object()}, "\ud800", {"\udc00": 1.0},
        EntryMapping({"x": 0.5}), [2**64], {"n": -2**63 - 1},
    ])
    def test_what_the_writer_refuses(self, obj):
        with pytest.raises(MalformedInput, match="cannot serialize"):
            jsonio.document(obj)
        with pytest.raises(MalformedInput):
            oracle_dumps(obj)

    @pytest.mark.parametrize("depth", [300, 5000])
    def test_nested_past_the_depth_limit(self, depth):
        obj = [1.0]
        for _ in range(depth):
            obj = [obj]
        with pytest.raises(MalformedInput, match="cannot serialize"):
            jsonio.document(obj)


def oracle_error(obj) -> str:
    with pytest.raises(MalformedInput) as caught:
        oracle_dumps(obj)
    return str(caught.value)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_bad_value_is_named(self, bad):
        others = [v for v in (math.nan, math.inf, -math.inf) if str(v) != str(bad)]
        flat = np.array([1.0, -0.0, bad, others[0], 2.0, others[1]])
        cases = [flat, flat.reshape(2, 3), flat.reshape(3, 2), flat.reshape(3, 2).T,
                 {"d": flat, "s": "x"}, flat.tolist(), [[1.0, ["x", bad]], others[0]],
                 {"a": [np.float64(1.0), np.float64(bad)], "b": others[1]},
                 {"r": np.float64(bad)}, {"k": {"u": 1.0, "v": bad}}]
        for case in cases:
            want = oracle_error(as_lists(case))
            assert str(bad) in want
            with pytest.raises(MalformedInput) as caught:
                jsonio.document(case)
            assert str(caught.value) == want


def test_resistance_matrix_peak_memory():
    # Sierpinski L5 (366 vertices): writing the array peaks within three
    # times its text (2.4 times; the per-value oracle peaks at 4.4 times),
    # and the document's peak within twice its own bytes.  The oracle runs
    # untraced: under tracemalloc it took most of this test's time
    d = dk.resistance_matrix(dk.generate("sierpinski", 5)).d
    got, peak = traced(lambda: jsonio.dumps(d))
    assert got == oracle_dumps(d.tolist())
    assert peak <= 3 * len(got)
    data, document_peak = traced(lambda: jsonio.document({"R": d}))
    assert len(data) > 3_000_000
    assert document_peak <= 2 * len(data)


class TestChunks:
    """The document as bytes: ``document(obj)`` is the oracle's text and a
    newline in UTF-8, or MalformedInput where the oracle refuses, raised
    before any byte is written."""

    def test_same_bytes_as_dumps(self):
        for seed in range(60):
            obj = payload(rng_for(seed))
            assert written(obj) == oracle_dumps(as_lists(obj)) + "\n", seed
        for seed in range(100):
            arr = float_array(rng_for(seed))
            assert written(arr) == oracle_dumps(arr.tolist()) + "\n", seed
            doc = {"d": arr, "n": 1}
            assert written(doc) == oracle_dumps(as_lists(doc)) + "\n", seed

    @pytest.mark.parametrize("obj", [
        np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(0),
        {"a": np.zeros((0, 3)), "b": np.zeros((3, 0)), "c": np.zeros((0, 0))},
        [np.zeros((3, 0)), np.zeros((0, 3))],
        np.array([[0.0, -0.0], [-0.0, 0.0]]), {"z": -0.0, "d": np.array([[-0.0]])},
        OrderedDict(b=1.0, a=np.eye(2)), EntryMapping({"x": 0.5, "y": "s"}),
        {"m": EntryMapping({"x": [1, 2]}), "o": OrderedDict(k="v")},
        {"f": np.float64(0.1), "g": np.float32(0.1), "i": np.int32(-3), "u": np.uint8(7)},
        [np.float64(2.5), np.int64(4), True, False, None], True, None, np.float64(1.5), "é",
        {1: 0.5, "1": "x", 2.5: True, None: [], True: {}, (1, 2): -0.0},
        {}, [], (), {"e": {}, "l": [], "t": ()},
        np.arange(6).reshape(2, 3).T, np.array([True, False]), np.arange(8.0).reshape(2, 2, 2),
        {"R": np.arange(12.0).reshape(3, 4)[:, ::2]}, np.array([0.1, -0.0, 1e30], dtype=np.float32),
        [2**64 - 1, -2**63],
    ])
    def test_edge_cases(self, obj):
        arrays_as_lists = as_lists(obj.tolist() if isinstance(obj, np.ndarray) else obj)
        try:
            want = oracle_dumps(arrays_as_lists) + "\n"
        except MalformedInput:
            with pytest.raises(MalformedInput, match="cannot serialize"):
                jsonio.document(obj)
        else:
            assert written(obj) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_error_before_the_first_write(self, tmp_path, bad):
        # the last array carries the bad value, after a matrix
        flat = np.array([1.0, -0.0, bad, 2.0])
        out = tmp_path / "out.json"
        for obj in ({"s": "x", "R": np.eye(3), "slack": flat},
                    [np.eye(3), flat.reshape(2, 2)], flat.reshape(2, 2),
                    {"R": np.eye(3), "h": {"a": 1.0, "b": bad}}):
            with pytest.raises(MalformedInput) as caught:
                cli._output(argparse.Namespace(format="json", out=str(out)), obj)
            assert str(caught.value) == oracle_error(as_lists(obj))
            assert not out.exists()


def renamed(form, names):
    """The form under new vertex ids, position for position."""
    i, j = form.edge_indices
    edges = [(names[a], names[b], w) for a, b, w in zip(i.tolist(), j.tolist(), form.weights)]
    return dk.build_form(names, form.space.m, edges, form.c)


# ids that JSON escapes, a printf field, and ids that differ on either side
ESCAPED = ['"', "\\", "é", "\n"]
ESCAPED2 = ["%s", 'é"', "\\n", "\u2028"]


def search_cases():
    """(name, form1, form2, extra argv, solution count) for the search
    document: symmetric forms under a relabelling and a rescaling, a random
    pair, a capped search, a pair with no intertwiner, one vertex, h = 1e10
    and vertex ids that need escapes."""
    rng = rng_for(31)
    cases = []
    for family, n, count in (("complete", 6, 720), ("cycle", 12, 24), ("sierpinski", 2, 6)):
        form = dk.generate(family, n, conductance=0.9, measure=1.3)
        cases.append((f"{family}{n}", form, relabel_pair(rng, form, scale=1.7)[0], [], count))
    cases.append(("complete6 max1", *cases[0][1:3], ["--max-solutions", "1"], 1))
    cases.append(("relabel40", *random_intertwined_pair(rng, 40, "relabel")[:2], [], 1))
    cases.append(("unrelated", dk.generate("cycle", 12), dk.generate("path", 12), [], 0))
    cases.append(("one vertex", dk.build_form(["a"], [2.0]), dk.build_form(["b"], [0.5]), [], 1))
    # the pair of test_large_scaling_finds_the_witness
    large = np.random.Generator(np.random.PCG64(5))
    form = random_form(large, 8)
    cases.append(("h 1e10", form, relabel_pair(large, form, scale=1e-20)[0], [], 1))
    k4 = renamed(dk.generate("complete", 4), ESCAPED)
    cases.append(("escapes", k4, renamed(relabel_pair(rng, k4, scale=0.5)[0], ESCAPED2), [], 24))
    return cases


class TestIntertwinerList:
    """The search document, its intertwiners read from the isos' arrays,
    against the oracle: one dict per intertwiner from ``iso_to_obj``."""

    @pytest.mark.parametrize("case", search_cases(), ids=lambda case: case[0])
    def test_cli_writes_the_oracle_bytes(self, tmp_path, capsys, case):
        label, form1, form2, extra, count = case
        paths = []
        for name, form in (("g1", form1), ("g2", form2)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(jsonio.dumps(jsonio.graph_to_obj(form)), encoding="utf-8")
        out = tmp_path / "out.json"
        assert run(["search", *map(str, paths), *extra]) == (0 if count else 1)
        assert run(["search", *map(str, paths), *extra, "--out", str(out)]) == (0 if count else 1)
        cap = int(extra[1]) if extra else SearchOptions.max_solutions
        verdict = dk.equivalence_verdict(*(jsonio.graph_loads(path.read_text(encoding="utf-8"))
                                           for path in paths), SearchOptions(max_solutions=cap))
        assert len(verdict.solutions) == count
        assert verdict.capped == (label == "complete6 max1")  # K6 has 720 solutions
        want = jsonio.dumps(oracle_search_payload(verdict)) + "\n"
        assert want == oracle_dumps(oracle_search_payload(verdict)) + "\n"
        assert capsys.readouterr().out == want
        assert out.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_error_before_the_first_piece(self, bad):
        # the last intertwiner carries the bad beta, the one before a bad h
        form = dk.generate("cycle", 4)
        isos = list(dk.equivalence_verdict(form, form).solutions)
        for at, h, beta in ((-1, isos[-1].h_values, bad), (-2, np.array([1.0, bad, 1.0, 1.0]), 1.0)):
            iso = isos[at]
            isos[at] = dk.OrderIso._trusted(iso.source, iso.target, iso.tau_indices, h, beta)
            verdict = EquivalenceVerdict(tuple(isos))
            with pytest.raises(MalformedInput) as caught:
                jsonio.document({"equivalent": True, "reason": None,
                                 "intertwiners": verdict.solutions})
            assert str(caught.value) == oracle_error(oracle_search_payload(verdict))

    def test_different_spaces_are_rejected(self):
        a, b = dk.generate("path", 3), dk.generate("path", 4)
        isos = [dk.OrderIso.identity(a.space), dk.OrderIso.identity(b.space)]
        with pytest.raises(MalformedInput, match="between different spaces"):
            jsonio.dumps(isos)


def record_list(rng):
    """1 to 12 flat dicts on the same 1 to 4 keys, each key's values all
    strings or all floats, drawn from pools of up to 4 so that values
    repeat; keys and strings may hold a printf field or need escapes."""
    def name():
        return text(rng, 4) + pick(rng, ("", "%", "%s", '"', "\n", "\u2028"))

    keys = list(dict.fromkeys(name() for _ in range(int(rng.integers(1, 5)))))
    pools = {}
    for k in keys:
        draw = name if rng.random() < 0.5 else (lambda: finite_float(rng))
        pools[k] = [draw() for _ in range(int(rng.integers(1, 5)))]
    return [{k: pick(rng, pools[k]) for k in keys} for _ in range(int(rng.integers(1, 13)))]


class TestRecordList:
    """A list of flat dicts on the same keys, such as decompose's J list,
    against the per-record oracle."""

    def test_same_bytes_as_the_oracle(self):
        for seed in range(100):
            records = record_list(rng_for(seed))
            assert jsonio.dumps(records) == oracle_dumps(records), seed
            assert jsonio.dumps(tuple(records)) == oracle_dumps(records), seed
            doc = {"J": records, "n": 1}
            assert written(doc) == oracle_dumps(doc) + "\n", seed

    @pytest.mark.parametrize("records", [
        [{"x": "a", "v": 1.0}, {"v": 2.0, "x": "b"}],  # key order differs
        [{"x": "a", "v": 1.0}, {"x": "b"}],
        [{"x": "a", "v": 1.0}, {"x": "b", "v": "c"}],  # a column mixes str and float
        [{"x": "a", "v": 1}], [{"x": "a", "v": True}], [{"x": "a", "v": None}],
        [{"x": "a", "v": np.float64(0.5)}], [{1: "a"}, {1: "b"}], [{}, {}],
        [OrderedDict(x="a"), OrderedDict(x="b")], [{"x": "a"}, "b"], ["a", "b"],
    ])
    def test_other_lists_fall_back(self, records):
        # lists that are no uniform records: the oracle's bytes or its refusal
        try:
            want = oracle_dumps(records)
        except MalformedInput:
            with pytest.raises(MalformedInput, match="cannot serialize"):
                jsonio.document(records)
        else:
            assert jsonio.dumps(records) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_first_bad_value_is_named(self, bad):
        # the first bad value in document order is in the second column
        others = [v for v in (math.nan, math.inf, -math.inf) if str(v) != str(bad)]
        records = [{"x": "a", "v": 1.0, "w": 2.0}, {"x": "b", "v": 1.0, "w": bad},
                   {"x": "c", "v": others[0], "w": others[1]}]
        for obj in (records, {"J": records}):
            with pytest.raises(MalformedInput) as caught:
                jsonio.dumps(obj)
            assert str(caught.value) == oracle_error(obj)
            assert str(bad) in str(caught.value)

    def test_decompose_writes_the_oracle_bytes(self, tmp_path, capsys):
        rng = rng_for(32)
        k4 = renamed(dk.generate("complete", 4), ESCAPED2)
        for form in (random_form(rng, 40), dk.generate("sierpinski", 3), k4):
            path = tmp_path / "g.json"
            path.write_text(jsonio.dumps(jsonio.graph_to_obj(form)), encoding="utf-8")
            assert run(["decompose", str(path)]) == 0
            assert capsys.readouterr().out == oracle_dumps(jsonio.jump_to_obj(form)) + "\n"


EDGE_VALUES = (
    1.0, 0.0, -0.0, 2.5, 7, 0, -1.0, -3, math.nan, math.inf, -math.inf, True, False,
    10**400, -10**400, "1.0", None, [1.0], 1.7e308, 5e-324,
)


def edge_object(rng, names):
    """An edge object, most often well formed; otherwise a non-object, an
    object missing a key or holding a value of the wrong type, an unknown
    vertex, a self-loop or a bad weight."""
    entry = {"u": pick(rng, names), "v": pick(rng, names), "b": pick(rng, (1.0, 0.5, 2, 0.0))}
    fault = pick(rng, (None,) * 6 + ("shape", "missing", "key", "weight"))
    if fault == "shape":
        return pick(rng, (None, 3, "u", [entry["u"], entry["v"], 1.0], []))
    if fault == "missing":
        del entry[pick(rng, ("u", "v", "b"))]
    elif fault == "key":
        entry[pick(rng, ("u", "v"))] = pick(rng, (1, None, ["v0"], "zz"))
    elif fault == "weight":
        entry["b"] = pick(rng, EDGE_VALUES)
    return entry


def graph_object(rng):
    names = [f"v{i}" for i in range(int(rng.integers(1, 5)))]
    return {
        "vertices": names,
        "m": {v: 1.0 for v in names},
        "edges": [edge_object(rng, names) for _ in range(int(rng.integers(0, 8)))],
        "killing": {},
    }


def as_columns(obj):
    """The graph document with its edges as u, v and b columns, or None when
    an edge is no object or lacks a key, which columns cannot express."""
    edges = obj["edges"]
    if not all(isinstance(entry, dict) and entry.keys() >= {"u", "v", "b"} for entry in edges):
        return None
    return dict(obj, edges={key: [entry[key] for entry in edges] for key in "uvb"})


class TestGraphFromObjOracle:
    def test_same_form_or_error(self):
        # each draw that columns can express gives, in columns, the outcome
        # of its edge objects
        in_columns = 0
        for seed in range(300):
            obj = graph_object(rng_for(seed))
            want = construction_outcome(oracle_graph_from_obj, obj)
            assert construction_outcome(jsonio.graph_from_obj, obj) == want, seed
            columns = as_columns(obj)
            if columns is not None:
                in_columns += 1
                assert construction_outcome(jsonio.graph_from_obj, columns) == want, seed
        assert in_columns >= 100

    def test_first_of_several_faults(self):
        good = {"u": "a", "v": "b", "b": 1.0}
        cases = [
            [good, {"u": "a", "v": "c", "b": "x"}, {"u": 1, "v": "a", "b": 1.0}],
            [good, {"u": "a", "v": "b", "b": 10**400}, {"v": "a", "b": 1.0}],
            [{"u": "a", "v": "c", "b": True}, ["a", "b", 1.0]],
            [good, {"u": "b", "v": "a", "b": -1.0}, {"u": "c", "v": "c", "b": 1.0}],
            [{"u": "a", "v": "b"}, None],
            [good, {"u": "a", "v": "z", "b": 1.0}],
            [good, {"u": "a", "v": "c", "b": -10**400}],
        ]
        in_columns = 0
        for edges in cases:
            obj = {"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 2.0, "c": 1.0},
                   "edges": edges}
            want = construction_outcome(oracle_graph_from_obj, obj)
            assert isinstance(want[0], type) and issubclass(want[0], Exception)
            assert construction_outcome(jsonio.graph_from_obj, obj) == want
            columns = as_columns(obj)
            if columns is not None:
                in_columns += 1
                assert construction_outcome(jsonio.graph_from_obj, columns) == want
        assert in_columns == 4

    @pytest.mark.parametrize("edges, message", [
        ({"u": ["a"], "v": ["b", "a"], "b": [1.0]},
         "graph edges: columns 'u', 'v' and 'b' differ in length"),
        ({"u": ["a"], "v": ["b"]}, "graph edges: missing key 'b'"),
        ({"u": ["a"], "v": "b", "b": [1.0]}, "graph edges: key 'v' has wrong type"),
        ({"u": ("a",), "v": ["b"], "b": [1.0]}, "graph edges: key 'u' has wrong type"),
        ({"u": ["a"], "v": [1], "b": [1.0]}, "graph edge: key 'v' has wrong type"),
        ({"u": ["a"], "v": ["b"], "b": [True]}, "graph edge b: expected a number"),
        ({"u": ["a", "b"], "v": ["c", "a"], "b": [-1.0, "1"]}, "graph edge: key 'b' has wrong type"),
    ])
    def test_malformed_columns(self, edges, message):
        obj = {"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 1.0, "c": 1.0}, "edges": edges}
        with pytest.raises(MalformedInput) as caught:
            jsonio.graph_from_obj(obj)
        assert str(caught.value) == message

    def test_mapping_subclasses_and_numpy_weights(self):
        # not what json.loads returns, but the per-edge checks accept them
        edges = [OrderedDict(u="a", v="b", b=1.0), {"u": "b", "v": "c", "b": np.float64(0.5)}]
        obj = {"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 1.0, "c": 1.0}, "edges": edges}
        want = construction_outcome(oracle_graph_from_obj, obj)
        assert construction_outcome(jsonio.graph_from_obj, obj) == want
        assert len(want) == 5

    def test_generated_pairs(self):
        for transform in ("relabel", "doob"):
            for seed in range(3):
                form1, form2, _ = random_intertwined_pair(rng_for(seed), 40, transform)
                for form in (form1, form2):
                    obj = jsonio.loads(jsonio.dumps(jsonio.graph_to_obj(form)))
                    want = construction_outcome(oracle_graph_from_obj, obj)
                    assert construction_outcome(jsonio.graph_from_obj, obj) == want

    def test_vertex_maps_name_their_first_fault(self):
        # m and killing are read in one pass over their types; a faulty map
        # gives the per-vertex oracle's first error
        faults = set()
        for seed in range(300):
            rng = rng_for(seed)
            obj = dict(graph_object(rng))
            obj["m"] = vertex_map(rng, obj["vertices"])
            obj["killing"] = vertex_map(rng, obj["vertices"])
            want = construction_outcome(oracle_graph_from_obj, obj)
            assert construction_outcome(jsonio.graph_from_obj, obj) == want, seed
            faults.add(want[1] if isinstance(want[0], type) else "form")
        assert {"form", "graph: m['v0']: expected a number",
                "graph: killing['v0']: number out of floating-point range"} <= faults


MAP_VALUES = (1.0, 0.5, 3, 0, -1.0, True, None, "1", [1.0], 10**400, -10**400)


def vertex_map(rng, names):
    """A map from the vertices to numbers, most often well formed;
    otherwise with a vertex left out or mapped to one of MAP_VALUES, at one
    or two random vertices."""
    values = {v: pick(rng, (1.0, 0.5, 3)) for v in names}
    for _ in range(pick(rng, (0, 0, 1, 2))):
        v = pick(rng, names)
        if rng.random() < 0.2:
            values.pop(v, None)
        else:
            values[v] = pick(rng, MAP_VALUES)
    return values


def oracle_iso_from_obj(obj, source, target):
    """Oracle: ``jsonio.iso_from_obj`` with h read entry by entry."""
    tau, h = obj["tau"], obj["h"]
    return dk.OrderIso(source, target, dict(tau),
                       {k: _number(v, f"iso: h[{k!r}]") for k, v in h.items()})


def iso_outcome(read, obj, space):
    """The h values of the iso ``read`` builds, with their types and bits,
    or the type and message of the exception it raised."""
    try:
        iso = read(obj, space, space)
    except Exception as exc:
        return type(exc), str(exc)
    return list(iso.h), [type(x) for x in iso.h.values()], np.array(list(iso.h.values())).tobytes()


class TestIsoFromObj:
    def test_same_iso_or_error_as_the_oracle(self):
        faults = set()
        for seed in range(300):
            rng = rng_for(seed)
            names = [f"v{i}" for i in range(int(rng.integers(1, 5)))]
            space = dk.MeasureSpace(names, 1.0)
            obj = {"tau": {v: v for v in names}, "h": vertex_map(rng, names)}
            want = iso_outcome(oracle_iso_from_obj, obj, space)
            assert iso_outcome(jsonio.iso_from_obj, obj, space) == want, seed
            faults.add(want[1] if isinstance(want[0], type) else "iso")
        assert {"iso", "iso: h['v0']: expected a number",
                "iso: h['v0']: number out of floating-point range",
                "h must be defined exactly on the target vertices",
                "the scaling h must be strictly positive and finite"} <= faults


def plain_types(obj) -> set:
    """The types of every value in a nested document, containers included."""
    if isinstance(obj, dict):
        return {dict}.union(*map(plain_types, obj.keys()), *map(plain_types, obj.values()))
    if isinstance(obj, list):
        return {list}.union(*map(plain_types, obj))
    return {type(obj)}


def layout_forms():
    """Forms with and without killing, and one with a zero weight, weights
    of every size and awkward doubles."""
    forms = [dk.generate(family, n) for family, n in (("path", 1), ("cycle", 12),
                                                      ("sierpinski", 3))]
    for seed in range(3):
        for transform in ("relabel", "doob"):
            forms += random_intertwined_pair(rng_for(seed), 30, transform)[:2]
    forms.append(dk.build_form(["b", "a", "c"], [1.0 / 3.0, 2.0**0.5, 5e-324],
                               [("a", "b", MAX), ("c", "b", 5e-324), ("a", "c", 0.0)],
                               [0.1, 0.0, 1e-17]))
    return forms


class TestGraphLayouts:
    def test_graph_to_obj_is_plain(self):
        # no numpy scalar or array reaches the stdlib json.dumps
        for form in layout_forms():
            obj = jsonio.graph_to_obj(form)
            assert plain_types(obj) <= {dict, list, str, float}
            assert list(obj["edges"]) == ["u", "v", "b"]
            assert jsonio.dumps(obj) == oracle_dumps(obj)

    def test_layouts_load_bitwise_equal(self):
        for form in layout_forms():
            columns = jsonio.loads(jsonio.dumps(jsonio.graph_to_obj(form)))
            edges = columns["edges"]
            objects = dict(columns, edges=[{"u": u, "v": v, "b": b}
                                           for u, v, b in zip(edges["u"], edges["v"], edges["b"])])
            loaded = [jsonio.graph_from_obj(doc) for doc in (columns, objects)]
            for got in loaded:
                assert got.space.vertices == form.space.vertices
                for name in ("edge_indices", "weights", "c"):
                    assert getattr(got, name).tobytes() == getattr(form, name).tobytes()
                assert got.space.m.tobytes() == form.space.m.tobytes()
            assert construction_outcome(lambda: loaded[0]) == \
                construction_outcome(lambda: loaded[1])

    @pytest.mark.parametrize("weight, killing", [(-0.0, 0.0), (1.0, -0.0)])
    def test_negative_zero_reloads_bitwise(self, weight, killing):
        form = dk.build_form(["a", "b"], 1.0, [("a", "b", weight)], {"a": killing, "b": 0.0})
        got = jsonio.graph_loads(jsonio.dumps(jsonio.graph_to_obj(form)))
        assert got.weights.tobytes() == form.weights.tobytes()
        assert got.c.tobytes() == form.c.tobytes()


class TestConductancesBuiltOnRead:
    """A loaded form keeps index and weight arrays; its ``b`` dict is built
    only when something reads it."""

    def test_certify_path(self):
        form1, form2, iso = random_intertwined_pair(rng_for(5), 40, "doob")
        assert "b" not in vars(form1) and "b" not in vars(form2)  # doob_pair reads neither
        got1, got2, got_iso = jsonio.pair_from_obj(jsonio.pair_to_obj(form1, form2, iso))
        assert dk.certify(got_iso, got1, got2).verdict
        assert dk.verify_jump_transform(got_iso, got1, got2).verdict
        assert "b" not in vars(got1) and "b" not in vars(got2)
        assert list(got1.b.items()) == list(form1.b.items())
        assert "b" in vars(got1)

    def test_sampled_pairs(self, monkeypatch):
        # relabel_pair and doob_pair_sample read the edge columns of the
        # form that random_form hands them
        sources = []

        def capture(*args, **kwargs):
            sources.append(random_form(*args, **kwargs))
            return sources[-1]

        monkeypatch.setattr(sampling, "random_form", capture)
        forms = []
        for transform in ("relabel", "doob"):
            form1, form2, _ = random_intertwined_pair(rng_for(6), 40, transform)
            forms += [form1, form2]
        assert len(sources) == 2
        assert not any("b" in vars(form) for form in sources + forms)

    def test_check(self, tmp_path, monkeypatch, capsys):
        loaded = []
        graph_loads = jsonio.graph_loads

        def capture(text):
            loaded.append(graph_loads(text))
            return loaded[-1]

        monkeypatch.setattr(jsonio, "graph_loads", capture)
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps(jsonio.graph_to_obj(dk.generate("sierpinski", 2))))
        assert run(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["edges"] == 27
        assert len(loaded) == 1 and "b" not in vars(loaded[0])


class TestPairDocument:
    @pytest.mark.parametrize("transform", ["relabel", "doob"])
    def test_roundtrip(self, transform):
        for seed in range(3):
            form1, form2, iso = random_intertwined_pair(rng_for(seed), 12, transform)
            got1, got2, got_iso = jsonio.pair_from_obj(jsonio.pair_to_obj(form1, form2, iso))
            assert got1 == form1 and got2 == form2
            assert got_iso.tau == iso.tau and got_iso.h == iso.h

    @pytest.mark.parametrize("obj", [[], "x", None, 1.0])
    def test_not_an_object(self, obj):
        with pytest.raises(MalformedInput, match="pair"):
            jsonio.pair_from_obj(obj)


def gen_pair_document(seed: int, n: int) -> dict:
    """The pair of `dirikit gen-pair --transform doob --n N --seed S`, as
    plain JSON data: the same draw, built in-process."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pair = random_intertwined_pair(rng, n, "doob")
    return json.loads(jsonio.document(jsonio.pair_to_obj(*pair)))


# the edge object of a position that a shorter column lacks leaves out that key
_GAP = object()


def edge_objects(columns) -> list[dict]:
    """The edge columns as a list of edge objects, unequal columns as
    objects that lack a key; a list of edge objects as it is."""
    if isinstance(columns, list):
        return columns
    entries = itertools.zip_longest(*(columns[key] for key in "uvb"), fillvalue=_GAP)
    return [{key: value for key, value in zip("uvb", entry) if value is not _GAP}
            for entry in entries]


# literals that orjson does not write, put into the text in place of their
# quoted names
LITERALS = {"NaN": "NaN", "1e400": "1e400", "10**400": str(10**400), "2**70+1": str(2**70 + 1)}


def set_weight(value):
    def mutate(g, k, x):
        g["edges"]["b"][k] = value
    return mutate


def set_entry(key, value):
    def mutate(g, k, x):
        g[key][x] = value
    return mutate


def keep(g, k, x):
    pass


def drop_measure(g, k, x):
    del g["m"][x]


def kill_unknown(g, k, x):
    g["killing"]["unknown"] = 1.0


def reorder_vertices(g, k, x):
    g["vertices"].reverse()


def change_end(g, k, x):
    g["edges"]["u"][k] = x


def lengthen_b(g, k, x):
    g["edges"]["b"].append(1.0)


# g2 changed in one field, at edge k or vertex x
G2_MUTATIONS = {
    "same": keep,
    "negative weight": set_weight(-1.5),
    "NaN weight": set_weight("@NaN@"),
    "1e400 weight": set_weight("@1e400@"),
    "bool weight": set_weight(True),
    "str weight": set_weight("1.0"),
    "10**400 weight": set_weight("@10**400@"),
    "int weight": set_weight(3),
    "int past 64 bits weight": set_weight("@2**70+1@"),
    "zero weight": set_weight(0.0),
    "m missing": drop_measure,
    "m zero": set_entry("m", 0.0),
    "m not finite": set_entry("m", "@1e400@"),
    "killing on unknown vertex": kill_unknown,
    "negative killing": set_entry("killing", -0.5),
    "vertices reordered": reorder_vertices,
    "edge end changed": change_end,
    "columns unequal": lengthen_b,
}


def pair_text(pair: dict) -> bytes:
    import orjson

    data = orjson.dumps(pair)
    for name, literal in LITERALS.items():
        data = data.replace(f'"@{name}@"'.encode(), literal.encode())
    return data


def read_outcome(read, obj):
    """The forms that ``read(obj)`` returns, each as every array with its
    dtype, shape, bytes and writeable flag, its vertex ids, ``b`` and
    ``irreducible``, or the type and message of the exception it raised;
    and the forms, or None."""
    try:
        forms = read(obj)
    except Exception as exc:
        return (type(exc), str(exc)), None
    records = []
    for form in forms:
        arrays = (form.space.m, form.edge_indices, form.weights, form.c)
        records.append((form.space.vertices,
                        [(a.dtype, a.shape, a.tobytes(), a.flags.writeable) for a in arrays],
                        list(form.b), np.array(list(form.b.values())).tobytes(),
                        form.irreducible))
    return records, forms


def read_pair(obj):
    return jsonio.pair_from_obj(obj)[:2]


def read_alone(obj):
    return [jsonio.graph_from_obj(obj["g1"]), jsonio.graph_from_obj(obj["g2"])]


class TestSameGraphPair:
    """A pair whose second graph has the first one's vertex list and u and v
    columns reads the second on the first's ids, index and edge keys, and
    gives what reading the second graph alone gives."""

    def test_second_graph_as_read_alone(self):
        import orjson

        outcomes, shared = set(), 0
        for n in range(1, 61):
            pair = gen_pair_document(n, n)
            rng = rng_for(n)
            edges = len(pair["g2"]["edges"]["b"])
            k = int(rng.integers(edges)) if edges else None
            x = pick(rng, pair["g2"]["vertices"])
            for name, mutate in G2_MUTATIONS.items():
                if k is None and ("weight" in name or name == "edge end changed"):
                    continue
                g1, g2 = pair["g1"], orjson.loads(orjson.dumps(pair["g2"]))
                mutate(g2, k, x)
                e1, e2 = g1["edges"], g2["edges"]
                same = (g2["vertices"], e2["u"], e2["v"]) == (g1["vertices"], e1["u"], e1["v"])
                for layout in ("columns", "objects"):
                    doc = dict(pair, g2=g2)
                    if layout == "objects":
                        doc.update(g1=dict(g1, edges=edge_objects(e1)),
                                   g2=dict(g2, edges=edge_objects(e2)))
                    obj = jsonio.loads(pair_text(doc))
                    want, _ = read_outcome(read_alone, obj)
                    got, forms = read_outcome(read_pair, obj)
                    assert got == want, (n, name, layout)
                    if forms is None:
                        outcomes.add((name, want[0].__name__))
                        continue
                    form1, form2 = forms
                    if same:
                        assert form2.edge_indices is form1.edge_indices, (n, name)
                        assert form2.space._index is form1.space._index, (n, name)
                        shared += 1
                    positive = [[edge["b"] > 0 for edge in edge_objects(obj[part]["edges"])]
                                for part in ("g1", "g2")]
                    inherits = same and positive[0] == positive[1]
                    assert (form2._same_graph is form1) == inherits, (n, name, layout)
        assert shared > 300
        assert {("negative weight", "NegativeWeight"), ("NaN weight", "NegativeWeight"),
                ("1e400 weight", "NegativeWeight"), ("bool weight", "MalformedInput"),
                ("str weight", "MalformedInput"), ("10**400 weight", "MalformedInput"),
                ("m missing", "MalformedInput"), ("m zero", "NonPositiveMeasure"),
                ("m not finite", "NonPositiveMeasure"),
                ("killing on unknown vertex", "UnknownVertex"),
                ("negative killing", "NegativeWeight"),
                ("columns unequal", "MalformedInput")} <= outcomes

    def test_connectivity_searches(self, tmp_path, monkeypatch):
        calls = []
        search = dk.core._edges_connected

        def counted(n, i, j):
            calls.append(n)
            return search(n, i, j)

        monkeypatch.setattr("dirikit.core._edges_connected", counted)
        path, out = tmp_path / "pair.json", tmp_path / "report.json"
        assert run(["gen-pair", "--transform", "doob", "--n", "40", "--out", str(path)]) == 0
        assert run(["certify", str(path), "--out", str(out)]) == 0
        assert calls == [40]  # on g1's edges, whose connectivity g2 reads
        pair = json.loads(path.read_text())
        assert min(pair["g1"]["edges"]["b"]) > 0.0
        # a zero weight on the same edge of both graphs, then on another
        # edge of g2: the positive counts agree, the patterns differ
        for g2_zero, searches in ((0, 1), (1, 2)):
            doc = copy.deepcopy(pair)
            doc["g1"]["edges"]["b"][0] = doc["g2"]["edges"]["b"][g2_zero] = 0.0
            calls.clear()
            form1, form2, _ = jsonio.pair_from_obj(doc)
            assert form1.irreducible and form2.irreducible
            assert len(calls) == searches, g2_zero


class TestVertexKeys:
    """Every key of ``m`` and ``killing`` names a listed vertex."""

    def graph(self, **parts):
        return dict({"vertices": ["a", "b"], "m": {"a": 1.0, "b": 1.0},
                     "edges": [{"u": "a", "v": "b", "b": 1.0}], "killing": {}}, **parts)

    @pytest.mark.parametrize("part, entries, name", [
        ("m", {"a": 1.0, "b": 1.0, "zz": -5.0}, "zz"),
        ("killing", {"A": 3.0}, "A"),
        ("killing", {"a": 0.5, "c": 1.0, "d": 1.0}, "c"),
    ])
    def test_unknown_vertex(self, part, entries, name):
        with pytest.raises(UnknownVertex, match=f"^unknown vertex '{name}'$"):
            jsonio.graph_from_obj(self.graph(**{part: entries}))

    def test_first_fault_in_document_order(self):
        # the measure is read before the edges, the killing after them
        bad_edge = [{"u": "a", "v": "b", "b": "1"}]
        with pytest.raises(UnknownVertex, match="'zz'"):
            jsonio.graph_from_obj(self.graph(m={"a": 1.0, "b": 1.0, "zz": 1.0}, edges=bad_edge))
        with pytest.raises(MalformedInput, match="graph edge"):
            jsonio.graph_from_obj(self.graph(killing={"A": 3.0}, edges=bad_edge))
        with pytest.raises(MalformedInput, match="m\\['b'\\]"):
            jsonio.graph_from_obj(self.graph(m={"a": 1.0, "zz": 1.0}))

    def test_check_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.graph(m={"a": 1, "b": 1, "zz": -5}, killing={"A": 3})))
        assert run(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown vertex 'zz'\n"


class TestMetricDocument:
    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0], [1, 0]], [[0, 1], 1]])
    def test_ragged_rows(self, rows):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        with pytest.raises(MalformedInput, match="^metric: d must be a matrix$"):
            jsonio.metric_from_obj({"d": rows}, space, dk.Tolerance())

    @pytest.mark.parametrize("rows, message", [
        ([[0, 1], [10**400, 0]], "metric entry: number out of floating-point range"),
        ([[0, 1], [True, 0]], "metric entry: expected a number"),
        ([[0, "1"], [1]], "metric entry: expected a number"),
        ([[0, 1], [1, None]], "metric entry: expected a number"),
        ([(0, 1), [1, 0]], "metric: d must be a matrix"),
        # two faults: the one in the earlier row, or earlier in its row
        ([[10**400, 0], [1]], "metric entry: number out of floating-point range"),
        ([[0, 1], [10**400, "1"]], "metric entry: number out of floating-point range"),
        ([[0, 1], ["1", 10**400]], "metric entry: expected a number"),
        ([[0, None], [1, 0, 2]], "metric entry: expected a number"),
    ])
    def test_first_fault_is_named(self, rows, message):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            jsonio.metric_from_obj({"d": rows}, space, dk.Tolerance())

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]], [[0.0, 0.5], [0.5, 0.0]], [[np.float64(0.0), 2], [2.0, -0.0]],
    ])
    def test_entries_as_floats(self, rows):
        space = dk.MeasureSpace(["a", "b"], 1.0)
        got = jsonio.metric_from_obj({"d": rows}, space, dk.Tolerance()).d
        assert got.dtype == float
        assert got.tobytes() == np.array([[float(x) for x in row] for row in rows]).tobytes()

    def test_intrinsic_exits_2(self, tmp_path, capsys):
        graph, metric = tmp_path / "g.json", tmp_path / "m.json"
        assert run(["gen", "--family", "path", "--n", "2", "--out", str(graph)]) == 0
        metric.write_text(json.dumps({"d": [[0, 1], [1]]}))
        assert run(["intrinsic", str(graph), "--metric", str(metric)]) == 2
        assert capsys.readouterr().err == "error: metric: d must be a matrix\n"


# ---------------------------------------------------------------------------
# reading: loads gives json's objects and json's errors, through either parser


def typed_bits(obj):
    """obj with each value tagged by its type, each float by its bits and
    each dict by its items in order, so that == compares them all."""
    if type(obj) is float:
        return "float", struct.unpack("<q", struct.pack("<d", obj))[0]
    if type(obj) is dict:
        return "dict", [(key, typed_bits(value)) for key, value in obj.items()]
    if type(obj) is list:
        return "list", [typed_bits(value) for value in obj]
    return type(obj).__name__, obj


def json_outcome(text: str):
    """What json reads from the text, or the message of the MalformedInput
    that ``loads`` raises for a text that json refuses."""
    try:
        return typed_bits(json.loads(text))
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    except RecursionError:
        return "invalid JSON: nested too deeply"


def loads_outcome(text: str):
    try:
        return typed_bits(jsonio.loads(text))
    except MalformedInput as exc:
        return str(exc)


class TestLoads:
    def test_corpus_documents(self, tmp_path, monkeypatch):
        # every input of tools/cli_contract.py: graphs, pairs, isos, metrics
        # and the malformed documents, NaN, 10^400, 1000-deep and a byte
        # order mark among them, read as the CLI reads them, as bytes, and
        # as text; the one file that is not UTF-8 holds no text, and loads
        # refuses its bytes
        monkeypatch.chdir(tmp_path)
        cli_contract._write_inputs(run)
        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) > 100
        not_text = []
        for path in paths:
            data = cli._read(str(path))
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                not_text.append(path.name)
                with pytest.raises(MalformedInput, match="invalid UTF-8"):
                    jsonio.loads(data)
                continue
            want = json_outcome(text)
            assert loads_outcome(text) == want, path.name
            assert loads_outcome(data) == want, path.name
        assert not_text == ["not_utf8.json"]

    def test_seeded_documents(self):
        for seed in range(12):
            rng = rng_for(seed)
            n = int(rng.integers(1, 50))
            form1, form2, iso = random_intertwined_pair(rng, n, pick(rng, ("relabel", "doob")))
            pair = jsonio.pair_to_obj(form1, form2, iso)
            graph = jsonio.graph_to_obj(random_form(rng, n))
            per_edge = dict(graph, edges=cli_contract._edge_objects(graph))
            for obj in (pair, pair["iso"], graph, per_edge):
                for text in (jsonio.dumps(obj), json.dumps(obj)):
                    assert loads_outcome(text) == json_outcome(text), seed

    def test_number_fuzz_through_graph_from_obj(self):
        # 100 numbers per document as killing values, each read to the bits
        # of json's reading: big ints, long mantissas, exponents from -345
        # to 310, subnormals and the shortest and longer texts of random doubles
        names = [f"v{i}" for i in range(100)]
        head = (f'{{"vertices": {json.dumps(names)}, "m": {json.dumps(dict.fromkeys(names, 1.0))},'
                ' "edges": {"u": [], "v": [], "b": []}, "killing": {')
        import orjson

        rnd = random.Random(35)
        numbers = by_orjson = 0
        for _ in range(1000):
            texts = [number_text(rnd) for _ in names]
            texts = [text for text in texts if finite_number(text)]
            text = head + ", ".join(f'"{v}": {t}' for v, t in zip(names, texts)) + "}}"
            got = jsonio.graph_from_obj(jsonio.loads(text)).c
            want = jsonio.graph_from_obj(json.loads(text)).c
            assert got.tobytes() == want.tobytes(), text
            numbers += len(texts)
            with contextlib.suppress(orjson.JSONDecodeError):
                by_orjson += bool(orjson.loads(text))
        assert numbers > 95_000
        assert by_orjson > 900  # loads reads these with orjson

    @pytest.mark.parametrize("text", [
        "NaN", '{"b": [1.0, -Infinity]}', "Infinity", "1e400",
        pytest.param(str(10**400), id="10**400"),
        '{"v": "\\ud800"}', "\ufeff{}", "{} []", "not_json", "{not json", "",
    ])
    def test_what_orjson_refuses(self, text):
        import orjson

        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)
        assert loads_outcome(text) == json_outcome(text)

    def test_the_bracket_bound(self, monkeypatch):
        # orjson reads a text of 512 opening brackets, json one of 513,
        # brackets inside strings included
        import orjson

        readers = []
        for module in (orjson, json):
            def spy(text, read=module.loads, name=module.__name__):
                readers.append(name)
                return read(text)

            monkeypatch.setattr(module, "loads", spy)
        cases = {
            "[" + "[], " * 510 + "[]]": "orjson",
            "[" + "{}, " * 511 + "{}]": "json",
            '{"a": "' + "[" * 511 + '"}': "orjson",
            '{"a": "' + "[" * 512 + '"}': "json",
            # multibyte UTF-8 between the brackets: bytes count as the text
            '{"\u00e9": ["\u4e2d' + "[\U0001f600" * 510 + '"]}': "orjson",
            '{"\u00e9": ["\u4e2d' + "{\U0001f600" * 511 + '"]}': "json",
        }
        for text, reader in cases.items():
            for data in (text, text.encode()):
                readers.clear()
                assert loads_outcome(data) == json_outcome(text)
                assert readers[0] == reader

    def test_deep_texts_raise_malformed_input(self, tmp_path):
        # in fresh interpreters, so that a crash fails this test, not pytest:
        # orjson 3.8 recurses without a limit and crashed on 200 000 levels
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probe = ("import sys\n"
                 "from dirikit import jsonio\n"
                 "from dirikit.errors import MalformedInput\n"
                 "for depth in (1000, 200_000):\n"
                 "    try:\n"
                 "        jsonio.loads('[' * depth + ']' * depth)\n"
                 "    except MalformedInput as exc:\n"
                 "        print(depth, exc)\n")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["1000 invalid JSON: nested too deeply",
                                            "200000 invalid JSON: nested too deeply"]
        deep = "[" * 200_000 + "]" * 200_000
        (tmp_path / "deep.json").write_text(deep)
        for args in (["check", "deep.json"], ["certify", "deep.json"], ["check", "-"]):
            proc = subprocess.run([sys.executable, "-m", "dirikit.cli", *args], input=deep,
                                  cwd=tmp_path, env=env, capture_output=True, text=True,
                                  timeout=60)
            assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
            assert proc.stderr == "error: invalid JSON: nested too deeply\n"


def number_text(rnd: random.Random) -> str:
    """A JSON number text that reads to a nonnegative double, or past the range."""
    kind = rnd.choice(("double", "decimal", "integer", "subnormal"))
    while kind == "double":  # random bits, so that every exponent is as likely
        x = abs(struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0])
        if math.isfinite(x):
            return rnd.choice((repr(x), format(x, ".17g"), format(x, ".25e"), format(x, ".40g")))
    if kind == "integer":  # up to 330 digits, many just past 64 bits
        size = rnd.randint(1, 330) if rnd.random() < 0.7 else rnd.randint(19, 22)
        return str(rnd.randint(10 ** (size - 1), 10**size - 1))
    if kind == "subnormal":
        x = rnd.randint(1, 2**52) * 5e-324
        return rnd.choice((repr(x), format(x, ".25e"), "2.4703282292062328e-324",
                           "2.2250738585072011e-308", "4.9406564584124654e-324"))
    digits = str(rnd.randint(0, 10**40)).zfill(rnd.randint(1, 40))
    point = rnd.randint(0, len(digits))
    mantissa = digits if point in (0, len(digits)) else digits[:point] + "." + digits[point:]
    mantissa = mantissa.lstrip("0") or "0"
    if mantissa.startswith("."):
        mantissa = "0" + mantissa
    if rnd.random() < 0.5:
        return mantissa + rnd.choice(("e-", "E-")) + str(rnd.randint(0, 345))
    return mantissa + rnd.choice(("e", "E", "e+")) + str(rnd.randint(0, 310))


def finite_number(text: str) -> bool:
    """Whether json reads the text to a number inside the float range."""
    try:
        return math.isfinite(float(json.loads(text)))
    except OverflowError:
        return False
