"""Diff the observable behaviour of the `dirikit` CLI between two revisions.

Run from anywhere inside the repository:

    python3 tools/cli_contract.py REV           # REV against the working tree
    python3 tools/cli_contract.py REV1 REV2     # REV1 against REV2

Each side runs one fixed corpus of commands (`COMMANDS`) in-process, in a
fresh interpreter whose `dirikit` comes from that side's `src/`.  A
revision is checked out into a temporary `git worktree`, which is removed
when the script ends.  Each side builds its own inputs with its own
`dirikit gen` and `gen-pair` in a fresh directory and runs every command
there, so file names in messages match.  The script prints one line per
command whose stdout, stderr or exit code differ, then a summary line, and
exits 1 when any command differs.  A line for a JSON stdout names the
first value that differs, numbers compared as doubles bit for bit, and
keys new in the later revision; "same values" marks a change of float
text alone.

    python3 tools/cli_contract.py --write-golden tests/cli_golden.json

writes the part of each result that does not depend on floating-point
rounding (`stable_view`) for the working tree; `tests/test_cli_contract.py`
checks the corpus against that file.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import random
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# graph files written with `dirikit gen --out NAME.json ARGS`
GEN = {
    "sierpinski2": ["--family", "sierpinski", "--n", "2"],
    "sierpinski3": ["--family", "sierpinski", "--n", "3"],
    "sierpinski5": ["--family", "sierpinski", "--n", "5"],
    "complete5": ["--family", "complete", "--n", "5"],
    "complete6": ["--family", "complete", "--n", "6"],
    "complete7": ["--family", "complete", "--n", "7"],
    "cycle8": ["--family", "cycle", "--n", "8"],
    "cycle12": ["--family", "cycle", "--n", "12"],
    "path3": ["--family", "path", "--n", "3"],
    "path7": ["--family", "path", "--n", "7"],
    "path12": ["--family", "path", "--n", "12"],
    # P6 and C6 at conductance 1e-9: their generators are of order 1e-9
    "path6tiny": ["--family", "path", "--n", "6", "--conductance", "1e-9"],
    "cycle6tiny": ["--family", "cycle", "--n", "6", "--conductance", "1e-9"],
    # K6 whose generator's largest rate is subnormal
    "complete6subnormal": ["--family", "complete", "--n", "6", "--conductance", "1e-310"],
}
GEOMETRY = ("sierpinski2", "sierpinski3", "sierpinski5", "complete5", "cycle8", "path7")

# pair files written with `dirikit gen-pair --out NAME.json ARGS`, each also
# split into NAME.g1.json, NAME.g2.json and NAME.iso.json
PAIRS = {
    f"{transform}{n}s{seed}": ["--transform", transform, "--n", str(n), "--seed", str(seed)]
    for transform in ("relabel", "doob")
    for n in (6, 40, 160)
    for seed in (1, 3)
}

# pair files of `gen-pair ARGS` whose iso's h is multiplied by 2^k
RESCALED = {
    f"{name}h{k:+d}": (args, k)
    for name, args in (("relabel6s4", ["relabel", "6", "4"]), ("doob160s1", ["doob", "160", "1"]))
    for k in (600, -600)
}

# malformed pair files, checked with `dirikit certify NAME.json`
BAD_PAIRS = {
    "pair_not_object": "[]",
    "pair_g1_not_object": json.dumps({"g1": "a", "g2": {}, "iso": {}}),
}

# a text nested 1000 levels deep, past the depth that json reads, checked
# with `dirikit check NAME.json` and `dirikit certify NAME.json`
DEEP = {"nested_deep": "[" * 1000 + "]" * 1000}

# malformed or rejected graphs, by the fault they carry
_A_B = {"vertices": ["a", "b"], "m": {"a": 1.0, "b": 1.0}, "killing": {}}
INVALID = {
    "not_json": "{not json",
    "not_object": "[]",
    "no_measure": json.dumps({"vertices": ["a"], "edges": [], "killing": {}}),
    "edges_not_list": json.dumps(dict(_A_B, edges={"u": "a"})),
    "edges_not_container": json.dumps(dict(_A_B, edges="a")),
    "edge_not_object": json.dumps(dict(_A_B, edges=[["a", "b", 1.0]])),
    "negative": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": -2.0}])),
    "nan": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": float("nan")}])),
    "string_weight": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": "1.0"}])),
    "huge_int": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": 10**400}])),
    "self_loop": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "a", "b": 1.0}])),
    "duplicate": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": 1.0},
                                              {"u": "b", "v": "a", "b": 2.0}])),
    "unknown_vertex": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "z", "b": 1.0}])),
    # two faults in one list: the first one is reported
    "duplicate_then_self_loop": json.dumps(dict(_A_B, edges=[
        {"u": "a", "v": "b", "b": 1.0}, {"u": "b", "v": "a", "b": 2.0},
        {"u": "a", "v": "a", "b": 1.0}])),
    "nan_then_unknown_vertex": json.dumps(dict(_A_B, edges=[
        {"u": "a", "v": "b", "b": float("nan")}, {"u": "a", "v": "z", "b": 1.0}])),
    "zero_measure": json.dumps(dict(_A_B, m={"a": 0.0, "b": 1.0},
                                    edges=[{"u": "a", "v": "b", "b": 1.0}])),
    "disconnected": json.dumps({"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 1.0, "c": 1.0},
                                "edges": [{"u": "a", "v": "b", "b": 1.0}], "killing": {}}),
    "killing": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": 1.0}],
                               killing={"a": 0.5})),
    "single_vertex": json.dumps({"vertices": ["a"], "m": {"a": 2.0}, "edges": [], "killing": {}}),
    "overflowing_generator": json.dumps(dict(_A_B, m={"a": 1e-300, "b": 1e-300},
                                             edges=[{"u": "a", "v": "b", "b": 1e300}])),
    "overflowing_spectrum": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": 1.5e308}])),
    "diagonal_overflow": json.dumps({
        "vertices": ["v0", "v1", "v2", "v3"],
        "m": {"v0": 1.7e308, "v1": 1e-300, "v2": 1e300, "v3": 1.7e308},
        "edges": [{"u": "v0", "v": "v2", "b": 6e-309}, {"u": "v1", "v": "v2", "b": 6e-309},
                  {"u": "v2", "v": "v3", "b": 1e300}],
        "killing": {},
    }),
    "weak_bottleneck": json.dumps({"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 1.0, "c": 1.0},
                                   "edges": [{"u": "a", "v": "b", "b": 1e-12},
                                             {"u": "b", "v": "c", "b": 1.0}], "killing": {}}),
    "tiny_measure": json.dumps({"vertices": ["a", "b", "c"], "m": {"a": 1e-16, "b": 1e-16, "c": 1e-16},
                                "edges": [{"u": "a", "v": "b", "b": 1.0},
                                          {"u": "b", "v": "c", "b": 1.0}], "killing": {}}),
    # an entry of m or killing for a vertex that the list does not name
    "unknown_killing_vertex": json.dumps(dict(_A_B, edges=[{"u": "a", "v": "b", "b": 1.0}],
                                              killing={"A": 3.0})),
    "unknown_measure_vertex": json.dumps(dict(_A_B, m={"a": 1.0, "b": 1.0, "zz": -5.0},
                                              edges=[{"u": "a", "v": "b", "b": 1.0}])),
    # edge columns of unequal length, a column that is no list, an id that
    # is no string and a bool weight
    "columns_unequal": json.dumps(dict(_A_B, edges={"u": ["a"], "v": ["b", "a"], "b": [1.0]})),
    "column_not_list": json.dumps(dict(_A_B, edges={"u": ["a"], "v": "b", "b": [1.0]})),
    "column_id_not_string": json.dumps(dict(_A_B, edges={"u": ["a"], "v": [1], "b": [1.0]})),
    "column_bool_weight": json.dumps(dict(_A_B, edges={"u": ["a"], "v": ["b"], "b": [True]})),
    # a path of 4097 vertices, one past the vertex cap, whose last edge
    # repeats its first: the cap is checked when the space is built, before
    # the edges, and a revision without the cap stops at the duplicate
    # before any n x n array
    "over_cap_path": json.dumps({
        "vertices": [f"v{i}" for i in range(4097)], "m": {f"v{i}": 1.0 for i in range(4097)},
        "edges": {"u": [f"v{i}" for i in range(4096)] + ["v1"],
                  "v": [f"v{i + 1}" for i in range(4096)] + ["v0"], "b": [1.0] * 4097},
        "killing": {}}),
}


def _k4(names: list[str], m: list[float]) -> str:
    """K4 with unit conductances under the given ids and measures."""
    edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    return json.dumps({"vertices": names, "m": dict(zip(names, m)),
                       "edges": {"u": [u for u, _ in edges], "v": [v for _, v in edges],
                                 "b": [1.0] * len(edges)}, "killing": {}})


# hand-written graphs that load: a -0.0 weight and a -0.0 killing entry,
# a graph both disconnected and killed, two unit edges whose generators
# share the spectrum {0, 2} under measures (1, 1) and (2, 2/3) that no
# bijection carries onto each other, and K4 under measures (1, 1, 2, 2)
# with a relabelled copy whose ids need JSON escapes (4 intertwiners)
HAND = {
    "negative_zero": json.dumps({"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 2.0, "c": 1.0},
                                 "edges": {"u": ["a", "b"], "v": ["b", "c"], "b": [-0.0, 1.5]},
                                 "killing": {"a": -0.0, "c": 0.25}}),
    "disconnected_killed": json.dumps({"vertices": ["a", "b", "c"],
                                       "m": {"a": 1.0, "b": 1.0, "c": 1.0},
                                       "edges": [{"u": "a", "v": "b", "b": 1.0}],
                                       "killing": {"c": 0.5}}),
    "isospectral1": json.dumps({"vertices": ["a", "b"], "m": {"a": 1.0, "b": 1.0},
                                "edges": {"u": ["a"], "v": ["b"], "b": [1.0]}, "killing": {}}),
    "isospectral2": json.dumps({"vertices": ["a", "b"], "m": {"a": 2.0, "b": 2.0 / 3.0},
                                "edges": {"u": ["a"], "v": ["b"], "b": [1.0]}, "killing": {}}),
    "k4": _k4(["a", "b", "c", "%s"], [1.0, 1.0, 2.0, 2.0]),
    "k4_escaped": _k4(['"', "\\", "\u00e9", "\n"], [2.0, 1.0, 2.0, 1.0]),
    # the path v0 - v1 - v2 whose ratio sqrt(m(v2)) / sqrt(m(v0)) leaves the
    # float range off the edges: its symmetrized generator is finite
    "spread_measure": json.dumps({"vertices": ["v0", "v1", "v2"],
                                  "m": {"v0": 5e-324, "v1": 1.0, "v2": 1.7e308},
                                  "edges": {"u": ["v0", "v1"], "v": ["v1", "v2"],
                                            "b": [1e-310, 1.0]}, "killing": {}}),
    # the same path with the key v0 v2 at weight 0, an edge value of S
    "spread_zero_key": json.dumps({"vertices": ["v0", "v1", "v2"],
                                   "m": {"v0": 5e-324, "v1": 1.0, "v2": 1.7e308},
                                   "edges": {"u": ["v0", "v1", "v0"], "v": ["v1", "v2", "v2"],
                                             "b": [1e-310, 1.0, 0.0]}, "killing": {}}),
}


def _zero_key_pairs() -> dict:
    """Pairs checked with `dirikit certify NAME.json`: negative_zero against
    itself under the identity (not irreducible: exit 2), and a path a b c
    whose g1 holds the key a c at weight -0.0, against its relabelling,
    which lacks that key."""
    graph = json.loads(HAND["negative_zero"])
    identity = {v: v for v in graph["vertices"]}
    g1 = {"vertices": ["a", "b", "c"], "m": {"a": 1.0, "b": 2.0, "c": 1.0}, "killing": {},
          "edges": {"u": ["a", "b", "a"], "v": ["b", "c", "c"], "b": [1.0, 1.5, -0.0]}}
    g2 = {"vertices": ["x", "y", "z"], "m": {"x": 1.0, "y": 2.0, "z": 1.0}, "killing": {},
          "edges": {"u": ["z", "y"], "v": ["y", "x"], "b": [1.0, 1.5]}}
    tau = {"x": "c", "y": "b", "z": "a"}
    return {"negative_zero_pair": {"g1": graph, "g2": graph,
                                   "iso": {"tau": identity, "h": dict.fromkeys(identity, 1.0)}},
            "zero_key_union": {"g1": g1, "g2": g2,
                               "iso": {"tau": tau, "h": dict.fromkeys(tau, 1.0)}}}


# hand-made inputs written as bytes, not as text: a K4 one of whose ids
# holds a 0xff byte, which no UTF-8 text can, and a K4 whose ids are raw
# UTF-8, not \u escapes, with its identity iso
_RAW_IDS = ["\u00e9", "\u00df", "\u4e2d", "\U0001f600"]
RAW = {
    "not_utf8": _k4(["a", "b", "c", "d"], [1.0, 1.0, 2.0, 2.0]).encode()
                .replace(b'"d"', b'"\xff"'),
    "raw_utf8": json.dumps(json.loads(_k4(_RAW_IDS, [1.0, 1.0, 2.0, 2.0])),
                           ensure_ascii=False).encode(),
    "raw_utf8.iso": json.dumps({"tau": {v: v for v in _RAW_IDS},
                                "h": dict.fromkeys(_RAW_IDS, 1.0)}, ensure_ascii=False).encode(),
}

# doob6s1 with a weight of its g2 replaced, checked with `dirikit certify NAME.json`
SAME_GRAPH = {"same_graph_negative": -1.0, "same_graph_nan": float("nan")}


def _identity_pair(m: dict, edges: list[tuple[str, str, float]]) -> str:
    """The pair of the graph with measure m and edges (u, v, b) against
    itself under the identity."""
    graph = {"vertices": list(m), "m": m, "killing": {},
             "edges": {"u": [u for u, _, _ in edges], "v": [v for _, v, _ in edges],
                       "b": [b for _, _, b in edges]}}
    return json.dumps({"g1": graph, "g2": graph,
                       "iso": {"tau": {v: v for v in m}, "h": dict.fromkeys(m, 1.0)}})


# pairs with an edge x y of infinite canonical length, as m / deg overflows
# at x and y, checked with `dirikit certify NAME.json`: the edge is dropped,
# which leaves the path x z w y, or no path (exit 2)
INFINITE_LENGTH = {
    "infinite_length_connected": _identity_pair(
        {"x": 1e300, "y": 1e300, "z": 1.0, "w": 1.0},
        [("x", "y", 1e-10), ("x", "z", 1e-10), ("y", "w", 1e-10), ("z", "w", 1.0)]),
    "infinite_length_disconnected": _identity_pair(
        {"x": 1e300, "y": 1e300}, [("x", "y", 1e-10)]),
}

# metrics checked on path3 with `dirikit intrinsic path3.json --metric NAME.json`
METRICS = {
    "metric_zero": {"d": [[0.0] * 3] * 3},
    "metric_intrinsic": {"d": [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]},
    "metric_too_long": {"d": [[0.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 0.0]]},
    "metric_triangle": {"d": [[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]]},
    "metric_asymmetric": {"d": [[0.0, 0.5, 1.0], [0.4, 0.0, 0.5], [1.0, 0.5, 0.0]]},
    "metric_negative": {"d": [[0.0, -0.5, 1.0], [-0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]},
    "metric_shape": {"d": [[0.0, 1.0], [1.0, 0.0]]},
    "metric_not_matrix": {"d": [0.0, 1.0, 2.0]},
    # d(v0, v2) breaks the triangle by 1e-7: within --tol 1e-6, not the default
    "metric_gap": {"d": [[0.0, 0.5, 1.0000001], [0.5, 0.0, 0.5], [1.0000001, 0.5, 0.0]]},
    "metric_ragged": {"d": [[0.0, 0.5, 1.0], [0.5, 0.0], [1.0, 0.5, 0.0]]},
}

# metrics at the float range's edge, checked with `dirikit intrinsic GRAPH.json
# --metric NAME.json`: every distance of metric_huge is 1e200, so the slack
# of path3 is -inf, which no format may write (exit 2); metric_far is 1 on
# the edge a b of disconnected.json and 1e308 to c, whose triangle sums
# overflow to inf and break no inequality (exit 0)
FAR_METRICS = {
    "metric_huge": ("path3", {"d": [[0.0, 1e200, 1e200], [1e200, 0.0, 1e200],
                                    [1e200, 1e200, 0.0]]}),
    "metric_far": ("disconnected", {"d": [[0.0, 1.0, 1e308], [1.0, 0.0, 1e308],
                                          [1e308, 1e308, 0.0]]}),
}


def _commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    for fmt in ("json", "text"):
        for name in GEOMETRY:
            for sub in ("resistance", "intrinsic", "check", "decompose"):
                cmds.append([sub, f"{name}.json", "--format", fmt])
        for name in METRICS:
            cmds.append(["intrinsic", "path3.json", "--metric", f"{name}.json", "--format", fmt])
        for name in PAIRS:
            cmds.append(["certify", f"{name}.json", "--format", fmt])
        # v0..v11: the edge keys sort as strings (v10 < v2), not by index
        cmds += [["check", "cycle12.json", "--format", fmt],
                 ["decompose", "cycle12.json", "--format", fmt]]
        # edge objects in any order and orientation, with an extra key and
        # an int weight
        cmds += [["certify", "shuffled.json", "--format", fmt],
                 ["check", "shuffled.g1.json", "--format", fmt]]
        # total masses of 2^-60 times those of relabel6s4
        cmds += [["certify", "scaled.json", "--format", fmt]]
        # a candidate within the intertwining bound whose drift fails the
        # certificate: exit 1
        cmds += [["certify", "drifted.json", "--format", fmt]]
        # an edge longer than the path through its light third vertex
        cmds += [["certify", "hub.json", "--format", fmt]]
        # two images of a witness swapped where the weights span 1e+-6:
        # the guard's bound per entry rejects it (exit 2)
        cmds += [["certify", "swap37.json", "--format", fmt]]
        # the iso's h times 2^600 and 2^-600: beta leaves the float range
        cmds += [["certify", f"{name}.json", "--format", fmt] for name in RESCALED]
    cmds += [
        ["resistance", "path7.json", "--tol", "1e-6"],
        ["intrinsic", "sierpinski3.json", "--tol", "1e-6"],
        *(["intrinsic", "path3.json", "--metric", "metric_gap.json", "--tol", "1e-6",
           "--format", fmt] for fmt in ("json", "text")),
        ["resistance", "path7.json", "--tol", "-1"],
        ["certify", "relabel6s1.json", "--tol", "-1"],
        ["certify", "relabel6s1.json", "--tol", "1e-6"],
        ["certify", "relabel6s1.json", "--tol", "inf"],
        # a finite tolerance whose bound overflows
        ["certify", "relabel6s1.json", "--tol", "1e308"],
        ["certify", "relabel6s1.json", "--tol", "1e308", "--format", "text"],
        ["certify", "swap37.json", "--tol", "1e-12"],
        *(["certify", f"{name}.json"] for name in BAD_PAIRS),
        ["certify", "relabel6s1.g1.json", "relabel6s1.g2.json", "relabel6s1.iso.json"],
        ["certify", "doob40s1.g1.json", "doob40s1.g2.json", "doob40s1.iso.json"],
        # the witness of one pair applied to another pair's graphs
        ["certify", "relabel6s1.g1.json", "relabel6s1.g2.json", "relabel6s3.iso.json"],
        ["certify", "relabel6s1.g1.json", "relabel6s1.g2.json"],
        ["certify", "relabel6s1.g1.json"],
    ]
    for fmt in ("json", "text"):
        cmds += [
            ["search", "complete6.json", "complete6.json", "--format", fmt],
            ["search", "complete6.json", "complete6.json", "--max-solutions", "1", "--format", fmt],
            # 24 solutions per tail of 4 targets: caps 7 and 1000 cut inside one
            ["search", "complete7.json", "complete7.json", "--max-solutions", "7", "--format", fmt],
            ["search", "complete7.json", "complete7.json", "--max-solutions", "1000",
             "--format", fmt],
            ["search", "cycle12.json", "cycle12.json", "--format", fmt],
            ["search", "relabel40s3.g1.json", "relabel40s3.g2.json", "--format", fmt],
            ["search", "doob6s1.g1.json", "doob6s1.g2.json", "--format", fmt],
            ["search", "cycle12.json", "path12.json", "--format", fmt],
            ["search", "complete6.json", "cycle12.json", "--format", fmt],
            # the generator's diagonal leaves several sources per target,
            # the resolvent's diagonal prunes some of them
            ["search", "sierpinski3.json", "sierpinski3.json", "--format", fmt],
            ["search", "path12.json", "path12.json", "--format", fmt],
            # one source per target at the root: completed without a
            # forward check, at n = 160 and with a non-constant h
            ["search", "relabel160s1.g1.json", "relabel160s1.g2.json", "--format", fmt],
            ["search", "doob40s1.g1.json", "doob40s1.g2.json", "--format", fmt],
            # the spectra differ by far more than 1e-8 of their size
            ["search", "path6tiny.json", "cycle6tiny.json", "--format", fmt],
            # equal spectra, no intertwiner: exhausted, not spectrum
            ["search", "isospectral1.json", "isospectral2.json", "--format", fmt],
            # weights over 12 orders of magnitude, one intertwiner; and a
            # pair whose scaling h is 1e10
            ["search", "spread40.g1.json", "spread40.g2.json", "--format", fmt],
            ["search", "large_h.g1.json", "large_h.g2.json", "--format", fmt],
            # lambda = max s / 100 is subnormal: no resolvent layer, all
            # 720 solutions
            ["search", "complete6subnormal.json", "complete6subnormal.json", "--format", fmt],
            ["search", "k4.json", "k4_escaped.json", "--format", fmt],
            ["check", "negative_zero.json", "--format", fmt],
            ["decompose", "negative_zero.json", "--format", fmt],
        ]
    cmds += [
        ["search", "cycle12.json", "cycle12.json", "--max-solutions", "2", "--tol", "1e-6"],
        ["search", "complete5.json", "complete5.json", "--max-solutions", "0"],
        ["search", "cycle8.json", "cycle8.json", "--tol", "nan"],
        ["search", "cycle8.json", "cycle8.json", "--tol", "1e308"],
    ]
    cmds += [["gen", *args] for args in GEN.values()]
    cmds += [
        ["gen", "--family", "cycle", "--n", "2"],
        ["gen", "--family", "path", "--n", "4", "--conductance", "2.5", "--measure", "0.5"],
        ["gen-pair", "--transform", "relabel", "--n", "6", "--seed", "1"],
        ["gen-pair", "--transform", "doob", "--n", "6", "--seed", "1"],
        # 4.5k edges in three columns on stdout
        ["gen-pair", "--transform", "doob", "--n", "160", "--seed", "1"],
        ["gen-pair", "--transform", "relabel", "--n", "-1"],
        ["gen-pair", "--transform", "doob", "--n", "0"],
        # one past the vertex cap of 4096, and a level of 9843 vertices
        ["gen", "--family", "path", "--n", "4097"],
        ["gen", "--family", "sierpinski", "--n", "8"],
    ]
    for name in INVALID:
        g = f"{name}.json"
        cmds += [["check", g], ["resistance", g], ["intrinsic", g], ["decompose", g],
                 ["search", g, g], ["certify", g, g, f"{name}.iso.json"]]
    cmds += [
        # transient, and both disconnected and killed: the first failed
        # precondition is named
        ["resistance", "doob6s1.g1.json"],
        ["resistance", "disconnected_killed.json"],
        ["check", "missing.json"],
        ["gen", "--family", "path", "--n", "3", "--bogus"],
        # flags that the command does not read
        ["gen", "--family", "path", "--n", "2", "--format", "text"],
        ["gen-pair", "--transform", "doob", "--n", "6", "--tol", "5"],
        ["check", "path3.json", "--seed", "3"],
        ["decompose", "path3.json", "--tol", "1e-6"],
        ["frobnicate"],
        [],
    ]
    for name in DEEP:
        cmds += [["check", f"{name}.json"], ["certify", f"{name}.json"]]
    cmds += [["check", "not_utf8.json"], ["certify", "not_utf8.json"],
             ["check", "raw_utf8.json"],
             ["certify", "raw_utf8.json", "raw_utf8.json", "raw_utf8.iso.json"]]
    # pairs whose g2 has g1's vertices and edge columns, one with a negative
    # weight, one with a NaN literal that only json reads; a pair behind a
    # UTF-8 byte order mark; and a graph certified against itself
    cmds += [*(["certify", f"{name}.json"] for name in SAME_GRAPH),
             ["certify", "bom.json"],
             ["certify", "sierpinski3.json", "sierpinski3.json", "sierpinski3.id.json"]]
    # scrambled copies whose solutions part far from the first targets: C64
    # (128 solutions) and Sierpinski L4 (6).  A search whose long-range
    # layer sees about 10 hops still takes a second or less on each, where
    # Sierpinski L5 takes minutes
    for fmt in ("json", "text"):
        cmds += [["search", f"{name}.g1.json", f"{name}.g2.json", "--format", fmt]
                 for name in ("scrambled_cycle64", "scrambled_sierpinski4")]
    for fmt in ("json", "text"):
        cmds += [["certify", f"{name}.json", "--format", fmt] for name in INFINITE_LENGTH]
    for fmt in ("json", "text"):
        cmds += [["intrinsic", f"{graph}.json", "--metric", f"{name}.json", "--format", fmt]
                 for name, (graph, _) in FAR_METRICS.items()]
    cmds += [["check", "spread_measure.json"],
             ["search", "spread_measure.json", "spread_measure.json"]]
    cmds += [["check", "spread_zero_key.json"],
             ["search", "spread_zero_key.json", "spread_zero_key.json"],
             ["certify", "negative_zero_pair.json"], ["certify", "zero_key_union.json"]]
    # a seed that numpy's SeedSequence refuses
    cmds += [["gen-pair", "--transform", "relabel", "--seed", "-1"]]
    return cmds


COMMANDS = _commands()


def _edge_objects(graph: dict) -> list[dict]:
    """The edges of a graph document as a list of edge objects, whether it
    holds them so or as columns."""
    edges = graph["edges"]
    if isinstance(edges, dict):
        return [dict(zip("uvb", edge)) for edge in zip(edges["u"], edges["v"], edges["b"])]
    return edges


def _shuffled_pair() -> dict:
    """relabel40s1's g1 against itself under the identity, with an int
    weight where g2 has the equal float; both list their edges as objects,
    g1's shuffled, every other one reversed, and each with an extra key."""
    g1 = json.loads(Path("relabel40s1.g1.json").read_text(encoding="utf-8"))
    g1["edges"] = _edge_objects(g1)
    g1["edges"][0]["b"] = 2
    g2 = copy.deepcopy(g1)
    g2["edges"][0]["b"] = 2.0
    random.Random(0).shuffle(g1["edges"])
    for k, edge in enumerate(g1["edges"]):
        if k % 2:
            edge["u"], edge["v"] = edge["v"], edge["u"]
        edge["note"] = k
    iso = {"tau": {v: v for v in g1["vertices"]}, "h": {v: 1.0 for v in g1["vertices"]}}
    return {"g1": g1, "g2": g2, "iso": iso}


def _scaled_pair(run) -> dict:
    """gen-pair's relabel pair at n 6, seed 4, with every b, c and m of both
    graphs multiplied by 2^-60, the edges as a list of edge objects."""
    if run(["gen-pair", "--transform", "relabel", "--n", "6", "--seed", "4",
            "--out", "scaled.json"]) != 0:
        raise RuntimeError("gen-pair scaled failed")
    pair = json.loads(Path("scaled.json").read_text(encoding="utf-8"))
    for graph in (pair["g1"], pair["g2"]):
        for key in ("m", "killing"):
            graph[key] = {v: 2.0**-60 * x for v, x in graph[key].items()}
        graph["edges"] = [dict(edge, b=edge["b"] * 2.0**-60) for edge in _edge_objects(graph)]
    return pair


def _drifted_pair() -> dict:
    """path12 against itself under tau = id with h = (1 + 1.4e-9)^k at the
    k-th vertex: each entry of the intertwining residual is within its
    bound, 1.4e-9 against 1.41e-9 at the ends, but the drift adds up along
    the path."""
    g = json.loads(Path("path12.json").read_text(encoding="utf-8"))
    names = g["vertices"]
    iso = {"tau": {v: v for v in names},
           "h": {v: (1 + 1.4e-9) ** k for k, v in enumerate(names)}}
    return {"g1": g, "g2": g, "iso": iso}


def _rescaled_pair(run, args: list[str], k: int) -> dict:
    transform, n, seed = args
    if run(["gen-pair", "--transform", transform, "--n", n, "--seed", seed,
            "--out", "rescaled.json"]) != 0:
        raise RuntimeError("gen-pair rescaled failed")
    pair = json.loads(Path("rescaled.json").read_text(encoding="utf-8"))
    pair["iso"]["h"] = {v: x * 2.0**k for v, x in pair["iso"]["h"].items()}
    return pair


def _swapped_pair() -> dict:
    """Seed 37 of ``spread_search_pair`` in tests/test_search.py, a Doob pair
    of 6 vertices whose b, m and c lie on the levels 1e-6 and 1e6, with the
    images of the first and fifth target of the witness swapped and
    h(y) = sqrt(m1(tau y) / m2(y))."""
    import numpy as np
    from dirikit import GraphForm, build_form, doob_pair, jsonio
    from dirikit.sampling import nonconstant_excessive_profile, random_form

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(37)))
    # the draws of n = 6, spread 6, doob, two levels and no perturbation
    rng.integers(2, 31), rng.choice([1.0, 3.0, 6.0]), rng.choice(["relabel", "doob"])
    rng.integers(2), rng.choice([0.0, 0.0, 2e-9, 1e-8])
    base = random_form(rng, 6, recurrent=True)

    def level(size):
        return 10.0 ** (6.0 * rng.choice([-1.0, 1.0], size))

    b = dict(zip(base.b, level(len(base.b))))
    spread = build_form(base.space.vertices, level(6), b, base.c * level(6))
    h = nonconstant_excessive_profile(rng, 6)
    w = spread.weight_matrix
    deg = w.sum(axis=1)
    required = (w @ h - deg * h) / h
    form1 = GraphForm(spread.space, spread.b, np.maximum(required, 0.0) + 0.02 * deg)
    form2, witness = doob_pair(form1, h)
    tau = dict(witness.tau)
    y0, y4 = list(tau)[0], list(tau)[4]
    tau[y0], tau[y4] = tau[y4], tau[y0]
    m1, m2 = form1.space, form2.space
    scaling = {y: float(np.sqrt(m1.m[m1.index(x)] / m2.m[m2.index(y)])) for y, x in tau.items()}
    obj = jsonio.pair_to_obj(form1, form2, witness)
    obj["iso"] = {"tau": tau, "h": scaling}
    return obj


def _hub_pair() -> dict:
    """A unit triangle x, y, z with m(z) = 1e-4 against its relabelling
    under the rotation x -> y -> z: the canonical lengths are 0.707 on the
    edge x y and 0.00707 on the two edges at z, so the canonical distance
    of x and y is the path through z, not the edge."""
    m = {"x": 1.0, "y": 1.0, "z": 1e-4}
    edges = [{"u": u, "v": v, "b": 1.0} for u, v in (("x", "y"), ("x", "z"), ("y", "z"))]
    g1 = {"vertices": list(m), "m": m, "edges": edges, "killing": {}}
    tau = {"a": "y", "b": "z", "c": "x"}
    g2 = {"vertices": list(tau), "m": {y: m[x] for y, x in tau.items()},
          "edges": [{"u": u, "v": v, "b": 1.0} for u, v in (("a", "b"), ("a", "c"), ("b", "c"))],
          "killing": {}}
    return {"g1": g1, "g2": g2, "iso": {"tau": tau, "h": {y: 1.0 for y in tau}}}


def _sampled_pairs() -> dict:
    """Pairs built by the library's samplers.  ``spread40`` is seed 40 of
    ``spread_search_pair`` in tests/test_search.py: a relabel pair of 18
    vertices whose b, m and c lie on the two levels 1e-6 and 1e6.
    ``large_h`` is a relabel pair of 8 vertices with b, c and m of the
    target 1e-20 times the source's, so h = 1e10.  ``scrambled_cycle64``
    and ``scrambled_sierpinski4`` are ``scrambled`` in tests/test_search.py
    on C64 and Sierpinski L4 at conductance 1.3 and measure 0.7."""
    import numpy as np
    from dirikit import build_form, generate, jsonio
    from dirikit.sampling import random_form, relabel_pair

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(40)))
    # the draws of n = 18, spread 6, relabel, two levels and no perturbation
    rng.integers(2, 31), rng.choice([1.0, 3.0, 6.0]), rng.choice(["relabel", "doob"])
    rng.integers(2), rng.choice([0.0, 0.0, 2e-9, 1e-8])
    base = random_form(rng, 18)

    def level(size):
        return 10.0 ** (6.0 * rng.choice([-1.0, 1.0], size))

    b = dict(zip(base.b, level(len(base.b))))
    spread = build_form(base.space.vertices, level(18), b, base.c * level(18))
    scale = float(10 ** rng.uniform(-3, 3))
    pairs = {"spread40": (spread, *relabel_pair(rng, spread, scale=scale))}
    rng = np.random.Generator(np.random.PCG64(5))
    small = random_form(rng, 8)
    pairs["large_h"] = (small, *relabel_pair(rng, small, scale=1e-20))
    for name, family, n in (("scrambled_cycle64", "cycle", 64),
                            ("scrambled_sierpinski4", "sierpinski", 4)):
        form = generate(family, n, conductance=1.3, measure=0.7)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
        pairs[name] = (form, *relabel_pair(rng, form, scale=1.7))
    return {name: jsonio.pair_to_obj(*pair) for name, pair in pairs.items()}


def _write_inputs(run) -> None:
    """Write every input of COMMANDS into the current directory."""
    for name, args in GEN.items():
        if run(["gen", *args, "--out", f"{name}.json"]) != 0:
            raise RuntimeError(f"gen {name} failed")
    for name, args in PAIRS.items():
        if run(["gen-pair", *args, "--out", f"{name}.json"]) != 0:
            raise RuntimeError(f"gen-pair {name} failed")
        pair = json.loads(Path(f"{name}.json").read_text(encoding="utf-8"))
        for part in ("g1", "g2", "iso"):
            Path(f"{name}.{part}.json").write_text(json.dumps(pair[part]), encoding="utf-8")
    for name, pair in _sampled_pairs().items():
        for part in ("g1", "g2"):
            Path(f"{name}.{part}.json").write_text(json.dumps(pair[part]), encoding="utf-8")
    pair = _shuffled_pair()
    Path("shuffled.json").write_text(json.dumps(pair), encoding="utf-8")
    Path("shuffled.g1.json").write_text(json.dumps(pair["g1"]), encoding="utf-8")
    Path("scaled.json").write_text(json.dumps(_scaled_pair(run)), encoding="utf-8")
    Path("drifted.json").write_text(json.dumps(_drifted_pair()), encoding="utf-8")
    Path("hub.json").write_text(json.dumps(_hub_pair()), encoding="utf-8")
    Path("swap37.json").write_text(json.dumps(_swapped_pair()), encoding="utf-8")
    for name, (args, k) in RESCALED.items():
        Path(f"{name}.json").write_text(json.dumps(_rescaled_pair(run, args, k)),
                                        encoding="utf-8")
    for name, text in INVALID.items():
        Path(f"{name}.json").write_text(text, encoding="utf-8")
        try:
            names = json.loads(text)["vertices"]
        except (ValueError, TypeError, KeyError):
            names = ["a"]
        identity = {"tau": {v: v for v in names}, "h": {v: 1.0 for v in names}}
        Path(f"{name}.iso.json").write_text(json.dumps(identity), encoding="utf-8")
    for name, text in {**BAD_PAIRS, **HAND, **DEEP, **INFINITE_LENGTH}.items():
        Path(f"{name}.json").write_text(text, encoding="utf-8")
    for name, obj in {**METRICS, **_zero_key_pairs()}.items():
        Path(f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    for name, (_, obj) in FAR_METRICS.items():
        Path(f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    for name, data in RAW.items():
        Path(f"{name}.json").write_bytes(data)
    pair = Path("doob6s1.json").read_bytes()
    for name, weight in SAME_GRAPH.items():
        doc = json.loads(pair)
        doc["g2"]["edges"]["b"][1] = weight
        Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    Path("bom.json").write_bytes(b"\xef\xbb\xbf" + pair)
    names = json.loads(Path("sierpinski3.json").read_bytes())["vertices"]
    identity = {"tau": {v: v for v in names}, "h": {v: 1.0 for v in names}}
    Path("sierpinski3.id.json").write_text(json.dumps(identity), encoding="utf-8")


def run_corpus(workdir: Path) -> list[dict]:
    """Run COMMANDS in-process with the `dirikit` on sys.path, in `workdir`.

    Every warning is printed to the command's stderr.  An exception other
    than the CLI's own handling is recorded as exit code "traceback".
    """
    from dirikit.cli import run

    results = []
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _write_inputs(run)
        for argv in COMMANDS:
            # the CLI writes bytes to sys.stdout.buffer; a text wrapper over
            # a byte buffer also takes an older revision's text writes
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
            err = io.StringIO()
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = run(list(argv))
                except Exception as exc:  # a traceback is part of the contract too
                    code = "traceback"
                    err.write(f"{type(exc).__name__}: {exc}\n")
            results.append({"argv": argv, "exit": code,
                             "stdout": out.buffer.getvalue().decode("utf-8"),
                             "stderr": err.getvalue()})
    finally:
        os.chdir(old_cwd)
    return results


def stable_view(result: dict) -> dict:
    """The part of a result that floating-point rounding cannot change: exit
    code, stderr, search tau lists and capped flags, certify verdicts and
    check names, and
    the boolean and integer fields of check and intrinsic."""
    argv, out = result["argv"], result["stdout"]
    view = {"argv": argv, "exit": result["exit"], "stderr": result["stderr"]}
    if result["exit"] not in (0, 1) or not argv:
        return view
    text = "--format" in argv and argv[argv.index("--format") + 1] == "text"
    sub = argv[0]
    if sub == "search":
        if text:
            view["lines"] = [line.split(" h: ")[0] for line in out.splitlines()]
        else:
            payload = json.loads(out)
            view["equivalent"] = payload["equivalent"]
            view["reason"] = payload["reason"]
            view["tau"] = [iso["tau"] for iso in payload["intertwiners"]]
            view["capped"] = payload["capped"]
    elif sub == "certify":
        if text:
            view["lines"] = [line.split(":")[0] for line in out.splitlines()]
        else:
            payload = json.loads(out)
            view["verdict"] = payload["verdict"]
            view["checks"] = [[c["name"], c["pass"]] for c in payload["checks"]]
    elif sub == "check":
        if text:
            view["lines"] = [line for line in out.splitlines() if not line.startswith("spectrum")]
        else:
            view.update({k: v for k, v in json.loads(out).items() if k != "spectrum"})
    elif sub == "intrinsic":
        view["intrinsic"] = out.splitlines()[0] if text else json.loads(out)["intrinsic"]
    return view


def run_side(src: Path, tmp: Path, label: str, blas_threads: int = 1) -> list[dict]:
    """Run the corpus in a fresh interpreter that imports dirikit from src,
    under ``blas_threads`` OpenBLAS threads."""
    workdir = tmp / f"{label}-work"
    workdir.mkdir()
    out = tmp / f"{label}.json"
    # older revisions read their tolerance from DIRIKIT_TOL
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DIRIKIT_TOL")}
    # one BLAS thread on both sides by default: the thread count can change
    # float bits, and threads that spin against each other on a small
    # machine are slow
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    subprocess.run([sys.executable, __file__, "--side", str(src), str(workdir), str(out)],
                   env=env, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def _side(src: str, workdir: str, out: str) -> None:
    sys.path.insert(0, src)
    import dirikit

    if not Path(dirikit.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"dirikit imported from {dirikit.__file__}, not from {src}")
    results = run_corpus(Path(workdir))
    Path(out).write_text(json.dumps(results), encoding="utf-8")


def _first_difference(a: str, b: str) -> str:
    for line_a, line_b in zip(a.splitlines(), b.splitlines()):
        if line_a != line_b:
            return f"{line_a[:70]!r} -> {line_b[:70]!r}"
    return f"{len(a.splitlines())} lines -> {len(b.splitlines())} lines"


def _value_difference(a, b, path: str = "") -> str | None:
    """Where two JSON values first differ, or None.  Numbers compare as
    doubles bit for bit, so 1 and 1.0 match and 0.0 and -0.0 do not; keys
    compare in order, and the keys that only b holds are named last."""
    if type(a) in (int, float) and type(b) in (int, float):
        same = struct.pack("<d", float(a)) == struct.pack("<d", float(b))
        return None if same else f"{path}: {a!r} -> {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != [key for key in b if key in a]:
            return f"{path}: keys {list(a)} -> {list(b)}"
        for key in a:
            difference = _value_difference(a[key], b[key], f"{path}/{key}")
            if difference:
                return difference
        added = [key for key in b if key not in a]
        return f"{path or '/'}: adds {', '.join(added)}" if added else None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            difference = _value_difference(x, y, f"{path}/{i}")
            if difference:
                return difference
        return None
    return None if type(a) is type(b) and a == b else f"{path}: {a!r:.40} -> {b!r:.40}"


def _stdout_difference(a: str, b: str) -> str:
    """Where two stdouts first differ: for two JSON documents by value, so
    that a change of float text alone reads "same values", else by line."""
    try:
        values = json.loads(a), json.loads(b)
    except ValueError:  # text output
        return _first_difference(a, b)
    return _value_difference(*values) or "same values, numbers bit for bit"


def compare(base: list[dict], head: list[dict]) -> list[str]:
    """One line per command whose exit code, stdout or stderr differ."""
    lines = []
    for a, b in zip(base, head, strict=True):
        streams = [key for key in ("exit", "stdout", "stderr") if a[key] != b[key]]
        if streams:
            first = streams[0]
            detail = f"{a['exit']} -> {b['exit']}" if first == "exit" else \
                _stdout_difference(a[first], b[first]) if first == "stdout" else \
                _first_difference(a[first], b[first])
            lines.append(f"{' '.join(a['argv'])}: {', '.join(streams)} differ ({detail})")
    return lines


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--side"]:
        _side(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="revision to compare from")
    parser.add_argument("head", nargs="?", help="revision to compare to (default: working tree)")
    parser.add_argument("--write-golden", metavar="PATH",
                        help="write the working tree's stable views to PATH instead")
    args = parser.parse_args(argv)
    if (args.base is None) == (args.write_golden is None):
        parser.error("give a base revision or --write-golden")

    with tempfile.TemporaryDirectory(prefix="cli-contract-") as tmp_name:
        tmp = Path(tmp_name)
        if args.write_golden:
            views = [stable_view(r) for r in run_side(ROOT / "src", tmp, "tree")]
            lines = ",\n".join(json.dumps(view) for view in views)  # one command a line
            Path(args.write_golden).write_text(f"[\n{lines}\n]\n", encoding="utf-8")
            return 0
        sides, worktrees = [], []
        try:
            for rev in (args.base, args.head):
                if rev is None:
                    sides.append(("working tree", ROOT / "src"))
                    continue
                path = tmp / f"worktree{len(worktrees)}"
                _git("worktree", "add", "--detach", "--quiet", str(path), rev)
                worktrees.append(path)
                sides.append((f"{rev} ({_git('rev-parse', '--short', rev)})", path / "src"))
            results = [run_side(src, tmp, f"side{i}") for i, (_, src) in enumerate(sides)]
        finally:
            for path in worktrees:
                _git("worktree", "remove", "--force", str(path))
    differences = compare(*results)
    for line in differences:
        print(line)
    print(f"cli_contract: {sides[0][0]} -> {sides[1][0]}: {len(COMMANDS)} commands, "
          f"{len(COMMANDS) - len(differences)} identical, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
