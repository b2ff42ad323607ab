"""Seeded mutation fuzz of the CLI on the valid documents of the contract
corpus (tools/cli_contract.py).

One leaf of a graph or pair document is replaced by an extreme or
ill-typed value: the least subnormal, 1e+-308, an int of 401 digits that
no float holds, -0.0, a boolean, null or a string.  Every command then
ends in exit 0, 1 or 2, exit 2 with exactly one `error:` line on stderr,
with no traceback and no warning.  A per-entry bound of 0 (a one-vertex
recurrent form) or a subnormal one (conductances of 1e-310) is where a
guard could divide badly, so those documents are among the inputs.
"""

import contextlib
import io
import json
import random
import sys
import warnings
from pathlib import Path

import pytest

from dirikit import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_contract  # noqa: E402

GRAPHS = ("sierpinski2", "complete5", "cycle8", "path3", "path12", "complete6subnormal")
PAIRS = ("relabel6s1", "doob6s1")
LEAVES = (5e-324, 1e308, -1e308, 1e-308, 10**400, -0.0, True, False, None, "x")
GRAPH_COMMANDS = (["check"], ["resistance"], ["intrinsic"], ["decompose"])


def run(argv):
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(argv)
    return code, err.getvalue()


def leaves(doc, path=()):
    """The paths of the leaves of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in leaves(value, path + (key,))]


def mutated(doc, rng):
    """A copy of ``doc`` with one random leaf replaced by one of LEAVES."""
    doc = json.loads(json.dumps(doc))
    *parents, last = rng.choice(leaves(doc))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = rng.choice(LEAVES)
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The corpus's small graphs, a one-vertex graph, and its n = 6 pairs."""
    work = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name in GRAPHS:
        path = work / f"{name}.json"
        assert run(["gen", *cli_contract.GEN[name], "--out", str(path)])[0] == 0
        docs[name] = json.loads(path.read_text())
    docs["single_vertex"] = json.loads(cli_contract.INVALID["single_vertex"])
    for name in PAIRS:
        path = work / f"{name}.json"
        assert run(["gen-pair", *cli_contract.PAIRS[name], "--out", str(path)])[0] == 0
        docs[name] = json.loads(path.read_text())
    return work, docs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_documents(documents, seed):
    work, docs = documents
    rng = random.Random(seed)
    commands = 0
    for name, doc in docs.items():
        for _ in range(8):
            bad = mutated(doc, rng)
            if name in PAIRS:
                paths = []
                for part in ("g1", "g2"):
                    paths.append(work / f"{part}.json")
                    paths[-1].write_text(json.dumps(bad[part]))
                (work / "pair.json").write_text(json.dumps(bad))
                argvs = [["certify", str(work / "pair.json")],
                         ["search", *map(str, paths)]]
            else:
                path = work / "graph.json"
                path.write_text(json.dumps(bad))
                argvs = [cmd + [str(path)] for cmd in GRAPH_COMMANDS]
                argvs.append(["search", str(path), str(path)])
            for argv in argvs:
                code, err = run(argv)
                commands += 1
                assert code in (0, 1, 2), (argv, bad)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (err, bad)
                else:
                    assert err == "", (err, bad)
    assert commands == 8 * (5 * (len(GRAPHS) + 1) + 2 * len(PAIRS))
