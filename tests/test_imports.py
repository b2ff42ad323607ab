"""scipy is imported only where the full canonical metric is built, and
orjson only where JSON is read or written.

Everything else is numpy: importing dirikit, the other CLI paths, and the
library path find_nonconstant_excessive -> doob_pair -> certify.  The
intrinsic certificate of a recurrent pair reads the canonical metric on
edges only, whatever the data: on the seed-0 relabel pair at n 8 every
edge is its own shortest path, on the square x a b y with light a and b
the edge x y goes to the certificate's own Dijkstra, and a pair with an
edge of infinite length drops that edge.  Every CLI
command writes JSON, gen and gen-pair too, so each loads orjson; importing
dirikit.cli and that library path read and write none and load none.  The
probes run in fresh interpreters because conftest.py itself imports
scipy.

The package exports the names in PUBLIC and no others, and every
third-party module that it imports is a declared dependency.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dirikit

SRC = Path(dirikit.__file__).resolve().parent.parent

# prints one [step, exit code, whether scipy is loaded] line per step
PROBE = r"""
import contextlib, io, json, sys

def step(name, code=0):
    print(json.dumps([name, code, "scipy" in sys.modules]))

import dirikit.cli
step("import dirikit.cli")

def cli(*argv):
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        code = dirikit.cli.run(list(argv))
    step(" ".join(argv), code)

cli("gen", "--family", "cycle", "--n", "6", "--out", "c6.json")
cli("search", "c6.json", "c6.json")
cli("resistance", "c6.json")
cli("check", "c6.json")
cli("decompose", "c6.json")
with open("zero.json", "w") as handle:
    json.dump({"d": [[0.0] * 6] * 6}, handle)
cli("intrinsic", "c6.json", "--metric", "zero.json")
cli("gen-pair", "--transform", "doob", "--n", "6", "--out", "doob.json")
cli("certify", "doob.json")
cli("gen-pair", "--transform", "relabel", "--n", "8", "--out", "relabel.json")
cli("certify", "relabel.json")
# m / deg overflows at x and y: the edge x y has length inf
infinite = {"vertices": ["x", "y", "z", "w"], "m": {"x": 1e300, "y": 1e300, "z": 1.0, "w": 1.0},
            "edges": {"u": ["x", "x", "y", "z"], "v": ["y", "z", "w", "w"],
                      "b": [1e-10, 1e-10, 1e-10, 1.0]}}
with open("infinite.json", "w") as handle:
    json.dump({"g1": infinite, "g2": infinite,
               "iso": {"tau": {v: v for v in infinite["vertices"]},
                       "h": dict.fromkeys(infinite["vertices"], 1.0)}}, handle)
cli("certify", "infinite.json")

import dirikit as dk
form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.0), ("b", "c", 2.0)],
                     {"a": 0.5, "b": 0.0, "c": 0.0})
h = dk.find_nonconstant_excessive(dk.generator(form))
form2, iso = dk.doob_pair(form, h)
step("find_nonconstant_excessive -> doob_pair -> certify",
     0 if dk.certify(iso, form, form2).verdict else 1)
square = dk.build_form(["x", "y", "a", "b"], {"x": 1.0, "y": 1.0, "a": 1e-4, "b": 1e-4},
                       [("x", "y", 1.0), ("x", "a", 1.0), ("a", "b", 1.0), ("b", "y", 1.0)])
identity = dk.OrderIso.identity(square.space)
step("verify_intrinsic_bijection on the light square",
     0 if dk.verify_intrinsic_bijection(identity, square, square).verdict else 1)

cli("intrinsic", "c6.json")
"""


# the same lines, with whether orjson is loaded: importing the CLI, the
# library path, then the one command given in argv
ORJSON_PROBE = r"""
import contextlib, io, json, sys

def step(name, code=0):
    print(json.dumps([name, code, "orjson" in sys.modules]))

import dirikit.cli
step("import dirikit.cli")

import dirikit as dk
form = dk.build_form(["a", "b", "c"], 1.0, [("a", "b", 1.0), ("b", "c", 2.0)],
                     {"a": 0.5, "b": 0.0, "c": 0.0})
h = dk.find_nonconstant_excessive(dk.generator(form))
form2, iso = dk.doob_pair(form, h)
step("find_nonconstant_excessive -> doob_pair -> certify",
     0 if dk.certify(iso, form, form2).verdict else 1)

with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
    code = dirikit.cli.run(sys.argv[1:])
step(" ".join(sys.argv[1:]), code)
"""


def _probe(script: str, workdir, *argv: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    return _probe(PROBE, tmp_path_factory.mktemp("probe"))


def test_numpy_only_paths(steps):
    *numpy_only, _ = steps
    assert len(numpy_only) == 14
    for name, code, scipy_loaded in numpy_only:
        assert code == 0, name
        assert not scipy_loaded, f"scipy imported by: {name}"


def test_canonical_metric_loads_scipy(steps):
    name, code, scipy_loaded = steps[-1]
    assert name == "intrinsic c6.json"
    assert code == 0
    assert scipy_loaded


def test_orjson_only_where_json_is_read_or_written(tmp_path):
    for argv in (["gen", "--family", "cycle", "--n", "6"],
                 ["gen-pair", "--transform", "doob", "--n", "6"]):
        *no_json, (name, code, orjson_loaded) = _probe(ORJSON_PROBE, tmp_path, *argv)
        assert [step for step, _, _ in no_json] == [
            "import dirikit.cli", "find_nonconstant_excessive -> doob_pair -> certify"]
        for step, step_code, loaded in no_json:
            assert step_code == 0, step
            assert not loaded, f"orjson imported by: {step}"
        assert (name, code, orjson_loaded) == (" ".join(argv), 0, True)


def test_third_party_imports_are_declared():
    """Every top-level module outside the standard library that a module of
    src/ imports, at its top or inside a function, is a dependency in
    pyproject.toml."""
    imported = set()
    for path in Path(dirikit.__file__).resolve().parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "dirikit"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["project"]["dependencies"]}
    assert {"numpy", "orjson", "scipy"} <= third_party <= declared


PUBLIC = [
    "Check", "DEFAULT_TOL", "DirikitError", "EquivalenceVerdict", "GraphForm",
    "MeasureSpace", "OrderIso", "PseudoMetric", "SearchOptions", "Tolerance",
    "VerificationReport", "build_form", "canonical_intrinsic_metric", "certify",
    "doob_pair", "effective_resistance", "equivalence_verdict", "find_intertwiners",
    "find_nonconstant_excessive", "generate", "generator", "intertwining_residual",
    "is_excessive", "is_intrinsic", "is_irreducible", "is_recurrent", "resistance_matrix",
    "semigroup", "sierpinski_corners", "spectral_data", "verify_intrinsic_bijection",
    "verify_jump_transform", "verify_resistance_isometry",
]


def test_public_surface():
    """The package exports what the CLI and the certificates use, and every
    public name that dirikit/__init__.py binds is in __all__."""
    assert sorted(dirikit.__all__) == PUBLIC
    tree = ast.parse(Path(dirikit.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == set(PUBLIC)
