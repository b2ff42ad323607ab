"""The corpus of tools/cli_contract.py against its committed golden views.

Only what floating-point rounding cannot change is compared (exit codes,
stderr, search tau lists, certify verdicts; see `stable_view`): float
matrices can change bits across BLAS builds and thread counts, so their
bytes are compared between revisions by the script, not here.  After an
intended change, rewrite the golden file with

    python3 tools/cli_contract.py --write-golden tests/cli_golden.json
"""

import json
import sys
from pathlib import Path

import dirikit

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_contract  # noqa: E402

SRC = Path(dirikit.__file__).resolve().parent.parent


def test_corpus_matches_golden(tmp_path):
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    views = [cli_contract.stable_view(r) for r in cli_contract.run_side(SRC, tmp_path, "tree")]
    assert [v["argv"] for v in views] == [g["argv"] for g in golden]
    for view, expected in zip(views, golden):
        assert view == expected, " ".join(view["argv"])
