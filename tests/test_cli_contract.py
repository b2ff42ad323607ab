"""The corpus of tools/cli_contract.py against its committed golden views.

Only what floating-point rounding cannot change is compared (exit codes,
stderr, search tau lists, certify verdicts; see `stable_view`): float
matrices can change bits across BLAS builds and thread counts, so their
bytes are compared between revisions by the script, not here.  The
corpus runs under one and under two OpenBLAS threads.  After an
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


def check_golden(tmp_path, blas_threads: int) -> None:
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    results = cli_contract.run_side(SRC, tmp_path, "tree", blas_threads)
    views = [cli_contract.stable_view(r) for r in results]
    assert [v["argv"] for v in views] == [g["argv"] for g in golden]
    for view, expected in zip(views, golden):
        assert view == expected, " ".join(view["argv"])


def test_format_changes_neither_exit_nor_stderr():
    # every two commands of the corpus that differ only in --format json
    # and --format text end alike
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    runs: dict[tuple, dict] = {}
    for view in golden:
        argv = view["argv"]
        if "--format" in argv:
            at = argv.index("--format")
            rest = tuple(argv[:at] + argv[at + 2:])
            runs.setdefault(rest, {})[argv[at + 1]] = (view["exit"], view["stderr"])
    pairs = {rest: ends for rest, ends in runs.items() if len(ends) == 2}
    assert len(pairs) == 86
    for rest, ends in pairs.items():
        assert ends["json"] == ends["text"], " ".join(rest)


def test_corpus_matches_golden(tmp_path):
    check_golden(tmp_path, 1)


def test_corpus_matches_golden_under_two_blas_threads(tmp_path):
    # Sierpinski L5's spectrum and resistances change in their last bits
    # under two threads; no exit code, stderr or other stable field does
    check_golden(tmp_path, 2)
