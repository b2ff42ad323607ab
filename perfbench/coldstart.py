"""One task in a fresh interpreter, for the cold_start_s metric.

Run from the repository root with PYTHONPATH=src:

    python3 perfbench/coldstart.py cli certify PAIR.json --out OUT.json
    python3 perfbench/coldstart.py excessive GRAPH.json

``cli`` passes the remaining arguments to ``dirikit.cli.run``.
``excessive`` runs the transient excessive task of the ``excessive``
workload on one graph file.  The exit code is the task's.
"""

import sys


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        from dirikit.cli import run

        return run(argv[1:])
    from dirikit import certify, doob_pair, find_nonconstant_excessive, generator, jsonio

    with open(argv[1], encoding="utf-8") as handle:
        form = jsonio.graph_loads(handle.read())
    h = find_nonconstant_excessive(generator(form))
    if h is None:
        return 1
    form2, iso = doob_pair(form, h)
    return 0 if certify(iso, form, form2).verdict else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
