"""Command-line front end.

Subcommands: check, search, certify, resistance, intrinsic, decompose,
gen, gen-pair.  Graphs, isomorphisms, metrics and reports travel as JSON
(see jsonio for the schemas); "-" as a filename reads stdin.  Every input
is decoded from UTF-8 bytes whatever the locale, and bytes that are not
UTF-8 are an input error.  Exit code 0 means the verdict is true / the
command succeeded, 1 means a false verdict, 2 means a usage or input
error.  For certify, 1 means a candidate within the intertwining bound
that fails some identity; a candidate whose intertwining residual exceeds
the bound is an input error (2).  JSON output is the stable machine
contract, and a text run builds it too, so exit code and stderr never
depend on --format; the text format is human-oriented only.

Each command takes only the flags it reads: --out FILE on every command,
--format json|text on all but gen and gen-pair (JSON only), --tol on
search, certify and intrinsic, and --seed (default 0, >= 0) on gen-pair.
--tol X means Tolerance(rel=X): every bound is X times the size of what it
compares.  A value that is not positive and finite is an input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import jsonio, metrics, search
from .core import generate
from .errors import DirikitError, InvalidSize
from .report import VerificationReport
from .sampling import random_intertwined_pair
from .tolerances import DEFAULT_TOL, Tolerance

_FAMILIES = ("path", "cycle", "complete", "sierpinski")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help="relative tolerance TOL (default 1e-9, or 1e-8 for search)")
    formatted, checked = [fmt, out], [tol, fmt, out]
    parser = argparse.ArgumentParser(prog="dirikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=formatted,
                       help="validate a graph and print its structural predicates")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("search", parents=checked,
                       help="enumerate intertwining order isomorphisms between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--max-solutions", type=int, default=1000)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("certify", parents=checked,
                       help="verify the rigidity identities for a candidate intertwiner")
    p.add_argument("files", nargs="+",
                   help="either G1.json G2.json U.json or one combined pair file")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("resistance", parents=formatted,
                       help="print the effective-resistance matrix")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_resistance)

    p = sub.add_parser("intrinsic", parents=checked,
                       help="print the canonical intrinsic metric or check a given one")
    p.add_argument("graph")
    p.add_argument("--metric", default=None)
    p.set_defaults(handler=_cmd_intrinsic)

    p = sub.add_parser("decompose", parents=formatted,
                       help="print the jump and killing measures")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_decompose)

    # graphs and pairs are JSON only
    p = sub.add_parser("gen", parents=[out], help="emit a graph from a family")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--conductance", type=float, default=1.0)
    p.add_argument("--measure", type=float, default=1.0)
    p.set_defaults(handler=_cmd_gen, format="json")

    p = sub.add_parser("gen-pair", parents=[out],
                       help="emit a pair of graphs guaranteed intertwined, with the witness")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--transform", choices=("relabel", "doob"), required=True)
    p.add_argument("--n", type=int, default=6)
    p.set_defaults(handler=_cmd_gen_pair, format="json")
    return parser


def _read(path: str) -> bytes:
    """The bytes of a file, or of stdin for "-", whatever the locale:
    ``jsonio.loads`` reads them as UTF-8, and raises MalformedInput when
    they are not."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _tolerance(args, default: Tolerance) -> Tolerance:
    """Tolerance(rel=X) for X from --tol, else the command's default."""
    return default if args.tol is None else Tolerance(rel=args.tol)


def _output(args, payload, text=None) -> None:
    """Write the payload as a JSON document, or for --format text the
    string that ``text()`` builds, as UTF-8 bytes to --out or stdout, so
    that the locale plays no part.  The document is built in both formats,
    the one check that a payload can be written.  The bytes are built
    before --out opens, so a payload that cannot be written leaves no file."""
    document = jsonio.document(payload)
    data = text().encode() if args.format == "text" else document
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _report_text(report: VerificationReport) -> str:
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: residual={check.residual:.3e} tol={check.tol:.3e}"
        if check.detail:
            line += f" ({check.detail})"
        lines.append(line)
    lines.append("verdict: " + ("PASS" if report.verdict else "FAIL"))
    return _lines(lines)


def _search_text(verdict: search.EquivalenceVerdict) -> str:
    lines = [f"equivalent: {verdict.equivalent}"]
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    lines.append(f"capped: {verdict.capped}")
    # tau and h in sorted target-id order, the order the search assigns in
    lines += [f"tau: {dict(sorted(iso.tau.items()))} h: {dict(sorted(iso.h.items()))}"
              for iso in verdict.solutions]
    return _lines(lines)


def _cmd_check(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    spectrum = form.spectrum
    payload = {
        "valid": True,
        "vertices": len(form.space),
        "edges": len(form.weights),
        "irreducible": form.irreducible,
        "recurrent": form.recurrent,
        "spectrum": spectrum,
    }
    _output(args, payload, lambda: _lines(
        f"{key}: {value}" for key, value in dict(payload, spectrum=spectrum.tolist()).items()))
    return 0


def _cmd_search(args) -> int:
    form1 = jsonio.graph_loads(_read(args.graph1))
    form2 = jsonio.graph_loads(_read(args.graph2))
    opts = search.SearchOptions(_tolerance(args, search.SearchOptions.tol), args.max_solutions)
    verdict = search.equivalence_verdict(form1, form2, opts)
    payload = {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason,
        "intertwiners": verdict.solutions,
        "capped": verdict.capped,
    }
    _output(args, payload, lambda: _search_text(verdict))
    return 0 if verdict.equivalent else 1


def _cmd_certify(args) -> int:
    if len(args.files) == 1:
        pair = jsonio.loads(_read(args.files[0]))
    elif len(args.files) == 3:
        pair = {key: jsonio.loads(_read(path))
                for key, path in zip(("g1", "g2", "iso"), args.files)}
    else:
        raise DirikitError("certify needs G1.json G2.json U.json or one pair file")
    form1, form2, iso = jsonio.pair_from_obj(pair)
    # the checks of the four certificates behind one guard
    report = metrics._certificate(iso, form1, form2, _tolerance(args, DEFAULT_TOL))
    _output(args, report.to_dict(), lambda: _report_text(report))
    return 0 if report.verdict else 1


def _cmd_resistance(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    matrix = metrics.resistance_matrix(form)
    payload = {
        "vertices": list(form.space.vertices),
        "R": matrix.d,
    }
    _output(args, payload,
            lambda: _lines("\t".join(f"{x:.12g}" for x in row) for row in matrix.d))
    return 0


def _cmd_intrinsic(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    tol = _tolerance(args, DEFAULT_TOL)
    if args.metric is None:
        metric = metrics.canonical_intrinsic_metric(form)
        check = metrics.is_intrinsic(form, metric, tol)
        payload = {
            "vertices": list(form.space.vertices),
            "d": metric.d,
            "slack": check.slack,
            "intrinsic": check.ok,
        }
    else:
        metric = jsonio.metric_from_obj(jsonio.loads(_read(args.metric)), form.space, tol)
        check = metrics.is_intrinsic(form, metric, tol)
        payload = {
            "intrinsic": check.ok,
            "slack": check.slack,
        }
    _output(args, payload, lambda: f"intrinsic: {check.ok}\nslack: {check.slack.tolist()}\n")
    return 0 if check.ok else 1


def _cmd_decompose(args) -> int:
    payload = jsonio.jump_to_obj(jsonio.graph_loads(_read(args.graph)))
    _output(args, payload, lambda: _lines(
        [f"J({j['x']},{j['y']}) = {j['value']}" for j in payload["J"]]
        + [f"k({v}) = {k}" for v, k in payload["k"].items()]))
    return 0


def _cmd_gen(args) -> int:
    form = generate(args.family, args.n, conductance=args.conductance, measure=args.measure)
    _output(args, jsonio.graph_to_obj(form))
    return 0


def _cmd_gen_pair(args) -> int:
    if args.seed < 0:  # numpy's SeedSequence refuses it with a ValueError
        raise InvalidSize(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    form1, form2, iso = random_intertwined_pair(rng, args.n, args.transform)
    _output(args, jsonio.pair_to_obj(form1, form2, iso))
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DirikitError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
