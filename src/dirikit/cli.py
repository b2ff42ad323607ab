"""Command-line front end.

Subcommands: check, search, certify, resistance, intrinsic, decompose,
gen, gen-pair.  Graphs, isomorphisms, metrics and reports travel as JSON
(see jsonio for the schemas); "-" as a filename reads stdin.  Exit code 0
means the verdict is true / the command succeeded, 1 means a false
verdict, 2 means a usage or input error.  JSON output is the stable
machine contract; the text format is human-oriented only.

The environment variable DIRIKIT_TOL overrides the default tolerance and
is itself superseded by --tol.  --seed drives all randomized generation
through one seeded PRNG (default 0).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import beurling, jsonio, metrics, orderiso, search, spectral
from .core import generate, generator
from .errors import DirikitError
from .report import VerificationReport
from .sampling import random_intertwined_pair
from .tolerances import DEFAULT_TOL, Tolerance

_FAMILIES = ("path", "cycle", "complete", "sierpinski")


def _common_options(tol_default: str) -> argparse.ArgumentParser:
    """Options every subcommand takes; only the --tol default differs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help=f"relative tolerance override (default {tol_default} or $DIRIKIT_TOL)")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_options("1e-9")
    parser = argparse.ArgumentParser(prog="dirikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="validate a graph and print its structural predicates")
    p.add_argument("graph")

    p = sub.add_parser("search", parents=[_common_options("1e-8")],
                       help="enumerate intertwining order isomorphisms between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--max-solutions", type=int, default=1000)

    p = sub.add_parser("certify", parents=[common],
                       help="verify the rigidity identities for a candidate intertwiner")
    p.add_argument("files", nargs="+",
                   help="either G1.json G2.json U.json or one combined pair file")

    p = sub.add_parser("resistance", parents=[common],
                       help="print the effective-resistance matrix")
    p.add_argument("graph")

    p = sub.add_parser("intrinsic", parents=[common],
                       help="print the canonical intrinsic metric or check a given one")
    p.add_argument("graph")
    p.add_argument("--metric", default=None)

    p = sub.add_parser("decompose", parents=[common],
                       help="print the jump and killing measures")
    p.add_argument("graph")

    p = sub.add_parser("gen", parents=[common], help="emit a graph from a family")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--conductance", type=float, default=1.0)
    p.add_argument("--measure", type=float, default=1.0)

    p = sub.add_parser("gen-pair", parents=[common],
                       help="emit a pair of graphs guaranteed intertwined, with the witness")
    p.add_argument("--transform", choices=("relabel", "doob"), required=True)
    p.add_argument("--n", type=int, default=6)
    return parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _tolerance_value(args, default: float | None) -> float | None:
    """--tol, else $DIRIKIT_TOL, else the command's default."""
    value = args.tol
    if value is None:
        env = os.environ.get("DIRIKIT_TOL")
        if env is None:
            return default
        try:
            value = float(env)
        except ValueError:
            raise DirikitError(f"DIRIKIT_TOL is not a number: {env!r}") from None
    if value <= 0:
        raise DirikitError("tolerance must be positive")
    return value


def _tolerance(args) -> Tolerance:
    value = _tolerance_value(args, None)
    return DEFAULT_TOL if value is None else Tolerance(rel=value, abs=value * 1e-3)


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _report_text(report: VerificationReport) -> str:
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: residual={check.residual:.3e} tol={check.tol:.3e}"
        if check.detail:
            line += f" ({check.detail})"
        lines.append(line)
    lines.append("verdict: " + ("PASS" if report.verdict else "FAIL"))
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    spectrum = spectral.spectral_data(generator(form)).eigenvalues
    payload = {
        "valid": True,
        "vertices": len(form.space),
        "edges": len(form.b),
        "irreducible": spectral.is_irreducible(form),
        "recurrent": spectral.is_recurrent(form),
        "spectrum": spectrum,
    }
    if args.format == "json":
        _emit(args, jsonio.dumps(payload) + "\n")
    else:
        payload["spectrum"] = spectrum.tolist()
        lines = [f"{key}: {value}" for key, value in payload.items()]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_search(args) -> int:
    form1 = jsonio.graph_loads(_read(args.graph1))
    form2 = jsonio.graph_loads(_read(args.graph2))
    opts = search.SearchOptions(_tolerance_value(args, 1e-8), args.max_solutions)
    verdict = search.equivalence_verdict(form1, form2, opts)
    found = verdict.solutions
    payload = {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason,
        "intertwiners": [
            dict(jsonio.iso_to_obj(iso), beta=iso.beta) for iso in found
        ],
    }
    if args.format == "json":
        _emit(args, jsonio.dumps(payload) + "\n")
    else:
        lines = [f"equivalent: {verdict.equivalent}"]
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        for iso in found:
            lines.append(f"tau: {iso.tau} h: {iso.h}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if found else 1


def _cmd_certify(args) -> int:
    if len(args.files) == 1:
        pair = jsonio.loads(_read(args.files[0]))
        form1 = jsonio.graph_from_obj(pair.get("g1"))
        form2 = jsonio.graph_from_obj(pair.get("g2"))
        iso_obj = pair.get("iso")
    elif len(args.files) == 3:
        form1 = jsonio.graph_loads(_read(args.files[0]))
        form2 = jsonio.graph_loads(_read(args.files[1]))
        iso_obj = jsonio.loads(_read(args.files[2]))
    else:
        raise DirikitError("certify needs G1.json G2.json U.json or one pair file")
    iso = jsonio.iso_from_obj(iso_obj, form1.space, form2.space)
    tol = _tolerance(args)

    report = orderiso.certify(iso, form1, form2, tol)
    report.extend(beurling.verify_jump_transform(iso, form1, form2, tol))
    if spectral.is_recurrent(form1) and spectral.is_recurrent(form2):
        report.extend(metrics.verify_resistance_isometry(iso, form1, form2, tol))
        report.extend(metrics.verify_intrinsic_bijection(iso, form1, form2, tol=tol))

    if args.format == "json":
        _emit(args, jsonio.dumps(report.to_dict()) + "\n")
    else:
        _emit(args, _report_text(report))
    return 0 if report.verdict else 1


def _cmd_resistance(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    matrix = metrics.resistance_matrix(form, _tolerance(args))
    payload = {
        "vertices": list(form.space.vertices),
        "R": matrix.d,
    }
    if args.format == "json":
        _emit(args, jsonio.dumps(payload) + "\n")
    else:
        lines = ["\t".join(f"{x:.12g}" for x in row) for row in matrix.d]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_intrinsic(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    tol = _tolerance(args)
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
        metric = jsonio.metric_from_obj(jsonio.loads(_read(args.metric)), form.space)
        check = metrics.is_intrinsic(form, metric, tol)
        payload = {
            "intrinsic": check.ok,
            "slack": check.slack,
        }
    if args.format == "json":
        _emit(args, jsonio.dumps(payload) + "\n")
    else:
        _emit(args, f"intrinsic: {check.ok}\nslack: {list(check.slack)}\n")
    return 0 if check.ok else 1


def _cmd_decompose(args) -> int:
    form = jsonio.graph_loads(_read(args.graph))
    data = beurling.decompose(form)
    payload = jsonio.jump_to_obj(data)
    if args.format == "json":
        _emit(args, jsonio.dumps(payload) + "\n")
    else:
        lines = [f"J({x},{y}) = {v}" for (x, y), v in sorted(data.J.items())]
        lines += [f"k({v}) = {k}" for v, k in data.k.items()]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_gen(args) -> int:
    form = generate(args.family, args.n, conductance=args.conductance, measure=args.measure)
    _emit(args, jsonio.graph_dumps(form))
    return 0


def _cmd_gen_pair(args) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
    form1, form2, iso = random_intertwined_pair(rng, args.n, args.transform)
    payload = {
        "g1": jsonio.graph_to_obj(form1),
        "g2": jsonio.graph_to_obj(form2),
        "iso": jsonio.iso_to_obj(iso),
    }
    _emit(args, jsonio.dumps(payload) + "\n")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "search": _cmd_search,
    "certify": _cmd_certify,
    "resistance": _cmd_resistance,
    "intrinsic": _cmd_intrinsic,
    "decompose": _cmd_decompose,
    "gen": _cmd_gen,
    "gen-pair": _cmd_gen_pair,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DirikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
