"""The four benchmark workloads: inputs from a seed, tasks and oracles.

Every workload is a list of task kinds.  A kind has a weight (how often it
runs per round) and a few instances (distinct inputs of the same shape);
see README.md for why each workload exists and which layers it reaches.

A task has three parts:

* ``run``: the timed call, through the public CLI entry point
  ``dirikit.cli.run(argv)`` with ``--out`` (or through the library where
  the CLI has no subcommand);
* ``traced``: the same work as a sequence of public library calls, each
  inside a span, writing the same output file;
* ``check``: the output oracle, run outside the timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import dirikit as dk
from dirikit import cli, jsonio
from dirikit import search as dk_search
from dirikit.sampling import (
    doob_pair_sample,
    random_form,
    random_intertwined_pair,
    relabel_pair,
)

from layers import SPECTRAL_TOL, Spans


@dataclass
class Task:
    run: Callable[[], Any]
    traced: Callable[[Spans], Any]
    check: Callable[[Any], bool]


@dataclass
class Kind:
    name: str
    weight: int
    tasks: list[Task]


@dataclass
class Workload:
    kinds: list[Kind]
    tail_pct: float  # fixed per workload so runs of different commits compare
    cold_argv: list[str]  # arguments of coldstart.py for the smallest task
    probe: dict = field(default_factory=dict)  # inputs for isolated layer calls


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def _take(out: Path) -> Any:
    """Parse and remove an output file, so a stale file never passes."""
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _write(spans: Spans, out: Path, payload) -> None:
    with spans("jsonio.dumps"):
        text = jsonio.dumps(payload) + "\n"
    spans.value("jsonio.output_bytes", len(text))
    out.write_text(text)


def _pair_obj(form1, form2, iso_obj) -> dict:
    return {"g1": jsonio.graph_to_obj(form1), "g2": jsonio.graph_to_obj(form2), "iso": iso_obj}


def _write_json(path: Path, obj) -> Path:
    # stdlib json: float repr round-trips doubles exactly, and input writing
    # stays cheap next to the tasks it feeds
    path.write_text(json.dumps(obj) + "\n")
    return path


def _identity_pairs(forms):
    return [(form, form, dk.OrderIso.identity(form.space)) for form in forms]


def _sierpinski_form(rng: np.random.Generator, level: int):
    """A Sierpinski gasket with seeded uniform conductance and measure and a
    seeded vertex order; returns the form and its conductance."""
    conductance = float(rng.uniform(0.5, 2.0))
    base = dk.generate("sierpinski", level, conductance=conductance,
                       measure=float(rng.uniform(0.5, 2.0)))
    order = [base.space.vertices[i] for i in rng.permutation(len(base.space))]
    m = {v: base.space.m[base.space.index(v)] for v in order}
    return dk.build_form(order, m, base.b), conductance


def _symmetric_form(rng: np.random.Generator, family: str, n: int):
    return dk.generate(family, n, conductance=float(rng.uniform(0.5, 2.0)),
                       measure=float(rng.uniform(0.5, 2.0)))


def _relabel(rng: np.random.Generator, form, order_rng: np.random.Generator | None = None):
    """A relabeled, rescaled copy; ``order_rng``, when given, draws the
    vertex permutation in place of ``rng``."""
    scale = float(rng.uniform(0.5, 2.0))
    form2, iso = relabel_pair(order_rng or rng, form, scale=scale)
    return form, form2, iso


def _fixed_relabel(rng: np.random.Generator, form):
    """A relabeled copy whose permutation is the same for every seed.

    The search DFS visits vertices in label order, so on symmetric inputs
    its cost depends on the permutation: C12 took 104 to 311 ms across
    seeds.  A fixed permutation keeps the tail a property of the program;
    the seed still draws the weights and the scale.
    """
    return _relabel(rng, form, np.random.Generator(np.random.PCG64(0)))


# ---------------------------------------------------------------------------
# certify: `dirikit certify PAIR.json`


def _certify_traced(path: Path, out: Path, spans: Spans) -> tuple[int, str]:
    """The work of `dirikit certify PAIR.json --out OUT`, call by call."""
    tol = dk.DEFAULT_TOL
    with spans("jsonio.load"):
        pair = jsonio.loads(path.read_text())
        form1 = jsonio.graph_from_obj(pair["g1"])
        form2 = jsonio.graph_from_obj(pair["g2"])
        iso = jsonio.iso_from_obj(pair["iso"], form1.space, form2.space)
    try:
        with spans("orderiso.certify"):
            report = dk.certify(iso, form1, form2, tol)
        with spans("beurling.verify_jump_transform"):
            report.extend(dk.verify_jump_transform(iso, form1, form2, tol))
        if dk.is_recurrent(form1) and dk.is_recurrent(form2):
            with spans("metrics.verify_resistance_isometry"):
                report.extend(dk.verify_resistance_isometry(iso, form1, form2, tol))
            with spans("metrics.verify_intrinsic_bijection"):
                report.extend(dk.verify_intrinsic_bijection(iso, form1, form2, tol=tol))
    except dk.DirikitError as exc:
        return 2, f"error: {exc}\n"
    _write(spans, out, report.to_dict())
    return (0 if report.verdict else 1), ""


_NUMBER = r"([-+0-9.eE]+|inf|nan)"


def _certify_check(expect: str, out: Path) -> Callable[[Any], bool]:
    """relabel: exit 0, beta = 1, constant scaling and the recurrent checks;
    doob: exit 0, beta = 1, scaling_constancy skipped with h max/min > 1;
    negative (two tau entries swapped): exit 2 on the intertwining residual."""

    def check(result) -> bool:
        code, err = result
        if expect == "negative":
            present = out.exists()
            out.unlink(missing_ok=True)
            return code == 2 and "intertwining residual" in err and not present
        if code != 0 or err:
            out.unlink(missing_ok=True)
            return False
        report = _take(out)
        checks = {c["name"]: c for c in report["checks"]}
        beta = re.search("beta=" + _NUMBER, checks["operator_constant"].get("detail", ""))
        if not (report["verdict"] and beta and abs(float(beta.group(1)) - 1.0) <= 1e-9):
            return False
        constancy = checks.get("scaling_constancy", {})
        detail = constancy.get("detail", "")
        if expect == "doob":
            ratio = re.search("ratio = " + _NUMBER, detail)
            return detail.startswith("skipped") and bool(ratio) and float(ratio.group(1)) > 1.0
        return (
            "scaling_constancy" in checks
            and not detail.startswith("skipped")
            and "resistance_isometry" in checks
            and any(name.startswith("intrinsic_pushforward_") for name in checks)
        )

    return check


# With these weights the median task is a transient doob160 pair (no
# metrics checks) and the p88 tail a recurrent relabel160 pair, a third
# of the way into that kind's 3 in 16 tasks.  Each sits inside one kind's
# latency band, at least 1.8x from the neighbouring bands.
CERTIFY_WEIGHTS = {"doob160": 6, "relabel160": 3}


def build_certify(rng: np.random.Generator, work: Path, instances: int) -> Workload:
    kinds: list[Kind] = []
    pairs, recurrent_pairs = [], []
    cold = None
    for n in (40, 80, 160):
        by_kind: dict[str, list[Task]] = {"relabel": [], "doob": [], "negative": []}
        for i in range(instances):
            form1, form2, iso = _relabel(rng, random_form(rng, n, recurrent=True))
            recurrent_pairs.append((form1, form2, iso))
            tau = dict(iso.tau)
            y0, y1 = list(tau)[:2]
            tau[y0], tau[y1] = tau[y1], tau[y0]
            swapped = {"tau": tau, "h": jsonio.iso_to_obj(iso)["h"]}
            doob = doob_pair_sample(rng, n)
            pairs += [(form1, form2, iso), doob]
            inputs = {
                "relabel": _pair_obj(form1, form2, jsonio.iso_to_obj(iso)),
                "doob": _pair_obj(doob[0], doob[1], jsonio.iso_to_obj(doob[2])),
                "negative": _pair_obj(form1, form2, swapped),
            }
            for expect, obj in inputs.items():
                path = _write_json(work / f"certify-{expect}{n}-{i}.json", obj)
                out = work / f"certify-{expect}{n}-{i}.out.json"
                argv = ["certify", str(path), "--out", str(out)]
                if cold is None and expect == "relabel":
                    cold = ["cli"] + argv
                by_kind[expect].append(Task(
                    run=lambda argv=argv: _cli(argv),
                    traced=lambda spans, path=path, out=out: _certify_traced(path, out, spans),
                    check=_certify_check(expect, out),
                ))
        for expect, tasks in by_kind.items():
            kinds.append(Kind(f"{expect}{n}", CERTIFY_WEIGHTS.get(f"{expect}{n}", 1), tasks))
    probe = {
        "forms": [p[0] for p in pairs],
        "pairs": pairs,
        "recurrent_pairs": recurrent_pairs,
    }
    return Workload(kinds, 88.0, cold, probe)


# ---------------------------------------------------------------------------
# search: `dirikit search G1.json G2.json [--max-solutions K]`


def _search_traced(paths, cap: int, label: str, out: Path, spans: Spans) -> tuple[int, str]:
    """The work of `dirikit search G1 G2 --out OUT`, call by call."""
    with spans("jsonio.load"):
        form1 = jsonio.graph_loads(paths[0].read_text())
        form2 = jsonio.graph_loads(paths[1].read_text())
    opts = dk.SearchOptions(max_solutions=cap)
    if not (dk.is_irreducible(form1) and dk.is_irreducible(form2)):
        return 2, "error: intertwiner search requires irreducible forms\n"
    if len(form1.space) != len(form2.space):
        found, reason = [], "size"
    else:
        with spans("search.spectra_match"):
            match = dk_search.spectra_match(form1, form2, SPECTRAL_TOL)
        if not match:
            found, reason = [], "spectrum"
        else:
            with spans(f"search.find_intertwiners.{label}"):
                found = dk.find_intertwiners(form1, form2, opts)
            reason = None if found else "exhausted"
    payload = {
        "equivalent": bool(found),
        "reason": reason,
        "intertwiners": [dict(jsonio.iso_to_obj(iso), beta=iso.beta) for iso in found],
    }
    _write(spans, out, payload)
    return (0 if found else 1), ""


def _search_check(form1, form2, expected: int, out: Path) -> Callable[[Any], bool]:
    """expected > 0: exit 0 with exactly that many intertwiners, the first
    of which certifies; expected == 0: exit 1 with reason "spectrum"."""

    def check(result) -> bool:
        code, err = result
        if err or not out.exists():
            out.unlink(missing_ok=True)
            return False
        payload = _take(out)
        found = payload["intertwiners"]
        if expected == 0:
            return code == 1 and not payload["equivalent"] and payload["reason"] == "spectrum"
        if code != 0 or not payload["equivalent"] or len(found) != expected:
            return False
        iso = jsonio.iso_from_obj(found[0], form1.space, form2.space)
        return dk.certify(iso, form1, form2).verdict

    return check


def _perturbed(rng: np.random.Generator, form):
    """A relabeled copy with one conductance scaled by 1.5: same graph,
    different spectrum, so the search stops at the spectral filter."""
    _, form2, _ = _relabel(rng, form)
    b = dict(form2.b)
    edge = sorted(b)[int(rng.integers(len(b)))]
    b[edge] *= 1.5
    return form, dk.GraphForm(form2.space, b, form2.c)


def build_search(rng: np.random.Generator, work: Path, instances: int) -> Workload:
    # (kind, weight, pair maker, --max-solutions, expected count, span label)
    # Cheap kinds are 8 of 13 tasks, so the median is a relabel80 search
    # (eigh and candidate filter); C12, the slowest DFS, has weight 2 so the
    # p90 tail sits inside its band.
    specs = [
        ("relabel40", 3, lambda: random_intertwined_pair(rng, 40, "relabel"), 1000, 1, "random"),
        ("relabel80", 3, lambda: random_intertwined_pair(rng, 80, "relabel"), 1000, 1, "random"),
        ("mismatch40", 1, lambda: _perturbed(rng, random_form(rng, 40)), 1000, 0, "random"),
        ("mismatch80", 1, lambda: _perturbed(rng, random_form(rng, 80)), 1000, 0, "random"),
        ("K6", 1, lambda: _fixed_relabel(rng, _symmetric_form(rng, "complete", 6)), 1000, 720,
         "symmetric"),
        ("K7max1", 1, lambda: _fixed_relabel(rng, _symmetric_form(rng, "complete", 7)), 1, 1,
         "symmetric"),
        ("C12", 2, lambda: _fixed_relabel(rng, _symmetric_form(rng, "cycle", 12)), 1000, 24,
         "symmetric"),
        ("sierpinski2", 1, lambda: _fixed_relabel(rng, _symmetric_form(rng, "sierpinski", 2)),
         1000, 6, "symmetric"),
    ]
    kinds: list[Kind] = []
    forms, pairs, symmetric, random_pairs = [], [], [], []
    cold = None
    for kind, weight, make, cap, expected, label in specs:
        tasks = []
        for i in range(instances):
            made = make()
            form1, form2 = made[0], made[1]
            forms.append(form1)
            if label == "symmetric":
                symmetric.append((form1, form2, cap, expected))
            if expected:
                pairs.append(made)
                if label == "random":
                    random_pairs.append(made)
            paths = [
                _write_json(work / f"search-{kind}-{i}-{side}.json", jsonio.graph_to_obj(form))
                for side, form in (("g1", form1), ("g2", form2))
            ]
            out = work / f"search-{kind}-{i}.out.json"
            argv = ["search", str(paths[0]), str(paths[1]), "--max-solutions", str(cap),
                    "--out", str(out)]
            if cold is None:
                cold = ["cli"] + argv
            tasks.append(Task(
                run=lambda argv=argv: _cli(argv),
                traced=lambda spans, paths=paths, cap=cap, label=label, out=out:
                    _search_traced(paths, cap, label, out, spans),
                check=_search_check(form1, form2, expected, out),
            ))
        kinds.append(Kind(kind, weight, tasks))
    probe = {
        "forms": forms,
        "pairs": pairs,
        "recurrent_pairs": [p for p in pairs if dk.is_recurrent(p[0])],
        # one instance of each symmetric kind, so search.solutions is exact
        "symmetric": symmetric[::instances],
        "random_pairs": random_pairs,
    }
    return Workload(kinds, 90.0, cold, probe)


# ---------------------------------------------------------------------------
# geometry: `dirikit resistance|intrinsic|check G.json` on Sierpinski L3-L5


def _geometry_traced(command: str, path: Path, out: Path, spans: Spans) -> tuple[int, str]:
    """The work of `dirikit <command> G.json --out OUT`, call by call."""
    with spans("jsonio.load"):
        form = jsonio.graph_loads(path.read_text())
    code = 0
    if command == "resistance":
        with spans("metrics.resistance_matrix"):
            metric = dk.resistance_matrix(form)
        payload = {
            "vertices": list(form.space.vertices),
            "R": [[float(x) for x in row] for row in metric.d],
        }
    elif command == "intrinsic":
        with spans("metrics.canonical_intrinsic_metric"):
            metric = dk.canonical_intrinsic_metric(form)
        with spans("metrics.is_intrinsic"):
            intrinsic = dk.is_intrinsic(form, metric)
        payload = {
            "vertices": list(form.space.vertices),
            "d": [[float(x) for x in row] for row in metric.d],
            "slack": [float(s) for s in intrinsic.slack],
            "intrinsic": intrinsic.ok,
        }
        code = 0 if intrinsic.ok else 1
    else:
        with spans("core.generator"):
            gen = dk.generator(form)
        with spans("spectral.spectral_data"):
            spectrum = dk.spectral_data(gen).eigenvalues
        payload = {
            "valid": True,
            "vertices": len(form.space),
            "edges": len(form.b),
            "irreducible": dk.is_irreducible(form),
            "recurrent": dk.is_recurrent(form),
            "spectrum": [float(w) for w in spectrum],
        }
    _write(spans, out, payload)
    return code, ""


def _geometry_check(command: str, level: int, conductance: float, corners,
                    out: Path) -> Callable[[Any], bool]:
    """resistance: corner-to-corner R = (2/3)(5/3)^L / conductance to rel
    1e-9; intrinsic: exit 0 and intrinsic; check: irreducible, recurrent
    and lowest eigenvalue 0."""

    def check(result) -> bool:
        code, err = result
        if code != 0 or err or not out.exists():
            out.unlink(missing_ok=True)
            return False
        payload = _take(out)
        if command == "resistance":
            index = {v: i for i, v in enumerate(payload["vertices"])}
            got = payload["R"][index[corners[0]]][index[corners[1]]]
            want = (2.0 / 3.0) * (5.0 / 3.0) ** level / conductance
            return abs(got - want) <= 1e-9 * want
        if command == "intrinsic":
            return payload["intrinsic"] is True
        spectrum = payload["spectrum"]
        return (payload["irreducible"] and payload["recurrent"]
                and abs(spectrum[0]) <= 1e-9 * max(1.0, spectrum[-1]))

    return check


def build_geometry(rng: np.random.Generator, work: Path, instances: int) -> Workload:
    kinds: list[Kind] = []
    forms = []
    cold = None
    for level in (3, 4, 5):
        by_command: dict[str, list[Task]] = {"resistance": [], "intrinsic": [], "check": []}
        corners = dk.sierpinski_corners(level)
        for i in range(instances):
            form, conductance = _sierpinski_form(rng, level)
            forms.append(form)
            path = _write_json(work / f"geometry-L{level}-{i}.json", jsonio.graph_to_obj(form))
            for command, tasks in by_command.items():
                out = work / f"geometry-{command}-L{level}-{i}.out.json"
                argv = [command, str(path), "--out", str(out)]
                if cold is None:
                    cold = ["cli"] + argv
                tasks.append(Task(
                    run=lambda argv=argv: _cli(argv),
                    traced=lambda spans, c=command, p=path, o=out: _geometry_traced(c, p, o, spans),
                    check=_geometry_check(command, level, conductance, corners, out),
                ))
        kinds += [Kind(f"{command}L{level}", 1, tasks) for command, tasks in by_command.items()]
    # one form per level: the L5 metric checks take seconds each
    levels = forms[::instances]
    probe = {
        "forms": levels,
        "pairs": _identity_pairs(levels),
        "recurrent_pairs": _identity_pairs(levels),
    }
    # L5 resistance and intrinsic are 2 of 9 tasks, 12x slower than the
    # rest: p85 sits a third of the way into their band
    return Workload(kinds, 85.0, cold, probe)


# ---------------------------------------------------------------------------
# excessive: `find_nonconstant_excessive` through the library (no subcommand)


def _random_cycle(rng: np.random.Generator, n: int):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], float(rng.uniform(0.5, 2.0))) for i in range(n)]
    return dk.build_form(names, rng.uniform(0.5, 2.0, size=n), edges)


def excessive_task(form) -> tuple:
    """Recurrent: the search result.  Transient: the search result, then
    is_excessive, doob_pair and certify on the found h."""
    gen = dk.generator(form)
    h = dk.find_nonconstant_excessive(gen)
    if h is None or dk.is_recurrent(form):
        return h, None, None
    excessive = dk.is_excessive(gen, h)
    form2, iso = dk.doob_pair(form, h)
    return h, excessive, dk.certify(iso, form, form2).verdict


def _excessive_traced(form, spans: Spans) -> tuple:
    with spans("core.generator"):
        gen = dk.generator(form)
    if dk.is_recurrent(form):
        with spans("spectral.find_nonconstant_excessive.recurrent"):
            return dk.find_nonconstant_excessive(gen), None, None
    with spans("spectral.find_nonconstant_excessive.transient"):
        h = dk.find_nonconstant_excessive(gen)
    if h is None:
        return h, None, None
    with spans("spectral.is_excessive"):
        excessive = dk.is_excessive(gen, h)
    with spans("orderiso.doob_pair"):
        form2, iso = dk.doob_pair(form, h)
    with spans("orderiso.certify"):
        verdict = dk.certify(iso, form, form2).verdict
    return h, excessive, verdict


def _excessive_check(recurrent: bool) -> Callable[[Any], bool]:
    """Recurrent forms give None; transient forms give a nonconstant h that
    is excessive and whose Doob pair certifies."""

    def check(result) -> bool:
        h, excessive, verdict = result
        if recurrent:
            return h is None
        return (h is not None and float(np.max(h) / np.min(h)) > 1.0 + 1e-6
                and excessive is True and verdict is True)

    return check


def _transient(rng: np.random.Generator, n: int):
    """A random transient form with killing at its first vertex.

    The LP sweep tries vertex pairs in order and the first pair succeeds
    only when the first vertex carries killing; elsewhere the task time
    ranges from 2 to 320 ms with where the killing sits, which would make
    the median depend on the seed.
    """
    form = random_form(rng, n, recurrent=False)
    c = form.c.copy()
    c[0] = max(c[0], float(rng.uniform(0.5, 2.0)))
    return dk.GraphForm(form.space, form.b, c)


def build_excessive(rng: np.random.Generator, work: Path, instances: int) -> Workload:
    makers = {
        "cycle": _random_cycle,
        "recurrent": lambda rng, n: random_form(rng, n, recurrent=True),
        "transient": _transient,
    }
    kinds: list[Kind] = []
    forms = []
    cold = None
    for n in (8, 12, 16):
        for family, make in makers.items():
            recurrent = family != "transient"
            tasks = []
            for i in range(instances):
                form = make(rng, n)
                forms.append(form)
                if cold is None and not recurrent:
                    path = _write_json(work / f"excessive-{family}{n}-{i}.json",
                                       jsonio.graph_to_obj(form))
                    cold = ["excessive", str(path)]
                tasks.append(Task(
                    run=lambda form=form: excessive_task(form),
                    traced=lambda spans, form=form: _excessive_traced(form, spans),
                    check=_excessive_check(recurrent),
                ))
            # transient tasks are cheap: 24 of 30 per round, so the median is
            # one, while the n = 16 recurrent sweeps are the p95 tail
            kinds.append(Kind(f"{family}{n}", 1 if recurrent else 8, tasks))
    recurrent_forms = [f for f in forms if dk.is_recurrent(f)]
    probe = {
        "forms": forms,
        "pairs": _identity_pairs(forms),
        "recurrent_pairs": _identity_pairs(recurrent_forms),
    }
    return Workload(kinds, 95.0, cold, probe)


BY_NAME = {
    "certify": build_certify,
    "search": build_search,
    "geometry": build_geometry,
    "excessive": build_excessive,
}


def common_probe_inputs(rng: np.random.Generator) -> dict:
    """Fixed-shape inputs for layers a workload's tasks never reach.

    The peak-memory probes always run on Sierpinski L5 (366 vertices),
    the largest input of any workload, and the recurrent LP sweep on a
    16-cycle (240 LPs), the size ROADMAP quotes.
    """
    c8 = _symmetric_form(rng, "cycle", 8)
    c8_pair = _fixed_relabel(rng, c8)
    return {
        "symmetric": [(c8_pair[0], c8_pair[1], 1000, 16)],
        "random_pairs": [random_intertwined_pair(rng, 40, "relabel")],
        "recurrent_small": [_random_cycle(rng, 16)],
        "transient_small": [_transient(rng, 8)],
        "peak_forms": [_sierpinski_form(rng, 5)[0]],
    }


def _rng(seed: int, name: str, stream: int) -> np.random.Generator:
    key = [seed, zlib.crc32(name.encode()), stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def build(name: str, seed: int, work: Path, instances: int = 3) -> Workload:
    return BY_NAME[name](_rng(seed, name, 0), work, instances)


def probe_inputs(workload: Workload, name: str, seed: int) -> dict:
    """The workload's inputs for isolated layer calls, over the common set.
    Built only for the traced run, so untraced set-up does not pay for it."""
    probe = common_probe_inputs(_rng(seed, name, 1))
    probe.update(workload.probe)
    return probe
