"""Per-layer measurement for the traced run.

Spans are recorded only around public ``dirikit`` calls made from the
benchmark's own files; nothing inside ``src/`` is instrumented.  A layer
that a workload's tasks never reach is measured by an isolated call in
``probe_layers``, so every traced run reports the full per-layer set.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import dirikit as dk
from dirikit import jsonio
from dirikit import search as dk_search

# the spectral tolerance `dirikit search` uses when --tol is not given
SPECTRAL_TOL = 1e-8

# per-layer metric name -> (unit, how the recorded samples are reduced)
LAYER_METRICS = {
    "jsonio.load_ms": ("ms", "median"),
    "orderiso.certify_ms": ("ms", "median"),
    "beurling.verify_jump_transform_ms": ("ms", "median"),
    "core.generator_ms": ("ms", "median"),
    "orderiso.intertwining_residual_ms": ("ms", "median"),
    "metrics.verify_resistance_isometry_ms": ("ms", "median"),
    "metrics.verify_intrinsic_bijection_ms": ("ms", "median"),
    "metrics.PseudoMetric_ms": ("ms", "median"),
    "metrics.PseudoMetric_peak_mb": ("MB", "max"),
    "metrics.resistance_matrix_ms": ("ms", "median"),
    "metrics.resistance_matrix_peak_mb": ("MB", "max"),
    "metrics.canonical_intrinsic_metric_ms": ("ms", "median"),
    "metrics.is_intrinsic_ms": ("ms", "median"),
    "jsonio.dumps_ms": ("ms", "median"),
    "jsonio.output_bytes": ("bytes", "median"),
    "spectral.spectral_data_ms": ("ms", "median"),
    "search.spectra_match_ms": ("ms", "median"),
    "search.find_intertwiners.symmetric_ms": ("ms", "median"),
    "search.find_intertwiners.random_ms": ("ms", "median"),
    "search.solutions": ("count", "sum"),
    "spectral.find_nonconstant_excessive.recurrent_ms": ("ms", "median"),
    "spectral.find_nonconstant_excessive.transient_ms": ("ms", "median"),
    "orderiso.doob_pair_ms": ("ms", "median"),
    "spectral.is_excessive_ms": ("ms", "median"),
    "import.dirikit_ms": ("ms", "median"),
    "import.scipy_optimize_ms": ("ms", "median"),
    "trace.overhead_frac": ("frac", "median"),
}


class Spans:
    """In-memory span log.

    A span is (task id, name, start, seconds); the spans of one task share
    its id, and the root span of a task is named ``task``.  Values that are
    not durations (bytes, counts) go to ``values``.
    """

    def __init__(self):
        self.records: list[tuple[int | None, str, float, float]] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.task: int | None = None

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((self.task, name, start, time.perf_counter() - start))

    def value(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    def samples(self) -> dict[str, list[float]]:
        """Metric name -> samples, durations converted to milliseconds."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, _, seconds in self.records:
            if name != "task":
                out[name + "_ms"].append(1e3 * seconds)
        for name, values in self.values.items():
            out[name].extend(values)
        return out

    def self_share(self) -> float:
        """Share of task time not covered by a layer span (argument
        handling, file IO and the glue between calls)."""
        task_total = sum(s for _, name, _, s in self.records if name == "task")
        layer_total = sum(
            s for task, name, _, s in self.records if name != "task" and task is not None
        )
        return (task_total - layer_total) / task_total if task_total else 0.0


def reduce_samples(samples: dict[str, list[float]]) -> dict[str, float]:
    reduced = {}
    for name, values in samples.items():
        if not values or name not in LAYER_METRICS:
            continue
        how = LAYER_METRICS[name][1]
        if how == "median":
            reduced[name] = statistics.median(values)
        elif how == "max":
            reduced[name] = max(values)
        else:
            reduced[name] = sum(values)
    return reduced


def fresh(form: dk.GraphForm) -> dk.GraphForm:
    """An equal form built from scratch, so no per-object cache is warm."""
    return dk.build_form(form.space.vertices, form.space.m, form.b, form.c)


def peak_mb(fn, *args) -> float:
    """Peak traced allocation of one call; tracemalloc runs only here."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _probe_forms(spans: Spans, inputs: dict) -> None:
    for form in inputs["forms"]:
        copy = fresh(form)
        with spans("core.generator"):
            gen = dk.generator(copy)
        with spans("spectral.spectral_data"):
            dk.spectral_data(gen)
        with spans("jsonio.dumps"):
            text = jsonio.dumps(jsonio.graph_to_obj(form)) + "\n"
        spans.value("jsonio.output_bytes", len(text))
        with spans("jsonio.load"):
            jsonio.graph_loads(text)


def _probe_pairs(spans: Spans, inputs: dict) -> None:
    for form1, form2, iso in inputs["pairs"]:
        gen1, gen2 = dk.generator(fresh(form1)), dk.generator(fresh(form2))
        with spans("orderiso.intertwining_residual"):
            dk.intertwining_residual(iso, gen1, gen2)
        copy1, copy2 = fresh(form1), fresh(form2)
        with spans("orderiso.certify"):
            dk.certify(iso, copy1, copy2)
        with spans("beurling.verify_jump_transform"):
            dk.verify_jump_transform(iso, copy1, copy2)
        copy1, copy2 = fresh(form1), fresh(form2)
        with spans("search.spectra_match"):
            dk_search.spectra_match(copy1, copy2, SPECTRAL_TOL)


def _probe_recurrent(spans: Spans, inputs: dict) -> None:
    for form1, form2, iso in inputs["recurrent_pairs"]:
        copy1, copy2 = fresh(form1), fresh(form2)
        with spans("metrics.verify_resistance_isometry"):
            dk.verify_resistance_isometry(iso, copy1, copy2)
        with spans("metrics.verify_intrinsic_bijection"):
            dk.verify_intrinsic_bijection(iso, copy1, copy2)
        copy = fresh(form1)
        with spans("metrics.resistance_matrix"):
            metric = dk.resistance_matrix(copy)
        with spans("metrics.PseudoMetric"):
            dk.PseudoMetric(metric.vertices, metric.d)
        copy = fresh(form1)
        with spans("metrics.canonical_intrinsic_metric"):
            intrinsic = dk.canonical_intrinsic_metric(copy)
        with spans("metrics.is_intrinsic"):
            dk.is_intrinsic(copy, intrinsic)


def _probe_peaks(spans: Spans, inputs: dict) -> None:
    for form in inputs["peak_forms"]:
        spans.value("metrics.resistance_matrix_peak_mb", peak_mb(dk.resistance_matrix, fresh(form)))
        metric = dk.resistance_matrix(fresh(form))
        spans.value("metrics.PseudoMetric_peak_mb", peak_mb(dk.PseudoMetric, metric.vertices, metric.d))


def _probe_search(spans: Spans, inputs: dict) -> None:
    for form1, form2, cap, _ in inputs["symmetric"]:
        opts = dk.SearchOptions(max_solutions=cap)
        copy1, copy2 = fresh(form1), fresh(form2)
        with spans("search.find_intertwiners.symmetric"):
            found = dk.find_intertwiners(copy1, copy2, opts)
        spans.value("search.solutions", len(found))
    for form1, form2, _ in inputs["random_pairs"]:
        copy1, copy2 = fresh(form1), fresh(form2)
        with spans("search.find_intertwiners.random"):
            dk.find_intertwiners(copy1, copy2)


def _probe_excessive(spans: Spans, inputs: dict) -> None:
    for form in inputs["recurrent_small"]:
        gen = dk.generator(fresh(form))
        with spans("spectral.find_nonconstant_excessive.recurrent"):
            dk.find_nonconstant_excessive(gen)
    for form in inputs["transient_small"]:
        copy = fresh(form)
        gen = dk.generator(copy)
        with spans("spectral.find_nonconstant_excessive.transient"):
            h = dk.find_nonconstant_excessive(gen)
        with spans("spectral.is_excessive"):
            dk.is_excessive(gen, h)
        with spans("orderiso.doob_pair"):
            dk.doob_pair(copy, h)


def import_times(root: str, runs: int = 3) -> dict[str, float]:
    """Cumulative import time of ``dirikit`` and of ``scipy.optimize``
    within it, from ``python -X importtime`` in a child process (median
    of ``runs``; 0 for a module that is not imported)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples: dict[str, list[float]] = {"import.dirikit_ms": [], "import.scipy_optimize_ms": []}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dirikit"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        samples["import.dirikit_ms"].append(cumulative["dirikit"])
        samples["import.scipy_optimize_ms"].append(cumulative.get("scipy.optimize", 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


# probe group -> the metrics it yields; a group runs when a workload's
# traced loop left any of them unmeasured
PROBES = [
    (_probe_forms, ("core.generator_ms", "spectral.spectral_data_ms", "jsonio.dumps_ms",
                    "jsonio.output_bytes", "jsonio.load_ms")),
    (_probe_pairs, ("orderiso.intertwining_residual_ms", "orderiso.certify_ms",
                    "beurling.verify_jump_transform_ms", "search.spectra_match_ms")),
    (_probe_recurrent, ("metrics.verify_resistance_isometry_ms",
                        "metrics.verify_intrinsic_bijection_ms", "metrics.resistance_matrix_ms",
                        "metrics.PseudoMetric_ms", "metrics.canonical_intrinsic_metric_ms",
                        "metrics.is_intrinsic_ms")),
    (_probe_peaks, ("metrics.resistance_matrix_peak_mb", "metrics.PseudoMetric_peak_mb")),
    (_probe_search, ("search.find_intertwiners.symmetric_ms", "search.find_intertwiners.random_ms",
                     "search.solutions")),
    (_probe_excessive, ("spectral.find_nonconstant_excessive.recurrent_ms",
                        "spectral.find_nonconstant_excessive.transient_ms",
                        "orderiso.doob_pair_ms", "spectral.is_excessive_ms")),
]

# always measured by isolated calls, even when a loop span has the same name
ISOLATED = {
    "core.generator_ms", "orderiso.intertwining_residual_ms", "metrics.PseudoMetric_ms",
    "metrics.PseudoMetric_peak_mb", "metrics.resistance_matrix_peak_mb", "search.solutions",
}


def probe_layers(loop: dict[str, float], inputs: dict) -> tuple[dict[str, float], list[str]]:
    """Fill in every per-layer metric the traced loop did not measure.

    Returns the merged metrics and the names that came from probes.
    """
    wanted = {name for name in LAYER_METRICS if name not in loop or name in ISOLATED}
    spans = Spans()
    for probe, names in PROBES:
        if wanted.intersection(names):
            probe(spans, inputs)
    probed = reduce_samples(spans.samples())
    merged = dict(loop)
    for name in wanted:
        if name in probed:
            merged[name] = probed[name]
    return merged, sorted(name for name in wanted if name in probed)
