"""dirikit benchmark: one workload as a closed loop with one client.

Run from the repository root (dirikit is imported from ./src):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Workloads: certify, search, geometry, excessive (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a per-kind breakdown.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics.

The shared machine's speed drifts by up to 2x within a minute, so every
end-to-end time is scaled to a reference speed by a yardstick that runs
next to the timed work and never calls dirikit.  In-process work (tasks,
input generation) is scaled by ``Speed.calibrate``: t becomes
t * REFERENCE_CAL_S / (the calibration's local median).  Interpreter
starts and imports, which that calibration does not track, are scaled by
``reference_start``, a fresh interpreter that imports numpy:
t becomes t * REFERENCE_START_S / (its median just before and after).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # setup_s is the median of this many set-ups in one run
COLD_RUNS = 5  # cold_start_s is the median of this many fresh interpreters
PROCESS_BUDGET_S = 150.0  # stop timed loops early rather than pass 180 s
REFERENCE_CAL_S = 0.005  # calibration time at the reference speed
REFERENCE_START_S = 0.15  # reference_start() at the reference speed
CAL_HALF_WINDOW = 2  # a task is scaled by the median of 2 * this + 1 calibrations


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "search", "geometry", "excessive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _run_task(task, spans=None):
    """Run one task; returns (seconds, result, exception or None)."""
    start = time.perf_counter()
    try:
        if spans is None:
            result = task.run()
        else:
            with spans("task"):
                result = task.traced(spans)
        return time.perf_counter() - start, result, None
    except Exception as exc:  # a task that raises counts as failed, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, exc


def _check(task, result, exc) -> bool:
    if exc is not None:
        return False
    try:
        return bool(task.check(result))
    except Exception:  # a malformed output counts as failed
        traceback.print_exc(file=sys.stderr)
        return False


def reference_start() -> float:
    """Wall time of a fresh interpreter that imports numpy: the yardstick
    for interpreter starts and imports."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def _start_scale(*references: float) -> float:
    return REFERENCE_START_S / statistics.median(references)


class Speed:
    """The machine's speed, read from a fixed calibration workload.

    The calibration mixes interpreter work (dict updates) and LAPACK/BLAS
    calls on a fixed 80x80 matrix, like the tasks; it takes about 5 ms on
    a 2-core x86_64 virtual machine.  It never calls dirikit, so a change
    to the program leaves it alone.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        a = np.random.Generator(np.random.PCG64(0)).standard_normal((80, 80))
        self.matrix = a + a.T
        self.times: list[float] = []

    def calibrate(self) -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(3):
            self.np.linalg.eigh(self.matrix)
        (self.matrix @ self.matrix).sum()
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds

    def scale(self, *calibrations: float) -> float:
        """Factor that takes a time measured next to these calibrations to
        the reference speed."""
        return REFERENCE_CAL_S / statistics.median(calibrations)


def _scaled(latencies: list[float], calibrations: list[float]) -> list[float]:
    """Each latency at the reference speed, by the median of the
    calibrations around it (the one just before it, CAL_HALF_WINDOW
    before that and CAL_HALF_WINDOW after)."""
    out = []
    for i, latency in enumerate(latencies):
        window = calibrations[max(0, i - CAL_HALF_WINDOW):i + CAL_HALF_WINDOW + 1]
        out.append(latency * REFERENCE_CAL_S / statistics.median(window))
    return out


class Loop:
    """Closed loop, one client: the next task starts when the last ends.

    Tasks run in rounds.  A round runs every kind ``weight`` times in a
    seeded shuffled order, cycling through the kind's instances, and the
    loop stops only at the end of a round, so every run measures the same
    mix.  A calibration runs before every task, outside loop time.
    """

    def __init__(self, workload, rng, speed: Speed):
        self.workload = workload
        self.rng = rng
        self.speed = speed
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0

    def run(self, seconds: float, min_tasks: int, deadline: float, spans=None,
            between_rounds=None) -> None:
        """Run rounds until ``seconds`` have passed and ``min_tasks`` are
        done, or until ``deadline``.  ``between_rounds(elapsed)`` is called
        after each round; its time, like the oracles', is not loop time."""
        entries = [kind for kind in self.workload.kinds for _ in range(kind.weight)]
        start = time.perf_counter()
        excluded = 0.0
        while True:
            seen = Counter()
            for index in self.rng.permutation(len(entries)):
                kind = entries[index]
                task = kind.tasks[(self.rounds * kind.weight + seen[kind.name]) % len(kind.tasks)]
                seen[kind.name] += 1
                if spans is not None:
                    spans.task = len(self.latencies)
                calibrating = time.perf_counter()
                self.calibrations.append(self.speed.calibrate())
                excluded += time.perf_counter() - calibrating
                seconds_taken, result, exc = _run_task(task, spans)
                checked = time.perf_counter()
                ok = _check(task, result, exc)
                excluded += time.perf_counter() - checked
                self.latencies.append(seconds_taken)
                self.kinds.append(kind.name)
                self.failed += not ok
            self.rounds += 1
            if between_rounds is not None:
                paused = time.perf_counter()
                between_rounds(paused - start - excluded)
                excluded += time.perf_counter() - paused
            now = time.perf_counter()
            if (now - start >= seconds and len(self.latencies) >= min_tasks) or now >= deadline:
                break
        self.wall = time.perf_counter() - start - excluded

    @property
    def scaled(self) -> list[float]:
        return _scaled(self.latencies, self.calibrations)

    @property
    def tasks_per_s(self) -> float:
        """Tasks over the loop's wall time at the reference speed: the
        wall time is scaled by the ratio of the scaled to the raw task
        time."""
        return len(self.latencies) / (self.wall * sum(self.scaled) / sum(self.latencies))

    def by_kind(self) -> dict[str, list[float]]:
        kinds: dict[str, list[float]] = defaultdict(list)
        for name, seconds in zip(self.kinds, self.scaled):
            kinds[name].append(seconds)
        return kinds


def _tail(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ColdStart:
    """Wall times of fresh interpreters running one task, each scaled by
    a reference start just before and one just after it.

    The samples are spread over the timed loop (one each time loop time
    passes the next ``seconds / COLD_RUNS`` mark) instead of taken in one
    burst.
    """

    def __init__(self, argv: list[str], seconds: float):
        self.argv = argv
        self.every = seconds / COLD_RUNS
        self.times: list[float] = []
        self.failed = 0

    def sample(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = reference_start()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py")] + self.argv,
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - start
        after = reference_start()
        self.times.append(seconds * _start_scale(before, after))
        self.failed += proc.returncode != 0

    def between_rounds(self, elapsed: float) -> None:
        if len(self.times) < COLD_RUNS and elapsed >= len(self.times) * self.every:
            self.sample()

    def finish(self) -> None:
        while len(self.times) < COLD_RUNS:
            self.sample()


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = _parse(argv)
    # a terminated run still removes its work directory (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "dirikit" / "__init__.py").is_file():
        print(f"error: no dirikit sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: steadier on a shared machine, and the inputs are small
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))

    import_references = [reference_start()]
    import_start = time.perf_counter()
    import numpy as np

    import dirikit
    import layers
    import workloads

    import_s = time.perf_counter() - import_start
    import_references.append(reference_start())
    if not Path(dirikit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dirikit from {dirikit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    speed = Speed()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        warm_failed = warm_attempted = 0
        for _ in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            before = [speed.calibrate() for _ in range(3)]
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, work)
            for kind in workload.kinds:  # warm-up: one task of every kind
                task = kind.tasks[0]
                _, result, exc = _run_task(task)
                warm_attempted += 1
                warm_failed += not _check(task, result, exc)
            seconds = time.perf_counter() - start
            after = [speed.calibrate() for _ in range(3)]
            setup_times.append(seconds * speed.scale(*before, *after))
        setup_s = import_s * _start_scale(*import_references) + statistics.median(setup_times)

        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([args.seed, 1])))
        loop = Loop(workload, rng, speed)
        deadline = process_start + PROCESS_BUDGET_S
        attempted, failed = warm_attempted, warm_failed
        info = {"workload": args.workload, "setup_runs_s": setup_times, "import_s": import_s}
        setup_end = time.perf_counter()

        if args.trace == 0:
            min_tasks = math.ceil(10 / (1 - workload.tail_pct / 100.0)) + 1
            cold = ColdStart(workload.cold_argv, args.seconds)
            loop.run(args.seconds, min_tasks, deadline - 10 * COLD_RUNS,
                     between_rounds=cold.between_rounds)
            cold.finish()
            attempted += len(loop.latencies) + len(cold.times)
            failed += loop.failed + cold.failed
            beyond = len(loop.latencies) - math.ceil(workload.tail_pct / 100 * len(loop.latencies))
            scaled = loop.scaled
            metrics = {
                "task_p50_ms": (1e3 * statistics.median(scaled), "ms"),
                "task_tail_ms": (1e3 * _tail(scaled, workload.tail_pct), "ms"),
                "tasks_per_s": (loop.tasks_per_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (setup_s, "s"),
                "cold_start_s": (statistics.median(cold.times), "s"),
            }
            info.update(tail_pct=workload.tail_pct, tasks_beyond_tail=beyond,
                        cold_runs_s=cold.times,
                        raw_task_p50_ms=1e3 * statistics.median(loop.latencies),
                        raw_task_tail_ms=1e3 * _tail(loop.latencies, workload.tail_pct))
        else:
            half = args.seconds / 2
            loop.run(half, 1, deadline - 60)
            untraced = loop.tasks_per_s
            spans = layers.Spans()
            traced = Loop(workload, rng, speed)
            traced.run(half, 1, deadline - 50, spans)
            found = layers.reduce_samples(spans.samples())
            inputs = workloads.probe_inputs(workload, args.workload, args.seed)
            values, probed = layers.probe_layers(found, inputs)
            values.update(layers.import_times(str(ROOT)))
            values["trace.overhead_frac"] = untraced / traced.tasks_per_s - 1.0
            attempted += len(loop.latencies) + len(traced.latencies)
            failed += loop.failed + traced.failed
            metrics = {name: (values[name], unit) for name, (unit, _) in layers.LAYER_METRICS.items()}
            info.update(probed=probed, untraced_tasks_per_s=untraced,
                        traced_tasks_per_s=traced.tasks_per_s,
                        unspanned_task_share=spans.self_share())
            loop = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    info.update(
        process_s={"setup": setup_end - process_start,
                   "measure": time.perf_counter() - setup_end},
        tasks=len(loop.latencies), rounds=loop.rounds, failed_frac=failed / attempted,
        calibration_ms={"reference": 1e3 * REFERENCE_CAL_S,
                        "median": 1e3 * statistics.median(speed.times),
                        "min": 1e3 * min(speed.times), "max": 1e3 * max(speed.times)},
        kinds={name: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
               for name, v in sorted(loop.by_kind().items())},
    )
    print(json.dumps({"env": _environment(args.seed)}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
