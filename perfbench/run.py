"""se3bc benchmark: one workload per run, closed loop, single process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; se3bc is imported from ./src. A run alternates
a burst of set-ups with one timed unit, one call at a time, until --seconds
have passed (at least one unit). setup_s is the median over the bursts of
each burst's fastest set-up; wall_s is the median unit. --trace 1 adds one
traced set-up and unit after the untraced ones, which must agree with them.
Human-readable lines go first; the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json untraced and its per-layer metrics
traced. The exit code is 0 only when every correctness check passed.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
LAYER_MODULES = ("tensornet", "policy", "simworld", "geometry", "datasets", "harness")
SETUP_BURST_SECONDS = 0.05
WORKLOAD_NAMES = ("train", "rollout", "study")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= n):
            os.environ[var] = str(n)


def import_se3bc():
    """Import se3bc from this checkout's src/, never from anywhere else."""
    if not os.path.isdir(os.path.join(SRC, "se3bc")):
        raise SystemExit(f"error: no se3bc package under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import se3bc

    if os.path.dirname(os.path.abspath(se3bc.__file__)) != os.path.join(SRC, "se3bc"):
        raise SystemExit(f"error: imported se3bc from {se3bc.__file__}, not {SRC}")


# --- machine record ---


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy):
    """Live OpenBLAS thread count, or the capped environment value."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(numpy),
        "seed": seed,
    }


# --- one workload ---


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Run:
    """Counts, samples and errors of one workload run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.walls = []

    def unit(self, inputs, reference=None):
        """Run one unit; exceptions and disagreements count as failed jobs."""
        wl = self.workload
        try:
            unit, wall = _timed(wl.run, inputs)
        except Exception:  # the run goes on and reports the failure
            self.attempted += wl.jobs_per_unit
            self.failed += wl.jobs_per_unit
            self.errors.append(traceback.format_exc(limit=4))
            return None, None
        self.attempted += unit.attempted
        failed = unit.failed
        self.errors.extend(unit.errors)
        if reference is not None and unit.value != reference.value:
            failed = unit.attempted
            self.errors.append("unit disagrees with the first untraced unit of this seed")
        self.failed += failed
        return unit, wall


def setup_burst(workload):
    """Set up repeatedly for SETUP_BURST_SECONDS (at least once).

    Returns the last inputs and the fastest set-up time of the burst.
    """
    times = []
    t_end = time.perf_counter() + SETUP_BURST_SECONDS
    while not times or time.perf_counter() < t_end:
        inputs, dt = _timed(workload.setup)
        times.append(dt)
    return inputs, min(times)


def measure(workload, seconds: float, trace: bool):
    """Returns (run, end_to_end, per_layer); the metric dicts map name to
    (value, unit, sample count).

    Set-up is sampled by a burst before every timed unit and once more after
    the last; each sample is the fastest set-up of its burst. The median of
    the samples spans the whole run rather than one moment of it.
    """
    run = Run(workload)
    setup_s = []
    reference = None
    t_end = time.perf_counter() + seconds
    while not run.walls or time.perf_counter() < t_end:
        inputs, dt = setup_burst(workload)
        setup_s.append(dt)
        unit, wall = run.unit(inputs, reference)
        if unit is None:
            if time.perf_counter() >= t_end:
                break
            continue
        reference = reference or unit
        run.walls.append(wall)
    setup_s.append(setup_burst(workload)[1])

    e2e = {"setup_s": (statistics.median(setup_s), "s", len(setup_s))}
    if run.walls:
        # The median unit, not the fastest: see "Why wall_s is a median" in
        # README.md. The fastest is printed beside it.
        wall_s = statistics.median(run.walls)
        e2e["wall_s"] = (wall_s, "s", len(run.walls))
        e2e["wall_s_min"] = (min(run.walls), "s", len(run.walls))
        name, value, unit_name = workload.headline(reference.work, wall_s)
        e2e[name] = (value, unit_name, len(run.walls))
        try:
            named, errors = workload.quality(inputs, reference)
        except Exception:
            named, errors = {}, [traceback.format_exc(limit=4)]
        e2e.update(named)
        run.errors.extend(errors)
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)

    per_layer = {}
    if trace:
        per_layer = trace_once(workload, run, reference)
    e2e["failed_share"] = (run.failed / max(run.attempted, 1), "ratio", run.attempted)
    return run, e2e, per_layer


def trace_once(workload, run, reference):
    """One traced set-up and unit; it must agree with the untraced units."""
    from layers import LayerProbe

    probe = LayerProbe()
    modules = [importlib.import_module(f"se3bc.{m}") for m in LAYER_MODULES]
    with probe.tracer.installed(modules, prefix="se3bc."):
        inputs = workload.setup()
        unit, traced_wall = run.unit(inputs, reference)
    metrics = probe.metrics()
    if unit is not None and run.walls:
        metrics["trace.overhead_share"] = traced_wall / statistics.median(run.walls) - 1.0
    return metrics


# --- reporting ---


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(name, info, run, e2e, per_layer, spec, trace):
    print(f"# {name} machine {json.dumps(info, sort_keys=True)}")
    for metric, (value, unit, n) in e2e.items():
        print(f"{name:8s} {metric:34s} {value:14.6g} {unit:10s} n={n}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric, value in per_layer.items():
        print(f"{name:8s} {metric:48s} {value:14.6g} {units.get(metric, '')}")
    for err in run.errors:
        print(f"{name:8s} ERROR {err.strip()}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = per_layer if trace else {k: v[0] for k, v in e2e.items()}
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
        print(f"{name:8s} ERROR metrics not measured: {missing}")
    return {
        "correct": not run.errors and run.failed == 0 and not missing,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in source},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with the machine, as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise SystemExit(f"error: no BENCHMARK.json in {ROOT}")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    cap_blas_threads()
    import_se3bc()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS, Sizes

    workload = WORKLOADS[args.workload](args.seed, Sizes())
    info = machine(args.seed)
    run, e2e, per_layer = measure(workload, args.seconds, bool(args.trace))
    result = report(args.workload, info, run, e2e, per_layer, spec, bool(args.trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "machine": info, "trace": args.trace,
                       "end_to_end": e2e, "per_layer": per_layer, "result": result}, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
