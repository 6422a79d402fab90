"""Benchmark of the pssf pipeline: end-to-end metrics, or per-layer ones traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate_learned --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``simulate_learned``, ``learn``,
``ic_grid``. One process does everything: it writes the workload's inputs
from the seed, sets up several times (``setup_s`` is their median), runs a
smoke-sized warm-up operation, then repeats the operation until the next one
would end after ``--seconds`` (at least once) and checks every output.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
runs one untraced operation, then wraps the pssf layers (``perfbench/tracing.py``)
and reports per-layer metrics, each the median over the traced operations;
``trace.overhead_s`` is the traced minus the untraced wall time. The last
line of standard output is the JSON result; the lines above it are a human
readable report with the host, the versions and the seed.

Outputs go to ``.perfbench_work/`` under the repository root and are deleted
before exit. Exit code 2 means the pssf sources or the benchmark config are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 25
SMOKE_SETUP_REPEATS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
SETUP_LAYER_UNITS = {
    "config.load_validate.s": "s",
    "scenario.build_scenario.s": "s",
    "scenario.model_error_drift_sup.s": "s",
}


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; return the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return min(int(os.environ[var]) for var in BLAS_VARS)


def git_sha(root: Path):
    """Commit of a git checkout at root, read from .git without running git; else None."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks one workload's operations and keeps their outcomes."""

    def __init__(self, workload: str, seed: int, work: Path, smoke: bool):
        from perfbench import workloads

        self.wl = workloads
        self.workload = workload
        self.work = work
        self.inputs = workloads.generate_inputs(workload, seed, work, smoke=smoke)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def setup(self):
        return self.wl.setup(self.inputs)

    def run_op(self, state, inputs=None) -> float:
        """Time one operation, then check its outputs; returns the wall time."""
        inputs = inputs or self.inputs
        out = self.work / f"op{self.attempted}"
        self.attempted += 1
        start = time.perf_counter()
        try:
            try:
                result = self.wl.operation(self.workload, state, out)
            finally:
                wall = time.perf_counter() - start
            problems = self.wl.check(inputs, state, result, out)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted - 1}: {p}" for p in problems)
        return wall

    def warm_up(self) -> None:
        """One smoke-sized operation so lazy imports and caches are ready."""
        smoke = self.wl.generate_inputs(self.workload, self.inputs.seed, self.work, smoke=True)
        self.run_op(self.wl.setup(smoke), smoke)


def _measure(run_one, seconds: float) -> list:
    """Repeat run_one until the next call would likely end after ``seconds``."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(run_one())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def _median_by_key(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (result, report) where result is the JSON line's object."""
    from perfbench.tracing import LAYER_UNITS, Tracer

    work = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, seed, work, smoke)
        runner.wl.verify_model_file()
        setups = [runner.setup() for _ in range(SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS)]
        setup_timings = _median_by_key([s.timings for s in setups])
        runner.warm_up()
        state = setups[-1]
        if not trace:
            walls = _measure(lambda: runner.run_op(state), seconds)
            steps = runner.wl.nominal_steps(workload, state)
            wall_s = statistics.median(walls)
            values = {
                "setup_s": setup_timings["setup_s"],
                "wall_s": wall_s,
                "steps_per_s": steps / wall_s,
                "peak_rss_mb": _peak_rss_mb(),
                "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
            }
            units = END_TO_END_UNITS
            detail = {"operations": len(walls), "steps_per_operation": steps,
                      "wall_s_min": min(walls), "wall_s_max": max(walls),
                      "failed_frac": runner.failed / runner.attempted}
        else:
            start = time.perf_counter()
            untraced = runner.run_op(state)
            tracer = Tracer()
            tracer.install()
            try:
                # Set up again so systems built in set-up carry traced evaluators.
                traced_state = runner.setup()
                per_op = []

                def traced_op():
                    tracer.reset()
                    wall = runner.run_op(traced_state)
                    per_op.append(tracer.layer_metrics(wall))
                    return wall

                walls = _measure(traced_op, seconds - (time.perf_counter() - start))
            finally:
                tracer.uninstall()
            values = _median_by_key(per_op)
            values.update({key: setup_timings[key] for key in SETUP_LAYER_UNITS})
            values["trace.overhead_s"] = statistics.median(walls) - untraced
            units = {**LAYER_UNITS, **SETUP_LAYER_UNITS, "trace.overhead_s": "s"}
            detail = {"traced_operations": len(walls), "untraced_wall_s": untraced,
                      "traced_wall_s": statistics.median(walls), "not_traced": tracer.missing}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report = {"detail": detail, "problems": runner.problems}
    return result, report


def _environment(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "machine": platform.machine(),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the pssf pipeline.")
    parser.add_argument("--workload", required=True, choices=("simulate_learned", "learn", "ic_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (SRC / "pssf" / "__init__.py", ROOT / "configs" / "benchmark.yaml"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a pssf checkout",
                  file=sys.stderr)
            return 2
    blas_threads = cap_blas_threads()  # before numpy is imported
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pssf

    if Path(pssf.__file__).resolve().parent != SRC / "pssf":
        print(f"perfbench: imported pssf from {pssf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    result, report = run_benchmark(args.workload, args.seed, args.seconds, trace)
    env = _environment(args.workload, args.seed, args.seconds, trace, blas_threads)
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(report["detail"], sort_keys=True))
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        print(f"  {'failed_frac':<40} {report['detail']['failed_frac']:>16.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
