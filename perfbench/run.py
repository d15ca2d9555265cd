"""Benchmark runner for the ilwhodge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A closed loop with one client: each op of a
pass is a fresh `python -m ilwhodge ...` child, started only after the
previous one has ended, because every CLI call pays a cold interpreter.
Passes repeat until S seconds have been measured, in whole cycles where the
workload has one. Every op's exit code and output are checked (see
workloads.py), and every time is calibrated against the machine's current
speed (see Speedometer).

--trace 0 reports the end-to-end metrics; --trace 1 follows each untraced
pass by a traced pass of the same ops (tracing.py wraps the engine's layers
in the child) and reports the per-layer metrics. The last stdout line is the
result object; the line before it records provenance. Exits 2 without a
result when the ilwhodge sources are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    PASS_CYCLE, ROOT, WORKLOADS, CheckFailed, Op, pass_plan, reference_op,
)

SETUP_SAMPLES = 21
SETUP_CODE = "import ilwhodge.cli as cli; cli.build_parser()"
OP_TIMEOUT_S = 150
# The calibration kernel's time on the reference machine (a 2-vCPU KVM guest,
# Python 3.11.7) when nothing else slows it; see Speedometer.
CALIBRATION_S = 0.030
CALIBRATION_ORDER = 9
CALIBRATION_ROUNDS = 5
CALIBRATION_SAMPLES = 3


@dataclass
class OpRun:
    wall_s: float
    maxrss_mib: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None = None  # span aggregates of a traced child
    scale: float = 1.0  # reference seconds per measured second, see Speedometer

    @property
    def time_s(self) -> float:
        return self.wall_s * self.scale


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ILWHODGE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str]) -> OpRun:
    """Run one child to completion; time it and take its own max RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return OpRun(wall, usage.ru_maxrss / 1024, proc.returncode, out, err[0])


def run_op(op: Op, traced: bool) -> tuple[OpRun, str | None]:
    """Run and check one op; the second value is the failure, if any."""
    entry = [str(ROOT / "perfbench" / "tracing.py")] if traced else ["-m", "ilwhodge"]
    run = spawn([sys.executable, *entry, *op.argv])
    if run.exit_code != op.exit_code:
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return run, f"exit {run.exit_code}, want {op.exit_code} {tail}"
    try:
        op.check(json.loads(run.stdout))
        if traced:
            run.trace = json.loads(run.stderr.decode().strip().splitlines()[-1])
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return run, f"{type(exc).__name__}: {exc}"
    return run, None


def calibration_kernel() -> float:
    """Seconds for a fixed truncated product of bivariate exact-rational
    series, the shape of the engine's inner loop. It runs only benchmark and
    standard-library code, so a change to ilwhodge cannot move it."""
    n = CALIBRATION_ORDER
    series = {
        (a, b): Fraction(1, factorial(a) * factorial(b) + a + 1)
        for a in range(n) for b in range(n) if a + b
    }
    t0 = time.perf_counter()
    product = {(0, 0): Fraction(1)}
    for _ in range(CALIBRATION_ROUNDS):
        out: dict[tuple[int, int], Fraction] = {}
        for (a0, b0), x in product.items():
            for (a1, b1), y in series.items():
                if a0 + a1 < n and b0 + b1 < n:
                    key = (a0 + a1, b0 + b1)
                    out[key] = out.get(key, 0) + x * y
        product = out
    return time.perf_counter() - t0


class Speedometer:
    """Tracks how fast the machine runs right now.

    A shared virtual machine can run the same code up to 60 % slower for tens
    of seconds at a time (seen on a 2-vCPU KVM guest, on both vCPUs). The
    calibration kernel runs CALIBRATION_SAMPLES times before the first op and
    after every op; an op's time is scaled by CALIBRATION_S over the mean of
    the median kernel times on either side of it, so reported times are
    seconds on the reference machine at its own speed.
    """

    def __init__(self) -> None:
        self.samples = [self._sample()]

    @staticmethod
    def _sample() -> float:
        return statistics.median(calibration_kernel() for _ in range(CALIBRATION_SAMPLES))

    def scale_after(self, run: OpRun) -> OpRun:
        self.samples.append(self._sample())
        run.scale = CALIBRATION_S / ((self.samples[-2] + self.samples[-1]) / 2)
        return run


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.speed = Speedometer()

    def run(self, op: Op, traced: bool) -> OpRun:
        self.attempted += 1
        run, failure = run_op(op, traced)
        if failure:
            self.failed += 1
            print(f"FAILED {op.label}: {failure}", file=sys.stderr)
        return self.speed.scale_after(run)


def measure_setup(speed: Speedometer) -> list[OpRun]:
    """Fresh interpreters that import the CLI and build its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        run = spawn([sys.executable, "-c", SETUP_CODE])
        if run.exit_code != 0:
            raise SystemExit(f"set-up child failed: {run.stderr.decode(errors='replace')}")
        samples.append(speed.scale_after(run))
    return samples


# -- per-layer metrics from one traced pass ------------------------------------

LAYER_METRICS = {
    # name: (unit, span, field) for span aggregates
    "mpseries.mul_calls": ("count", "mpseries.mul", "calls"),
    "mpseries.mul_s": ("s", "mpseries.mul", "self_s"),
    "mpseries.exp_s": ("s", "mpseries.exp", "incl_s"),
    "mpseries.log_s": ("s", "mpseries.log", "incl_s"),
    "mpseries.inverse_s": ("s", "mpseries.inverse", "incl_s"),
    "hodge.s_tilde_series_calls": ("count", "hodge.s_tilde_series", "calls"),
    "hodge.s_tilde_series_s": ("s", "hodge.s_tilde_series", "incl_s"),
    "hodge.extract_cg_s": ("s", "hodge.extract_cg", "incl_s"),
    "hodge.one_point_table_s": ("s", "hodge.one_point_table", "incl_s"),
    "diffalg.normalize_calls": ("count", "diffalg.normalize", "calls"),
    "diffalg.normalize_s": ("s", "diffalg.normalize", "self_s"),
    "diffalg.total_x_derivative_calls": ("count", "diffalg.total_x_derivative", "calls"),
    "diffalg.total_x_derivative_s": ("s", "diffalg.total_x_derivative", "incl_s"),
    "diffalg.variational_derivative_s": ("s", "diffalg.variational_derivative", "incl_s"),
    "diffalg.poisson_bracket_s": ("s", "diffalg.poisson_bracket", "incl_s"),
    "linalg.solve_calls": ("count", "linalg.solve", "calls"),
    "linalg.solve_s": ("s", "linalg.solve", "incl_s"),
    "ilw.higher_hamiltonian_calls": ("count", "ilw.higher_hamiltonian", "calls"),
    "ilw.higher_hamiltonian_s": ("s", "ilw.higher_hamiltonian", "incl_s"),
    "ilw.h1_calls": ("count", "ilw.h1", "calls"),
    "cli.self_s": ("s", "cli.main", "self_s"),
}
COUNTER_METRICS = {
    "mpseries.mul_term_pairs": "mul_term_pairs",
    "mpseries.series_op_mul_calls": "series_op_mul_calls",
    "diffalg.normalize_terms_in": "normalize_terms_in",
    "linalg.matrix_cells": "matrix_cells",
}
UNITS = {
    **{name: unit for name, (unit, _, _) in LAYER_METRICS.items()},
    **{name: "count" for name in COUNTER_METRICS},
    "mpseries.max_coeff_bits": "bit",
    "linalg.rank_ratio": "ratio",
    "ilw.distinct_hamiltonian_ratio": "ratio",
    "cli.output_bytes": "byte",
    "trace_accounted_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}


def layer_metrics(runs: list[OpRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its ops."""
    empty = {"spans": {}, "counts": {}, "hamiltonian_distinct": 0}
    summaries = [r.trace or empty for r in runs]

    def span(name: str, field: str) -> float:
        # span times are scaled like their op's time
        return sum(
            s["spans"].get(name, {}).get(field, 0) * (1 if field == "calls" else r.scale)
            for s, r in zip(summaries, runs)
        )

    def count(key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in summaries)

    out: dict[str, float] = {n: span(s, f) for n, (_, s, f) in LAYER_METRICS.items()}
    out.update({n: count(k) for n, k in COUNTER_METRICS.items()})
    out["mpseries.max_coeff_bits"] = max(s["counts"].get("max_coeff_bits", 0) for s in summaries)
    columns = count("solve_columns")
    # Ratios read 1.0 when the layer does not run: nothing was wasted.
    out["linalg.rank_ratio"] = count("solve_rank") / columns if columns else 1.0
    builds = span("ilw.higher_hamiltonian", "calls")
    distinct = sum(s["hamiltonian_distinct"] for s in summaries)
    out["ilw.distinct_hamiltonian_ratio"] = distinct / builds if builds else 1.0
    out["cli.output_bytes"] = sum(len(r.stdout) for r in runs)
    accounted = sum(v["self_s"] for s in summaries for v in s["spans"].values())
    out["trace_accounted_ratio"] = accounted / sum(r.wall_s for r in runs)
    return out


# -- the measured loop ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    plan = pass_plan(workload, seed)
    cycle = PASS_CYCLE.get(workload, 1)
    tally = Tally()
    tally.run(reference_op(), traced=False)  # also compiles the bytecode cache
    setup = measure_setup(tally.speed) if not trace else []

    passes: list[list[OpRun]] = []
    traced_passes: list[list[OpRun]] = []
    start = time.perf_counter()
    # Whole cycles only, so that each seeded variant is measured equally often.
    while not passes or time.perf_counter() - start < seconds or len(passes) % cycle:
        ops = plan(len(passes))
        passes.append([tally.run(op, traced=False) for op in ops])
        if trace:
            traced_passes.append([tally.run(op, traced=True) for op in ops])
    return tally, setup, passes, traced_passes


def pass_time(runs: list[OpRun], raw: bool = False) -> float:
    return sum(r.wall_s if raw else r.time_s for r in runs)


def end_to_end(setup: list[OpRun], passes: list[list[OpRun]], tally: Tally) -> dict:
    return {
        "wall_s": (statistics.median(pass_time(p) for p in passes), "s"),
        "slowest_op_s": (statistics.median(max(r.time_s for r in p) for p in passes), "s"),
        "setup_s": (statistics.median(r.time_s for r in setup), "s"),
        "peak_rss_mb": (statistics.median(max(r.maxrss_mib for r in p) for p in passes), "MiB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def per_layer(passes: list[list[OpRun]], traced_passes: list[list[OpRun]]) -> dict:
    per_pass = [layer_metrics(p) for p in traced_passes]
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts repeat exactly when the ops do; times vary, so take medians.
        value = statistics.median(values) if UNITS[name] in ("s", "ratio") else values[0]
        out[name] = (value, UNITS[name])
    untraced = statistics.median(pass_time(p) for p in passes)
    traced = statistics.median(pass_time(p) for p in traced_passes)
    out["trace_overhead_ratio"] = (traced / untraced, "ratio")
    return out


def provenance(args, tally: Tally, setup: list[OpRun], passes: list[list[OpRun]],
               traced_passes: list[list[OpRun]]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "setup_samples": len(setup),
        # unscaled figures, for comparison with the reported ones
        "measured_wall_s": statistics.median(pass_time(p, raw=True) for p in passes),
        "measured_setup_s": statistics.median(r.wall_s for r in setup) if setup else None,
        "calibration_s": statistics.median(tally.speed.samples),
        "calibration_reference_s": CALIBRATION_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "ilwhodge" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found", file=sys.stderr)
            return 2

    tally, setup, passes, traced_passes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    metrics = per_layer(passes, traced_passes) if args.trace else end_to_end(setup, passes, tally)
    print(json.dumps({"provenance": provenance(args, tally, setup, passes, traced_passes)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
