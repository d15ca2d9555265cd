"""In-process timings of the engine at fixed orders, written to BENCH_<n>.json.

    python3 bench.py --out BENCH_17.json --label change
    python3 bench.py --out BENCH_17.json --label parent --src ../parent/src --commit <sha>
    python3 bench.py --out BENCH_17.json --compare parent change

Each row is one library call, timed `--runs` times in this process; the row
keeps every time and their median.  The rows go under `runs[label]`, next to
the Python version, the number of CPUs this process may run on (as
`perfbench/run.py` records it) and the commit of the timed source tree;
other labels already in the file are kept, so two trees measured on the
same machine can share one file.  A second call with the same label, commit,
Python version and CPU count adds its times to the label's rows instead, so
two trees can be timed in alternation, a few runs at a time, on a machine
whose speed drifts.  These rows leave out interpreter start-up and exit.
The `setup:` and `cli:` rows keep them: each run is a fresh child, run with
the environment of a `perfbench/run.py` child (the caller's, less every
ILWHODGE_* variable) but with `PYTHONPATH=<--src>`, and timed from its start
to its exit, as `perfbench/` times an op.  The `setup:` row's child is the
set-up child of `perfbench/run.py`, which imports the CLI and builds its
parser.  A `cli:` row's child is a `python -m ilwhodge` call
of one op of the benchmark's workloads (the ops of the first pass that
`perfbench/workloads.py` plans for each workload at a fixed seed); its exit
code and output go through the op's own check, untimed.  A failed child or
check stops the run.

`--compare A B` times nothing: it prints, for each row that labels A and B
of the file share, both medians and the median over pairs of B's i-th time
over A's i-th time (below 1 when B is faster), and exits 1 when some row's
paired median exceeds 1 plus the `wall_s` bound of BENCHMARK.json.  Runs
that alternate between the trees pair up times taken in the same spell of a
shared machine, whose speed drifts by more than that bound, and the median
over pairs is not moved by one fast or slow run the way a minimum is.
A usage error, such as a label the file lacks, `--runs` below 1, or an
`--out` that is not JSON (or is missing under `--compare`), exits 2 with one
line on stderr before any row is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))

import workloads  # noqa: E402
from run import SETUP_CODE, _child_env  # noqa: E402

# (row name, module, function, arguments)
CALLS = [
    ("extract_cg(80)", "hodge", "extract_cg", (80,)),
    ("one_point_table(60)", "hodge", "one_point_table", (60,)),
    # the engine calls of the benchmark's hodge-series workload, at its orders
    ("extract_cg(24)", "hodge", "extract_cg", (24,)),
    ("one_point_table(24)", "hodge", "one_point_table", (24,)),
    ("verify_one_point_reverse(20)", "hodge", "verify_one_point_reverse", (20,)),
    ("verify_linear_term_identity(20)", "hodge", "verify_linear_term_identity", (20,)),
    ("higher_hamiltonian(2, 30)", "ilw", "higher_hamiltonian", (2, 30)),
    ("higher_hamiltonian(4, 16)", "ilw", "higher_hamiltonian", (4, 16)),
    ("higher_hamiltonian(4, 20)", "ilw", "higher_hamiltonian", (4, 20)),
    ("higher_hamiltonian(6, 10)", "ilw", "higher_hamiltonian", (6, 10)),
]
# the seed of the workloads' pass that gives the `cli:` rows
CLI_SEED = 0


def _commit(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _commute_check(i: int, j: int, G: int):
    """A `verify commute` check of {h_i, h_j} at G with both builds."""
    from ilwhodge import ilw

    return ilw.verify_commutation(i, j, ilw.hamiltonian(i, G), ilw.hamiltonian(j, G))


def _library_call(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _child(src: Path, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    # cwd is --src, so that `-m` finds no other tree's package in the caller's
    # directory
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=src,
                          env={**_child_env(), "PYTHONPATH": str(src)}, capture_output=True)
    return time.perf_counter() - t0, proc


def _setup_child(src: Path) -> float:
    elapsed, proc = _child(src, "-c", SETUP_CODE)
    if proc.returncode:
        sys.exit(f"bench.py: set-up child exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace').strip()}")
    return elapsed


def _cli_child(src: Path, op: workloads.Op) -> float:
    elapsed, proc = _child(src, "-m", "ilwhodge", *op.argv)
    try:
        if proc.returncode != op.exit_code:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise workloads.CheckFailed(f"exited {proc.returncode}, want {op.exit_code} {tail}")
        op.check(json.loads(proc.stdout))
    except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
        sys.exit(f"bench.py: {op.label}: {exc}")
    return elapsed


def measure(runs: int, src: Path) -> dict:
    import importlib

    calls = [(name, _library_call,
              (getattr(importlib.import_module(f"ilwhodge.{module}"), function), *args))
             for name, module, function, args in CALLS]
    calls.append(("verify_commutation(4, 3, h_4(12), h_3(12))", _library_call,
                  (_commute_check, 4, 3, 12)))
    calls.append((f"setup: {SETUP_CODE}", _setup_child, (src,)))
    calls += [(f"cli: {op.label}", _cli_child, (src, op))
              for w in workloads.WORKLOADS for op in workloads.pass_plan(w, CLI_SEED)(0)]
    width = max(len(name) for name, _, _ in calls)
    rows = {}
    for name, fn, args in calls:
        times = [round(fn(*args), 6) for _ in range(runs)]
        rows[name] = {"median_s": statistics.median(times), "times_s": times}
        print(f"{name:{width}s} {rows[name]['median_s']:.3f} s", file=sys.stderr)
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        sys.stderr.write(f"bench.py: error: {message}\n")
        raise SystemExit(2)


def _load(parser: _Parser, path: Path, must_exist: bool) -> dict:
    """The document in `path`, or an empty one when the file is absent and
    need not exist; any other file that is not a JSON object of runs is a
    usage error."""
    if not must_exist and not path.exists():
        if not path.parent.is_dir():
            parser.error(f"--out {path}: no directory {path.parent}")
        return {"runs": {}}
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        parser.error(f"cannot read --out {path}: {exc.strerror}")
    except ValueError as exc:
        parser.error(f"--out {path} is not JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), dict):
        parser.error(f"--out {path} has no \"runs\" object")
    return doc


def compare(doc: dict, a: str, b: str) -> int:
    """Print B's time over A's per shared row, as the median over pairs of
    runs; 1 when a row's paired median regressed past the `wall_s` bound."""
    spec = json.loads((Path(__file__).resolve().parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    rows_a, rows_b = doc["runs"][a]["rows"], doc["runs"][b]["rows"]
    slower = []
    shared = [n for n in rows_a if n in rows_b]
    width = max(map(len, shared), default=0)
    for name in shared:
        ratio = statistics.median(
            tb / ta for ta, tb in zip(rows_a[name]["times_s"], rows_b[name]["times_s"]))
        flag = ""
        if ratio > 1 + bound:
            slower.append(name)
            flag = f"  SLOWER by more than {bound:.0%}"
        print(f"{name:{width}s} median {rows_a[name]['median_s']:8.4f} s -> "
              f"{rows_b[name]['median_s']:8.4f} s  paired {ratio:5.3f}{flag}")
    return 1 if slower else 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare the rows of labels A and B of --out; time nothing")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent / "src")
    parser.add_argument("--commit", help="commit of --src when it is not a git checkout")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.compare:
        doc = _load(parser, args.out, must_exist=True)
        missing = [label for label in args.compare if label not in doc["runs"]]
        if missing:
            labels = ", ".join(doc["runs"]) or "no labels"
            parser.error(f"{args.out} has no label {missing[0]!r}; it has {labels}")
        return compare(doc, *args.compare)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    doc = _load(parser, args.out, must_exist=False)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    rows = measure(args.runs, src)
    entry = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": args.commit or _commit(args.src),
        "runs_per_row": args.runs,
        "rows": rows,
    }
    old = doc["runs"].get(args.label)
    if old and all(old[k] == entry[k] for k in ("python", "nproc", "commit")):
        # the same tree again: its times accumulate, so that two trees timed
        # in alternation share the machine's slow and fast spells
        entry["runs_per_row"] += old["runs_per_row"]
        for name, row in rows.items():
            row["times_s"] = old["rows"].get(name, {"times_s": []})["times_s"] + row["times_s"]
            row["median_s"] = statistics.median(row["times_s"])
    doc["runs"][args.label] = entry
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
