"""In-process timings of the engine at fixed orders, written to BENCH_<n>.json.

    python3 bench.py --out BENCH_17.json --label change
    python3 bench.py --out BENCH_17.json --label parent --src ../parent/src --commit <sha>
    python3 bench.py --out BENCH_17.json --compare parent change

Each row is one library call, timed `--runs` times in this process; the row
keeps every time and their median.  The rows go under `runs[label]`, next to
the Python version, the CPU count and the commit of the timed source tree;
other labels already in the file are kept, so two trees measured on the
same machine can share one file.  A second call with the same label, commit,
Python version and CPU count adds its times to the label's rows instead, so
two trees can be timed in alternation, a few runs at a time, on a machine
whose speed drifts.  Unlike `perfbench/`, which times whole CLI calls, these
rows leave out interpreter start-up.

`--compare A B` times nothing: it prints, for each row that labels A and B
of the file share, both minima and the ratio of A's minimum to B's (above 1
when B is faster), with both medians beside them, and exits 1 when some
row's minimum in B is slower than A's by more than the `wall_s` bound of
BENCHMARK.json.  The minimum is the judge because on a shared machine the
medians of a row whose code did not change spread by up to about 13 %.
A usage error, such as a label the file lacks or `--runs` below 1, exits 2
with one line on stderr.
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
    ("verify_commutation(4, 3, 12)", "ilw", "verify_commutation", (4, 3, 12)),
]


def _commit(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(runs: int) -> dict:
    import importlib

    rows = {}
    for name, module, function, args in CALLS:
        fn = getattr(importlib.import_module(f"ilwhodge.{module}"), function)
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            fn(*args)
            times.append(round(time.perf_counter() - t0, 6))
        rows[name] = {"median_s": statistics.median(times), "times_s": times}
        print(f"{name:32s} {rows[name]['median_s']:.3f} s", file=sys.stderr)
    return rows


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        sys.stderr.write(f"bench.py: error: {message}\n")
        raise SystemExit(2)


def compare(doc: dict, a: str, b: str) -> int:
    """Print B's speedup over A per shared row, by minima; 1 when a row's
    minimum regressed past the `wall_s` bound."""
    spec = json.loads((Path(__file__).resolve().parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    rows_a, rows_b = doc["runs"][a]["rows"], doc["runs"][b]["rows"]
    slower = []
    for name in [n for n in rows_a if n in rows_b]:
        ta, tb = min(rows_a[name]["times_s"]), min(rows_b[name]["times_s"])
        flag = ""
        if tb > ta * (1 + bound):
            slower.append(name)
            flag = f"  SLOWER by more than {bound:.0%}"
        print(f"{name:32s} min {ta:8.4f} s -> {tb:8.4f} s  {ta / tb:5.2f}x"
              f"  (median {rows_a[name]['median_s']:.4f} -> {rows_b[name]['median_s']:.4f}){flag}")
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
        doc = json.loads(args.out.read_text())
        missing = [label for label in args.compare if label not in doc["runs"]]
        if missing:
            parser.error(f"{args.out} has no label {missing[0]!r}; it has {', '.join(doc['runs'])}")
        return compare(doc, *args.compare)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    sys.path.insert(0, str(args.src.resolve()))
    rows = measure(args.runs)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    entry = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
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
