"""In-process timings of the engine at fixed orders, written to BENCH_<n>.json.

    python3 bench.py --out BENCH_16.json --label change
    python3 bench.py --out BENCH_16.json --label parent --src ../parent/src --commit <sha>

Each row is one library call, timed `--runs` times in this process; the row
keeps every time and their median.  The rows go under `runs[label]`, next to
the Python version, the CPU count and the commit of the timed source tree;
other labels already in the file are kept, so two trees measured on the
same machine can share one file.  Unlike `perfbench/`, which times whole
CLI calls, these rows leave out interpreter start-up.
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
    ("higher_hamiltonian(2, 30)", "ilw", "higher_hamiltonian", (2, 30)),
    ("higher_hamiltonian(4, 16)", "ilw", "higher_hamiltonian", (4, 16)),
    ("higher_hamiltonian(4, 20)", "ilw", "higher_hamiltonian", (4, 20)),
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
            times.append(round(time.perf_counter() - t0, 4))
        rows[name] = {"median_s": statistics.median(times), "times_s": times}
        print(f"{name:32s} {rows[name]['median_s']:.3f} s", file=sys.stderr)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent / "src")
    parser.add_argument("--commit", help="commit of --src when it is not a git checkout")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    rows = measure(args.runs)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"][args.label] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": args.commit or _commit(args.src),
        "runs_per_row": args.runs,
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
