"""Timings of the engine at fixed orders, each in a fresh child, written to BENCH_<n>.json.

    python3 bench.py --out ab.json --src parent=../parent/src --src change=src
    python3 bench.py --out ab.json --compare parent change

One call times every row `--runs` times on each `--src LABEL=PATH` tree.  In
run k of a row the trees take turns, starting with tree k mod their number,
so each run's times come from one spell of a machine whose speed drifts.
Each run is a fresh child with the environment of a `perfbench/run.py`
child (the caller's, less every ILWHODGE_* variable), started in a
temporary directory made for that run that holds only a copy of PATH's
`ilwhodge` package without its `__pycache__`, and is the child's
`PYTHONPATH`.  With `PYTHONDONTWRITEBYTECODE=1` the copy gains no cache, so
every tree compiles from source, as on the benchmark's machine, while the
standard library reads its installed bytecode; a cache that PATH holds is
never read.  A library row's child imports one engine module's public
names, then times the one call (with any engine module it loads) and prints
that time.  The `setup:` and `cli:` rows time the child from start to exit,
as `perfbench/` times an op: the set-up child of `perfbench/run.py`, which
imports the CLI and builds its parser, and a `python -m ilwhodge` call of
each op of the first pass that `perfbench/workloads.py` plans for each
workload at a fixed seed, whose exit code and output go through the op's own
check, untimed.  A failed child or check stops the call.

Each tree's rows, with every time and their median, go under `runs[LABEL]`,
next to the Python version, the number of CPUs this process may run on (as
`perfbench/run.py` records it), the runs per row and the commit that
`git -C PATH rev-parse HEAD` names (null outside a git checkout).  The
file's other labels are kept.

`--compare A B` times nothing: for each row that labels A and B share, it
prints both medians and the median over pairs of B's i-th time over A's
(below 1 when B is faster), and exits 1 when some row's paired median
exceeds 1 plus the `wall_s` bound of BENCHMARK.json; unlike a minimum, that
median is not moved by one fast or slow run.  A row that only one of the
labels has gets one line that says so, and does not change the exit code.
A usage error exits 2 with one line on stderr before any row is timed or
compared: a bad `--src`, `--runs` or `--out`, a label the file lacks, or
labels that share no row or share one with unequal run counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))

import workloads  # noqa: E402
from run import SETUP_CODE, _child_env  # noqa: E402

# (module, call): a library row is named by its call
CALLS = [
    ("hodge", "extract_cg(80)"),
    ("hodge", "one_point_table(60)"),
    # the engine calls of the benchmark's hodge-series workload, at its orders
    ("hodge", "extract_cg(24)"),
    ("hodge", "one_point_table(24)"),
    ("hodge", "verify_one_point_reverse(20)"),
    ("hodge", "verify_linear_term_identity(20)"),
    # the builds of the benchmark's hierarchy workload, at its orders
    ("ilw", "higher_hamiltonian(2, 10)"),
    ("ilw", "higher_hamiltonian(3, 7)"),
    ("ilw", "higher_hamiltonian(4, 6)"),
    ("ilw", "higher_hamiltonian(2, 30)"),
    ("ilw", "higher_hamiltonian(4, 16)"),
    ("ilw", "higher_hamiltonian(4, 20)"),
    ("ilw", "higher_hamiltonian(6, 10)"),
    # the flow of h_6 at G = 10, its build included
    ("ilw", "flow(hamiltonian(6, 10))"),
    # a `verify commute` check of {h_4, h_3} at G = 12, both builds included
    ("ilw", "verify_commutation(4, 3, hamiltonian(4, 12), hamiltonian(3, 12))"),
]
CALL_CODE = ("from ilwhodge.{module} import *; import time; "
             "t0 = time.perf_counter(); {call}; print(time.perf_counter() - t0)")
# the set-up child exits 0 and prints nothing to check
SETUP_OP = workloads.Op(("-c", SETUP_CODE), 0, None)
# the seed of the workloads' pass that gives the `cli:` rows
CLI_SEED = 0


def _commit(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def rows() -> list[tuple]:
    """Every row as (name, the child's arguments, the op whose exit code and
    output check its child; None for a library row)."""
    out = [(call, ["-c", CALL_CODE.format(module=module, call=call)], None)
           for module, call in CALLS]
    out.append((f"setup: {SETUP_CODE}", [*SETUP_OP.argv], SETUP_OP))
    out += [(f"cli: {op.label}", ["-m", "ilwhodge", *op.argv], op)
            for w in workloads.WORKLOADS for op in workloads.pass_plan(w, CLI_SEED)(0)]
    return out


def _child(src: Path, argv: list[str], op: workloads.Op | None) -> float:
    """One run of a row on the tree `src` in a fresh child: the time that a
    library row's child prints, else the child's time from start to exit,
    once its exit code and any output check of `op` pass."""
    with tempfile.TemporaryDirectory() as tmp:
        # a stale `__pycache__` in the tree would spare its child the compile
        shutil.copytree(src / "ilwhodge", Path(tmp) / "ilwhodge",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**_child_env(), "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        # cwd is the copy, so that `-m` finds no other tree's package in the caller's cwd
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env, capture_output=True)
        elapsed = time.perf_counter() - t0
    want = op.exit_code if op else 0
    if proc.returncode != want:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise workloads.CheckFailed(f"exited {proc.returncode}, want {want} {tail}")
    if not op:
        return float(proc.stdout)
    if op.check:
        op.check(json.loads(proc.stdout))
    return elapsed


def measure(runs: int, trees: dict[str, Path]) -> dict[str, dict]:
    """Each tree's rows; run k of a row takes the trees in turn, starting
    with tree k mod len(trees)."""
    labels = list(trees)
    table = rows()
    width = max(len(name) for name, _, _ in table)
    out = {label: {} for label in labels}
    for name, argv, op in table:
        times = {label: [] for label in labels}
        for k in range(runs):
            for label in labels[k % len(labels):] + labels[:k % len(labels)]:
                try:
                    times[label].append(round(_child(trees[label], argv, op), 6))
                except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
                    sys.exit(f"bench.py: {name} on {label}: {exc}")
        for label in labels:
            out[label][name] = {"median_s": statistics.median(times[label]),
                                "times_s": times[label]}
        medians = "  ".join(f"{label} {out[label][name]['median_s']:.3f} s" for label in labels)
        print(f"{name:{width}s} {medians}", file=sys.stderr)
    return out


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


def _trees(parser: _Parser, values: list[str]) -> dict[str, Path]:
    """The `--src LABEL=PATH` trees by label, in the order given."""
    trees = {}
    for value in values:
        label, eq, path = value.partition("=")
        if not eq or not label or label in trees:
            parser.error(f"--src {value!r} is not LABEL=PATH with a label not given before")
        src = Path(path).resolve()
        if not (src / "ilwhodge" / "__init__.py").is_file():
            parser.error(f"--src {value!r}: {src} holds no ilwhodge package")
        trees[label] = src
    return trees


def compare(parser: _Parser, doc: dict, a: str, b: str) -> int:
    """Print B's time over A's per shared row, as the median over pairs of
    runs, and name each row that only one label has; 1 when a row's paired
    median regressed past the `wall_s` bound."""
    spec = json.loads((Path(__file__).resolve().parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    rows_a, rows_b = doc["runs"][a]["rows"], doc["runs"][b]["rows"]
    shared = [n for n in rows_a if n in rows_b]
    if not shared:
        parser.error(f"labels {a!r} and {b!r} share no row")
    uneven = [n for n in shared if len(rows_a[n]["times_s"]) != len(rows_b[n]["times_s"])]
    if uneven:
        parser.error(f"row {uneven[0]!r} has unequal run counts under {a!r} and {b!r}")
    slower = []
    width = max(map(len, shared))
    for name in shared:
        ratio = statistics.median(
            tb / ta for ta, tb in zip(rows_a[name]["times_s"], rows_b[name]["times_s"]))
        flag = ""
        if ratio > 1 + bound:
            slower.append(name)
            flag = f"  SLOWER by more than {bound:.0%}"
        print(f"{name:{width}s} median {rows_a[name]['median_s']:8.4f} s -> "
              f"{rows_b[name]['median_s']:8.4f} s  paired {ratio:5.3f}{flag}")
    for label, rows, other in ((a, rows_a, rows_b), (b, rows_b, rows_a)):
        for name in rows:
            if name not in other:
                print(f"{name}: only under {label!r}, not compared")
    return 1 if slower else 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=PATH",
                        help="a source tree to time under LABEL; repeat for each tree")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare the rows of labels A and B of --out; time nothing")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.compare:
        doc = _load(parser, args.out, must_exist=True)
        missing = [label for label in args.compare if label not in doc["runs"]]
        if missing:
            labels = ", ".join(doc["runs"]) or "no labels"
            parser.error(f"{args.out} has no label {missing[0]!r}; it has {labels}")
        return compare(parser, doc, *args.compare)
    if not args.src:
        parser.error("--src is required unless --compare is given")
    trees = _trees(parser, args.src)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    doc = _load(parser, args.out, must_exist=False)
    python, nproc = platform.python_version(), len(os.sched_getaffinity(0))
    for label, rows_of_tree in measure(args.runs, trees).items():
        doc["runs"][label] = {"python": python, "nproc": nproc, "commit": _commit(trees[label]),
                              "runs_per_row": args.runs, "rows": rows_of_tree}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
