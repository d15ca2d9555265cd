"""`bench.py`: `--compare` on synthetic runs and recorded A/B files, the
checks of its arguments, and the order in which one call times two trees."""

from __future__ import annotations

import importlib.util
import itertools
import json
import py_compile
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(bench, tmp_path, times_a, times_b) -> int:
    doc = {"runs": {
        label: {"rows": {"row": {"median_s": statistics.median(times), "times_s": times}}}
        for label, times in (("parent", times_a), ("change", times_b))
    }}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    return bench.main(["--out", str(path), "--compare", "parent", "change"])


TIMES = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97]


def test_one_fast_outlier_is_not_a_regression(bench, tmp_path, capsys):
    # the parent's minimum is 0.6 s against the change's 0.97 s
    assert _compare(bench, tmp_path, [0.6, *TIMES[1:]], TIMES) == 0
    assert "SLOWER" not in capsys.readouterr().out


def test_consistent_slowdown_is_a_regression(bench, tmp_path, capsys):
    assert _compare(bench, tmp_path, TIMES, [1.3 * t for t in TIMES]) == 1
    assert "paired 1.300  SLOWER by more than 20%" in capsys.readouterr().out


def test_recorded_runs_of_an_unchanged_engine_pass(bench, capsys):
    # BENCH_20.json: the minimum of higher_hamiltonian(4, 20) went 0.654 -> 0.812 s
    assert bench.main(["--out", str(ROOT / "BENCH_20.json"), "--compare", "parent", "change"]) == 0
    assert "SLOWER" not in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_recorded_file_pairs_equal_run_counts(bench, path):
    assert bench.main(["--out", str(path), "--compare", "parent", "change"]) == 0


def _usage_error(bench, capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bench.py: error: ")
    return err


def _no_timing(*args):
    raise AssertionError("a row was timed")


def test_compare_on_a_missing_file_is_a_usage_error(bench, tmp_path, capsys):
    argv = ["--out", str(tmp_path / "absent.json"), "--compare", "parent", "change"]
    assert "cannot read --out" in _usage_error(bench, capsys, argv)


@pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"rows": {}}'],
                         ids=["text", "list", "no-runs"])
@pytest.mark.parametrize("mode", [["--compare", "parent", "change"], ["--src", f"change={SRC}"]],
                         ids=["compare", "label"])
def test_an_out_that_is_no_runs_file_is_a_usage_error(bench, tmp_path, capsys, monkeypatch,
                                                      text, mode):
    monkeypatch.setattr(bench, "measure", _no_timing)
    path = tmp_path / "bench.json"
    path.write_text(text)
    _usage_error(bench, capsys, ["--out", str(path), *mode])


def test_an_out_in_no_directory_is_a_usage_error(bench, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "measure", _no_timing)
    argv = ["--out", str(tmp_path / "absent" / "bench.json"), "--src", f"change={SRC}"]
    assert "no directory" in _usage_error(bench, capsys, argv)


def test_a_file_with_no_labels_says_so(bench, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text('{"runs": {}}')
    err = _usage_error(bench, capsys, ["--out", str(path), "--compare", "parent", "change"])
    assert err.endswith("has no label 'parent'; it has no labels\n")


def test_cli_children_ignore_the_callers_ilwhodge_variables(bench, tmp_path, monkeypatch):
    # with ILWHODGE_OUTPUT passed on, the op's JSON would go to the file and
    # its check would read an empty stdout
    target = tmp_path / "out.json"
    monkeypatch.setenv("ILWHODGE_OUTPUT", str(target))
    workloads = bench.workloads
    op = workloads.Op(("verify", "linear-term", "--genus", "3", "--format", "json"), 0,
                      workloads.check_verify({"linear-term"}))
    assert bench._child(SRC, ["-m", "ilwhodge", *op.argv], op) > 0
    assert not target.exists()


def test_children_compile_the_tree_from_source(bench, tmp_path, monkeypatch):
    # the tree's cache holds bytecode of `X = 1` that never checks its source,
    # so a child that read it would print 1
    package = tmp_path / "tree" / "ilwhodge"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    source = package / "stale.py"
    source.write_text("X = 1\n")
    py_compile.compile(str(source),
                       cfile=str(package / "__pycache__" / f"stale.{sys.implementation.cache_tag}.pyc"),
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    source.write_text("X = 2\n")
    cache = sorted((package / "__pycache__").iterdir())
    calls = []
    run = bench.subprocess.run

    def spy(argv, **kwargs):
        calls.append(kwargs)
        return run(argv, **kwargs)

    monkeypatch.setattr(bench.subprocess, "run", spy)
    assert bench._child(package.parent, ["-c", "from ilwhodge.stale import X; print(X)"],
                        None) == 2.0
    (kwargs,) = calls
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["cwd"] == kwargs["env"]["PYTHONPATH"] != str(package.parent)
    assert not Path(kwargs["cwd"]).exists()
    assert sorted((package / "__pycache__").iterdir()) == cache


def test_nproc_counts_the_cpus_the_process_may_run_on(bench, tmp_path, monkeypatch):
    # as perfbench/run.py records it: under `taskset -c 0` on a 2-CPU machine, 1
    monkeypatch.setattr(bench, "measure", lambda runs, trees: {label: {} for label in trees})
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "bench.json"
    assert bench.main(["--out", str(path), "--src", f"change={SRC}"]) == 0
    assert json.loads(path.read_text())["runs"]["change"]["nproc"] == 1


def test_labels_that_share_no_row_are_a_usage_error(bench, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs": {
        "parent": {"rows": {"old row": {"median_s": 1.0, "times_s": [1.0]}}},
        "change": {"rows": {"new row": {"median_s": 1.0, "times_s": [1.0]}}},
    }}))
    err = _usage_error(bench, capsys, ["--out", str(path), "--compare", "parent", "change"])
    assert "'parent' and 'change' share no row" in err


@pytest.mark.parametrize("factor, code", [(1.0, 0), (1.3, 1)], ids=["even", "slower"])
def test_rows_that_one_label_lacks_are_named(bench, tmp_path, capsys, factor, code):
    # an older file lacks the rows added since; the exit code reads the shared rows only
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs": {
        "parent": {"rows": {"row": {"median_s": 1.0, "times_s": TIMES},
                            "old row": {"median_s": 1.0, "times_s": TIMES}}},
        "change": {"rows": {"row": {"median_s": 1.0, "times_s": [factor * t for t in TIMES]},
                            "new row": {"median_s": 9.0, "times_s": [9.0] * len(TIMES)}}},
    }}))
    assert bench.main(["--out", str(path), "--compare", "parent", "change"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["old row: only under 'parent', not compared",
                         "new row: only under 'change', not compared"]
    assert lines[0].startswith("row ")


def test_unequal_run_counts_are_a_usage_error(bench, tmp_path, capsys):
    # zip would pair the first three runs and drop the parent's last two
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"runs": {
        "parent": {"rows": {"row": {"median_s": 1.0, "times_s": TIMES[:5]}}},
        "change": {"rows": {"row": {"median_s": 1.0, "times_s": TIMES[:3]}}},
    }}))
    err = _usage_error(bench, capsys, ["--out", str(path), "--compare", "parent", "change"])
    assert "row 'row' has unequal run counts under 'parent' and 'change'" in err


@pytest.mark.parametrize("srcs", [
    ["change"],
    [f"={SRC}"],
    [f"change={SRC}", f"change={SRC}"],
    ["change={tmp}"],
], ids=["no-equals", "empty-label", "repeated-label", "no-package"])
def test_a_bad_src_is_a_usage_error(bench, tmp_path, capsys, monkeypatch, srcs):
    monkeypatch.setattr(bench, "measure", _no_timing)
    argv = ["--out", str(tmp_path / "bench.json")]
    for value in srcs:
        argv += ["--src", value.format(tmp=tmp_path)]
    assert "--src" in _usage_error(bench, capsys, argv)
    assert not (tmp_path / "bench.json").exists()


def test_one_call_alternates_the_trees_per_run(bench, tmp_path, monkeypatch):
    other = tmp_path / "other"
    (other / "ilwhodge").mkdir(parents=True)
    (other / "ilwhodge" / "__init__.py").write_text("")
    trees = [SRC, other]
    calls = []
    clock = itertools.count(1)

    def child(src, argv, op):
        calls.append((tuple(argv), src))
        return float(next(clock))

    monkeypatch.setattr(bench, "_child", child)
    path = tmp_path / "bench.json"
    runs = 3
    assert bench.main(["--out", str(path), "--src", f"parent={SRC}", "--src", f"change={other}",
                       "--runs", str(runs)]) == 0
    doc = json.loads(path.read_text())["runs"]
    names = [name for name, _, _ in bench.rows()]
    for label in ("parent", "change"):
        assert doc[label]["runs_per_row"] == runs
        assert list(doc[label]["rows"]) == names
        assert all(len(row["times_s"]) == runs for row in doc[label]["rows"].values())
    by_row = {}
    for argv, src in calls:
        by_row.setdefault(argv, []).append(src)
    assert len(by_row) == len(names)
    for order in by_row.values():
        assert order == [trees[(k + i) % 2] for k in range(runs) for i in range(2)]
    # every recorded time is one the stubbed child returned: nothing else timed a row
    recorded = sorted(t for label in doc for row in doc[label]["rows"].values()
                      for t in row["times_s"])
    assert recorded == [float(t) for t in range(1, len(calls) + 1)]
