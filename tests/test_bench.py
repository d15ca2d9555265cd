"""`bench.py --compare` on synthetic runs and on a recorded A/B file."""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
@pytest.mark.parametrize("mode", [["--compare", "parent", "change"], ["--label", "change"]],
                         ids=["compare", "label"])
def test_an_out_that_is_no_runs_file_is_a_usage_error(bench, tmp_path, capsys, monkeypatch,
                                                      text, mode):
    monkeypatch.setattr(bench, "measure", _no_timing)
    path = tmp_path / "bench.json"
    path.write_text(text)
    _usage_error(bench, capsys, ["--out", str(path), *mode])


def test_an_out_in_no_directory_is_a_usage_error(bench, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "measure", _no_timing)
    argv = ["--out", str(tmp_path / "absent" / "bench.json"), "--label", "change"]
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
    assert bench._cli_child(ROOT / "src", op) > 0
    assert not target.exists()


def test_nproc_counts_the_cpus_the_process_may_run_on(bench, tmp_path, monkeypatch):
    # as perfbench/run.py records it: under `taskset -c 0` on a 2-CPU machine, 1
    monkeypatch.setattr(bench, "measure", lambda runs, src: {})
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "bench.json"
    assert bench.main(["--out", str(path), "--label", "change", "--commit", "abc"]) == 0
    assert json.loads(path.read_text())["runs"]["change"]["nproc"] == 1
