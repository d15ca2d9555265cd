"""Tests of the benchmark itself: traced counts repeat exactly, each workload
bypasses the layers it is meant to bypass, span self times add up, and the
output checks reject wrong outputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import run
import workloads
from workloads import CheckFailed

COUNT_METRICS = [
    name for name in run.UNITS
    if name.endswith("_calls") or name in (
        "mpseries.mul_term_pairs", "diffalg.normalize_terms_in", "linalg.matrix_cells",
        "mpseries.max_coeff_bits",
    )
]


def _traced_pass(workload: str, seed: int = 7) -> list[run.OpRun]:
    tally = run.Tally()
    runs = [tally.run(op, traced=True) for op in workloads.pass_plan(workload, seed)(0)]
    assert tally.failed == 0
    return runs


@pytest.fixture(scope="module")
def traced():
    return {w: (_traced_pass(w), _traced_pass(w)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(traced, workload):
    first, second = (run.layer_metrics(r) for r in traced[workload])
    assert {n: first[n] for n in COUNT_METRICS} == {n: second[n] for n in COUNT_METRICS}
    assert first["mpseries.mul_calls"] > 0


def test_hodge_series_bypasses_diffalg_and_linalg(traced):
    m = run.layer_metrics(traced["hodge-series"][0])
    assert m["mpseries.series_op_mul_calls"] > 0
    for name in ("diffalg.normalize_calls", "diffalg.total_x_derivative_calls",
                 "linalg.solve_calls", "ilw.higher_hamiltonian_calls", "ilw.h1_calls"):
        assert m[name] == 0, name


def test_hierarchy_bypasses_series_ops(traced):
    m = run.layer_metrics(traced["hierarchy"][0])
    assert m["mpseries.series_op_mul_calls"] == 0
    assert m["mpseries.exp_s"] == m["mpseries.log_s"] == m["mpseries.inverse_s"] == 0
    assert m["ilw.distinct_hamiltonian_ratio"] == 1.0
    assert m["linalg.solve_calls"] > 0 and m["diffalg.normalize_calls"] > 0


def test_verify_suite_rebuilds_hamiltonians(traced):
    m = run.layer_metrics(traced["verify-suite"][0])
    # verify all at G=8 builds h_2(8) twice; the control's builds depend on g0
    assert m["ilw.distinct_hamiltonian_ratio"] < 1.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_self_times_add_up_to_the_cli_span(traced, workload):
    runs = traced[workload][0]
    for r in runs:
        spans = r.trace["spans"]
        total_self = sum(s["self_s"] for s in spans.values())
        assert total_self == pytest.approx(spans["cli.main"]["incl_s"], rel=1e-6)
        assert spans["cli.main"]["incl_s"] < r.wall_s
    # what the spans miss is interpreter start-up and import, not engine work
    assert 0.5 < run.layer_metrics(runs)["trace_accounted_ratio"] < 1.0


def _doc(status: str, details: list) -> dict:
    return {"command": "x", "config": {}, "status": status, "details": details}


def test_one_point_check_rejects_a_changed_value():
    check = workloads.check_one_point(3)
    rows = [
        {"g": g, "j": j, "d": list(d), "value": str(v)}
        for g, j, d, v in workloads._one_point_expected(3)
    ]
    check(_doc("ok", rows))
    rows[-1]["value"] = str(Fraction(rows[-1]["value"]) + 1)
    with pytest.raises(CheckFailed):
        check(_doc("ok", rows))


def test_hamiltonian_check_hashes_details_only():
    check = workloads.check_hamiltonian(4, 6)
    doc = json.loads(run.spawn(
        [sys.executable, "-m", "ilwhodge", "hamiltonian", "--index", "4", "--genus", "6",
         "--format", "json"]
    ).stdout)
    doc["config"] = {}
    check(doc)
    doc["details"][0]["genus"] += 1
    with pytest.raises(CheckFailed):
        check(doc)


def test_negative_control_check_requires_the_injected_locus():
    delta = Fraction(1, 7)
    c3 = workloads.c_g_reference(3)

    def report(g: int) -> list:
        return [{"name": "cg", "status": "mismatch", "order_checked": 6,
                 "first_mismatch": {"g": g, "expected": str(c3 + delta), "computed": str(c3)}}]

    workloads.check_negative_control(3, delta)(_doc("mismatch", report(3)))
    with pytest.raises(CheckFailed):
        workloads.check_negative_control(2, delta)(_doc("mismatch", report(3)))
    with pytest.raises(CheckFailed):
        workloads.check_negative_control(3, delta)(_doc("ok", report(3)))


def test_verify_check_requires_every_report_ok():
    check = workloads.check_verify({"cg"})
    check(_doc("ok", [{"name": "cg", "status": "ok", "order_checked": 4}]))
    with pytest.raises(CheckFailed):
        check(_doc("ok", [{"name": "cg", "status": "mismatch", "order_checked": 4}]))
    with pytest.raises(CheckFailed):
        check(_doc("ok", [{"name": "linear-term", "status": "ok", "order_checked": 4}]))


def test_negative_control_loci_cover_the_valid_domain():
    plan = workloads.pass_plan("verify-suite", 3)
    loci = set()
    for k in range(workloads.NEGATIVE_CONTROL_GENUS):
        (control,) = [op for op in plan(k) if "--perturb-cg" in op.argv]
        loci.add(int(control.argv[control.argv.index("--perturb-cg") + 1].split(":")[0]))
    assert loci == set(range(1, workloads.NEGATIVE_CONTROL_GENUS + 1))
