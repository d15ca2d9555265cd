"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact rational equality.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from ilwhodge import exactnum
from ilwhodge.cli import main as cli_main
from ilwhodge.diffalg import (
    DiffPoly,
    poisson_bracket,
    total_x_derivative,
    u_key,
)
from ilwhodge.hodge import (
    extract_cg,
    one_point_table,
    s_series,
    s_tilde_series,
    verify_linear_term_identity,
)
from ilwhodge.ilw import (
    first_diffpoly_mismatch,
    flow,
    h1,
    higher_hamiltonian,
    t1_flow_rhs,
    t2_flow_rhs,
    verify_commutation,
)
from ilwhodge.mpseries import MultiSeries, coeff_ring, exp_series, sinc_half_series
from oracles import log_sinc_half_coeffs, one_point_oracle
from properties import ALL_SUITES, he_group, u_power


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_cg_extraction():
    start = time.monotonic()
    got = extract_cg(80)
    elapsed = time.monotonic() - start
    exact = all(got[g - 1] == exactnum.c_g(g) for g in range(1, 81))
    assert got[0] == Fraction(1, 24)
    assert got[1] == Fraction(1, 1440)
    assert got[2] == Fraction(1, 60480)
    _report(
        1,
        exact and elapsed < 10.0,
        f"extract_cg(G=80) == |B_2g|/(2(2g)!) for g=1..80 in {elapsed:.3f}s",
    )


def test_criterion_2_first_flow():
    got = flow(h1(5))
    mism = first_diffpoly_mismatch(got, t1_flow_rhs(5))
    c1 = he_group(got, {3: 1}) == {(1, 0): Fraction(1, 12)}
    c2 = he_group(got, {5: 1}) == {(2, 1): Fraction(1, 720)}
    _report(
        2,
        mism is None and c1 and c2,
        "flow(h1(G=5)) equals the displayed first flow (1/12 at g=1, 1/720 at g=2)",
    )


def test_criterion_3_second_flow():
    G = 30
    start = time.monotonic()
    got = flow(higher_hamiltonian(2, G))
    mism = first_diffpoly_mismatch(got, t2_flow_rhs(G))
    build_s = time.monotonic() - start

    # h^1 e^0 slice must be (1/48)(2 (u u_2)_x + d^3/dx^3 (u^2)), built here
    cv = coeff_ring(G)
    expected_slice = total_x_derivative(DiffPoly(cv, {(u_key({0: 1, 2: 1}), 0, 0): 2}))
    cube = u_power(cv, 0, 2)
    for _ in range(3):
        cube = total_x_derivative(cube)
    expected_slice = (expected_slice + cube) * Fraction(1, 48)
    slice_ok = all(
        got.terms.get((ue, 1, 0)) == c for (ue, _, _), c in expected_slice.terms.items()
    )
    u5_ok = got.terms.get((u_key({5: 1}), 2, 0)) == Fraction(1, 240)

    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "ilwhodge", "verify", "ilw-t2", "--genus", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    elapsed = time.monotonic() - start
    _report(
        3,
        mism is None and slice_ok and u5_ok and build_s < 10.0
        and proc.returncode == 0 and elapsed < 60.0,
        f"flow(h2(G={G})) matches the displayed second flow in {build_s:.2f}s; "
        f"CLI verify ilw-t2 --genus 3 exit 0 in {elapsed:.2f}s",
    )


def test_criterion_4_commutation():
    start = time.monotonic()
    defining = poisson_bracket(higher_hamiltonian(2, 12), h1(12))
    # each pair builds both of its Hamiltonians at h^12
    pairs = [verify_commutation(i, j, higher_hamiltonian(i, 12), higher_hamiltonian(j, 12))
             for i, j in ((3, 2), (4, 3))]
    elapsed = time.monotonic() - start
    _report(
        4,
        not defining and all(r.ok for r in pairs) and elapsed < 10.0,
        "{h2, h1} = 0 up to h^12; {h3, h2} = 0 up to h^12; {h4, h3} = 0 up to h^12 "
        f"in {elapsed:.2f}s (reported)",
    )


def test_criterion_5_one_point_values():
    table = one_point_table(2)
    oracle = one_point_oracle(2)
    frozen = (
        table[(1, 1, (0,))] == Fraction(1, 24)
        and table[(1, 0, (1,))] == Fraction(1, 24)
        and table[(2, 2, (2,))] == Fraction(7, 5760)
        and table[(2, 0, (4,))] == Fraction(1, 1152)
    )
    against_oracle = (
        oracle[(1, 0)] == table[(1, 1, (0,))]
        and oracle[(1, 1)] == table[(1, 0, (1,))]
        and oracle[(2, 0)] == table[(2, 2, (2,))]
        and oracle[(2, 2)] == table[(2, 0, (4,))]
    )
    _report(
        5,
        frozen and against_oracle,
        "one-point values 1/24, 1/24, 7/5760, 1/1152 confirmed against the brute-force oracle",
    )


def test_criterion_6_s_tilde_consistency():
    G = 8
    hv = coeff_ring(G)
    path_a = s_series(G) * sinc_half_series(G)
    exponent = {(g, g - 1): c for g, c in log_sinc_half_coeffs(G).items()}
    path_b = exp_series(MultiSeries(hv, exponent))
    internal = s_tilde_series(G)
    _report(
        6,
        path_a == path_b == internal,
        "sine-factor and direct-exponential routes to S~ agree exactly to h^8",
    )


def test_criterion_7_linear_term_identity():
    report = verify_linear_term_identity(4)
    _report(
        7,
        report.ok,
        "linear-term identity (dilaton factor 2g+1 vs u u_x + dispersive sum) holds at G=4",
    )


def test_criterion_8_property_suites():
    results = []
    for name, fn in ALL_SUITES:
        cases = fn(200, 20240817)
        results.append(f"{name} x{cases}")
    _report(8, True, "property suites all exact: " + "; ".join(results))


def test_criterion_9_negative_controls(capsys):
    delta = "1/1000000"
    ok = True
    locus_checks = []
    for g0 in (1, 2, 3):
        for which, locus_key in (("cg", "g"), ("ilw-t1", "h_exp"), ("linear-term", "h_exp")):
            code = cli_main(
                ["verify", which, "--genus", "4", "--format", "json",
                 "--perturb-cg", f"{g0}:{delta}"]
            )
            out = capsys.readouterr().out
            data = json.loads(out)
            mismatch = data["details"][0].get("first_mismatch") or {}
            localized = code == 1 and data["status"] == "mismatch" and mismatch.get(locus_key) == g0
            ok = ok and localized
            locus_checks.append(f"{which}@g={g0}:{'ok' if localized else 'MISS'}")
    with capsys.disabled():
        _report(
            9,
            ok,
            "perturbing any single c_g by 1/1000000 exits 1 with a localized first mismatch ("
            + ", ".join(locus_checks) + ")",
        )
