from __future__ import annotations

import ast
import errno
import gc
import importlib
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from ilwhodge.cli import VERIFY, build_parser, checks, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestBernoulli:
    def test_paper_values_present(self, capsys):
        code, out = run(capsys, "bernoulli", "--max", "4")
        assert code == 0
        assert "1/6" in out and "-1/30" in out

    def test_single_row(self, capsys):
        code, data = run_json(capsys, "bernoulli", "--max", "0")
        assert code == 0
        assert data["details"] == [{"kind": "B", "index": 0, "value": "1"}]

    def test_recurrence_oracle_value(self, capsys):
        code, data = run_json(capsys, "bernoulli", "--max", "12")
        values = {(r["kind"], r["index"]): r["value"] for r in data["details"]}
        assert values[("B", 12)] == "-691/2730"
        assert str(Fraction(values[("C", 6)])) == values[("C", 6)]

    def test_envelope_schema(self, capsys):
        code, data = run_json(capsys, "bernoulli", "--max", "2")
        assert data["command"] == "bernoulli"
        assert data["status"] == "ok"
        assert set(data["config"]) == {
            "genus_order",
            "hierarchy_index",
            "output_format",
            "output_path",
        }

    def test_negative_max_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bernoulli", "--max", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "ilwhodge: error: argument --max: must be >= 0, got -1\n"
        assert captured.out == ""


class TestConstants:
    def test_values(self, capsys):
        code, data = run_json(capsys, "constants", "--max-genus", "3")
        assert code == 0
        rows = data["details"]
        assert rows[0] == {"g": 1, "c_g": "1/24", "dispersion": "1/12"}
        assert rows[2]["c_g"] == "1/60480"


class TestOnePoint:
    def test_genus_one(self, capsys):
        code, data = run_json(capsys, "one-point", "--max-genus", "1")
        assert code == 0
        assert [r["value"] for r in data["details"]] == ["1/24", "1/24"]

    def test_genus_two_contains_7_5760(self, capsys):
        code, data = run_json(capsys, "one-point", "--max-genus", "2")
        assert "7/5760" in [r["value"] for r in data["details"]]

    def test_zero_rejected_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["one-point", "--max-genus", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_csv(self, capsys):
        code, out = run(capsys, "one-point", "--max-genus", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "g,j,d,value"
        assert "1,0,1,1/24" in lines

    def test_json_rows(self, capsys):
        code, data = run_json(capsys, "one-point", "--max-genus", "1")
        assert code == 0
        assert data["details"] == [
            {"g": 1, "j": 0, "d": [1], "value": "1/24"},
            {"g": 1, "j": 1, "d": [0], "value": "1/24"},
        ]

    def test_latex_math_mode_table(self, capsys):
        code, out = run(capsys, "one-point", "--max-genus", "1", "--format", "latex")
        assert code == 0
        assert out == (
            "\\begin{tabular}{rrrl}\n"
            "$g$ & $j$ & $d$ & value \\\\ \\hline\n"
            "1 & 0 & $(1)$ & $\\frac{1}{24}$ \\\\\n"
            "1 & 1 & $(0)$ & $\\frac{1}{24}$ \\\\\n"
            "\\end{tabular}\n"
        )


class TestExpressions:
    def test_h1_density(self, capsys):
        code, out = run(capsys, "hamiltonian", "--index", "1", "--genus", "0")
        assert code == 0
        assert out.strip() == "int(1/6*u^3) dx"

    def test_h2_density(self, capsys):
        code, out = run(capsys, "hamiltonian", "--index", "2", "--genus", "0")
        assert out.strip() == "int(1/24*u^4) dx"

    def test_flow_first_order(self, capsys):
        code, out = run(capsys, "flow", "--index", "1", "--genus", "1")
        assert out.strip() == "u*u_1 + 1/12*h*u_3"

    def test_flow_latex(self, capsys):
        code, out = run(capsys, "flow", "--index", "1", "--genus", "1", "--format", "latex")
        assert r"\hbar" in out

    def test_flow_csv(self, capsys):
        code, out = run(capsys, "flow", "--index", "1", "--genus", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "monomial,h_exp,e_exp,coefficient"
        assert "u_3,1,0,1/12" in lines

    def test_flow_json_round_trips(self, capsys):
        code, data = run_json(capsys, "flow", "--index", "1", "--genus", "2")
        terms = data["details"][0]["flow"]
        for term in terms:
            for entry in term["coef"]["terms"]:
                assert str(Fraction(entry["coef"])) == entry["coef"]


class TestVerify:
    def test_cg_ok(self, capsys):
        code, data = run_json(capsys, "verify", "cg", "--genus", "5")
        assert code == 0
        assert data["status"] == "ok"

    def test_all_ok(self, capsys):
        code, data = run_json(capsys, "verify", "all", "--genus", "2")
        assert code == 0
        names = [d["name"] for d in data["details"]]
        assert names == [
            "cg",
            "ilw-t1",
            "ilw-t2",
            "commute(2,1)",
            "commute(3,2)",
            "linear-term",
            "one-point-reverse",
        ]

    def test_perturbed_cg_fails(self, capsys):
        code, data = run_json(
            capsys, "verify", "cg", "--genus", "4", "--perturb-cg", "2:1/1000000"
        )
        assert code == 1
        assert data["status"] == "mismatch"
        assert data["details"][0]["first_mismatch"]["g"] == 2

    def test_perturbed_t1_fails(self, capsys):
        code, data = run_json(
            capsys, "verify", "ilw-t1", "--genus", "3", "--perturb-cg", "1:1/1000000"
        )
        assert code == 1
        assert data["details"][0]["first_mismatch"]["h_exp"] == 1

    def test_perturbed_linear_term_fails(self, capsys):
        code, data = run_json(
            capsys, "verify", "linear-term", "--genus", "3", "--perturb-cg", "3:1/1000000"
        )
        assert code == 1
        assert data["details"][0]["first_mismatch"]["h_exp"] == 3

    def test_pretty_format(self, capsys):
        code, out = run(capsys, "verify", "cg", "--genus", "3", "--format", "pretty")
        assert code == 0
        assert "PASS  cg" in out

    def test_bad_perturbation_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cg", "--perturb-cg", "nonsense"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("spec, reason", [
        ("2:1/0", "denominator must be positive in '1/0'"),
        ("x:1/3", "invalid literal for int() with base 10: 'x'"),
        ("1:1/-2", "denominator must be positive in '1/-2'"),
    ], ids=["zero-denominator", "bad-locus", "negative-denominator"])
    def test_bad_perturbation_spec_gives_its_reason(self, capsys, spec, reason):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cg", "--perturb-cg", spec])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"ilwhodge: error: argument --perturb-cg: expected G:P/Q "
                                f"(e.g. 2:1/1000000), got {spec!r}: {reason}\n")

    @pytest.mark.parametrize("delta, expected", [
        ("1/6", Fraction(1, 6)), ("-7", Fraction(-7)), (" -3/9 ", Fraction(-1, 3)),
    ])
    def test_perturbation_shift_is_read_as_str_prints_it(self, delta, expected):
        args = build_parser().parse_args(["verify", "cg", "--perturb-cg", f"1:{delta}"])
        assert args.perturb_cg == (1, expected)

    def test_perturbation_shift_round_trips_str(self, capsys):
        # the 200 values of a seeded draw, and a zero, which is the zero-shift error
        rng = random.Random(7)
        draws = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(200)]
        for x in [Fraction(0), *draws]:
            spec = f"3:{x}"
            if x == 0:
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args(["verify", "cg", "--perturb-cg", spec])
                assert exc.value.code == 2
                assert capsys.readouterr().err == (
                    f"ilwhodge: error: argument --perturb-cg: a zero shift injects no fault, "
                    f"got {spec!r}\n")
            else:
                args = build_parser().parse_args(["verify", "cg", "--perturb-cg", spec])
                assert args.perturb_cg == (3, x)

    def test_zero_shift_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cg", "--genus", "3", "--perturb-cg", "2:0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("locus", ["0", "4"])
    def test_perturbation_outside_orders_rejected(self, capsys, locus):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cg", "--genus", "3", "--perturb-cg", f"{locus}:1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "outside 1..3" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "latex"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_table_formats_rejected(self, capsys, monkeypatch, fmt, from_env):
        argv = ["verify", "cg", "--genus", "2"]
        if from_env:
            monkeypatch.setenv("ILWHODGE_FORMAT", fmt)
        else:
            argv += ["--format", fmt]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and fmt in captured.err

    def test_unknown_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_engine_error_reports_the_order_its_check_ran_at(self, capsys, monkeypatch):
        from ilwhodge import ilw

        def boom(i, j, h_i, h_j):
            raise RuntimeError(f"no bracket for h_{i}, h_{j}")

        monkeypatch.setattr(ilw, "verify_commutation", boom)
        code, data = run_json(capsys, "verify", "commute", "--genus", "5")
        assert code == 1
        assert [(d["name"], d["status"], d["order_checked"]) for d in data["details"]] == [
            ("commute(2,1)", "error", 5),
            ("commute(3,2)", "error", 2),
        ]


class TestPerturbationLoci:
    """No quiet fault injection: a shifted c_{g0} makes exactly the checks
    that see it fail, and one that no selected check sees is a usage error."""

    @staticmethod
    def sees(name, order, g0):
        # h_2 commutes with a faulty h_1 below h^max(4, g0 + 1), where its
        # recursion first fails; every other check sees every locus
        return order >= 4 and g0 < order if name.startswith("commute") else True

    def assert_undetected(self, capsys, argv, g0):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"c_{g0}" in captured.err
        return captured.err

    @pytest.mark.parametrize("which", list(VERIFY))
    def test_every_locus_up_to_genus_6(self, capsys, which):
        for G in range(1, 7):
            for g0 in range(1, G + 1):
                argv = ["verify", which, "--genus", str(G), "--format", "json",
                        "--perturb-cg", f"{g0}:1/3"]
                declared = [self.sees(name, order, g0) for name, order, _ in checks(which, G)]
                if not any(declared):
                    self.assert_undetected(capsys, argv, g0)
                    continue
                assert main(argv) == 1, (G, g0)
                details = json.loads(capsys.readouterr().out)["details"]
                failed = [d["status"] in ("mismatch", "error") for d in details]
                assert failed == declared, (G, g0, details)

    def test_commute_sees_no_fault_below_order_4(self, capsys):
        err = self.assert_undetected(
            capsys, ["verify", "commute", "--genus", "3", "--perturb-cg", "1:1/3"], 1)
        assert err == "ilwhodge: error: verify commute cannot detect a shifted c_1 at genus 3\n"

    def test_commute_at_genus_9_sees_every_locus_but_the_top(self, capsys):
        argv = ["verify", "commute", "--genus", "9", "--perturb-cg"]
        assert main([*argv, "8:1/3"]) == 1
        assert "FAIL  commute(2,1) (order 9)" in capsys.readouterr().out
        err = self.assert_undetected(capsys, [*argv, "9:1/3"], 9)
        assert err == "ilwhodge: error: verify commute cannot detect a shifted c_9 at genus 9\n"

    def test_undetected_shift_writes_no_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        self.assert_undetected(capsys, ["verify", "commute", "--genus", "3", "--format", "json",
                                        "--output", str(target), "--perturb-cg", "2:1/3"], 2)
        assert not target.exists()


class TestVerifyKeepsNoState:
    def test_verify_calls_keep_no_series(self, capsys, monkeypatch):
        from ilwhodge import hodge

        calls = {"log": 0, "exp": 0}

        def counted(name, fn):
            def series(*args):
                calls[name] += 1
                return fn(*args)
            return series

        monkeypatch.setattr(hodge, "log_series", counted("log", hodge.log_series))
        monkeypatch.setattr(hodge, "exp_series", counted("exp", hodge.exp_series))
        assert main(["verify", "all", "--genus", "8"]) == 0
        # each of the three Hodge checks builds S (one log, one exp); the
        # reverse check adds one exp for its ODE side
        assert calls == {"log": 3, "exp": 4}
        assert main(["verify", "all", "--genus", "8"]) == 0
        assert calls == {"log": 6, "exp": 8}  # nothing is kept from the first call
        capsys.readouterr()

    def test_verify_call_builds_each_hamiltonian_once(self, capsys, monkeypatch):
        from ilwhodge import ilw

        builds = []
        build = ilw.higher_hamiltonian

        def counted(i, G, cg_values=None):
            builds.append((i, G))
            return build(i, G, cg_values)

        monkeypatch.setattr(ilw, "higher_hamiltonian", counted)
        assert main(["verify", "all", "--genus", "8"]) == 0
        # ilw-t2 and commute(2,1) share h_2(8); commute(3,2) runs at order 2
        assert sorted(builds) == [(2, 2), (2, 8), (3, 2)]
        assert main(["verify", "all", "--genus", "8"]) == 0
        assert sorted(builds) == [(2, 2), (2, 2), (2, 8), (2, 8), (3, 2), (3, 2)]
        capsys.readouterr()

    def test_a_build_that_raises_is_reported_by_each_check_that_needs_it(self, capsys):
        code, data = run_json(capsys, "verify", "all", "--genus", "6", "--perturb-cg", "2:1/3")
        assert code == 1
        by_name = {d["name"]: d for d in data["details"]}
        t2, commute = by_name["ilw-t2"], by_name["commute(2,1)"]
        assert t2["status"] == commute["status"] == "error"
        assert t2["first_mismatch"] == commute["first_mismatch"] == {
            "error": "h_2 is not a conserved quantity of h_1 at h^4"
        }

    def test_concurrent_calls_agree_with_a_serial_call(self, tmp_path):
        # more threads than cores, switching every microsecond: every call
        # must give the exit code and the reports of one call made alone
        argv = ["verify", "cg", "--genus", "3", "--format", "json", "--output"]
        assert main([*argv, str(tmp_path / "serial.json")]) == 0
        expected = json.loads((tmp_path / "serial.json").read_text())["details"]
        outcomes: list = []

        def calls(i):
            path = tmp_path / f"{i}.json"
            for _ in range(25):
                code = main([*argv, str(path)])
                outcomes.append((code, json.loads(path.read_text())["details"]))

        threads = [threading.Thread(target=calls, args=(i,))
                   for i in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == 25 * len(threads)
        assert all(outcome == (0, expected) for outcome in outcomes)


class TestPlumbing:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["constants", "--max-genus", "2", "--format", "json", "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        data = json.loads(target.read_text())
        assert data["details"][0]["c_g"] == "1/24"

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--max-genus", "2", "--output", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "--output" in captured.err

    @pytest.mark.parametrize("argv", [["--output", ""], ["--output="]])
    def test_empty_output_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--max-genus", "2", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--output" in captured.err

    def test_non_integer_env_genus_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ILWHODGE_GENUS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cg"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "ILWHODGE_GENUS" in captured.err

    @pytest.mark.parametrize(
        "name, value, argv",
        [
            ("GENUS", "0", ["one-point"]),
            ("INDEX", "0", ["hamiltonian", "--genus", "2"]),
            ("GENUS", "-3", ["verify", "cg"]),
            ("FORMAT", "xml", ["constants"]),
            ("OUTPUT", "", ["constants"]),
        ],
    )
    def test_env_value_is_checked_like_its_flag(self, capsys, monkeypatch, name, value, argv):
        monkeypatch.setenv(f"ILWHODGE_{name}", value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"ILWHODGE_{name}" in captured.err

    @pytest.mark.parametrize("name, value", [("INDEX", "x"), ("SEED", "abc")])
    def test_env_for_an_option_the_command_lacks_is_ignored(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(f"ILWHODGE_{name}", value)
        code, out = run(capsys, "bernoulli", "--max", "2")
        assert code == 0 and "1/6" in out

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bernoulli", "--max", "2", "--seed", "1"])
        assert exc.value.code == 2

    def test_help_describes_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ("bernoulli", "constants", "one-point", "hamiltonian", "flow", "verify"):
            described = [line for line in lines if line.split()[:1] == [name]]
            assert described and len(described[0].split()) > 1, name

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ILWHODGE_FORMAT", "json")
        code, out = run(capsys, "constants", "--max-genus", "1")
        json.loads(out)

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ILWHODGE_FORMAT", "json")
        code, out = run(capsys, "constants", "--max-genus", "1", "--format", "csv")
        assert out.splitlines()[0] == "g,c_g,dispersion"

    def test_env_genus_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ILWHODGE_GENUS", "2")
        code, data = run_json(capsys, "verify", "cg")
        assert data["details"][0]["order_checked"] == 2

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, "verify", "all", "--genus", "2", "--format", "json")
        _, b = run(capsys, "verify", "all", "--genus", "2", "--format", "json")
        assert a == b

    def test_tracer_finds_every_span(self):
        # perfbench/tracing.py wraps engine functions by name, linalg.solve_exact
        # included, in the ilwhodge modules that `import ilwhodge.cli` put in
        # sys.modules, and fails every traced call if one is bound nowhere; it
        # wraps MultiSeries.__mul__ wherever that function is bound, so a
        # DiffPoly product must not be counted as a series product
        root = Path(__file__).resolve().parents[1]

        def spans(*args):
            proc = subprocess.run(
                [sys.executable, "perfbench/tracing.py", *args],
                capture_output=True,
                text=True,
                cwd=root,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stderr.splitlines()[-1])["spans"]

        hierarchy = spans("hamiltonian", "--index", "2", "--genus", "2", "--format", "json")
        assert {"cli.main", "engine.hamiltonian", "ilw.higher_hamiltonian"} <= set(hierarchy)
        assert "mpseries.mul" not in hierarchy
        hodge = spans("verify", "cg", "--genus", "2", "--format", "json")
        assert {"cli.main", "engine.verify_cg", "hodge.extract_cg"} <= set(hodge)
        assert "mpseries.mul" in spans("one-point", "--max-genus", "3")

    def test_tracer_counts_only_series_products(self):
        # perfbench/tracing.py wraps MultiSeries.__mul__ wherever that function
        # is bound; MultiSeries binds its own, so a DiffPoly product, which
        # runs the same TermMap product, is not counted as a series product
        root = Path(__file__).resolve().parents[1]
        child = "\n".join([
            "from tracing import Tracer",
            "tracer = Tracer()",
            "tracer.install()",
            "from ilwhodge.diffalg import DiffPoly",
            "from ilwhodge.mpseries import MultiSeries, coeff_ring",
            "p = DiffPoly(coeff_ring(1), {(((1, 2),), 0, 1): 1, ((), 1, 0): 2})",
            "p * p",
            "s = MultiSeries(coeff_ring(1), {(0, 1): 1, (1, 0): 2})",
            "s * s",
            "print(tracer.summary()['spans']['mpseries.mul']['calls'])",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                                              str(root / "perfbench")])},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    def test_runtime_imports_only_the_stdlib(self):
        # the engine runs on the standard library alone (no sympy, no numpy)
        src = Path(__file__).resolve().parents[1] / "src" / "ilwhodge"
        # dataclasses would put inspect, ast and dis on the CLI's cold-start path
        denied = {"dataclasses"}
        allowed = (set(sys.stdlib_module_names) - denied) | {"ilwhodge", "__future__"}
        outside = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
        assert len(list(src.glob("*.py"))) >= 9
        assert outside == []

    def test_cold_import_loads_no_dataclasses(self):
        # every CLI call pays for the modules `import ilwhodge.cli` loads;
        # -S keeps the imports of `site` out of the list
        root = Path(__file__).resolve().parents[1]
        code = "import ilwhodge.cli, sys; ilwhodge.cli.build_parser(); print(sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert {"argparse", "ilwhodge.cli", "ilwhodge.linalg"} <= loaded
        assert loaded & {"dataclasses", "inspect"} == set()

    @pytest.mark.parametrize(
        "code, argv, shows",
        [
            (0, ["bernoulli", "--max", "4", "--format", "csv"], "B,4,-1/30"),
            (1, ["verify", "all", "--genus", "6", "--perturb-cg", "3:1/7", "--format", "json"],
             '"status": "mismatch"'),
            (2, ["hamiltonian", "--index", "0"], "ilwhodge: error:"),
        ],
        ids=["ok", "mismatch", "usage"],
    )
    def test_module_entry_point(self, capsys, code, argv, shows):
        # the process entry point prints and exits exactly as cli.main does
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ilwhodge", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        captured = capsys.readouterr()
        assert in_process == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
        assert shows in proc.stdout + proc.stderr

    @pytest.mark.parametrize("target, errno_code", [
        pytest.param("/dev/full", errno.ENOSPC, marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full on this system")),
        ("closed pipe", errno.EPIPE),
    ], ids=["full-device", "closed-pipe"])
    def test_unwritable_stdout_is_one_line(self, target, errno_code):
        # like an unwritable --output: one line on stderr and exit 2, with no
        # traceback and nothing from the exit-time flush of stdout
        root = Path(__file__).resolve().parents[1]
        if target == "closed pipe":
            read_end, stdout = os.pipe()
            os.close(read_end)
        else:
            stdout = os.open(target, os.O_WRONLY)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ilwhodge", "verify", "all", "--genus", "3"],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
        finally:
            os.close(stdout)
        assert (proc.returncode, proc.stderr) == (
            2, f"ilwhodge: error: cannot write stdout: {os.strerror(errno_code)}\n")

    def test_module_entry_point_freezes_before_exit_handlers(self):
        # the survivors are frozen before the interpreter shuts down, and the
        # process still exits normally: atexit handlers run
        root = Path(__file__).resolve().parents[1]
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "sys.argv = ['ilwhodge', 'bernoulli', '--max', '2', '--format', 'csv']\n"
            "runpy.run_module('ilwhodge', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"

    def test_main_does_not_freeze(self, capsys):
        # tests and perfbench/tracing.py call cli.main in process
        before = gc.get_freeze_count()
        assert main(["bernoulli", "--max", "2"]) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_module_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        module, _, name = project["scripts"]["ilwhodge"].partition(":")
        # the function that `if __name__ == "__main__":` in __main__.py calls
        source = (root / "src" / "ilwhodge" / "__main__.py").read_text()
        guard = next(
            node for node in ast.parse(source).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        )
        [call] = [node for node in ast.walk(guard) if isinstance(node, ast.Call)]
        entry = importlib.import_module("ilwhodge.__main__")
        assert getattr(importlib.import_module(module), name) is getattr(entry, call.func.id)
