from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ilwhodge.cli import VERIFY, checks, main
from ilwhodge.exactnum import rational_from_str


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
        assert values[("C", 6)] == rational_to_str_roundtrip(values[("C", 6)])

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


def rational_to_str_roundtrip(s):
    from ilwhodge.exactnum import rational_to_str

    return rational_to_str(rational_from_str(s))


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
                rational_from_str(entry["coef"])  # must parse


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

        def boom(i, j, G, cg_values=None):
            raise RuntimeError(f"no bracket for h_{i}, h_{j}")

        monkeypatch.setattr(ilw, "verify_commutation", boom)
        code, data = run_json(capsys, "verify", "commute", "--genus", "5")
        assert code == 1
        assert [(d["name"], d["status"], d["order_checked"]) for d in data["details"]] == [
            ("commute(2,1)", "error", 5),
            ("commute(3,2)", "error", 2),
        ]


class TestPerturbationLoci:
    """No quiet fault injection: a shifted c_{g0} that a selector's checks
    declare visible makes exactly those checks fail, and one that none of
    them can see is a usage error."""

    @pytest.mark.parametrize("which", list(VERIFY))
    def test_every_locus_up_to_genus_6(self, capsys, which):
        for G in range(1, 7):
            for g0 in range(1, G + 1):
                argv = ["verify", which, "--genus", str(G), "--format", "json",
                        "--perturb-cg", f"{g0}:1/3"]
                declared = [loci(order, g0) for _, order, loci, _ in checks(which, G)]
                if not any(declared):
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == 2, (G, g0)
                    captured = capsys.readouterr()
                    assert captured.out == ""
                    assert captured.err.count("\n") == 1 and f"c_{g0}" in captured.err
                    continue
                assert main(argv) == 1, (G, g0)
                details = json.loads(capsys.readouterr().out)["details"]
                failed = [d["status"] in ("mismatch", "error") for d in details]
                assert failed == declared, (G, g0, details)

    def test_commute_sees_no_fault_below_order_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "commute", "--genus", "3", "--perturb-cg", "1:1/3"])
        assert exc.value.code == 2
        assert "verify commute cannot detect a shifted c_1 at genus 3" in capsys.readouterr().err


class TestSharedSeries:
    def test_verify_all_builds_s_and_s_tilde_once(self, capsys, monkeypatch):
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
        # one log for S; one exp for S and one for the ODE side of the reverse check
        assert calls == {"log": 1, "exp": 2}
        assert main(["verify", "all", "--genus", "8"]) == 0
        assert calls == {"log": 2, "exp": 4}  # nothing is kept from the first call
        assert hodge.memo is None
        capsys.readouterr()


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
        # included, and fails every traced call if one is bound nowhere; it
        # wraps MultiSeries.__mul__ wherever that function is bound, so a
        # DiffPoly product must not be counted as a series product
        root = Path(__file__).resolve().parents[1]

        def spans(*args):
            proc = subprocess.run(
                [sys.executable, str(root / "perfbench" / "tracing.py"), *args],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stderr.splitlines()[-1])["spans"]

        hierarchy = spans("hamiltonian", "--index", "2", "--genus", "2", "--format", "json")
        assert "ilw.higher_hamiltonian" in hierarchy
        assert "mpseries.mul" not in hierarchy
        assert "mpseries.mul" in spans("one-point", "--max-genus", "3")

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

    def test_module_entry_point(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "ilwhodge", "bernoulli", "--max", "4", "--format", "csv"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0
        assert "B,4,-1/30" in proc.stdout
