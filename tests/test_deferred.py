"""Deferred engine modules: what each command runs, the public API, threads.

Every check of which modules ran is made in a fresh interpreter, and reads
`type(sys.modules[name])`, which runs no deferred module.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ilwhodge

ROOT = Path(__file__).resolve().parents[1]
ENGINE = {"exactnum", "mpseries", "diffalg", "hodge", "ilw", "reports", "linalg"}

# the names the package re-exports from each module
EXPORTS = {
    "exactnum": ["bernoulli", "c_g", "dispersion_coeff"],
    "mpseries": ["MultiSeries", "SeriesError", "VarSpec", "coeff_ring", "divide_series",
                 "exp_series", "inverse_series", "log_series", "sinc_half_series"],
    "diffalg": ["DiffAlgError", "DiffPoly", "NotTotalDerivativeError", "integrate_x",
                "miura_inverse_series", "miura_series", "normalize", "poisson_bracket",
                "total_x_derivative", "u_key", "variational_derivative"],
    "hodge": ["HodgeConsistencyError", "extract_cg", "one_point_table",
              "s_series", "s_tilde_series", "verify_cg", "verify_linear_term_identity",
              "verify_one_point_reverse"],
    "ilw": ["InconsistentSystemError", "flow", "h1", "hamiltonian",
            "higher_hamiltonian", "verify_commutation", "verify_flow_t1", "verify_flow_t2"],
    "reports": ["VerificationReport"],
}

# appended to a child's code: the registered ilwhodge modules and those whose
# code has run, as the last line of stdout
REPORT = (
    "\nimport sys, types\n"
    "names = [n for n in sys.modules if n.startswith('ilwhodge.')]\n"
    "print([sorted(n[9:] for n in names),"
    " sorted(n[9:] for n in names if type(sys.modules[n]) is types.ModuleType)])\n"
)


def child(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def modules_run(code: str) -> set[str]:
    registered, ran = ast.literal_eval(child(code + REPORT).stdout.splitlines()[-1])
    assert ENGINE <= set(registered)
    return set(ran)


class TestWhatRuns:
    def test_building_the_parser_runs_no_engine_module(self):
        code = "import ilwhodge.cli as cli; cli.build_parser()"
        assert modules_run(code) == {"cli"}

    @pytest.mark.parametrize("argv", [
        ["verify", "cg", "--genus", "0"],
        ["hamiltonian", "--index", "0"],
        ["one-point", "--format", "xml"],
        ["verify", "cg", "--genus", "2", "--perturb-cg", "1:1/0"],
        ["verify", "cg", "--genus", "2", "--perturb-cg", "1:0"],
        ["verify", "cg", "--genus", "2", "--perturb-cg", "5:1/3"],
    ], ids=lambda argv: "-".join(argv))
    def test_usage_error_runs_no_engine_module(self, argv):
        code = (
            "from ilwhodge.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 2, exc.code\n"
            "else:\n"
            "    raise AssertionError('no usage error')\n"
        )
        assert modules_run(code) == {"cli"}

    def test_hodge_side_runs_no_hierarchy_module(self):
        code = "from ilwhodge.cli import main; main(['verify', 'cg', '--genus', '3'])"
        assert modules_run(code) == {"cli", "exactnum", "reports", "mpseries", "hodge"}

    @pytest.mark.parametrize("argv", [
        ["verify", "commute", "--genus", "3"],
        ["verify", "ilw-t1", "--genus", "3"],
        ["verify", "ilw-t2", "--genus", "3"],
    ], ids=lambda argv: "-".join(argv[:-2]))
    def test_hierarchy_side_runs_no_hodge_module(self, argv):
        code = f"from ilwhodge.cli import main; main({argv!r})"
        assert modules_run(code) == {"cli", "exactnum", "reports", "mpseries", "diffalg", "ilw"}

    @pytest.mark.parametrize("argv, engine", [
        pytest.param([*argv, *fmt], engine, id="-".join([argv[0], *fmt[1:]]))
        for argv, engine in (
            (["one-point", "--max-genus", "3"], {"mpseries", "hodge"}),
            (["hamiltonian", "--genus", "3"], {"exactnum", "mpseries", "diffalg", "ilw"}),
            (["flow", "--genus", "3"], {"exactnum", "mpseries", "diffalg", "ilw"}),
        )
        for fmt in ([], ["--format", "latex"], ["--format", "json"])
    ])
    def test_commands_that_verify_nothing_run_no_reports(self, argv, engine):
        code = f"from ilwhodge.cli import main; main({argv!r})"
        assert modules_run(code) == {"cli", *engine}

    def test_every_engine_module_is_registered_on_import(self):
        assert modules_run("import ilwhodge") == set()

    def test_first_touches_in_threads_wait_for_whole_modules(self):
        # at a 1 us switch interval, threads that first touch a module while
        # another thread runs its code must see it only once it is complete
        code = (
            "import sys, threading\n"
            "import ilwhodge\n"
            "touches = [\n"
            "    lambda: ilwhodge.extract_cg(3) == [ilwhodge.c_g(g) for g in (1, 2, 3)],\n"
            "    lambda: __import__('ilwhodge.hodge', fromlist=['verify_cg']).verify_cg(2).ok,\n"
            "    lambda: ilwhodge.ilw.verify_flow_t1(ilwhodge.h1(2)).ok,\n"
            "    lambda: 'u^3' in str(ilwhodge.h1(1)),\n"
            "    lambda: ilwhodge.linalg.solve_exact([[1, 2]], [3]).consistent,\n"
            "    lambda: ilwhodge.diffalg.u_key({1: 1}) == ((1, 1),),\n"
            "    lambda: ilwhodge.VerificationReport.of('x', 1, None).ok,\n"
            "    lambda: ilwhodge.mpseries.coeff_ring(1) == ilwhodge.coeff_ring(1),\n"
            "]\n"
            "barrier = threading.Barrier(2 * len(touches))\n"
            "results = []\n"
            "def run(touch):\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        results.append(touch())\n"
            "    except Exception as exc:\n"
            "        results.append(repr(exc))\n"
            "threads = [threading.Thread(target=run, args=(t,)) for t in 2 * touches]\n"
            "interval = sys.getswitchinterval()\n"
            "sys.setswitchinterval(1e-6)\n"
            "try:\n"
            "    for t in threads:\n"
            "        t.start()\n"
            "    for t in threads:\n"
            "        t.join(60)\n"
            "        assert not t.is_alive()\n"
            "finally:\n"
            "    sys.setswitchinterval(interval)\n"
            "print(results)\n"
        )
        for _ in range(3):
            results = ast.literal_eval(child(code).stdout.splitlines()[-1])
            assert results == [True] * 16


class TestPublicApi:
    @pytest.mark.parametrize(
        "module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_is_the_object_of_its_module(self, module, name):
        expected = getattr(importlib.import_module(f"ilwhodge.{module}"), name)
        namespace: dict = {}
        exec(f"from ilwhodge import {name}", namespace)
        assert getattr(ilwhodge, name) is expected
        assert namespace[name] is expected

    def test_all_and_dir_list_the_same_names(self):
        names = sorted(n for names in EXPORTS.values() for n in names)
        assert sorted(ilwhodge.__all__) == names
        assert set(names) <= set(dir(ilwhodge))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'extract'"):
            ilwhodge.extract  # noqa: B018
        with pytest.raises(ImportError):
            exec("from ilwhodge import extract", {})
        # a local functional is the DiffPoly of its normal form, with no type of its own
        with pytest.raises(AttributeError, match="has no attribute 'LocalFunctional'"):
            ilwhodge.LocalFunctional  # noqa: B018
        # an exact rational is a fractions.Fraction, with no second name
        with pytest.raises(AttributeError, match="has no attribute 'Rational'"):
            ilwhodge.Rational  # noqa: B018

