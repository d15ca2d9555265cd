"""Command-line driver: tables, hierarchy construction, verification suites.

Subcommands
    bernoulli   --max N           Bernoulli numbers B_0..B_N and C_1..C_{N/2}
    constants   --max-genus G     C_g and the dispersion coefficients 2 C_g
    one-point   --max-genus G     one-point intersection-number table
    hamiltonian --index I --genus G
    flow        --index I --genus G
    verify      {cg|ilw-t1|ilw-t2|commute|linear-term|one-point-reverse|all}

Global flags: --format {json|csv|latex|pretty}, --output PATH.  Environment
overrides ILWHODGE_FORMAT, ILWHODGE_OUTPUT, ILWHODGE_GENUS, ILWHODGE_INDEX
stand in for an absent flag; each is read only by a command that has that
option and is checked like the flag.  JSON is the canonical machine output
with envelope {"command", "config", "status", "details"}.  Exit codes: 0
success, 1 verification mismatch or engine error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NoReturn

from . import exactnum, hodge, ilw
from .diffalg import DiffPoly, u_monomial_pretty
from .exactnum import rational_from_str, rational_to_str
from .reports import VerificationReport

__all__ = ["main", "perturbed_cg"]

FORMATS = ("json", "csv", "latex", "pretty")

def _every(order: int, g0: int) -> bool:
    return True  # cmd_verify keeps g0 in 1..G


def _commute(order: int, g0: int) -> bool:
    # h_2 commutes with a faulty h_1 below h^max(4, g0 + 1), where its
    # recursion first fails (tests/test_cli.py sweeps every g0 <= G <= 6)
    return order >= 4 and g0 < order


# selector -> (report name, order cap, loci, check) entries, in report order.
# A check runs at order min(G, cap) (G when the cap is None) and takes
# (order, cg_values); it looks its engine function up when it runs, so a
# wrapper bound to the module attribute later (a tracer, a test double) still
# sees the call.  loci(order, g0) is true when the check detects a shifted
# c_{g0} at that order, as a mismatch or an engine error.
VERIFY = {
    "cg": [("cg", None, _every, lambda G, cg: hodge.verify_cg(G, cg))],
    "ilw-t1": [("ilw-t1", None, _every, lambda G, cg: ilw.verify_flow_t1(G, cg))],
    "ilw-t2": [("ilw-t2", None, _every, lambda G, cg: ilw.verify_flow_t2(G, cg))],
    "commute": [
        ("commute(2,1)", None, _commute, lambda G, cg: ilw.verify_commutation(2, 1, G, cg)),
        ("commute(3,2)", 2, _commute, lambda G, cg: ilw.verify_commutation(3, 2, G, cg)),
    ],
    "linear-term": [
        ("linear-term", None, _every, lambda G, cg: hodge.verify_linear_term_identity(G, cg))
    ],
    "one-point-reverse": [
        ("one-point-reverse", None, _every, lambda G, cg: hodge.verify_one_point_reverse(G, cg))
    ],
}
VERIFY["all"] = [check for checks in VERIFY.values() for check in checks]


def perturbed_cg(g0: int, delta: Fraction):
    """Constant provider with c_g(g0) shifted by delta (fault injection)."""

    def cg(g: int) -> Fraction:
        base = exactnum.c_g(g)
        return base + delta if g == g0 else base

    return cg


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"ilwhodge: error: {message}\n")
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, whose usage errors are one line."""

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


class _FromEnv:
    """Default of an option that ILWHODGE_<name> may set; see `_env_option`."""

    def __init__(self, name: str, fallback, type: Callable | None, choices: tuple | None):
        self.name = name
        self.fallback = fallback
        self.type = type
        self.choices = choices

    def resolve(self):
        text = os.environ.get(f"ILWHODGE_{self.name}")
        if text is None:
            return self.fallback
        try:
            value = text if self.type is None else self.type(text)
            if self.choices is not None and value not in self.choices:
                raise ValueError(f"choose from {', '.join(self.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            _usage_error(f"ILWHODGE_{self.name}={text!r} is invalid: {exc}")
        return value


def _env_option(parser: argparse.ArgumentParser, flag: str, name: str, fallback, **kwargs) -> None:
    """Add `flag`, defaulting to ILWHODGE_<name> or else `fallback`.

    The variable is read after parsing, and only when the command run has
    this option and the flag is absent; it goes through the flag's own type
    and choices, so a bad value is a usage error naming the variable.
    """
    default = _FromEnv(name, fallback, kwargs.get("type"), kwargs.get("choices"))
    parser.add_argument(flag, default=default, **kwargs)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _perturbation(text: str):
    try:
        g_text, _, delta_text = text.partition(":")
        g0, delta = int(g_text), rational_from_str(delta_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected G:P/Q (e.g. 2:1/1000000), got {text!r}"
        ) from exc
    if delta == 0:
        raise argparse.ArgumentTypeError(f"a zero shift injects no fault, got {text!r}")
    return g0, delta


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ilwhodge",
        description="Exact verification engine for the ILW hierarchy and "
        "one-point Hodge-integral identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    _env_option(common, "--format", "FORMAT", "pretty", choices=FORMATS,
                help="output format (default pretty; json is the canonical encoding)")
    _env_option(common, "--output", "OUTPUT", None,
                help="write the rendered output to this path instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli numbers")
    p.add_argument("--max", type=_nonneg_int, default=12)

    p = sub.add_parser("constants", parents=[common], help="hierarchy constants C_g")
    _env_option(p, "--max-genus", "GENUS", 5, type=_pos_int)

    p = sub.add_parser("one-point", parents=[common], help="one-point table")
    _env_option(p, "--max-genus", "GENUS", 5, type=_pos_int)

    for name, text in (
        ("hamiltonian", "hierarchy Hamiltonian h_I to order h^G"),
        ("flow", "flow d/dx (delta h_I / delta u) to order h^G"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        _env_option(p, "--index", "INDEX", 2, type=_pos_int)
        _env_option(p, "--genus", "GENUS", 5, type=_nonneg_int)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("which", choices=list(VERIFY))
    _env_option(p, "--genus", "GENUS", 5, type=_pos_int)
    p.add_argument("--perturb-cg", type=_perturbation, default=None, metavar="G:P/Q",
                   help="test mode: shift c_g(G) by P/Q to exercise the mismatch paths")
    return parser


def _json(command: str, cfg: dict, status: str, details: list) -> str:
    envelope = {"command": command, "config": cfg, "status": status, "details": details}
    return json.dumps(envelope, indent=2) + "\n"


def _cell(value) -> str:
    return " ".join(str(x) for x in value) if isinstance(value, list) else str(value)


def _render_rows(command: str, cfg: dict, rows: list[dict], columns: list[str]) -> str:
    """`rows` as a table in the requested format; JSON wraps them in the envelope."""
    fmt = cfg["output_format"]
    if fmt == "json":
        return _json(command, cfg, "ok", rows)
    cells = [[_cell(r[c]) for c in columns] for r in rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in [columns, *cells])
    if fmt == "latex":
        lines = [r"\begin{tabular}{" + "l" * len(columns) + "}"]
        lines.append(" & ".join(columns) + r" \\ \hline")
        lines += [" & ".join(line) + r" \\" for line in cells]
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"
    widths = [max(len(c) for c in col) for col in zip(columns, *cells)]
    lines = [columns, ["-" * w for w in widths], *cells]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) + "\n" for line in lines)


def _emit(cfg: dict, text: str) -> None:
    if cfg["output_path"]:
        try:
            with open(cfg["output_path"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            _usage_error(f"cannot write --output {cfg['output_path']}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# -- command implementations --------------------------------------------------


def cmd_bernoulli(cfg: dict, max_n: int) -> int:
    rows = [
        {"kind": "B", "index": n, "value": rational_to_str(exactnum.bernoulli(n))}
        for n in range(max_n + 1)
    ]
    rows += [
        {"kind": "C", "index": g, "value": rational_to_str(exactnum.c_g(g))}
        for g in range(1, max_n // 2 + 1)
    ]
    _emit(cfg, _render_rows("bernoulli", cfg, rows, ["kind", "index", "value"]))
    return 0


def cmd_constants(cfg: dict, g_max: int) -> int:
    rows = [
        {
            "g": g,
            "c_g": rational_to_str(exactnum.c_g(g)),
            "dispersion": rational_to_str(exactnum.dispersion_coeff(g)),
        }
        for g in range(1, g_max + 1)
    ]
    _emit(cfg, _render_rows("constants", cfg, rows, ["g", "c_g", "dispersion"]))
    return 0


def cmd_one_point(cfg: dict, g_max: int) -> int:
    table = hodge.one_point_table(g_max)
    if cfg["output_format"] == "latex":
        text = table.to_latex()
    else:
        text = _render_rows("one-point", cfg, table.rows(), ["g", "j", "d", "value"])
    _emit(cfg, text)
    return 0


def cmd_expression(cfg: dict, command: str, index: int, genus: int) -> int:
    """`hamiltonian` (the functional h_I) or `flow` (its flow), to order h^genus."""
    ham = ilw.hamiltonian(index, genus)
    if command == "hamiltonian":
        expr, key, poly = ham.functional, "density", ham.functional.density
    else:
        expr = poly = ilw.flow(ham)
        key = "flow"
    fmt = cfg["output_format"]
    if fmt == "pretty":
        text = expr.pretty() + "\n"
    elif fmt == "latex":
        text = expr.latex() + "\n"
    elif fmt == "json":
        payload = {"index": index, "genus": genus, key: expr.to_json_dict(), "pretty": expr.pretty()}
        text = _json(command, cfg, "ok", [payload])
    else:
        text = _render_rows(
            command, cfg, _coefficient_rows(poly), ["monomial", "h_exp", "e_exp", "coefficient"]
        )
    _emit(cfg, text)
    return 0


def _coefficient_rows(poly: DiffPoly) -> list[dict]:
    return [
        {
            "monomial": u_monomial_pretty(ue),
            "h_exp": a,
            "e_exp": b,
            "coefficient": rational_to_str(value),
        }
        for (ue, a, b), value in poly.sorted_terms()
    ]


def checks(which: str, G: int) -> list[tuple]:
    """(report name, order, loci, check) of each check of `verify which` at G."""
    return [(name, G if cap is None else min(G, cap), loci, check)
            for name, cap, loci, check in VERIFY[which]]


def _run_verifications(which: str, G: int, cg_values) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name, order, _, check in checks(which, G):
        try:
            reports.append(check(order, cg_values))
        except Exception as exc:  # surface engine failures as reports
            reports.append(VerificationReport(name, "error", order, {"error": str(exc)}))
    return reports


def cmd_verify(cfg: dict, which: str, genus: int, perturb) -> int:
    if cfg["output_format"] not in ("pretty", "json"):
        _usage_error(f"verify renders only pretty and json, not {cfg['output_format']}")
    if perturb and not 1 <= perturb[0] <= genus:
        _usage_error(f"--perturb-cg locus {perturb[0]} is outside 1..{genus}")
    if perturb and not any(loci(order, perturb[0]) for _, order, loci, _ in checks(which, genus)):
        _usage_error(f"verify {which} cannot detect a shifted c_{perturb[0]} at genus {genus}")
    cg_values = perturbed_cg(*perturb) if perturb else None
    hodge.memo = {}  # the checks share S and S~ for this call only
    try:
        reports = _run_verifications(which, genus, cg_values)
    finally:
        hodge.memo = None
    all_ok = all(r.ok for r in reports)
    status = "ok" if all_ok else "mismatch"
    if cfg["output_format"] == "pretty":
        lines = [
            f"PASS  {r.name} (order {r.order_checked})"
            if r.ok
            else f"FAIL  {r.name} (order {r.order_checked}): {r.first_mismatch}"
            for r in reports
        ]
        lines.append(f"verify {which}: {status}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json("verify " + which, cfg, status, [r.to_json_dict() for r in reports])
    _emit(cfg, text)
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for dest, value in list(vars(args).items()):
        if isinstance(value, _FromEnv):
            setattr(args, dest, value.resolve())
    # the JSON envelope's "config", printed in this key order
    cfg = {
        "genus_order": getattr(args, "genus", getattr(args, "max_genus", 5)),
        "hierarchy_index": getattr(args, "index", 2),
        "output_format": args.format,
        "output_path": args.output,
    }
    if args.command == "bernoulli":
        return cmd_bernoulli(cfg, args.max)
    if args.command == "constants":
        return cmd_constants(cfg, args.max_genus)
    if args.command == "one-point":
        return cmd_one_point(cfg, args.max_genus)
    if args.command == "verify":
        return cmd_verify(cfg, args.which, args.genus, args.perturb_cg)
    return cmd_expression(cfg, args.command, args.index, args.genus)


if __name__ == "__main__":
    sys.exit(main())
