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
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, NoReturn

from . import diffalg, exactnum, hodge, ilw, mpseries, reports

__all__ = ["main", "perturbed_cg"]

FORMATS = ("json", "csv", "latex", "pretty")

# selector -> (report name, order cap, check) entries, in report order.  A
# check runs at order min(G, cap) (G when the cap is None) and takes (order,
# cg_values, h), where h(i, order) is the call's h_i; it looks its engine
# function up when it runs, so a wrapper bound to the module attribute later
# (a tracer, a test double) still sees the call.
VERIFY = {
    "cg": [("cg", None, lambda G, cg, h: hodge.verify_cg(G, cg))],
    "ilw-t1": [("ilw-t1", None, lambda G, cg, h: ilw.verify_flow_t1(h(1, G)))],
    "ilw-t2": [("ilw-t2", None, lambda G, cg, h: ilw.verify_flow_t2(h(2, G)))],
    "commute": [
        ("commute(2,1)", None, lambda G, cg, h: ilw.verify_commutation(2, 1, h(2, G), h(1, G))),
        ("commute(3,2)", 2, lambda G, cg, h: ilw.verify_commutation(3, 2, h(3, G), h(2, G))),
    ],
    "linear-term": [("linear-term", None,
                     lambda G, cg, h: hodge.verify_linear_term_identity(G, cg))],
    "one-point-reverse": [("one-point-reverse", None,
                           lambda G, cg, h: hodge.verify_one_point_reverse(G, cg))],
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


class _FromEnv(NamedTuple):
    """Default of an option that ILWHODGE_<name> may set; see `_env_option`."""

    name: str
    fallback: object
    type: Callable | None
    choices: tuple | None

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


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty path")
    return text


def _perturbation(text: str):
    try:
        g_text, _, delta_text = text.partition(":")
        g0, delta = int(g_text), exactnum.rational_from_str(delta_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected G:P/Q (e.g. 2:1/1000000), got {text!r}: {exc}"
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
    _env_option(common, "--output", "OUTPUT", None, type=_path,
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
        {"kind": "B", "index": n, "value": str(exactnum.bernoulli(n))}
        for n in range(max_n + 1)
    ]
    rows += [
        {"kind": "C", "index": g, "value": str(exactnum.c_g(g))}
        for g in range(1, max_n // 2 + 1)
    ]
    _emit(cfg, _render_rows("bernoulli", cfg, rows, ["kind", "index", "value"]))
    return 0


def cmd_constants(cfg: dict, g_max: int) -> int:
    rows = [
        {
            "g": g,
            "c_g": str(exactnum.c_g(g)),
            "dispersion": str(exactnum.dispersion_coeff(g)),
        }
        for g in range(1, g_max + 1)
    ]
    _emit(cfg, _render_rows("constants", cfg, rows, ["g", "c_g", "dispersion"]))
    return 0


def cmd_one_point(cfg: dict, g_max: int) -> int:
    table = sorted(hodge.one_point_table(g_max).items())
    if cfg["output_format"] == "latex":
        text = _one_point_latex(table)
    else:
        rows = [{"g": g, "j": j, "d": list(d), "value": str(v)}
                for (g, j, d), v in table]
        text = _render_rows("one-point", cfg, rows, ["g", "j", "d", "value"])
    _emit(cfg, text)
    return 0


def _one_point_latex(table: list) -> str:
    """The sorted one-point entries as a tabular with math-mode cells."""
    lines = [r"\begin{tabular}{rrrl}", r"$g$ & $j$ & $d$ & value \\ \hline"]
    for (g, j, d), v in table:
        val = _latex_rational(v) if v.denominator == 1 else f"${_latex_rational(v)}$"
        lines.append(f"{g} & {j} & $({','.join(map(str, d))})$ & {val} \\\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _latex_rational(c: Fraction) -> str:
    """c in LaTeX: an integer as it is, else a signed fraction."""
    if c.denominator == 1:
        return str(c)
    return ("-" if c < 0 else "") + rf"\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def cmd_expression(cfg: dict, command: str, index: int, genus: int) -> int:
    """`hamiltonian` (the functional h_I, written int(density) dx) or `flow`
    (its flow), to order h^genus."""
    poly = ilw.hamiltonian(index, genus)
    if command == "flow":
        poly = ilw.flow(poly)
    fmt = cfg["output_format"]
    if fmt == "latex":
        text = _density_latex(poly)
        if command == "hamiltonian":
            text = rf"\int\left({text}\right)\,dx"
        text += "\n"
    elif fmt == "csv":
        text = _render_rows(
            command, cfg, _coefficient_rows(poly), ["monomial", "h_exp", "e_exp", "coefficient"]
        )
    else:
        pretty = str(poly)
        if command == "hamiltonian":
            pretty = f"int({pretty}) dx"
        if fmt == "pretty":
            text = pretty + "\n"
        else:
            key = "density" if command == "hamiltonian" else "flow"
            payload = {"index": index, "genus": genus, key: _density_json(poly), "pretty": pretty}
            text = _json(command, cfg, "ok", [payload])
    _emit(cfg, text)
    return 0


def _density_json(poly: diffalg.DiffPoly) -> list:
    """Per u-monomial in render order: its (h, e) coefficient and its factors."""
    ring = [{"name": v.name, "order": v.order} for v in poly.vars]
    return [{"coef": {"vars": ring, "terms": [{"exp": list(e), "coef": str(c)}
                                              for e, c in items]}, "u": [list(p) for p in ue]}
            for ue, items in diffalg.by_monomial(poly)]


def _density_latex(poly: diffalg.DiffPoly) -> str:
    """One term per u-monomial, a coefficient of several (h, e) terms bracketed."""
    join, term = mpseries.join_signed, mpseries.term_text
    terms = []
    for ue, items in diffalg.by_monomial(poly):
        coef = join([term(_latex_rational(c), "".join(
            sym if x == 1 else f"{sym}^{{{x}}}"
            for sym, x in zip((r"\hbar", r"\varepsilon"), e) if x), "") for e, c in items])
        if len(items) > 1:
            coef = rf"\left({coef}\right)"
        body = " ".join((f"u_{{{k}}}" if k else "u") + ("" if m == 1 else f"^{{{m}}}")
                        for k, m in ue)
        terms.append(term(coef, body, " "))
    return join(terms)


def _coefficient_rows(poly: diffalg.DiffPoly) -> list[dict]:
    return [
        {
            "monomial": diffalg.u_monomial_pretty(ue),
            "h_exp": a,
            "e_exp": b,
            "coefficient": str(value),
        }
        for (ue, a, b), value in poly.sorted_terms()
    ]


def checks(which: str, G: int) -> list[tuple]:
    """(report name, order, check) of each check of `verify which` at G."""
    return [(name, G if cap is None else min(G, cap), check) for name, cap, check in VERIFY[which]]


def _run_verifications(which: str, G: int, cg_values) -> list[reports.VerificationReport]:
    # one build of each h_i per call; a build that raises is not cached, so
    # each check that needs it reports the error at its own order
    h = functools.cache(lambda i, order: ilw.hamiltonian(i, order, cg_values))
    results: list[reports.VerificationReport] = []
    for name, order, check in checks(which, G):
        try:
            results.append(check(order, cg_values, h))
        except Exception as exc:  # surface engine failures as reports
            results.append(reports.VerificationReport(name, "error", order, {"error": str(exc)}))
    return results


def _report_json(report: reports.VerificationReport) -> dict:
    """The report's fields; "first_mismatch" only when it has one."""
    found = {} if report.first_mismatch is None else {"first_mismatch": report.first_mismatch}
    return {"name": report.name, "status": report.status, "order_checked": report.order_checked,
            **found}


def cmd_verify(cfg: dict, which: str, genus: int, perturb) -> int:
    if cfg["output_format"] not in ("pretty", "json"):
        _usage_error(f"verify renders only pretty and json, not {cfg['output_format']}")
    if perturb and not 1 <= perturb[0] <= genus:
        _usage_error(f"--perturb-cg locus {perturb[0]} is outside 1..{genus}")
    cg_values = perturbed_cg(*perturb) if perturb else None
    results = _run_verifications(which, genus, cg_values)
    all_ok = all(r.ok for r in results)
    if perturb and all_ok:  # no selected check saw the shift
        _usage_error(f"verify {which} cannot detect a shifted c_{perturb[0]} at genus {genus}")
    status = "ok" if all_ok else "mismatch"
    if cfg["output_format"] == "pretty":
        lines = [
            f"PASS  {r.name} (order {r.order_checked})"
            if r.ok
            else f"FAIL  {r.name} (order {r.order_checked}): {r.first_mismatch}"
            for r in results
        ]
        lines.append(f"verify {which}: {status}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json("verify " + which, cfg, status, [_report_json(r) for r in results])
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
