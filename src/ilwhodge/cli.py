"""Command-line driver: tables, hierarchy construction, verification suites.

Subcommands
    bernoulli   --max N           Bernoulli numbers B_0..B_N and C_1..C_{N/2}
    constants   --max-genus G     C_g and the dispersion coefficients 2 C_g
    one-point   --max-genus G     one-point intersection-number table
    hamiltonian --index I --genus G
    flow        --index I --genus G
    verify      {cg|ilw-t1|ilw-t2|commute|linear-term|one-point-reverse|all}

Global flags: --format {json|csv|latex|pretty}, --output PATH, --seed N;
environment overrides ILWHODGE_FORMAT, ILWHODGE_OUTPUT, ILWHODGE_SEED,
ILWHODGE_GENUS, ILWHODGE_INDEX.  JSON is the canonical machine output with
envelope {"command", "config", "status", "details"}.  Exit codes: 0 success,
1 verification mismatch or engine error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from . import exactnum, hodge, ilw
from .diffalg import u_monomial_pretty
from .exactnum import rational_from_str, rational_to_str
from .reports import VerificationReport

__all__ = ["main", "RunConfig", "perturbed_cg"]

FORMATS = ("json", "csv", "latex", "pretty")

VERIFY_CHOICES = (
    "cg",
    "ilw-t1",
    "ilw-t2",
    "commute",
    "linear-term",
    "one-point-reverse",
    "all",
)


@dataclass
class RunConfig:
    genus_order: int = 5
    hierarchy_index: int = 2
    output_format: str = "pretty"
    seed: int = 0
    output_path: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "genus_order": self.genus_order,
            "hierarchy_index": self.hierarchy_index,
            "output_format": self.output_format,
            "seed": self.seed,
            "output_path": self.output_path,
        }


def perturbed_cg(g0: int, delta: Fraction):
    """Constant provider with c_g(g0) shifted by delta (fault injection)."""

    def cg(g: int) -> Fraction:
        base = exactnum.c_g(g)
        return base + delta if g == g0 else base

    return cg


def _env(name: str, fallback):
    return os.environ.get(f"ILWHODGE_{name}", fallback)


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"ilwhodge: error: {message}\n")
    raise SystemExit(2)


def _env_int(name: str, fallback: int) -> int:
    text = _env(name, str(fallback))
    try:
        return int(text)
    except ValueError:
        _usage_error(f"ILWHODGE_{name} must be an integer, got {text!r}")


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
    parser = argparse.ArgumentParser(
        prog="ilwhodge",
        description="Exact verification engine for the ILW hierarchy and "
        "one-point Hodge-integral identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=_env("FORMAT", "pretty"),
        help="output format (default pretty; json is the canonical encoding)",
    )
    common.add_argument(
        "--output",
        default=_env("OUTPUT", None),
        help="write the rendered output to this path instead of stdout",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=_env_int("SEED", 0),
        help="seed recorded in the config and used by randomized checks",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli numbers")
    p.add_argument("--max", type=_nonneg_int, default=12)

    p = sub.add_parser("constants", parents=[common], help="hierarchy constants C_g")
    p.add_argument("--max-genus", type=_pos_int, default=_env_int("GENUS", 5))

    p = sub.add_parser("one-point", parents=[common], help="one-point table")
    p.add_argument("--max-genus", type=_pos_int, default=_env_int("GENUS", 5))

    for name, text in (
        ("hamiltonian", "hierarchy Hamiltonian h_I to order h^G"),
        ("flow", "flow d/dx (delta h_I / delta u) to order h^G"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--index", type=_pos_int, default=_env_int("INDEX", 2))
        p.add_argument("--genus", type=_nonneg_int, default=_env_int("GENUS", 5))

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("which", choices=VERIFY_CHOICES)
    p.add_argument("--genus", type=_pos_int, default=_env_int("GENUS", 5))
    p.add_argument(
        "--perturb-cg",
        type=_perturbation,
        default=None,
        metavar="G:P/Q",
        help="test mode: shift c_g(G) by P/Q to exercise the mismatch paths",
    )
    return parser


def _envelope(command: str, cfg: RunConfig, status: str, details: list) -> dict:
    return {
        "command": command,
        "config": cfg.to_json_dict(),
        "status": status,
        "details": details,
    }


def _pretty_table(rows: list[dict], columns: list[str]) -> str:
    if not rows:
        return "(empty)\n"
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), max(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _csv_table(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(str(r.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _latex_table(rows: list[dict], columns: list[str]) -> str:
    lines = [r"\begin{tabular}{" + "l" * len(columns) + "}"]
    lines.append(" & ".join(columns) + r" \\ \hline")
    for r in rows:
        lines.append(" & ".join(str(r.get(c, "")) for c in columns) + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _render_rows(command: str, cfg: RunConfig, rows: list[dict], columns: list[str]) -> str:
    fmt = cfg.output_format
    if fmt == "json":
        return json.dumps(_envelope(command, cfg, "ok", rows), indent=2) + "\n"
    if fmt == "csv":
        return _csv_table(rows, columns)
    if fmt == "latex":
        return _latex_table(rows, columns)
    return _pretty_table(rows, columns)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _usage_error(f"cannot write --output {cfg.output_path}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# -- command implementations --------------------------------------------------


def cmd_bernoulli(cfg: RunConfig, max_n: int) -> int:
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


def cmd_constants(cfg: RunConfig, g_max: int) -> int:
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


def cmd_one_point(cfg: RunConfig, g_max: int) -> int:
    table = hodge.one_point_table(g_max)
    if cfg.output_format == "json":
        text = json.dumps(_envelope("one-point", cfg, "ok", table.rows()), indent=2) + "\n"
    elif cfg.output_format == "csv":
        text = table.to_csv()
    elif cfg.output_format == "latex":
        text = table.to_latex()
    else:
        rows = [
            {"g": r["g"], "j": r["j"], "d": " ".join(str(x) for x in r["d"]), "value": r["value"]}
            for r in table.rows()
        ]
        text = _pretty_table(rows, ["g", "j", "d", "value"])
    _emit(cfg, text)
    return 0


def _emit_diffpoly(command: str, cfg: RunConfig, payload: dict, poly_pretty: str,
                   poly_latex: str, poly_json: list) -> int:
    fmt = cfg.output_format
    if fmt == "json":
        text = json.dumps(_envelope(command, cfg, "ok", [payload]), indent=2) + "\n"
    elif fmt == "latex":
        text = poly_latex + "\n"
    elif fmt == "csv":
        rows = []
        for term in poly_json:
            for entry in term["coef"]["terms"]:
                rows.append(
                    {
                        "monomial": u_monomial_pretty(term["u"]),
                        "h_exp": entry["exp"][0],
                        "e_exp": entry["exp"][1],
                        "coefficient": entry["coef"],
                    }
                )
        text = _csv_table(rows, ["monomial", "h_exp", "e_exp", "coefficient"])
    else:
        text = poly_pretty + "\n"
    _emit(cfg, text)
    return 0


def cmd_hamiltonian(cfg: RunConfig, index: int, genus: int) -> int:
    ham = ilw.hamiltonian(index, genus)
    payload = {
        "index": index,
        "genus": genus,
        "density": ham.functional.to_json_dict(),
        "pretty": ham.functional.pretty(),
    }
    return _emit_diffpoly(
        "hamiltonian",
        cfg,
        payload,
        ham.functional.pretty(),
        ham.functional.latex(),
        ham.functional.to_json_dict(),
    )


def cmd_flow(cfg: RunConfig, index: int, genus: int) -> int:
    f = ilw.flow(ilw.hamiltonian(index, genus))
    payload = {
        "index": index,
        "genus": genus,
        "flow": f.to_json_dict(),
        "pretty": f.pretty(),
    }
    return _emit_diffpoly("flow", cfg, payload, f.pretty(), f.latex(), f.to_json_dict())


def _run_verifications(which: str, G: int, cg_values) -> list[VerificationReport]:
    reports: list[VerificationReport] = []

    def guarded(name: str, thunk) -> None:
        try:
            result = thunk()
        except Exception as exc:  # surface engine failures as reports
            reports.append(
                VerificationReport(
                    name=name,
                    status="error",
                    order_checked=G,
                    first_mismatch={"error": str(exc)},
                )
            )
            return
        if isinstance(result, list):
            reports.extend(result)
        else:
            reports.append(result)

    if which in ("cg", "all"):
        guarded("cg", lambda: hodge.verify_cg(G, cg_values))
    if which in ("ilw-t1", "all"):
        guarded("ilw-t1", lambda: ilw.verify_flow_t1(G, cg_values))
    if which in ("ilw-t2", "all"):
        guarded("ilw-t2", lambda: ilw.verify_flow_t2(G, cg_values))
    if which in ("commute", "all"):
        guarded("commute(2,1)", lambda: ilw.verify_commutation(2, 1, G, cg_values))
        guarded(
            "commute(3,2)",
            lambda: ilw.verify_commutation(3, 2, min(G, 2), cg_values),
        )
    if which in ("linear-term", "all"):
        guarded("linear-term", lambda: hodge.verify_linear_term_identity(G, cg_values))
    if which in ("one-point-reverse", "all"):
        guarded(
            "one-point-reverse", lambda: hodge.verify_one_point_reverse(G, cg_values)
        )
    return reports


def cmd_verify(cfg: RunConfig, which: str, genus: int, perturb) -> int:
    if perturb and not 1 <= perturb[0] <= genus:
        _usage_error(f"--perturb-cg locus {perturb[0]} is outside 1..{genus}")
    cg_values = perturbed_cg(*perturb) if perturb else None
    reports = _run_verifications(which, genus, cg_values)
    all_ok = all(r.ok for r in reports)
    status = "ok" if all_ok else "mismatch"
    details = [r.to_json_dict() for r in reports]
    if cfg.output_format == "pretty":
        lines = []
        for r in reports:
            if r.ok:
                lines.append(f"PASS  {r.name} (order {r.order_checked})")
            else:
                lines.append(
                    f"FAIL  {r.name} (order {r.order_checked}): {r.first_mismatch}"
                )
        lines.append(f"verify {which}: {status}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_envelope("verify " + which, cfg, status, details), indent=2) + "\n"
    _emit(cfg, text)
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        genus_order=getattr(args, "genus", getattr(args, "max_genus", 5)),
        hierarchy_index=getattr(args, "index", 2),
        output_format=args.format,
        seed=args.seed,
        output_path=args.output,
    )
    if args.command == "bernoulli":
        return cmd_bernoulli(cfg, args.max)
    if args.command == "constants":
        return cmd_constants(cfg, args.max_genus)
    if args.command == "one-point":
        return cmd_one_point(cfg, args.max_genus)
    if args.command == "hamiltonian":
        return cmd_hamiltonian(cfg, args.index, args.genus)
    if args.command == "flow":
        return cmd_flow(cfg, args.index, args.genus)
    if args.command == "verify":
        return cmd_verify(cfg, args.which, args.genus, args.perturb_cg)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
