"""The benchmark's workloads: the ilwhodge CLI calls a pass makes, and how
each call's output is checked, by an independent route where one exists.

The truncation orders are fixed. The seed picks only the op order within a
pass and, on ``verify-suite``, the fault locus and shift of the negative
control. See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of the canonical JSON (sorted keys, no whitespace) of the
# `details` array of `hamiltonian --index I --genus G --format json`, pinned
# on the commit that introduced this benchmark. Only `details` is hashed, so
# a change to the envelope's `config` is not a failure.
HAMILTONIAN_DIGESTS = {
    (2, 10): "aeec497166cf139eeba19cee9555308ac95b8758af2165bc7e3cbd819a722736",
    (3, 7): "fa9148a33abfc058f806b3b5699bb2eedde1d71e2dc1f058946c7ef0f25daef9",
    (4, 6): "57f418226c76aaf35d8de7b209c1bb9700d6eb51b2b8b2b444f817e89c0bb953",
}

# Reports `verify all` has produced since the seed; more may be added.
VERIFY_ALL_REPORTS = {
    "cg", "ilw-t1", "ilw-t2", "commute(2,1)", "commute(3,2)", "linear-term",
    "one-point-reverse",
}

NEGATIVE_CONTROL_GENUS = 6


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], None]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@lru_cache(maxsize=None)
def _oracles():
    """The repository's independent oracles (tests/oracles.py)."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("ilwhodge_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def c_g_reference(g: int) -> Fraction:
    """C_g = |B_{2g}| / (2 (2g)!) with B from the Akiyama-Tanigawa triangle."""
    return abs(_oracles().bernoulli_at(2 * g)) / (2 * factorial(2 * g))


@lru_cache(maxsize=None)
def _one_point_expected(g_max: int) -> list[tuple]:
    rows = [
        (g, g - i, (2 * g - 2 + i,), value)
        for (g, i), value in _oracles().one_point_oracle(g_max).items()
        if value != 0
    ]
    return sorted(rows)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _reports(doc: dict, status: str) -> dict[str, dict]:
    _require(doc.get("status") == status, f"envelope status {doc.get('status')!r} != {status!r}")
    reports = {r["name"]: r for r in doc["details"]}
    _require(bool(reports), "no reports")
    return reports


def check_verify(required: set[str]) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        reports = _reports(doc, "ok")
        _require(required <= set(reports), f"missing reports {sorted(required - set(reports))}")
        bad = [n for n, r in reports.items() if r["status"] != "ok"]
        _require(not bad, f"reports not ok: {bad}")

    return check


def check_one_point(g_max: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("status") == "ok", "envelope status is not ok")
        got = sorted(
            (r["g"], r["j"], tuple(r["d"]), Fraction(r["value"])) for r in doc["details"]
        )
        want = _one_point_expected(g_max)
        if got != want:
            diff = next((w for w, o in zip(want, got) if w != o), None)
            raise CheckFailed(f"one-point table differs from the oracle (first: {diff})")

    return check


def check_hamiltonian(index: int, genus: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("status") == "ok", "envelope status is not ok")
        canonical = json.dumps(doc["details"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        _require(digest == HAMILTONIAN_DIGESTS[(index, genus)], f"details digest {digest}")

    return check


def check_constants(g_max: int) -> Callable[[dict], None]:
    """The reference `verify cg` compares against, checked independently."""

    def check(doc: dict) -> None:
        _require(doc.get("status") == "ok", "envelope status is not ok")
        got = {r["g"]: Fraction(r["c_g"]) for r in doc["details"]}
        want = {g: c_g_reference(g) for g in range(1, g_max + 1)}
        _require(got == want, "c_g differs from the Akiyama-Tanigawa value")

    return check


def check_negative_control(g0: int, delta: Fraction) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        reports = _reports(doc, "mismatch")
        _require("cg" in reports, "no cg report")
        mism = reports["cg"].get("first_mismatch") or {}
        _require(reports["cg"]["status"] == "mismatch", "cg report is not a mismatch")
        _require(mism.get("g") == g0, f"cg mismatch at g={mism.get('g')}, injected at {g0}")
        computed = Fraction(mism["computed"])
        _require(computed == c_g_reference(g0), f"extracted C_{g0} = {computed} is wrong")
        _require(Fraction(mism["expected"]) == computed + delta, "expected != C_g0 + shift")

    return check


def _json(*argv: str) -> tuple[str, ...]:
    return (*argv, "--format", "json")


def reference_op() -> Op:
    """Run once per benchmark run, untimed: pins `verify cg`'s reference."""
    return Op(_json("constants", "--max-genus", "24"), 0, check_constants(24))


def _hodge_series(rng: random.Random) -> Callable[[int], list[Op]]:
    ops = [
        Op(_json("verify", "cg", "--genus", "24"), 0, check_verify({"cg"})),
        Op(_json("one-point", "--max-genus", "24"), 0, check_one_point(24)),
        Op(_json("verify", "one-point-reverse", "--genus", "20"), 0,
           check_verify({"one-point-reverse"})),
        Op(_json("verify", "linear-term", "--genus", "20"), 0, check_verify({"linear-term"})),
    ]
    return lambda k: rng.sample(ops, len(ops))


def _hierarchy(rng: random.Random) -> Callable[[int], list[Op]]:
    ops = [
        Op(_json("hamiltonian", "--index", str(i), "--genus", str(g)), 0,
           check_hamiltonian(i, g))
        for i, g in HAMILTONIAN_DIGESTS
    ]
    return lambda k: rng.sample(ops, len(ops))


def _verify_suite(rng: random.Random) -> Callable[[int], list[Op]]:
    ops = [
        Op(_json("verify", "all", "--genus", "8"), 0, check_verify(VERIFY_ALL_REPORTS)),
        Op(_json("verify", "commute", "--genus", "9"), 0,
           check_verify({"commute(2,1)", "commute(3,2)"})),
    ]
    # Pass k injects at loci[k mod G], because the control's cost depends on
    # where the fault sits: a run of whole cycles sees each locus equally often.
    loci = rng.sample(range(1, NEGATIVE_CONTROL_GENUS + 1), NEGATIVE_CONTROL_GENUS)

    def make(k: int) -> list[Op]:
        g0 = loci[k % len(loci)]
        delta = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 10**6))
        control = Op(
            _json("verify", "all", "--genus", str(NEGATIVE_CONTROL_GENUS),
                  "--perturb-cg", f"{g0}:{delta.numerator}/{delta.denominator}"),
            1,
            check_negative_control(g0, delta),
        )
        return rng.sample(ops + [control], len(ops) + 1)

    return make


# Passes after which every seeded variant of a workload has run equally often.
PASS_CYCLE = {"verify-suite": NEGATIVE_CONTROL_GENUS}

WORKLOADS = {
    "hodge-series": _hodge_series,
    "hierarchy": _hierarchy,
    "verify-suite": _verify_suite,
}


def pass_plan(workload: str, seed: int) -> Callable[[int], list[Op]]:
    """Return `ops(k)`, the ordered ops of pass k, drawn from the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
