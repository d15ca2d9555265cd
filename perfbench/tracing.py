"""Span tracing of one ilwhodge CLI call, from outside the engine.

Run as

    PYTHONPATH=src python perfbench/tracing.py <ilwhodge arguments...>

It wraps the engine's layer functions in every ilwhodge namespace that bound
them (including names taken with ``from ... import``), calls
``ilwhodge.cli.main(argv)``, leaves the CLI's own stdout untouched and writes
one JSON object of span aggregates as the last line of stderr. Its exit code
is the CLI's.

A span records its parent (the innermost open span), so a span's self time is
its duration minus the time of its direct children, and the self times of all
spans add up to the root ``cli.main`` span. A span's inclusive time counts
only its outermost activation, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); "Class.method" names a method.
SPANS = {
    "mpseries.mul": ("ilwhodge.mpseries", "MultiSeries.__mul__"),
    "mpseries.exp": ("ilwhodge.mpseries", "exp_series"),
    "mpseries.log": ("ilwhodge.mpseries", "log_series"),
    "mpseries.inverse": ("ilwhodge.mpseries", "inverse_series"),
    "hodge.s_tilde_series": ("ilwhodge.hodge", "s_tilde_series"),
    "hodge.extract_cg": ("ilwhodge.hodge", "extract_cg"),
    "hodge.one_point_table": ("ilwhodge.hodge", "one_point_table"),
    "diffalg.normalize": ("ilwhodge.diffalg", "normalize"),
    "diffalg.total_x_derivative": ("ilwhodge.diffalg", "total_x_derivative"),
    "diffalg.variational_derivative": ("ilwhodge.diffalg", "variational_derivative"),
    "diffalg.poisson_bracket": ("ilwhodge.diffalg", "poisson_bracket"),
    "linalg.solve": ("ilwhodge.linalg", "solve_exact"),
    "ilw.higher_hamiltonian": ("ilwhodge.ilw", "higher_hamiltonian"),
    "ilw.h1": ("ilwhodge.ilw", "h1"),
    # Engine entry points the CLI calls. Their spans keep the engine's glue
    # (comparison loops, closed forms) out of the CLI's self time.
    "engine.hamiltonian": ("ilwhodge.ilw", "hamiltonian"),
    "engine.verify_flow_t1": ("ilwhodge.ilw", "verify_flow_t1"),
    "engine.verify_flow_t2": ("ilwhodge.ilw", "verify_flow_t2"),
    "engine.verify_commutation": ("ilwhodge.ilw", "verify_commutation"),
    "engine.verify_cg": ("ilwhodge.hodge", "verify_cg"),
    "engine.verify_linear_term_identity": ("ilwhodge.hodge", "verify_linear_term_identity"),
    "engine.verify_one_point_reverse": ("ilwhodge.hodge", "verify_one_point_reverse"),
}

SERIES_OPS = ("mpseries.exp", "mpseries.log", "mpseries.inverse")


class Tracer:
    """In-memory span aggregates: per name, calls, inclusive and self seconds."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # child seconds of each open span
        self.active: Counter = Counter()  # open activations per span name
        self.calls: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.hamiltonian_keys: set = set()

    def wrap(self, name: str, fn, before=None, after=None):
        stack, active = self.stack, self.active

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                if not active[name]:
                    self.incl_s[name] += dt
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the span boundaries ------------------------------

    def _before_mul(self, args) -> None:
        a, b = args
        self.counts["mul_term_pairs"] += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1
        )
        if any(self.active[op] for op in SERIES_OPS):
            self.counts["series_op_mul_calls"] += 1

    def _after_series_op(self, args, result) -> None:
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for c in result.terms.values()),
            default=0,
        )
        self.counts["max_coeff_bits"] = max(self.counts["max_coeff_bits"], bits)

    def _before_normalize(self, args) -> None:
        self.counts["normalize_terms_in"] += len(args[0].terms)

    def _after_solve(self, args, result) -> None:
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        self.counts["matrix_cells"] += len(rows) * cols
        self.counts["solve_columns"] += cols
        if result.consistent:
            self.counts["solve_rank"] += cols - len(result.free_directions)

    def _before_higher_hamiltonian(self, args) -> None:
        i, G = args[0], args[1]
        cg = args[2] if len(args) > 2 else None
        self.hamiltonian_keys.add((i, G, "default" if cg is None else id(cg)))

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded
        ilwhodge modules and classes by its wrapper."""
        import importlib

        import ilwhodge.cli  # noqa: F401  (loads every engine module)

        hooks = {
            "mpseries.mul": (self._before_mul, None),
            "mpseries.exp": (None, self._after_series_op),
            "mpseries.log": (None, self._after_series_op),
            "mpseries.inverse": (None, self._after_series_op),
            "diffalg.normalize": (self._before_normalize, None),
            "linalg.solve": (None, self._after_solve),
            "ilw.higher_hamiltonian": (self._before_higher_hamiltonian, None),
        }
        modules = [
            m for n, m in sys.modules.items() if n == "ilwhodge" or n.startswith("ilwhodge.")
        ]
        owners = modules + [
            v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("ilwhodge")
        ]
        for name, (module, attr) in SPANS.items():
            original = importlib.import_module(module)
            for part in attr.split("."):
                original = getattr(original, part)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            bound = [(o, k) for o in owners for k, v in vars(o).items() if v is original]
            if not bound:
                raise RuntimeError(f"span {name}: {module}.{attr} is bound nowhere")
            for owner, key in bound:
                setattr(owner, key, wrapper)

    def summary(self) -> dict:
        return {
            "spans": {
                n: {"calls": self.calls[n], "incl_s": self.incl_s[n], "self_s": self.self_s[n]}
                for n in self.calls
            },
            "counts": dict(self.counts),
            "hamiltonian_distinct": len(self.hamiltonian_keys),
        }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import ilwhodge.cli

    rc = tracer.wrap("cli.main", ilwhodge.cli.main)(argv)
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.summary()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
