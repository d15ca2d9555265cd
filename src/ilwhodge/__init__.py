"""ilwhodge: exact-arithmetic engine for the ILW hierarchy and one-point
linear Hodge-integral identities.

Everything is computed over the rationals at a configurable truncation
order: Bernoulli-number constants, truncated multivariate power series,
differential polynomials and local functionals, the hierarchy Hamiltonians
and flows, the one-point intersection-number tables, and the extraction of
the constants C_g = |B_{2g}|/(2 (2g)!), with coefficient-by-coefficient
verification reports.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

# engine module -> the public names it defines, each reachable as ilwhodge.<name>
_API = {
    "exactnum": "bernoulli c_g dispersion_coeff",
    "mpseries": "MultiSeries SeriesError VarSpec coeff_ring divide_series exp_series "
                "inverse_series log_series sinc_half_series",
    "diffalg": "DiffAlgError DiffPoly NotTotalDerivativeError integrate_x "
               "miura_inverse_series miura_series normalize "
               "poisson_bracket total_x_derivative u_key variational_derivative",
    "hodge": "HodgeConsistencyError extract_cg one_point_table s_series "
             "s_tilde_series verify_cg verify_linear_term_identity verify_one_point_reverse",
    "ilw": "InconsistentSystemError flow h1 hamiltonian higher_hamiltonian "
           "verify_commutation verify_flow_t1 verify_flow_t2",
    "reports": "VerificationReport",
}
_HOME = {name: module for module, names in _API.items() for name in names.split()}
__all__ = list(_HOME)

_LOCK = threading.RLock()
_loading: set = set()


class _Deferred(types.ModuleType):
    """An engine module (each of `_API`, and `linalg`, which only the tracer
    binds), registered in `sys.modules` and bound here at import, whose code
    runs only at its first attribute access (the tracer's `vars(module)` is
    one), so that a CLI call compiles only what its command touches.  Loads
    hold `_LOCK`, so other threads wait for the whole module; a load's own
    accesses to the module re-enter on the same thread and read the partial
    module."""

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        with _LOCK:
            if type(self) is _Deferred and self not in _loading:
                _loading.add(self)
                try:
                    get(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _loading.discard(self)
        return get(self, attr)


for _name in (*_API, "linalg"):
    _module = module_from_spec(find_spec(f"{__name__}.{_name}"))
    sys.modules[_module.__name__] = globals()[_name] = _module
    _module.__class__ = _Deferred
del _name, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return [*globals(), *_HOME]


__version__ = "0.1.0"
