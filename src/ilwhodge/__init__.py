"""ilwhodge: exact-arithmetic engine for the ILW hierarchy and one-point
linear Hodge-integral identities.

Everything is computed over the rationals at a configurable truncation
order: Bernoulli-number constants, truncated multivariate power series,
differential polynomials and local functionals, the hierarchy Hamiltonians
and flows, the one-point intersection-number tables, and the extraction of
the constants C_g = |B_{2g}|/(2 (2g)!), with coefficient-by-coefficient
verification reports.
"""

from .exactnum import Rational, bernoulli, c_g, dispersion_coeff
from .mpseries import (
    MultiSeries,
    SeriesError,
    VarSpec,
    divide_series,
    exp_series,
    inverse_series,
    log_series,
    sinc_half_series,
    substitute_square,
)
from .diffalg import (
    DiffAlgError,
    DiffPoly,
    LocalFunctional,
    NotTotalDerivativeError,
    coeff_ring,
    integrate_x,
    miura_forward,
    miura_inverse,
    miura_inverse_series,
    miura_series,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_key,
    variational_derivative,
)
from .hodge import (
    BracketTable,
    HodgeConsistencyError,
    extract_cg,
    one_point_table,
    s_series,
    s_tilde_series,
    verify_cg,
    verify_linear_term_identity,
    verify_one_point_reverse,
)
from .ilw import (
    Hamiltonian,
    InconsistentSystemError,
    flow,
    h1,
    hamiltonian,
    higher_hamiltonian,
    verify_commutation,
    verify_flow_t1,
    verify_flow_t2,
)
from .reports import VerificationReport

# No engine path solves a linear system; `linalg` is still loaded with the
# package because perfbench/tracing.py wraps its solver in the loaded ilwhodge
# modules and refuses to trace a call when it finds the solver bound nowhere.
# So every traced module must be loaded by `import ilwhodge.cli`: the tracer
# lists the loaded modules before it wraps anything, so a span whose module
# is imported later (lazily, inside a function) is bound nowhere and a
# `--trace 1` benchmark pass fails.
from . import linalg  # noqa: F401

__version__ = "0.1.0"
