"""egyfrac: exact-arithmetic toolkit for unit-fraction experiments."""

from .errors import (
    DomainError,
    InconclusiveError,
    InfeasibleError,
    NumericalInstabilityError,
    RangeError,
    ResourceLimitError,
)
from .rational import (
    IntSet,
    as_intset,
    format_rational,
    fraction_sum,
    parse_rational,
    recip_sum,
)
from .sieve import (
    FactorTable,
    build_table,
    factorize,
    omega,
)
from .decomposition import (
    Decomposition,
    build_decomposition,
)
from .filters import (
    has_divisor_pair,
    mertens_product,
    mertens_q_sum,
    omega_in_range,
    passes_smoothness,
    sieve_survivors,
)
from .solver import (
    CoreReduction,
    SolverConfig,
    SolverResult,
    SolverStatus,
    Strategy,
    combine_solutions,
    count_integral,
    count_subsets,
    find_subset,
    lambda_exact,
    reduce_to_core,
)
from .fourier import (
    ArcDiagnostics,
    arc_classify,
    fourier_count,
    orthogonality_sum,
)
from .pruning import PruneTrace, prune_ppower, prune_to_window
from .pomerance import (
    PomeranceReport,
    pomerance_set,
    verify_solution_free,
)

__version__ = "0.1.0"

__all__ = [
    "ArcDiagnostics",
    "CoreReduction",
    "Decomposition",
    "DomainError",
    "FactorTable",
    "InconclusiveError",
    "InfeasibleError",
    "IntSet",
    "NumericalInstabilityError",
    "PomeranceReport",
    "PruneTrace",
    "RangeError",
    "ResourceLimitError",
    "SolverConfig",
    "SolverResult",
    "SolverStatus",
    "Strategy",
    "arc_classify",
    "as_intset",
    "build_decomposition",
    "build_table",
    "combine_solutions",
    "count_integral",
    "count_subsets",
    "factorize",
    "find_subset",
    "format_rational",
    "fourier_count",
    "fraction_sum",
    "has_divisor_pair",
    "lambda_exact",
    "mertens_product",
    "mertens_q_sum",
    "omega",
    "omega_in_range",
    "orthogonality_sum",
    "parse_rational",
    "passes_smoothness",
    "pomerance_set",
    "prune_ppower",
    "prune_to_window",
    "recip_sum",
    "reduce_to_core",
    "sieve_survivors",
    "verify_solution_free",
]
