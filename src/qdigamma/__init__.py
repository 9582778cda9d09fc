"""Deformed (q,k)- and (p,q)-digamma and gamma functions.

Certified series evaluation, ratio-inequality verification over seeded
grids, positivity-threshold root finding, and degeneration scans toward
the classical, q-, k-, and p-analogue digammas.
"""

from .errors import (
    DomainError,
    NoPositiveRegion,
    NoRootInBracket,
    PositivityViolated,
    QDigammaError,
    TruncationNotConverged,
)
from .inequalities import (
    GridSpec,
    RatioSpec,
    SpecVerdict,
    Suite,
    VerificationReport,
    check_lemma_cross,
    find_positive_threshold,
    make_verification_grid,
    ratio_G,
    ratio_H,
    validate_spec,
    verify_bounds,
)
from .limits import (
    ConvergenceReport,
    SubstitutionCheck,
    limit_combined_pq,
    limit_k_to_1,
    limit_p_to_inf,
    limit_q_to_1_pq,
    limit_q_to_1_qk,
)
from .params import DeformParams, EvalResult, Family, Tolerance
from .qcore import (
    evaluate,
    ln_gamma_pq,
    ln_gamma_qk,
    psi_pq,
    psi_pq_prime,
    psi_qk,
    psi_qk_limit,
    psi_qk_prime,
    psi_pq_limit,
    q_bracket,
)
from .reference import (
    OracleMethod,
    OracleValue,
    SeriesKind,
    brute_force_series,
    classical_digamma,
    k_digamma_ref,
    p_digamma_ref,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QDigammaError",
    "DomainError",
    "TruncationNotConverged",
    "PositivityViolated",
    "NoRootInBracket",
    "NoPositiveRegion",
    "Family",
    "DeformParams",
    "Tolerance",
    "EvalResult",
    "evaluate",
    "q_bracket",
    "psi_qk",
    "psi_qk_prime",
    "psi_pq",
    "psi_pq_prime",
    "ln_gamma_qk",
    "ln_gamma_pq",
    "psi_qk_limit",
    "psi_pq_limit",
    "OracleMethod",
    "OracleValue",
    "SeriesKind",
    "classical_digamma",
    "k_digamma_ref",
    "p_digamma_ref",
    "brute_force_series",
    "RatioSpec",
    "GridSpec",
    "SpecVerdict",
    "VerificationReport",
    "Suite",
    "validate_spec",
    "ratio_G",
    "ratio_H",
    "check_lemma_cross",
    "verify_bounds",
    "find_positive_threshold",
    "make_verification_grid",
    "ConvergenceReport",
    "SubstitutionCheck",
    "limit_k_to_1",
    "limit_q_to_1_qk",
    "limit_q_to_1_pq",
    "limit_p_to_inf",
    "limit_combined_pq",
]
