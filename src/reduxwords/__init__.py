"""Run-length reduction of words and the complexity functions it induces.

The library computes, for an infinite sequence given by a deterministic
rule, how many distinct length-n windows it has up to four equivalences:
equality, anagram equivalence, equal run-length reductions, and anagram
equivalence of the reductions. Exact window engines count them on a prefix
that the sequence's morphism proves holds every factor, or from the
morphism's recursion, and elsewhere certify them by window doubling. Closed
forms for the Thue-Morse and paperfolding sequences are checked against
those counts through a table of claims, which take the proven counts by the
same path as the profiles.
"""

from .complexity import (
    WindowPolicy,
    abelian_complexity,
    alternation_extremes,
    factor_complexity,
    reduced_abelian_complexity,
    reduced_complexity_from_extremes,
    reduced_factor_complexity,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    ReduxwordsError,
    SmallCaseException,
    SpecFileError,
    StabilizationError,
    WordDomainError,
)
from .sequences import (
    Morphism,
    SequenceHandle,
    load_sequence_spec,
    morphic_fixed_point,
    paperfolding,
    paperfolding_at,
    parse_sequence_spec,
    thue_morse,
    thue_morse_at,
    thue_morse_morphism,
)
from .theorems import (
    CLAIMS,
    check_alternating_skeleton_runs,
    check_extremes_halving,
    check_extremes_mod4,
    check_mu_alternation,
    kernel_rank,
    pf_factor_count,
    pf_reduced_abelian_count,
    pf_reduced_factor_count,
    plan_claims,
    profile_kernel_rank,
    scan_mod4_gap,
    scan_odd_halving,
    tm_factor_count,
    tm_reduced_factor_count,
    verify,
)
from .words import (
    Word,
    abelian_reduced_key,
    alternations,
    parikh,
    reduce,
    reduced_key,
    run_decomposition,
    trim_first,
    trim_last,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CLAIMS",
    "ConfigurationError",
    "Morphism",
    "ReduxwordsError",
    "SequenceHandle",
    "SmallCaseException",
    "SpecFileError",
    "StabilizationError",
    "WindowPolicy",
    "Word",
    "WordDomainError",
    "abelian_complexity",
    "abelian_reduced_key",
    "alternation_extremes",
    "alternations",
    "check_alternating_skeleton_runs",
    "check_extremes_halving",
    "check_extremes_mod4",
    "check_mu_alternation",
    "factor_complexity",
    "kernel_rank",
    "load_sequence_spec",
    "morphic_fixed_point",
    "paperfolding",
    "paperfolding_at",
    "parikh",
    "parse_sequence_spec",
    "pf_factor_count",
    "pf_reduced_abelian_count",
    "pf_reduced_factor_count",
    "plan_claims",
    "profile_kernel_rank",
    "reduce",
    "reduced_abelian_complexity",
    "reduced_complexity_from_extremes",
    "reduced_factor_complexity",
    "reduced_key",
    "run_decomposition",
    "scan_mod4_gap",
    "scan_odd_halving",
    "thue_morse",
    "thue_morse_at",
    "thue_morse_morphism",
    "tm_factor_count",
    "tm_reduced_factor_count",
    "trim_first",
    "trim_last",
    "verify",
]
