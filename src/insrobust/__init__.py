"""Primitivity and insertion-robustness of finite words.

A word is primitive when it is not a proper power of a shorter word, and
ins-robust when it stays primitive no matter which single alphabet letter is
inserted at which position.  This package classifies words with verifiable
witnesses, computes maximal repetitions, tallies small-length censuses by
construction, and evaluates closed-form counts and bounds — everything
cross-checked against brute-force oracles.
"""

from .classify import (
    Classification,
    DensityGuaranteeError,
    InsertionWitness,
    Verdict,
    classify_fast,
    classify_oracle,
    density_extension,
    eligible_periods,
    non_ins_robust_decomposition,
)
from .counting import (
    DEFAULT_CENSUS_BUDGET,
    BudgetExceededError,
    CensusReport,
    CountReport,
    OracleMismatchError,
    census,
    count_primitive,
    count_report,
)
from .repetitions import (
    BRUTE_FORCE_BOUND,
    Run,
    find_maximal_repetitions,
    maximal_periodicities,
    runs_bruteforce,
)
from .words import (
    Alphabet,
    Word,
    border_array,
    insert,
    is_primitive,
    primitive_root,
    reverse,
    rotate,
    words_of_length,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BRUTE_FORCE_BOUND",
    "BudgetExceededError",
    "CensusReport",
    "Classification",
    "CountReport",
    "DEFAULT_CENSUS_BUDGET",
    "DensityGuaranteeError",
    "InsertionWitness",
    "OracleMismatchError",
    "Run",
    "Verdict",
    "Word",
    "border_array",
    "census",
    "classify_fast",
    "classify_oracle",
    "count_primitive",
    "count_report",
    "density_extension",
    "eligible_periods",
    "find_maximal_repetitions",
    "insert",
    "is_primitive",
    "maximal_periodicities",
    "non_ins_robust_decomposition",
    "primitive_root",
    "reverse",
    "rotate",
    "runs_bruteforce",
    "words_of_length",
]
