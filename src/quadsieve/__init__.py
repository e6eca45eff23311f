"""Factorization engine and prime sieve for the quadratic families
E_c = {X^2 + c : X of parity opposite to c}.

Element values are factored in index order by following the one or two
arithmetic progressions of indices attached to every odd prime divisor,
so each element is divided only by the primes due at its index: those
of the root classes of X^2 = -c up to the square root of the last
element of a small head range, held in a calendar to the run's end, and
past the head also those of a progression table, where each prime first
seen there appears exactly once.  Companion modules construct the
first-occurrence data and dual progressions directly, build the
quadratic sequence pairs (U_n, Z_n) whose products
Z_n * Z_{n+1} = U_n^2 + c generate factorizations, and provide a
trial-division oracle for end-to-end verification.
"""

from .core import (
    INT63_MAX,
    EcElement,
    EcParams,
    element_at,
    index_of,
    is_prime,
    make_params,
)
from .oracle import OracleReport, brute_sets, compare, trial_factor
from .progressions import (
    DualProgression,
    FirstHit,
    LiftSolutions,
    PowerPlan,
    dual_for_prime,
    dual_for_prime_power,
    first_occurrence,
    lift_solutions,
    power_plan,
    sequence_exists,
)
from .sieve import (
    Checkpoint,
    FactorizationRecord,
    SieveError,
    SieveOutput,
    atkin_primes,
    factorizations,
    run_sieve,
)
from .uz import (
    UZPair,
    appendix_pair,
    family_coeffs,
    pair_from_factorization,
    special_pair_one,
    special_pair_two,
    z_values_distinct,
)

__version__ = "0.1.0"

__all__ = [
    "INT63_MAX",
    "EcElement",
    "EcParams",
    "element_at",
    "index_of",
    "is_prime",
    "make_params",
    "OracleReport",
    "brute_sets",
    "compare",
    "trial_factor",
    "DualProgression",
    "FirstHit",
    "LiftSolutions",
    "PowerPlan",
    "dual_for_prime",
    "dual_for_prime_power",
    "first_occurrence",
    "lift_solutions",
    "power_plan",
    "sequence_exists",
    "Checkpoint",
    "FactorizationRecord",
    "SieveError",
    "SieveOutput",
    "atkin_primes",
    "factorizations",
    "run_sieve",
    "UZPair",
    "appendix_pair",
    "family_coeffs",
    "pair_from_factorization",
    "special_pair_one",
    "special_pair_two",
    "z_values_distinct",
]
