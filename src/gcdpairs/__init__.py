"""gcd-pairs in Z_n, their counting formulas, and their graphs.

An unordered pair {a, b} of residues mod n is a gcd-pair when gcd(a, b)
divides n. This package enumerates and counts these pairs, builds the graph
whose edge family they form, computes its invariants exactly at small scale,
and re-derives every documented claim by independent brute force
(`gcdpairs verify`).
"""

from .graph import (
    CliqueWitness,
    ColoringWitness,
    ExactSearchBoundError,
    GcdGraph,
    HamiltonicityResult,
    PathWitness,
    SearchBounds,
    StarWitness,
    build,
)
from .numtheory import PrimePower, euler_phi, phi_partial_sum, primes_below
from .pairs import (
    CountKind,
    CountResult,
    ZeroDivisorPartition,
    classify_elements,
    count_prime_power_formula,
    count_zero_divisor_closed,
    is_gcd_pair,
    zero_divisor_partition,
)
from .verify import ClaimResult, Status, VerificationReport, run_verification

__version__ = "0.1.0"
