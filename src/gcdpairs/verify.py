"""Re-derives every documented claim about gcd-pairs and their graphs by
independent brute force, and reports per-claim outcomes.

Statuses:
  PASS        the claim holds on the tested range.
  FAIL        an implementation contradicts a claim known to be true, or a
              witness fails its own check (AssertionError): a regression,
              never expected.
  DISCREPANCY brute force contradicts the claimed statement itself; the entry
              records claimed vs observed values. Expected exactly for the
              two-prime-product clique order (and the coloring bound derived
              from it) whenever q > p^2.
  NOTED       informational errata entries (documented typos, edge-case gaps),
              and any claim whose range holds no case (detail: no case in range).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd
from typing import Callable

from . import np, oracle
from .graph import (
    GcdGraph,
    build,
    chromatic_number,
    clique_construction,
    domination_number,
    embedding_check,
    has_triangle,
    hamiltonian_cycle,
    hamiltonian_path,
    is_connected,
    is_planar,
    longest_cycle_constructive,
    max_clique,
    star_subgraph,
)
from .numtheory import (
    divisors,
    factorize,
    is_prime,
    primes_below,
    summatory_totient,
)
from .pairs import (
    CountKind,
    classify_elements,
    count_prime_power_formula,
    count_zero_divisor_closed,
    divisor_cell_sum_bound,
    is_gcd_pair,
    semiprime_zero_divisor_bound,
    zero_divisor_partition,
)


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    DISCREPANCY = "discrepancy"
    NOTED = "noted"


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    range_tested: str
    status: Status
    details: str

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "statement": self.statement,
            "range": self.range_tested,
            "status": self.status.value,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    entries: list[ClaimResult]

    @property
    def failures(self) -> list[ClaimResult]:
        return [e for e in self.entries if e.status is Status.FAIL]

    def entry(self, claim_id: str) -> ClaimResult:
        for e in self.entries:
            if e.claim_id == claim_id:
                return e
        raise KeyError(claim_id)

    def to_text(self) -> str:
        width = max(len(e.claim_id) for e in self.entries) if self.entries else 10
        lines = []
        for e in self.entries:
            lines.append(
                f"[{e.status.value.upper():<11}] {e.claim_id:<{width}}  "
                f"{e.range_tested:<14}  {e.details}"
            )
        tally = {s: sum(1 for e in self.entries if e.status is s) for s in Status}
        lines.append(
            f"summary: {tally[Status.PASS]} pass, {tally[Status.FAIL]} fail, "
            f"{tally[Status.DISCREPANCY]} discrepancy, {tally[Status.NOTED]} noted"
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"schema": 1, "entries": [e.to_json_dict() for e in self.entries]}


Outcome = tuple[Status, str, int]  # status, details, cases checked (n - 1 over 2..n)
Runner = Callable[[int], Outcome]


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    statement: str
    default_limit: int
    runner: Runner
    range_label: Callable[..., str]  # called as range_label(limit=...)


CLAIMS: list[ClaimSpec] = []


def _claim(
    claim_id: str,
    statement: str,
    default_limit: int,
    range_label: str | Callable[..., str] = "n <= {limit}",
) -> Callable[[Runner], Runner]:
    """Register the decorated runner in CLAIMS; definition order is report order.
    range_label renders a limit as a template over {limit} or as a function."""

    def register(runner: Runner) -> Runner:
        label = range_label if callable(range_label) else range_label.format
        CLAIMS.append(ClaimSpec(claim_id, statement, default_limit, runner, label))
        return runner

    return register


# Each G_n is built once per process and shared by every claim that needs it (n <= 200 by
# default); the counting claims read each brute-force pair count off one oracle gcd table
# per claim limit (n <= 500), which sums the totals of every whole Z_n at its first count.


@cache
def _graph(n: int) -> GcdGraph:
    return build(n)


@cache
def _table(limit: int) -> oracle.GcdTable:
    return oracle.GcdTable(limit + 1)


# Keyed by the table, not its limit, so that no count outlives the table it
# was read off.
@cache
def _zero_divisor_pairs(table: oracle.GcdTable, n: int) -> int:
    return table.count(n, classify_elements(n).zero_divisors)


@cache
def _unit_pairs(table: oracle.GcdTable, m: int) -> int:
    return table.count(m, classify_elements(m).units)


def _ring_pair(n: int, a: int, b: int) -> bool:
    # ground-truth predicate, written from the definition on purpose
    g = gcd(a % n, b % n)
    return g > 0 and n % g == 0


# --- pair characterizations ---------------------------------------------------


@_claim("pair-when-divisor", "if a divides n then {a, b} is a gcd-pair for every b", 200)
def _claim_pair_when_divisor(limit: int) -> Outcome:
    checked = 0
    for n in range(1, limit + 1):
        for a in divisors(n):
            if a >= n:
                continue
            for b in range(n):
                checked += 1
                if not _ring_pair(n, a, b):
                    return Status.DISCREPANCY, f"fails at n={n}, a={a}, b={b}", checked
                if not is_gcd_pair(n, a, b):
                    return Status.FAIL, f"is_gcd_pair(n={n},{a},{b}) is False", checked
    return Status.PASS, f"{checked} divisor pairs confirmed", checked


@_claim("unit-pairs-coprime", "a gcd-pair containing a unit has coprime members", 200)
def _claim_unit_pairs_coprime(limit: int) -> Outcome:
    checked = 0
    for n in range(2, limit + 1):
        units = classify_elements(n).units
        gcds = _table(limit).rows(n, units)  # row i holds gcd(the i-th unit, b) for b in Z_n
        paired = n % gcds == 0
        checked += int(np.count_nonzero(paired))
        offenders = np.argwhere(paired & (gcds != 1))
        if offenders.size:
            i, b = offenders[0]
            detail = f"unit pair with gcd > 1 at n={n}, a={np.flatnonzero(units)[i]}, b={b}"
            return Status.DISCREPANCY, detail, checked
    return Status.PASS, f"{checked} unit pairs all coprime", checked


# --- counting formulas ----------------------------------------------------------


def _prime_powers_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if len(factorize(n)) == 1]


@_claim(
    "prime-power-count",
    "pair count of Z_{p^k} equals k + nested totient sums",
    500,
    "p^k <= {limit}",
)
def _claim_prime_power_count(limit: int) -> Outcome:
    pps = _prime_powers_upto(limit)
    for checked, n in enumerate(pps, 1):
        expected = count_prime_power_formula(n).value
        actual = _table(limit).count(n)
        if expected != actual:
            detail = f"formula {expected} != enumeration {actual} at n={n}"
            return Status.FAIL, detail, checked
    return Status.PASS, f"{len(pps)} prime powers match enumeration", len(pps)


@_claim(
    "composite-count-bound",
    "composite n: pair count strictly exceeds 1 + sum phi(1..n-1)",
    500,
    "composite n <= {limit}",
)
def _claim_composite_bound(limit: int) -> Outcome:
    phi_sum = summatory_totient(limit)
    checked = 0
    for n in range(4, limit + 1):
        if is_prime(n):
            continue
        checked += 1
        bound = 1 + phi_sum(n - 1)
        actual = _table(limit).count(n)
        if not actual > bound:
            return Status.FAIL, f"count {actual} not above bound {bound} at n={n}", checked
    return Status.PASS, f"{checked} composites strictly above bound", checked


@_claim("zero-divisor-partition", "the cells S'_d partition the zero divisors", 500)
def _claim_partition(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        cells = zero_divisor_partition(n).values()
        union = set().union(*cells)
        if sum(map(len, cells)) != len(union):
            return Status.DISCREPANCY, f"cells overlap at n={n}", n - 1
        if union != set(np.flatnonzero(classify_elements(n).zero_divisors).tolist()):
            return Status.DISCREPANCY, f"cells do not cover the zero divisors at n={n}", n - 1
    return Status.PASS, "cells are disjoint and cover the zero divisors", limit - 1


@_claim(
    "zero-divisor-pair-bound",
    "zero-divisor pairs dominate the sum of unit-restricted counts over divisors",
    500,
)
def _claim_cell_sum_bound(limit: int) -> Outcome:
    table = _table(limit)
    for n in range(2, limit + 1):
        lhs = _zero_divisor_pairs(table, n)
        rhs = sum(_unit_pairs(table, n // d) for d in divisors(n)[1:-1])
        if lhs < rhs:
            detail = f"zero-divisor pairs {lhs} below cell sum {rhs} at n={n}"
            return Status.DISCREPANCY, detail, n - 1
        formula = divisor_cell_sum_bound(n).value
        if formula != rhs:
            detail = f"divisor_cell_sum_bound {formula} != brute cell sum {rhs} at n={n}"
            return Status.FAIL, detail, n - 1
    return Status.PASS, "zero-divisor pair count dominates the cell sum", limit - 1


@_claim(
    "semiprime-zero-divisor-bound",
    "for distinct primes: zero-divisor pairs >= |pairs(Z_p)| + |pairs(Z_q)| + p + q - 5",
    500,
    "pq <= {limit}",
)
def _claim_semiprime_bound(limit: int) -> Outcome:
    sample = ""
    checked = 0
    for p in primes_below(limit):
        for q in primes_below(limit // p + 1):
            if q <= p or p * q > limit:
                continue
            n = p * q
            checked += 1
            bound = semiprime_zero_divisor_bound(p, q).value
            actual = _zero_divisor_pairs(_table(limit), n)
            if actual < bound:
                detail = f"bound {bound} exceeds actual {actual} at n={n}"
                return Status.DISCREPANCY, detail, checked
            if n == 15:
                sample = f"; n=15 reproduces bound {bound} <= actual {actual}"
    return Status.PASS, f"{checked} semiprimes respect the bound{sample}", checked


def _closed_forms_exact(limit: int, moduli: list[int], confirmed: str) -> Outcome:
    """count_zero_divisor_closed is exact and matches brute force at every n in moduli."""
    for checked, n in enumerate(moduli, 1):
        result = count_zero_divisor_closed(n)
        actual = _zero_divisor_pairs(_table(limit), n)
        if result.kind is not CountKind.EXACT or result.value != actual:
            detail = f"closed form {result.value} ({result.kind.value}) != actual {actual} at n={n}"
            return Status.FAIL, detail, checked
    return Status.PASS, confirmed.format(len(moduli)), len(moduli)


@_claim(
    "double-prime-zero-divisors",
    "n = 2p, p odd: zero-divisor pairs = |pairs(Z_p)| + p - 1 exactly",
    500,
    "2p <= {limit}",
)
def _claim_double_prime(limit: int) -> Outcome:
    moduli = [2 * p for p in primes_below(limit // 2 + 1) if p != 2]
    return _closed_forms_exact(limit, moduli, "{} values exact")


@_claim(
    "triple-prime-zero-divisors",
    "n = 3p, p != 3: zero-divisor pairs = |pairs(Z_p)| + p + ceil((p-1)/2) exactly",
    500,
    "3p <= {limit}",
)
def _claim_triple_prime(limit: int) -> Outcome:
    moduli = [3 * p for p in primes_below(limit // 3 + 1) if p != 3]
    return _closed_forms_exact(limit, moduli, "{} values exact")


@_claim(
    "prime-power-zero-divisors",
    "n = p^k: zero-divisor pairs = |pairs(Z_{p^(k-1)})| - k + 1 (0 for primes)",
    500,
    "p^k <= {limit}",
)
def _claim_prime_power_zero_divisors(limit: int) -> Outcome:
    moduli = _prime_powers_upto(limit)
    return _closed_forms_exact(limit, moduli, "{} prime powers exact (primes give 0)")


# --- graph propositions ---------------------------------------------------------


@_claim(
    "subgraph-embedding",
    "G_m embeds identically in G_n whenever m divides n",
    200,
    "m|n <= {limit}",
)
def _claim_embedding(limit: int) -> Outcome:
    checked = 0
    for n in range(1, limit + 1):
        for m in divisors(n):
            if m == n:
                continue
            checked += 1
            if embedding_check(_graph(m), _graph(n)):
                return Status.FAIL, f"G_{m} does not embed in G_{n}", checked
    return Status.PASS, f"{checked} divisor embeddings verified", checked


@_claim("star-subgraph", "a maximal star of order n centers at vertex 1", 200)
def _claim_star(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        star_subgraph(_graph(n))  # raises if any spoke is missing
    return Status.PASS, "vertex 1 centers a full star in every graph", limit - 1


@_claim("domination-number", "the domination number is 1", 200)
def _claim_domination(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        domination_number(_graph(n))  # raises unless {1} dominates
        if n <= oracle.MAX_DOMINATION_N and oracle.exhaustive_domination(_graph(n)) != 1:
            return Status.FAIL, f"oracle domination differs at n={n}", n - 1
    return Status.PASS, "domination number 1 with witness {1} everywhere", limit - 1


@_claim("connectivity", "G_n is connected", 200)
def _claim_connectivity(limit: int) -> Outcome:
    for n in range(1, limit + 1):
        if not is_connected(_graph(n)):
            return Status.FAIL, f"G_{n} not connected", n
    return Status.PASS, "every graph connected", limit


@_claim("triangle-threshold", "triangles exist exactly for n >= 4", 200)
def _claim_triangles(limit: int) -> Outcome:
    for n in range(1, limit + 1):
        g = _graph(n)
        present = has_triangle(g) is not None
        if present != (n >= 4):
            return Status.FAIL, f"triangle presence wrong at n={n}", n
        if n <= 30:  # independent brute scan on the small range
            brute = any(
                _ring_pair(n, a, b) and _ring_pair(n, b, c) and _ring_pair(n, a, c)
                for a, b, c in combinations(range(n), 3)
            )
            if brute != present:
                return Status.FAIL, f"brute triangle scan differs at n={n}", n
    return Status.PASS, "triangles exist exactly for n >= 4", limit


@_claim("traceable", "(0, 1, ..., n-1) is a Hamiltonian path", 200)
def _claim_traceable(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        hamiltonian_path(_graph(n))  # validates (0, 1, ..., n-1) edge by edge
    return Status.PASS, "canonical path (0,...,n-1) valid in every graph", limit - 1


@_claim(
    "hamiltonian-even",
    "even n > 2: (0, 2, 3, ..., n-1, 1) is a Hamiltonian cycle",
    200,
    "even n <= {limit}",
)
def _claim_hamiltonian_even(limit: int) -> Outcome:
    moduli = range(4, limit + 1, 2)
    for checked, n in enumerate(moduli, 1):
        hamiltonian_cycle(_graph(n))  # validates (0, 2, 3, ..., n-1, 1) edge by edge
        if n <= oracle.MAX_CYCLE_N:
            found, _ = oracle.exhaustive_hamiltonian(_graph(n))
            if found is None:
                return Status.FAIL, f"oracle finds no cycle at n={n}", checked
    return Status.PASS, "constructive Hamiltonian cycle validates", len(moduli)


# the default limit is oracle.MAX_CYCLE_N, which the exhaustive search accepts
@_claim(
    "longest-cycle-odd",
    "odd n: no Hamiltonian cycle; maximum cycle order is n - 1",
    15,
    "odd 5 <= n <= {limit}",
)
def _claim_longest_cycle_odd(limit: int) -> Outcome:
    moduli = range(5, limit + 1, 2)
    for checked, n in enumerate(moduli, 1):
        g = _graph(n)
        longest_cycle_constructive(g)  # validates the (1,...,n-1) cycle
        ham, longest = oracle.exhaustive_hamiltonian(g)
        if ham is not None:
            return Status.FAIL, f"unexpected Hamiltonian cycle at n={n}", checked
        if longest != n - 1:
            return Status.FAIL, f"longest cycle {longest} != {n - 1} at n={n}", checked
    return Status.PASS, "no Hamiltonian cycle and maximum cycle order n-1", len(moduli)


# --- cliques, planarity, coloring -------------------------------------------------


def _two_prime_products(limit: int) -> list[int]:
    return [n for n in (6, 10, 14, 15, 21, 22, 26, 33) if n <= limit]


def _two_prime_parameters(n: int) -> tuple[int, int, int]:
    """(p, m, k) for n = pq, p < q: m primes below pq other than p and q, and
    the largest k with p^k < pq."""
    p = factorize(n)[0][0]
    m = len(primes_below(n)) - 2
    k = 1
    while p ** (k + 1) < n:
        k += 1
    return p, m, k


def _is_ring_clique(n: int, vertices: list[int]) -> bool:
    return all(_ring_pair(n, a, b) for a, b in combinations(vertices, 2))


def _is_maximal(n: int, clique: list[int]) -> bool:  # each v outside misses a member
    return all(any(not _ring_pair(n, v, w) for w in clique) for v in range(n) if v not in clique)


@cache
def _observed_omega(n: int) -> int:
    g = _graph(n)
    size = len(max_clique(g).vertices)
    if n <= oracle.MAX_CLIQUE_N and len(oracle.exhaustive_max_clique(g).vertices) != size:
        raise AssertionError(f"clique search disagrees with oracle at n={n}")
    return size


@_claim(
    "clique-two-prime-product",
    "n = pq: a maximal clique of order m+k+2 (suspect for q > p^2)",
    33,
    lambda limit: f"n in {_two_prime_products(limit)}",
)
def _claim_clique_two_prime(limit: int) -> Outcome:
    tested = _two_prime_products(limit)
    rows = []
    bad = False
    for n in tested:
        p, m, k = _two_prime_parameters(n)
        claimed = m + k + 2
        claimed_set = sorted({1, *primes_below(n), *(p**j for j in range(2, k + 1))})
        valid = _is_ring_clique(n, claimed_set)
        maximal = valid and _is_maximal(n, claimed_set)
        observed = _observed_omega(n)
        constructed = len(clique_construction(_graph(n)).vertices)
        if valid and maximal and len(claimed_set) == claimed and observed >= claimed:
            rows.append(f"n={n}: maximal order {claimed} confirmed")
        else:
            bad = True
            rows.append(
                f"n={n}: claimed {claimed}, advertised set "
                f"{'valid' if valid else 'not pairwise adjacent'}, "
                f"largest valid construction {constructed}, observed maximum {observed}"
            )
    status = Status.DISCREPANCY if bad else Status.PASS
    return status, "; ".join(rows), len(tested)


def _prime_power_clique_order(n: int) -> int:
    """m + k for n = p^k, m = primes below n other than p (k + 1 = 2 when n = 2)."""
    if n == 2:
        return 2
    [(p, k)] = factorize(n)
    m = len([r for r in primes_below(n) if r != p])
    return m + k


@_claim(
    "clique-prime-power",
    "n = p^k: a maximal clique of order m+k (k+1 when n = 2)",
    40,
    "p^k <= {limit}",
)
def _claim_clique_prime_power(limit: int) -> Outcome:
    pps = _prime_powers_upto(limit)
    for checked, n in enumerate(pps, 1):
        expected = _prime_power_clique_order(n)
        witness = sorted(clique_construction(_graph(n)).vertices)
        maximal = _is_maximal(n, witness)
        if len(witness) != expected or not maximal:
            detail = f"construction order {len(witness)} (maximal={maximal}) != {expected} at n={n}"
            return Status.FAIL, detail, checked
        if _observed_omega(n) < expected:
            return Status.FAIL, f"maximum clique below {expected} at n={n}", checked
    return Status.PASS, f"{len(pps)} prime powers give maximal order m+k", len(pps)


@_claim(
    "clique-prime-count",
    "1 together with the primes below n is a clique of order m+1",
    40,
)
def _claim_clique_prime_count(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        base = [1, *primes_below(n)]
        if not _is_ring_clique(n, base):
            return Status.FAIL, f"1 + primes not a clique at n={n}", n - 1
        if _observed_omega(n) < len(base):
            return Status.FAIL, f"maximum clique below {len(base)} at n={n}", n - 1
    return Status.PASS, "clique on 1 and the primes below n everywhere", limit - 1


def _has_k5(n: int) -> bool:
    # independent detection: the witness {1,2,3,5,7} for n >= 8, {1,...,5} for
    # n = 6, exhaustive scan below that
    if n >= 8:
        return _is_ring_clique(n, [1, 2, 3, 5, 7])
    return any(_is_ring_clique(n, list(c)) for c in combinations(range(n), 5))


@_claim("k5-threshold", "a K5 subgraph exists exactly for n >= 6, n != 7", 60)
def _claim_k5(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        if _has_k5(n) != (n >= 6 and n != 7):
            return Status.FAIL, f"K5 presence wrong at n={n}", n - 1
    return Status.PASS, "K5 exists exactly for n >= 6, n != 7", limit - 1


@_claim("planarity-threshold", "G_n is planar exactly for n <= 7, n != 6", 30)
def _claim_planarity(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        g = _graph(n)
        planar = is_planar(g)
        if planar != oracle.dmp_planar(g):
            return Status.FAIL, f"is_planar disagrees with the DMP oracle at n={n}", n - 1
        if planar != (n <= 7 and n != 6):
            return Status.FAIL, f"planarity wrong at n={n}", n - 1
    return Status.PASS, "planar exactly for n <= 7, n != 6", limit - 1


_SMALL_CHROMATIC = {2: 2, 3: 2, 4: 3, 5: 3, 6: 5, 7: 4}


@_claim(
    "chromatic-small",
    "chromatic numbers of G_2..G_7 are 2, 2, 3, 3, 5, 4",
    7,
    "2 <= n <= {limit}",
)
def _claim_chromatic_small(limit: int) -> Outcome:
    tested = {n: expected for n, expected in _SMALL_CHROMATIC.items() if n <= limit}
    for checked, (n, expected) in enumerate(tested.items(), 1):
        g = _graph(n)
        exact = chromatic_number(g).color_count
        if exact != expected:
            return Status.FAIL, f"chromatic {exact} != {expected} at n={n}", checked
        if oracle.exhaustive_chromatic(g) != expected:
            return Status.FAIL, f"oracle chromatic differs at n={n}", checked
    values = ",".join(map(str, tested.values()))
    return Status.PASS, f"chromatic numbers {values} confirmed", len(tested)


@_claim(
    "chromatic-two-prime-bound",
    "n = pq: chromatic number >= m+k+2 (inherits the suspect clique order)",
    16,
    lambda limit: f"n in {_two_prime_products(limit)}",
)
def _claim_chromatic_two_prime(limit: int) -> Outcome:
    tested = _two_prime_products(limit)
    rows = []
    bad = False
    for n in tested:
        _, m, k = _two_prime_parameters(n)
        claimed = m + k + 2
        actual = chromatic_number(_graph(n)).color_count
        if actual >= claimed:
            rows.append(f"n={n}: chromatic {actual} >= {claimed}")
        else:
            bad = True
            rows.append(f"n={n}: claimed lower bound {claimed} exceeds chromatic {actual}")
    status = Status.DISCREPANCY if bad else Status.PASS
    return status, "; ".join(rows), len(tested)


@_claim(
    "chromatic-prime-bounds",
    "chromatic number >= m+k for n = p^k and >= m+1 in general",
    16,
)
def _claim_chromatic_prime_bounds(limit: int) -> Outcome:
    for n in range(2, limit + 1):
        if len(factorize(n)) == 1:
            bound = _prime_power_clique_order(n)
            actual = chromatic_number(_graph(n)).color_count
            if actual < bound:
                return Status.FAIL, f"chromatic {actual} below m+k={bound} at n={n}", n - 1
        if n <= oracle.MAX_CHROMATIC_N:
            bound = len(primes_below(n)) + 1
            actual = oracle.exhaustive_chromatic(_graph(n))
            if actual < bound:
                return Status.FAIL, f"chromatic {actual} below m+1={bound} at n={n}", n - 1
    return Status.PASS, "prime-power and prime-count lower bounds hold", limit - 1


# --- errata -------------------------------------------------------------------


@_claim("errata-zero-divisors-mod-8", "documented typo: the zero divisors of Z_8", 8, "n = 8")
def _claim_errata_z8(limit: int) -> Outcome:
    actual = np.flatnonzero(classify_elements(8).zero_divisors).tolist()
    if actual != [2, 4, 6]:
        return Status.FAIL, f"zero divisors of Z_8 computed as {actual}", 1
    return (
        Status.NOTED,
        "zero divisors of Z_8 are {2,4,6}; the worked example's set {2,3,6} is a typo "
        "(3 is a unit mod 8; the example's own pair list uses 4)",
        1,
    )


@_claim("errata-units-mod-9", "documented typo: the units of Z_9", 9, "n = 9")
def _claim_errata_u9(limit: int) -> Outcome:
    actual = np.flatnonzero(classify_elements(9).units).tolist()
    if actual != [1, 2, 4, 5, 7, 8]:
        return Status.FAIL, f"units of Z_9 computed as {actual}", 1
    return (
        Status.NOTED,
        "units of Z_9 are {1,2,4,5,7,8}; the stated variant includes 0, which is never a unit",
        1,
    )


@_claim("errata-odd-cycle-small", "edge case: the odd maximal-cycle claim at n = 3", 3, "n = 3")
def _claim_errata_n3_cycle(limit: int) -> Outcome:
    _, longest = oracle.exhaustive_hamiltonian(_graph(3))
    if longest != 0:
        return Status.FAIL, f"G_3 unexpectedly contains a cycle of order {longest}", 1
    return (
        Status.NOTED,
        "the odd-case maximal cycle of order n-1 degenerates at n=3 (order 2 is not a "
        "cycle); the claim applies for odd n >= 5",
        1,
    )


def run_verification(
    max_n: int | None = None,
    claims: list[str] | None = None,
) -> VerificationReport:
    """Run every claim, or with `claims` only those whose id contains one of its
    substrings (an empty list selects none), up to the lesser of its default
    limit and max_n. A PASS or DISCREPANCY over no
    case checked nothing, so it is reported as NOTED. A claim whose witness
    fails its own check (an AssertionError) is a FAIL with the check's message,
    and the remaining claims still run."""
    if max_n is not None and max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    entries = []
    for spec in CLAIMS:
        if claims is not None and not any(f in spec.claim_id for f in claims):
            continue
        limit = spec.default_limit
        if max_n is not None:
            limit = min(limit, max_n)
        try:
            status, details, cases = spec.runner(limit)
        except AssertionError as exc:
            status, details = Status.FAIL, str(exc)
        else:
            if cases == 0 and status in (Status.PASS, Status.DISCREPANCY):
                status, details = Status.NOTED, "no case in range"
        label = spec.range_label(limit=limit)
        entries.append(ClaimResult(spec.claim_id, spec.statement, label, status, details))
    return VerificationReport(entries=entries)
