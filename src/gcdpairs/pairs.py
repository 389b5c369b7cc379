"""gcd-pairs in Z_n: enumeration, counting, and the zero-divisor partition.

A gcd-pair in Z_n is an unordered pair {a, b} of residues 0 <= a, b < n with
gcd(a, b) | n. Pairs are stored canonically as (a, b) tuples with a <= b, and
pair collections are kept in lexicographic order so that set comparisons and
golden tests are deterministic.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import np
from .numtheory import (
    divisors,
    factorize,
    is_prime,
    mertens,
    phi_partial_sum,
    smallest_prime_factors,
    summatory_totient,
)


class ElementClasses(NamedTuple):
    units: np.ndarray
    zero_divisors: np.ndarray


class CountKind(enum.Enum):
    EXACT = "exact"
    STRICT_LOWER_BOUND = "strict-lower-bound"
    LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class CountResult:
    """A count or bound together with which closed form produced it."""

    value: int
    kind: CountKind
    provenance: str

    def to_json_dict(self) -> dict:
        return {"value": self.value, "kind": self.kind.value, "provenance": self.provenance}


def is_gcd_pair(n: int, x: int, y: int) -> bool:
    """Reduce x, y mod n and test gcd | n; (0, 0) is never a pair."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    g = gcd(x % n, y % n)
    return g > 0 and n % g == 0


def _moduli(n: int, a: int, spf: Sequence[int]) -> Iterator[int]:
    """The pairwise coprime m = p^(v_p(n) + 1) for the primes p of a / gcd(a, n),
    those with v_p(a) > v_p(n), read off the least-prime-factor table spf:
    gcd(a, b) fails to divide n exactly when one of them divides b."""
    rest = a // gcd(a, n)
    while rest > 1:
        p = spf[rest] or rest
        while rest % p == 0:
            rest //= p
        m = p
        while n % m == 0:
            m *= p
        yield m


def pair_rows(n: int, within: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(a, flags) for each a flagged in the length-n bool array `within` (every
    a < n by default): flags is a fresh bool array of length n - a whose cell i
    is true exactly when {a, a + i} is a gcd-pair of Z_n and a + i is flagged.
    Row 0 marks the divisors of n. Row a >= 1 clears every m-th cell from cell 0
    for each m of _moduli(n, a), as m | a makes m | a + i exactly when m | i.
    Only the yielded rows are sieved, and the factor table reaches the last."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    rows = range(n) if within is None else np.flatnonzero(within)
    spf = smallest_prime_factors(int(rows[-1]) if len(rows) else 0)
    ones = np.ones(n, dtype=bool)  # a copy per row costs less than np.ones
    for a in map(int, rows):
        if a == 0:
            row = residue_mask(n, divisors(n)[:-1])
        else:
            row = ones[a:].copy()
            for m in _moduli(n, a, spf):
                row[::m] = False
        if within is not None:
            row &= within[a:]
        yield a, row


def residue_mask(n: int, residues: Iterable[int]) -> np.ndarray:
    """The length-n bool array flagging each of `residues` (all in [0, n))."""
    mask = np.zeros(n, dtype=bool)
    mask[list(residues)] = True
    return mask


def count_pairs(n: int) -> tuple[int, int]:
    """(number of gcd-pairs of Z_n, number of those among its zero divisors),
    each row in closed form. Row 0 holds the divisors below n. Row a >= 1 keeps
    the b in [a, n) that no m of _moduli(n, a) divides: by inclusion-exclusion
    over the pairwise coprime m, the sum over their products q < n of +-(the
    multiples of q in [a, n)). Only the m = p coprime to n divide a unit, and
    q * c is a unit exactly when c is, so the units among those b are the same
    sum over the q coprime to n with units[x], the units in 1..x, for x."""
    is_unit = bytearray([1]) * n
    for p, _ in factorize(n):  # raises ValueError for n < 1
        is_unit[::p] = bytes(len(range(0, n, p)))
    units, spf = array("q", accumulate(is_unit)), smallest_prime_factors(n - 1)
    total, among = len(divisors(n)) - 1, 0
    for a in range(1, n):
        terms = [(1, 1)]  # (q, the sign of its multiples)
        for m in _moduli(n, a, spf):
            terms += [(q * m, -sign) for q, sign in terms if q * m < n]
        for q, sign in terms:
            kept = sign * ((n - 1) // q - (a - 1) // q)
            total += kept
            if not is_unit[a]:  # a zero divisor, so count the zero divisors kept
                among += kept
                if gcd(q, n) == 1:
                    among -= sign * (units[(n - 1) // q] - units[(a - 1) // q])
    return total, among


def iter_pairs(n: int) -> Iterator[tuple[int, int]]:
    """All gcd-pairs of Z_n in lexicographic order, streamed off pair_rows."""
    for a, row in pair_rows(n):
        for b in (np.flatnonzero(row) + a).tolist():
            yield (a, b)


def pair_total(n: int) -> int:
    """|pairs(Z_n)| = sum over the divisors d >= 2 of n of 1 + Phi(d - 1).

    A pair {a, b} with g = gcd(a, b) dividing n is {g*a', g*b'} with a' <= b'
    coprime residues of Z_d, d = n / g. For d >= 2 these are {0, 1} and the
    Phi(d - 1) pairs 1 <= a' <= b' < d; d = 1 leaves only {0, 0}, no pair."""
    larger = divisors(n)[1:]  # raises ValueError for n < 1
    phi_sum = summatory_totient(n - 1)
    return sum(1 + phi_sum(d - 1) for d in larger)


def classify_elements(n: int) -> ElementClasses:
    """The units and the zero divisors of Z_n (n >= 2) as length-n bool arrays:
    the units clear every p-th cell from cell 0 for each prime p of n, as
    pair_rows does, and the rest but 0 are the zero divisors."""
    if n < 2:
        raise ValueError(f"classify_elements requires n >= 2, got {n}")
    units = np.ones(n, dtype=bool)
    for p, _ in factorize(n):
        units[::p] = False
    zero_divisors = ~units
    zero_divisors[0] = False
    return ElementClasses(units, zero_divisors)


def zero_divisor_partition(n: int) -> dict[int, frozenset[int]]:
    """Partition the zero divisors of Z_n into the cells S'_d = {r*d : 1 <= r < n/d,
    gcd(r*d, n) = d}, keyed by the proper nontrivial divisors d of n with a
    nonempty cell; the cells are disjoint and their union is the zero divisors."""
    if n < 2:
        raise ValueError(f"zero_divisor_partition requires n >= 2, got {n}")
    cells: dict[int, frozenset[int]] = {}
    for d in divisors(n)[1:-1]:  # the d = n cell, r < n/d = 1, is empty
        cell = frozenset(r * d for r in range(1, n // d) if gcd(r * d, n) == d)
        if cell:
            cells[d] = cell
    return cells


def count_prime_power_formula(n: int) -> CountResult:
    """|full pair set of Z_n| = k + sum_{i=1..k} sum_{j=1..p^i - 1} phi(j) for a
    prime power n = p^k (else ValueError): pair_total over the divisors p^i."""
    if len(factorize(n)) != 1:
        raise ValueError(f"count_prime_power_formula requires a prime power n, got {n}")
    return CountResult(pair_total(n), CountKind.EXACT, "prime-power-formula")


def composite_lower_bound(n: int) -> CountResult:
    """For composite n the full pair count strictly exceeds 1 + sum phi(1..n-1)."""
    if n < 4 or is_prime(n):
        raise ValueError(f"composite_lower_bound requires composite n >= 4, got {n}")
    return CountResult(
        1 + phi_partial_sum(n - 1), CountKind.STRICT_LOWER_BOUND, "summatory-totient-bound"
    )


def semiprime_zero_divisor_bound(p: int, q: int) -> CountResult:
    """For distinct primes p, q: zero-divisor pairs of Z_{pq} number at least
    |pairs(Z_p)| + |pairs(Z_q)| + p + q - 5."""
    if p == q or not (is_prime(p) and is_prime(q)):
        raise ValueError(f"need distinct primes, got {p} and {q}")
    value = pair_total(p) + pair_total(q) + p + q - 5
    return CountResult(value, CountKind.LOWER_BOUND, "two-prime-lower-bound")


def divisor_cell_sum_bound(n: int) -> CountResult:
    """General composite bound: zero-divisor pairs of Z_n number at least the sum,
    over nontrivial divisors d of n, of the unit-restricted pair counts of Z_{n/d}.

    Each cell S'_d matches the unit-restricted pairs of Z_{n/d} one-to-one by
    {a, b} -> {a/d, b/d}; cross-cell pairs make the inequality strict in general.
    """
    if n < 2:
        raise ValueError(f"divisor_cell_sum_bound requires n >= 2, got {n}")
    # the d = n cell is empty: Z_1 has no pairs
    cofactors = [n // d for d in divisors(n)[1:-1]]
    mobius_sum = mertens(max(cofactors, default=1) - 1)
    total = sum(_unit_pair_count(m, mobius_sum) for m in cofactors)
    return CountResult(total, CountKind.LOWER_BOUND, "divisor-cell-sum")


def _unit_pair_count(m: int, mobius_sum: Callable[[int], int]) -> int:
    """Pairs a <= b among the units of Z_m, i.e. the units with gcd(a, b) = 1,
    given mobius_sum = mertens(k) for some k >= m - 1; time O(omega(m) sqrt(m))
    plus the Mertens values, memory O(sqrt(m)).

    Mobius inversion over d = gcd(a, b): the count is the sum, over d <= N =
    m - 1 coprime to m, of mu(d) * c(c + 1) / 2, where c = f(N // d) is the
    number of units in 1..N // d (a = d*x and b = d*y are units exactly when
    x, y are). The d with one quotient N // d form a block whose right end is
    a quotient value v of N, and N // v runs over the same values descending.
    The mu(d) of a block sum to A(v) - A(previous v), where A(x) is the sum of
    mu(d) over the d <= x coprime to m.

    f and A take m's primes one at a time, over the quotient values only, since
    v // p is one again (or 0). With p added, f'(x) = f(x) - f(x // p), and
    A'(x) = A(x) + A'(x // p), since the d = p*d' it drops have mu(d) = -mu(d');
    f starts as f(x) = x and A as Mertens' M."""
    n = m - 1
    s = isqrt(n)
    values = list(range(1, s + 1)) + [n // k for k in range(s, 0, -1) if n // k > s]
    count = len(values)
    coprime_sum = [mobius_sum(v) for v in values] + [0]  # [-1] is A(0) = 0
    units = values + [0]  # [-1] is f(0) = 0
    for p, _ in factorize(m):
        # the index of v // p among the values; -1 for v // p = 0
        below = [w - 1 if w <= s else count - n // w for w in [v // p for v in values]]
        units = [u - units[j] for u, j in zip(units, below)] + [0]
        for i, j in enumerate(below):  # ascending, so coprime_sum[j] is A'(v // p)
            coprime_sum[i] += coprime_sum[j]
    blocks = zip(coprime_sum, [0] + coprime_sum[: count - 1], reversed(units[:count]))
    return sum((a - b) * (c * (c + 1) // 2) for a, b, c in blocks)


def count_zero_divisor_closed(n: int) -> CountResult:
    """Best closed form for the number of pairs among the zero divisors of Z_n,
    chosen from factorize(n).

    One factor p^k: exact, 0 for a prime and the prime-power reduction for
    k >= 2. Two distinct primes p < q, each to the first power: exact for 2q
    and 3q, a lower bound for the other pq. Anything else: the general
    composite lower bound.
    """
    if n < 2:
        raise ValueError(f"count_zero_divisor_closed requires n >= 2, got {n}")
    factors = factorize(n)
    if len(factors) == 1:
        [(p, k)] = factors
        if k == 1:
            return CountResult(0, CountKind.EXACT, "prime-has-no-zero-divisors")
        value = pair_total(n // p) - k + 1
        return CountResult(value, CountKind.EXACT, "prime-power-reduction")
    if [k for _, k in factors] == [1, 1]:
        [(p, _), (q, _)] = factors
        if p == 2:
            return CountResult(pair_total(q) + q - 1, CountKind.EXACT, "double-prime-count")
        if p == 3:
            # ceil((q - 1) / 2) == q // 2 for integer q
            return CountResult(pair_total(q) + q + q // 2, CountKind.EXACT, "triple-prime-count")
        return semiprime_zero_divisor_bound(p, q)
    return divisor_cell_sum_bound(n)
