"""Elementary number theory backing the pair-counting formulas.

Single values are plain nonnegative Python ints at desk scale. Every question
about one n (is it prime, its primes, its divisors, its totient) is answered
from one factorize(n), by trial division with no probabilistic primality;
tables over 0..limit and the primes below x come off one least-prime-factor sieve.
The summatory totient and Mertens' function come from one Dirichlet-recursion
kernel that sieves only up to about limit^(2/3), so their time and memory grow
as about limit^(2/3), not as the limit.
The one convention that matters downstream: gcd(0, 0) == 0, and 0 divides
no positive modulus, so the pair {0, 0} is never a gcd-pair.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import accumulate
from typing import Callable


def factorize(n: int) -> list[tuple[int, int]]:
    """(p, k) for each prime power p^k exactly dividing n >= 1, p ascending ([]
    for n = 1), by trial division by 2, 3 and then the 6j +- 1 wheel."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    rest = n
    f, step = 2, 1
    while f * f <= rest:
        if rest % f == 0:
            k = 0
            while rest % f == 0:
                rest //= f
                k += 1
            factors.append((f, k))
        f += step
        step = 4 if f % 6 == 1 else 2  # 2, 3, then 5, 7, 11, 13, ...
    if rest > 1:
        factors.append((rest, 1))
    return factors


def is_prime(n: int) -> bool:
    """n is its own factorization."""
    return n >= 2 and factorize(n) == [(n, 1)]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Count of 1 <= j <= m coprime to m, from factorize(m)."""
    result = m
    for p, _ in factorize(m):  # raises ValueError for m < 1
        result -= result // p
    return result


def phi_partial_sum(limit: int) -> int:
    """Summatory totient: sum of phi(j) for 1 <= j <= limit (0 for limit = 0)."""
    if limit < 0:
        raise ValueError(f"phi_partial_sum requires limit >= 0, got {limit}")
    return summatory_totient(limit)(limit)


def summatory_totient(limit: int) -> Callable[[int], int]:
    """Phi(x) = sum of phi(1..x) for 0 <= x <= limit, as one function whose calls
    share a sieve table and a memo. sum_{k=1..x} Phi(x // k) = x(x + 1)/2,
    because each j <= x is the sum of phi(d) over its divisors d."""
    return _dirichlet_summatory(lambda x: x * (x + 1) // 2, phi_sieve, limit)


def mertens(limit: int) -> Callable[[int], int]:
    """Mertens' M(x) = sum of mu(1..x) for 0 <= x <= limit, as one function whose
    calls share a sieve table and a memo. sum_{k=1..x} M(x // k) = 1 for x >= 1,
    because mu sums to 0 over the divisors of every j > 1."""
    return _dirichlet_summatory(lambda x: 1, mobius_sieve, limit)


def _sieve_cut(limit: int) -> int:
    """The largest x that _dirichlet_summatory reads from its sieve table:
    about limit^(2/3), and all of a small limit."""
    return min(limit, max(1 << 12, round(limit ** (2 / 3))))


def _dirichlet_summatory(
    g: Callable[[int], int], sieve: Callable[[int], array], limit: int
) -> Callable[[int], int]:
    """F(x) for 0 <= x <= limit, where F is the summatory function of `sieve`'s
    values and sum_{k=1..x} F(x // k) = g(x) for x >= 1.

    F(x) = g(x) - sum_{k=2..x} F(x // k), with the k grouped into blocks of
    equal quotient (Deleglise and Rivat, Exp. Math. 5, 1996). Every quotient
    of a quotient of x is a quotient of x, so one memo serves each x and each
    of its quotients; those up to _sieve_cut(limit) are a prefix table of the
    sieve. A call above the cut costs O(sqrt(x)) blocks, and the ones it
    recurses into sum to O(x^(2/3))."""
    cut = _sieve_cut(limit)
    # 8 bytes an entry, read back as Python ints; a list would hold about 40
    table = array("q", accumulate(sieve(cut)))
    memo: dict[int, int] = {}

    def summatory(x: int) -> int:
        if x <= cut:
            return table[x]
        if x in memo:
            return memo[x]
        total = g(x)
        k = 2
        while k <= x:
            q = x // k
            next_k = x // q + 1  # the k' with x // k' == q are k <= k' < next_k
            total -= (next_k - k) * (table[q] if q <= cut else summatory(q))
            k = next_k
        memo[x] = total
        return total

    return summatory


def phi_sieve(limit: int) -> array:
    """phi(0..limit) as an int64 array, with phi(0) = 0, in one pass up the
    least-prime-factor table: phi(p * k) with p = spf[p * k] is phi(k) * p when
    p | k, else phi(k) * (p - 1). The summatory totient's prefix table is its
    cumulative sum. Must agree with euler_phi everywhere (tested)."""
    phi = array("q", [0, 1][: limit + 1]) + array("q", [0]) * (limit - 1)
    for m, p in enumerate(smallest_prime_factors(limit)[2:], 2):
        if p:
            k = m // p
            phi[m] = phi[k] * (p if k % p == 0 else p - 1)
        else:  # a prime
            phi[m] = m - 1
    return phi


def mobius_sieve(limit: int) -> array:
    """mu(0..limit) as an int8 array, with mu(0) = 0, in one pass like
    phi_sieve's: mu(p * k) is 0 when p | k, else -mu(k)."""
    mu = array("b", [0, 1][: limit + 1]) + array("b", [0]) * (limit - 1)
    for m, p in enumerate(smallest_prime_factors(limit)[2:], 2):
        if not p:  # a prime
            mu[m] = -1
        elif m // p % p:
            mu[m] = -mu[m // p]
    return mu


def smallest_prime_factors(limit: int) -> array:
    """spf[m] is the least prime factor of a composite m <= limit and 0 for
    0, 1 and the primes, so `spf[m] or m` is that of any m >= 2. The primes
    p <= sqrt(limit) write it, descending so that the least writes last, and
    are all it holds: its array type is the narrowest holding sqrt(limit)."""
    root = math.isqrt(limit)
    code = "B" if root < 1 << 8 else "H" if root < 1 << 16 else "I"
    spf = array(code, [0]) * (limit + 1)
    for p in reversed(primes_below(root + 1)):
        spf[p * p :: p] = array(code, [p]) * len(range(p * p, limit + 1, p))
    return spf


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from factorize(n)."""
    result = [1]
    for p, k in factorize(n):  # raises ValueError for n < 1
        result = [d * p**i for d in result for i in range(k + 1)]
    return sorted(result)


def primes_below(x: int) -> list[int]:
    """Ascending primes strictly below x: the zeros from 2 up of
    smallest_prime_factors(x - 1), which calls back here below sqrt(x)."""
    if x <= 2:
        return []
    spf = smallest_prime_factors(x - 1)
    return [p for p in range(2, x) if not spf[p]]
