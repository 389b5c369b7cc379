"""Elementary number theory backing the pair-counting formulas.

Single values are plain nonnegative Python ints at desk scale. Every question
about one n (is it prime, its primes, its divisors, its totient) is answered
from one factorize(n), by trial division with no probabilistic primality;
tables over 0..limit come from numpy sieves.
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
from typing import Callable

from . import np


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
    g: Callable[[int], int], sieve: Callable[[int], np.ndarray], limit: int
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
    table = array("q", np.cumsum(sieve(cut), dtype=np.int64).tobytes())
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
            total -= (next_k - k) * summatory(q)
            k = next_k
        memo[x] = total
        return total

    return summatory


def phi_sieve(limit: int) -> np.ndarray:
    """phi(0..limit) as int64, with phi(0) = 0; the summatory totient's prefix
    table is its cumulative sum. Must agree with euler_phi everywhere (tested).

    Only the primes p <= sqrt(limit) are sieved. Dividing them out of each m
    leaves 1 or the one prime factor of m above sqrt(limit), applied last."""
    phi = np.arange(limit + 1, dtype=np.int64)
    rest = phi.copy()
    for p in primes_below(math.isqrt(limit) + 1):
        phi[::p] -= phi[::p] // p
        power = p
        while power <= limit:
            rest[::power] //= p
            power *= p
    large = rest > 1
    phi[large] -= phi[large] // rest[large]
    return phi


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8, with mu(0) = 0, sieved like phi_sieve: each prime
    p <= sqrt(limit) flips the sign of its multiples and zeroes those of p^2,
    and a squarefree m left with one prime factor above sqrt(limit) flips once more."""
    mu = np.ones(limit + 1, dtype=np.int8)
    rest = np.arange(limit + 1, dtype=np.int64)
    for p in primes_below(math.isqrt(limit) + 1):
        mu[::p] *= -1
        mu[:: p * p] = 0
        rest[::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return mu


def smallest_prime_factors(limit: int) -> memoryview:
    """spf[m] is the least prime factor of m for 2 <= m <= limit (spf[0] = 0,
    spf[1] = 1), sieved by the primes p <= sqrt(limit). The table is stored in the
    narrowest type holding limit, and indexing its memoryview gives plain ints."""
    spf = np.arange(limit + 1, dtype=np.min_scalar_type(limit))
    for p in reversed(primes_below(math.isqrt(limit) + 1)):
        spf[p * p :: p] = p  # descending, so the least prime writes last
    return memoryview(spf)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from factorize(n)."""
    result = [1]
    for p, k in factorize(n):  # raises ValueError for n < 1
        result = [d * p**i for d in result for i in range(k + 1)]
    return sorted(result)


def primes_below(x: int) -> list[int]:
    """Ascending primes strictly below x."""
    if x <= 2:
        return []
    sieve = bytearray([1]) * x
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(x - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, x, p)))
    return [p for p in range(2, x) if sieve[p]]

