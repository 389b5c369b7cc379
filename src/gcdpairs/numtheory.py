"""Elementary number theory backing the pair-counting formulas.

Single values are plain nonnegative Python ints (desk scale; trial division,
no probabilistic primality), and tables over 0..limit come from numpy sieves.
The summatory totient and Mertens' function come from one Dirichlet-recursion
kernel that sieves only up to about limit^(2/3), so their time and memory grow
as about limit^(2/3), not as the limit.
The one convention that matters downstream: gcd(0, 0) == 0, and 0 divides
no positive modulus, so the pair {0, 0} is never a gcd-pair.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import np


def is_prime(n: int) -> bool:
    """Trial division with a 2/3 wheel; enough for 64-bit desk-scale inputs."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class PrimePower:
    """n = p**k for a prime p and exponent k >= 1."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.k < 1:
            raise ValueError(f"k={self.k} must be >= 1")

    @property
    def value(self) -> int:
        return self.p**self.k


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Count of 1 <= j <= m coprime to m, by trial-division factorization."""
    if m < 1:
        raise ValueError(f"euler_phi requires m >= 1, got {m}")
    result = m
    for p in prime_factors(m):
        result -= result // p
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes = []
    rest = n
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    return primes


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
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def nontrivial_divisors(n: int) -> list[int]:
    """Divisors of n except 1, ascending; includes n itself. Requires n >= 2."""
    if n < 2:
        raise ValueError(f"nontrivial_divisors requires n >= 2, got {n}")
    return divisors(n)[1:]


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


def prime_power_decompose(n: int) -> PrimePower | None:
    """(p, k) with p**k == n when n >= 2 is a prime power, else None."""
    if n < 2:
        raise ValueError(f"prime_power_decompose requires n >= 2, got {n}")
    primes = prime_factors(n)
    if len(primes) != 1:
        return None
    p, k, power = primes[0], 1, primes[0]
    while power < n:
        power *= p
        k += 1
    return PrimePower(p, k)
