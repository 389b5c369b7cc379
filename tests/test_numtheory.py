"""Number-theory primitives against brute force and worked examples."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcdpairs.numtheory import (
    divisors,
    euler_phi,
    _sieve_cut,
    factorize,
    is_prime,
    mertens,
    mobius_sieve,
    phi_partial_sum,
    phi_sieve,
    primes_below,
    smallest_prime_factors,
    summatory_totient,
)
from gcdpairs.oracle import _gcd as gcd  # the Euclid loop every oracle reference uses
from gcdpairs.pairs import count_prime_power_formula


def test_gcd_examples():
    assert gcd(2, 4) == 2
    assert gcd(0, 0) == 0
    assert gcd(9, 15) == 3


def test_gcd_brute_force_agreement():
    for a in range(0, 40):
        for b in range(0, 40):
            common = [d for d in range(1, max(a, b) + 1) if a % d == 0 and b % d == 0]
            expected = max(common) if common else 0
            assert gcd(a, b) == expected


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_gcd_properties(a, b):
    g = gcd(a, b)
    assert g == gcd(b, a)
    if g > 0:
        assert a % g == 0 and b % g == 0
    assert gcd(a, 0) == a


def test_euler_phi_examples():
    assert euler_phi(8) == 4
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


@given(st.integers(1, 2000))
def test_euler_phi_counts_coprimes(m):
    assert euler_phi(m) == sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def test_phi_sieve_matches_single_queries():
    sieve = phi_sieve(3000)
    for m in range(1, 3001):
        assert sieve[m] == euler_phi(m)


@pytest.mark.parametrize(
    "limit", [0, 1, 2, 3] + [p * p + d for p in (2, 3, 5, 7, 97) for d in (-1, 0, 1)]
)
def test_phi_sieve_at_prime_square_edges(limit):
    # p^2 - 1, p^2 and p^2 + 1 sit on either side of the last sieving prime
    sieve = phi_sieve(limit)
    assert sieve.tolist() == [0] + [euler_phi(m) for m in range(1, limit + 1)]


def test_phi_partial_sum_is_an_exact_python_int():
    total = phi_partial_sum(10**6)
    assert type(total) is int
    assert total == 303963552392


KERNELS = [(summatory_totient, phi_sieve), (mertens, mobius_sieve)]


@pytest.mark.parametrize("kernel, sieve", KERNELS)
def test_summatory_kernel_matches_the_sieve_sums_to_10000(kernel, sieve):
    expected = np.cumsum(sieve(10**4)).tolist()
    shared = kernel(10**4)  # its cut is 4096; the x above it share one memo
    assert [shared(x) for x in range(10**4 + 1)] == expected


@pytest.mark.parametrize("kernel, sieve", KERNELS)
def test_summatory_kernel_on_both_sides_of_the_cut(kernel, sieve):
    limit = 10**6
    cut = _sieve_cut(limit)
    assert cut == 10**4  # limit^(2/3): 101^2 and 997^2 lie above it, 97^2 below
    expected = np.cumsum(sieve(limit)).tolist()
    edges = [p * p + d for p in (2, 3, 5, 7, 97, 101, 997) for d in (-1, 0, 1)]
    for x in edges + [cut - 1, cut, cut + 1, limit - 1, limit]:
        assert kernel(limit)(x) == expected[x], x
        assert kernel(x)(x) == expected[x], x


def test_summatory_kernel_at_published_values():
    # OEIS A064018 and A084237, far past the cut of about 2.2e5
    total, mobius_total = phi_partial_sum(10**8), mertens(10**8)(10**8)
    assert (total, mobius_total) == (3039635516365908, 1928)
    assert type(total) is int and type(mobius_total) is int


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 48, 49, 50, 1000])
def test_smallest_prime_factors_by_trial_division(limit):
    # 0 marks each m that no f < m divides: 0, 1 and the primes
    expected = [0, 0][: limit + 1] + [
        next((f for f in range(2, m) if m % f == 0), 0) for m in range(2, limit + 1)
    ]
    assert smallest_prime_factors(limit).tolist() == expected


def test_smallest_prime_factors_take_the_narrowest_type_holding_sqrt_limit():
    # the table holds only the primes p <= sqrt(limit)
    limits = (0, 2**16 - 1, 2**16, 10**7)
    assert [smallest_prime_factors(x).typecode for x in limits] == ["B", "B", "H", "H"]


def test_phi_partial_sum_examples():
    assert phi_partial_sum(5) == 10
    assert phi_partial_sum(0) == 0
    assert phi_partial_sum(8) == 22


@given(st.integers(1, 500))
def test_phi_partial_sum_increments(n):
    assert phi_partial_sum(n) - phi_partial_sum(n - 1) == euler_phi(n)


def test_nontrivial_divisors_examples():
    # the nontrivial divisors of n are divisors(n)[1:]
    assert divisors(6)[1:] == [2, 3, 6]
    assert divisors(15)[1:] == [3, 5, 15]
    assert divisors(8)[1:] == [2, 4, 8]
    assert divisors(1)[1:] == []
    with pytest.raises(ValueError):
        divisors(0)


def test_nontrivial_divisors_by_trial_division():
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_primes_below_examples():
    assert primes_below(6) == [2, 3, 5]
    assert primes_below(8) == [2, 3, 5, 7]
    # x <= 2 ends the recursion through smallest_prime_factors
    for x in (-2, -1, 0, 1, 2):
        assert primes_below(x) == [], x
    assert primes_below(3) == [2]


def test_primes_below_against_is_prime():
    assert primes_below(5000) == [p for p in range(2, 5000) if is_prime(p)]
    for x in range(3, 200):
        assert primes_below(x) == [p for p in range(2, x) if is_prime(p)], x


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)


def test_factorize_examples():
    assert factorize(9) == [(3, 2)]
    assert factorize(6) == [(2, 1), (3, 1)]
    assert factorize(8) == [(2, 3)]
    assert factorize(1) == []


@given(st.integers(2, 5000))
def test_factorize_is_one_factor_iff_single_prime_factor(n):
    distinct = {p for p in primes_below(n + 1) if n % p == 0}
    factors = factorize(n)
    if len(distinct) == 1:
        [(p, k)] = factors
        assert p == min(distinct)
        assert p**k == n
    else:
        assert len(factors) != 1


def test_factorize_near_the_formula_bound():
    # count's closed forms take n <= 10**9: the largest prime and 2p below it,
    # the slowest highly composite n, and the bound itself
    assert factorize(999999937) == [(999999937, 1)]
    assert factorize(999999986) == [(2, 1), (499999993, 1)]
    assert factorize(735134400) == [(2, 6), (3, 3), (5, 2), (7, 1), (11, 1), (13, 1), (17, 1)]
    assert factorize(10**9) == [(2, 9), (5, 9)]


def test_prime_power_validates():
    for not_a_prime_power in (6, 1):
        with pytest.raises(ValueError):
            count_prime_power_formula(not_a_prime_power)
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_include_endpoints():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_prime_factors_are_the_distinct_prime_divisors():
    # the primes dividing each n, listed by sieving rather than by factorize
    limit = 20000
    prime_divisors = [[] for _ in range(limit)]
    for p in primes_below(limit):
        for m in range(p, limit, p):
            prime_divisors[m].append(p)
    for n in range(1, limit):
        factors = factorize(n)
        assert [p for p, _ in factors] == prime_divisors[n], n
        assert math.prod(p**k for p, k in factors) == n, n
        assert all(n % p ** (k + 1) for p, k in factors), n


def _mobius(m: int) -> int:
    """mu(m) by the definition: 0 when a square > 1 divides m, else (-1)^(prime count)."""
    if any(m % (f * f) == 0 for f in range(2, math.isqrt(m) + 1)):
        return 0
    return (-1) ** sum(1 for p in range(2, m + 1) if m % p == 0 and is_prime(p))


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 1500])
def test_mobius_sieve_matches_the_definition(limit):
    assert mobius_sieve(limit).tolist() == [0] + [_mobius(m) for m in range(1, limit + 1)]
