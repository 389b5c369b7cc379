"""gcd-pair enumeration, restriction, and counting against the worked examples
and the documented invariants."""

import hashlib
import json
import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcdpairs import numtheory, oracle, pairs
from gcdpairs.cli import main
from gcdpairs.numtheory import divisors, is_prime, mertens, phi_sieve, primes_below
from gcdpairs.pairs import (
    CountKind,
    classify_elements,
    composite_lower_bound,
    count_pairs,
    count_prime_power_formula,
    count_zero_divisor_closed,
    divisor_cell_sum_bound,
    is_gcd_pair,
    iter_pairs,
    residue_mask,
    semiprime_zero_divisor_bound,
    zero_divisor_partition,
)

NU_6 = (
    (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 5),
)

NU_9 = (
    (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 8), (2, 3), (2, 5), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
    (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8),
)

NU_4 = ((0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3))

NU_6_ZERO_DIVISORS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))

NU_15_ZERO_DIVISORS = (
    (3, 3), (3, 5), (3, 6), (3, 9), (3, 10), (3, 12), (5, 5), (5, 6),
    (5, 9), (5, 10), (5, 12), (6, 9), (9, 10), (9, 12),
)

NU_8_ZERO_DIVISORS = ((2, 2), (2, 4), (2, 6), (4, 4), (4, 6))


def _restricted(pairs, within):
    """The pairs with both ends flagged in the bool array within, filtered one by one."""
    return tuple((a, b) for a, b in pairs if within[a] and within[b])


def _flagged(within):
    return np.flatnonzero(within).tolist()


def _listed(capsys, *argv):
    """The pairs `gcdpairs list argv` prints, parsed back from its text."""
    assert main(["list", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    return tuple(tuple(map(int, line.strip("{}").split(","))) for line in lines)


def test_enumerate_z6_reproduces_the_example():
    assert tuple(iter_pairs(6)) == NU_6


def test_enumerate_z9_reproduces_the_example():
    assert tuple(iter_pairs(9)) == NU_9


def test_enumerate_z4():
    assert tuple(iter_pairs(4)) == NU_4


def test_enumerate_z1_is_empty():
    assert tuple(iter_pairs(1)) == ()


def test_canonical_residue(capsys):
    # `check` reduces both inputs to their residues in [0, n), negatives included
    for n, x, y, residues in ((9, 13, -2, [4, 7]), (6, 6, 1, [0, 1]), (9, -9, 0, [0, 0])):
        main(["check", str(n), str(x), str(y), "--json"])
        assert json.loads(capsys.readouterr().out)["residues"] == residues, (n, x, y)
    assert main(["check", "0", "1", "2"]) == 2


def test_is_gcd_pair_examples():
    assert is_gcd_pair(6, 2, 4)
    assert not is_gcd_pair(9, 4, 6)
    assert not is_gcd_pair(9, 4, 8)
    assert not is_gcd_pair(6, 0, 0)
    for bad in (0, -6):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got {bad}"):
            is_gcd_pair(bad, 2, 4)


@given(st.integers(1, 200), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_is_gcd_pair_shift_and_swap_invariant(n, x, y):
    base = is_gcd_pair(n, x, y)
    assert base == is_gcd_pair(n, y, x)
    assert base == is_gcd_pair(n, x + 3 * n, y - 7 * n)


@given(st.integers(1, 300), st.data())
def test_divisor_member_always_pairs(n, data):
    divs = [a for a in range(1, n) if n % a == 0]
    if not divs:
        return
    a = data.draw(st.sampled_from(divs))
    b = data.draw(st.integers(0, n - 1))
    assert is_gcd_pair(n, a, b)


@given(st.integers(2, 300), st.data())
def test_unit_members_pair_only_coprimes(n, data):
    units = _flagged(classify_elements(n).units)
    a = data.draw(st.sampled_from(units))
    b = data.draw(st.integers(0, n - 1))
    if is_gcd_pair(n, a, b):
        assert math.gcd(a, b) == 1


def test_pairset_members_satisfy_invariants():
    for n in (1, 2, 6, 9, 12, 30):
        streamed = tuple(iter_pairs(n))
        assert list(streamed) == sorted(set(streamed))
        for a, b in streamed:
            assert 0 <= a <= b < n and is_gcd_pair(n, a, b), (n, a, b)


def test_restrict_to_zero_divisors_of_6(capsys):
    assert _listed(capsys, "6", "--subset", "zero-divisors") == NU_6_ZERO_DIVISORS
    assert _listed(capsys, "6", "--subset", "2,3,4") == NU_6_ZERO_DIVISORS


def test_restrict_to_zero_divisors_of_15(capsys):
    assert _listed(capsys, "15", "--subset", "zero-divisors") == NU_15_ZERO_DIVISORS


def test_restrict_to_zero_divisors_of_8_uses_4(capsys):
    assert _listed(capsys, "8", "--subset", "zero-divisors") == NU_8_ZERO_DIVISORS


def test_restrict_empty_and_validation(capsys):
    assert list(pairs.pair_rows(10, residue_mask(10, ()))) == []
    assert main(["list", "10", "--subset", "10"]) == 2
    assert capsys.readouterr().err == "gcdpairs list: residue 10 outside [0, 10)\n"


def test_classify_elements_examples():
    classes = classify_elements(6)
    assert _flagged(classes.units) == [1, 5]
    assert _flagged(classes.zero_divisors) == [2, 3, 4]
    assert _flagged(classify_elements(7).zero_divisors) == []
    assert _flagged(classify_elements(8).zero_divisors) == [2, 4, 6]
    assert _flagged(classify_elements(9).units) == [1, 2, 4, 5, 7, 8]
    with pytest.raises(ValueError):
        classify_elements(1)


def test_classify_elements_masks_equal_the_definition_to_500():
    for n in range(2, 501):
        units, zero_divisors = classify_elements(n)
        assert units.dtype == zero_divisors.dtype == np.bool_
        assert units.tolist() == [math.gcd(a, n) == 1 for a in range(n)], n
        assert zero_divisors.tolist() == [a != 0 and math.gcd(a, n) > 1 for a in range(n)], n


@given(st.integers(2, 400))
def test_classification_partitions_the_ring(n):
    units, zero_divisors = classify_elements(n)
    assert len(units) == len(zero_divisors) == n
    assert (units | zero_divisors).tolist() == [a != 0 for a in range(n)]
    assert not (units & zero_divisors).any() and not units[0] and not zero_divisors[0]


def test_zero_divisor_partition_examples():
    part6 = zero_divisor_partition(6)
    assert {d: set(c) for d, c in part6.items()} == {2: {2, 4}, 3: {3}}
    part15 = zero_divisor_partition(15)
    assert {d: set(c) for d, c in part15.items()} == {3: {3, 6, 9, 12}, 5: {5, 10}}
    assert zero_divisor_partition(13) == {}


@given(st.integers(2, 500))
def test_zero_divisor_partition_is_a_partition(n):
    part = zero_divisor_partition(n)
    seen: set[int] = set()
    for d, cell in part.items():
        assert cell == {r * d for r in range(1, n // d) if math.gcd(r * d, n) == d}
        assert not (seen & cell)
        seen |= cell
    assert seen == set(_flagged(classify_elements(n).zero_divisors))


def test_count_prime_power_formula_examples():
    assert count_prime_power_formula(3**2).value == 26
    assert count_prime_power_formula(5).value == 7
    assert count_prime_power_formula(3).value == 3
    assert count_prime_power_formula(2**2).value == 7
    assert count_prime_power_formula(2).value == 2


def test_prime_power_formula_matches_enumeration_to_512():
    for p in primes_below(512):
        k = 1
        while p**k <= 512:
            assert count_prime_power_formula(p**k).value == len(
                tuple(iter_pairs(p**k))
            )
            k += 1


def test_composite_lower_bound_examples():
    assert composite_lower_bound(6).value == 11
    assert composite_lower_bound(4).value == 5
    assert composite_lower_bound(9).value == 23
    assert composite_lower_bound(6).kind is CountKind.STRICT_LOWER_BOUND
    for bad in (5, 3, 2):
        with pytest.raises(ValueError):
            composite_lower_bound(bad)


def test_composite_bound_is_strict_to_300():
    for n in range(4, 301):
        if is_prime(n):
            continue
        assert len(tuple(iter_pairs(n))) > composite_lower_bound(n).value


def test_count_zero_divisor_closed_examples():
    six = count_zero_divisor_closed(6)
    assert (six.value, six.kind, six.provenance) == (5, CountKind.EXACT, "double-prime-count")
    eight = count_zero_divisor_closed(8)
    assert (eight.value, eight.kind) == (5, CountKind.EXACT)
    fifteen = count_zero_divisor_closed(15)
    assert (fifteen.value, fifteen.kind) == (14, CountKind.EXACT)
    assert count_zero_divisor_closed(7).value == 0
    assert count_zero_divisor_closed(4).value == 1
    assert count_zero_divisor_closed(9).value == 2
    assert count_zero_divisor_closed(35).kind is CountKind.LOWER_BOUND
    assert count_zero_divisor_closed(12).kind is CountKind.LOWER_BOUND


def test_count_zero_divisor_closed_branch_choice_is_pinned():
    # the closed form each 2 <= n <= 5000 takes, with its value, kind and
    # provenance: a change in how the branch is chosen changes the digest
    digest = hashlib.sha256()
    for n in range(2, 5001):
        r = count_zero_divisor_closed(n)
        digest.update(f"{n} {r.value} {r.kind.value} {r.provenance}\n".encode())
    assert digest.hexdigest() == "6b07167fd88d210eb275a07e2bb1aa66a7c16dd6c945fb1f9bf0a6f3d7e062e5"


def test_semiprime_bound_reproduces_15():
    bound = semiprime_zero_divisor_bound(3, 5)
    assert bound.value == 13
    assert bound.kind is CountKind.LOWER_BOUND
    actual = _zero_divisor_pair_count(15)
    assert actual == 14 >= bound.value


def _zero_divisor_pair_count(n: int) -> int:
    return len(_restricted(iter_pairs(n), classify_elements(n).zero_divisors))


@given(st.integers(2, 400))
def test_closed_forms_vs_enumeration(n):
    result = count_zero_divisor_closed(n)
    actual = _zero_divisor_pair_count(n)
    if result.kind is CountKind.EXACT:
        assert result.value == actual
    else:
        assert result.value <= actual


@given(st.integers(2, 300))
def test_divisor_cell_sum_bound_holds(n):
    assert divisor_cell_sum_bound(n).value <= _zero_divisor_pair_count(n)


@cache
def _naive_pairs(n):
    return oracle.naive_enumerate(n).pairs


def _cell_unit_matching(n, d):
    """{a, b} -> {a/d, b/d} over the gcd-pairs inside the cell S'_d of Z_n, as
    (left, right) entries, with the unit pairs of Z_{n/d} it should hit; both
    sides come from the oracle's definition."""
    cell = zero_divisor_partition(n)[d]
    left = _restricted(_naive_pairs(n), residue_mask(n, cell))
    m = n // d
    right = _restricted(_naive_pairs(m), classify_elements(m).units) if m >= 2 else ()
    return [((a, b), (a // d, b // d)) for a, b in left], right


def test_cell_unit_matching_examples():
    matching, units = _cell_unit_matching(15, 3)
    assert [left for left, _ in matching] == [
        (3, 3), (3, 6), (3, 9), (3, 12), (6, 9), (9, 12)
    ]
    assert sorted(right for _, right in matching) == [
        (1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)
    ] == sorted(units)
    assert _cell_unit_matching(6, 3) == ([((3, 3), (1, 1))], ((1, 1),))


def test_cell_unit_matching_is_a_bijection():
    # the lemma behind divisor_cell_sum_bound, for every cell of every n <= 200
    for n in range(2, 201):
        for d in zero_divisor_partition(n):
            matching, units = _cell_unit_matching(n, d)
            image = sorted(right for _, right in matching)
            assert image == sorted(units), (n, d)
            assert len(set(image)) == len(matching), (n, d)


def test_iter_pairs_streams_in_lexicographic_order():
    for n in (1, 2, 7, 12, 45):
        streamed = list(iter_pairs(n))
        assert streamed == sorted(streamed)
        assert tuple(streamed) == oracle.naive_enumerate(n).pairs


def test_divisor_cell_sum_bound_equals_restricted_enumeration_to_300():
    unit_pairs = {
        m: len(_restricted(iter_pairs(m), classify_elements(m).units)) for m in range(2, 151)
    }
    for n in range(2, 301):
        expected = sum(unit_pairs[n // d] for d in divisors(n)[1:] if n // d >= 2)
        assert divisor_cell_sum_bound(n).value == expected, n


def test_unit_pair_count_matches_the_gcd_table_below_1000():
    table = oracle.GcdTable(1000)
    mobius_sum = mertens(998)
    for m in range(1, 1000):
        units = np.array([math.gcd(x, m) == 1 for x in range(m)])
        assert pairs._unit_pair_count(m, mobius_sum) == table.count(m, units), m


def test_divisor_cell_sum_bound_keeps_the_linear_sums_values():
    # recorded from the O(m) Mobius sum over mobius_sieve that the quotient
    # blocks replaced; 720720 and 7207200 have 240 and 432 divisors
    expected = {720720: 6437631243, 7207200: 611794831020, 10**7: 2627561832914}
    for n, value in expected.items():
        assert divisor_cell_sum_bound(n).value == value, n


def test_prime_power_formula_sieves_once(monkeypatch):
    # one summatory-totient table serves every p^i - 1, and it stops at the cut
    limits = []

    def counted_sieve(limit):
        limits.append(limit)
        return phi_sieve(limit)

    monkeypatch.setattr(numtheory, "phi_sieve", counted_sieve)
    for n in (2**18, 3**5, 7, 2**24):
        limits.clear()
        count_prime_power_formula(n)
        assert limits == [numtheory._sieve_cut(n - 1)], n


@pytest.mark.parametrize("n", [243, 360, 1001, 1024, 2310])
def test_row_masks_match_the_oracle_euclid_loop(n):
    # deep prime powers (3^5, 2^10), and rows whose a / gcd(a, n) carries
    # primes that do not divide n, or divide it to a lower power than a;
    # each row covers all of Z_n, the cells b < a included
    for a, row in pairs.row_masks(n):
        expected = [(g := oracle._gcd(a, b)) > 0 and n % g == 0 for b in range(n)]
        assert row.tolist() == expected, (n, a)


def test_prime_power_formula_returns_a_python_int():
    for n in (2**18, 3**5, 7):
        assert type(count_prime_power_formula(n).value) is int, n


def test_row_masks_sieve_exactly_the_rows_asked_for():
    # the rows of a subset, including row 0 (the divisors) and row n - 1
    for n in (1, 2, 360, 1001, 2310):
        full = dict(pairs.row_masks(n))
        for rows in ([], [0], [n - 1], sorted({0, 1 % n, n // 2, n - 1}), list(range(n % 7, n, 7))):
            got = list(pairs.row_masks(n, rows))
            assert [a for a, _ in got] == rows, (n, rows)
            for a, row in got:
                assert np.array_equal(row, full[a]), (n, a)


def test_row_masks_size_the_factor_table_to_the_last_row(monkeypatch):
    limits = []

    def counted(limit):
        limits.append(limit)
        return numtheory.smallest_prime_factors(limit)

    monkeypatch.setattr(pairs, "smallest_prime_factors", counted)
    for rows in (None, [0, 7, 100], [], [0]):
        list(pairs.row_masks(360, rows))
    assert limits == [359, 100, 0, 0]


def test_pair_rows_equal_the_definition_restricted_to_a_subset():
    for n in range(1, 61):
        subsets = [residue_mask(n, s) for s in ((), {0}, {0, 1 % n, n - 1})]
        if n >= 2:
            subsets += list(classify_elements(n))  # the units and the zero divisors
        assert [(a, b) for a, bs in pairs.pair_rows(n) for b in bs.tolist()] == list(
            _naive_pairs(n)
        ), n
        for within in subsets:
            rows = list(pairs.pair_rows(n, within))
            assert [a for a, _ in rows] == _flagged(within), (n, _flagged(within))
            got = tuple((a, b) for a, bs in rows for b in bs.tolist())
            assert got == _restricted(_naive_pairs(n), within), (n, _flagged(within))


def test_row_masks_are_full_rows():
    for n in (1, 2, 12, 35, 64):
        rows = list(pairs.row_masks(n))
        assert [a for a, _ in rows] == list(range(n))
        for a, row in rows:
            assert row.dtype == np.bool_ and len(row) == n
            assert row.tolist() == [is_gcd_pair(n, a, b) for b in range(n)], (n, a)


def test_pair_total_matches_the_gcd_table_to_500():
    # and so do count_pairs' total and its pairs among the zero divisors
    table = oracle.GcdTable(501)
    for n in range(1, 501):
        assert pairs.pair_total(n) == table.count(n), n
        zero_divisors = classify_elements(n).zero_divisors if n >= 2 else np.zeros(1, dtype=bool)
        assert count_pairs(n) == (table.count(n), table.count(n, zero_divisors)), n


# (total, pairs among zero divisors), recorded from the row-mask walk that the
# closed-form rows replaced; no closed form is exact for their zero divisors
MASK_WALK_COUNTS = {
    5000: (10510714, 3756639),
    60060: (1721016526, 1105748721),
    180180: (15661444428, 10124126538),
    200000: (16885746616, 6078169739),
}


def test_count_pairs_at_large_n_equals_the_closed_forms():
    # the prime 199999, 2^17, 5^7, 2q and 3q: count_zero_divisor_closed is exact there
    for n in (199999, 2**17, 5**7, 2 * 49999, 3 * 33331):
        closed = count_zero_divisor_closed(n)
        assert closed.kind is CountKind.EXACT, n
        assert count_pairs(n) == (pairs.pair_total(n), closed.value), n
    for n, counts in MASK_WALK_COUNTS.items():
        assert count_pairs(n) == counts, n
        assert counts[0] == pairs.pair_total(n), n
