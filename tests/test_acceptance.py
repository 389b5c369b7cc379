"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them on success).

Tolerances are exact equality ("zero tolerance") unless a wall-clock budget is
stated, in which case the budget is asserted with time.perf_counter.
"""

import math
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import numpy as np

from gcdpairs import oracle
from gcdpairs.graph import (
    build,
    chromatic_number,
    clique_construction,
    domination_number,
    hamiltonian_cycle,
    hamiltonian_path,
    has_triangle,
    is_connected,
    is_planar,
    max_clique,
    star_subgraph,
)
from gcdpairs.numtheory import divisors, is_prime, phi_sieve, primes_below
from gcdpairs.pairs import (
    classify_elements,
    count_prime_power_formula,
    count_zero_divisor_closed,
    divisor_cell_sum_bound,
    iter_pairs,
    semiprime_zero_divisor_bound,
)
from gcdpairs.verify import Status, run_verification

NU_6 = (
    (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 5),
)

NU_9 = (
    (0, 1), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (1, 8), (2, 3), (2, 5), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7),
    (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8),
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def _prime_power_values(limit: int) -> list[int]:
    out = []
    for p in primes_below(limit + 1):
        k = 1
        while p**k <= limit:
            out.append(p**k)
            k += 1
    return sorted(out)


def test_criterion_1_nu6_exact_reproduction(capsys):
    ok = False
    try:
        from gcdpairs.cli import main

        assert main(["list", "6"]) == 0
        out = capsys.readouterr().out
        expected = [f"{{{a},{b}}}" for a, b in NU_6] + ["The number of gcd-pairs is 16"]
        assert out.splitlines() == expected
        assert tuple(iter_pairs(6)) == NU_6
        # emit budget: pairs plus formatted lines in under a millisecond
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            lines = [f"{{{a},{b}}}" for a, b in iter_pairs(6)]
            best = min(best, time.perf_counter() - start)
        assert len(lines) == 16
        assert best < 1e-3, f"emission took {best * 1e3:.3f} ms"
        ok = True
    finally:
        with capsys.disabled():
            _report(1, "nu_6 exact reproduction under 1 ms", ok)


def test_criterion_2_nu9_exact_reproduction(capsys):
    ok = False
    try:
        assert tuple(iter_pairs(9)) == NU_9
        assert len(NU_9) == 26
        ok = True
    finally:
        with capsys.disabled():
            _report(2, "nu_9 exact reproduction", ok)


def test_criterion_3_prime_power_formula_vs_enumeration(capsys):
    ok = False
    try:
        start = time.perf_counter()
        values = _prime_power_values(2048)
        assert len(values) == 340  # all prime powers up to 2048
        for n in values:
            assert count_prime_power_formula(n).value == oracle.naive_count(n), n
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"
        ok = True
    finally:
        with capsys.disabled():
            _report(3, "prime-power count formula to 2048 under 30 s", ok)


def test_criterion_4_composite_strict_inequality(capsys):
    ok = False
    try:
        phi = phi_sieve(1000)
        running = 0
        for n in range(2, 1001):
            running += phi[n - 1]
            if n < 4 or is_prime(n):
                continue
            assert oracle.naive_count(n) > 1 + running, n
        ok = True
    finally:
        with capsys.disabled():
            _report(4, "composite strict lower bound to 1000", ok)


def test_criterion_5_zero_divisor_closed_forms(capsys):
    ok = False
    try:
        def brute(n: int) -> int:
            zero_divisors = np.flatnonzero(classify_elements(n).zero_divisors).tolist()
            return oracle.naive_restricted_count(n, zero_divisors)

        for p in primes_below(98):
            if p != 2:
                n = 2 * p
                result = count_zero_divisor_closed(n)
                assert result.kind.value == "exact" and result.value == brute(n), n
            if p != 3:
                n = 3 * p
                result = count_zero_divisor_closed(n)
                assert result.kind.value == "exact" and result.value == brute(n), n
        for n in _prime_power_values(2048):
            result = count_zero_divisor_closed(n)
            assert result.kind.value == "exact"
            assert result.value == brute(n), n
        # the two-prime lower bound at n = 15: bound 13, actual 14
        assert semiprime_zero_divisor_bound(3, 5).value == 13
        assert brute(15) == 14
        # cell-sum inequality for every n <= 500
        unit_counts: dict[int, int] = {}

        def units_count(m: int) -> int:
            if m not in unit_counts:
                units = classify_elements(m).units
                unit_counts[m] = sum(bool(units[a] and units[b]) for a, b in iter_pairs(m))
            return unit_counts[m]

        for n in range(2, 501):
            rhs = sum(units_count(n // d) for d in divisors(n) if d != 1 and n // d >= 2)
            assert brute(n) >= rhs, n
            if n <= 100:
                assert divisor_cell_sum_bound(n).value == rhs, n
        ok = True
    finally:
        with capsys.disabled():
            _report(5, "zero-divisor closed forms and cell-sum bound", ok)


def test_criterion_6_graph_propositions(capsys):
    ok = False
    try:
        start = time.perf_counter()
        for n in range(1, 201):
            g = build(n)
            assert is_connected(g), n
            if n >= 2:
                assert domination_number(g) == 1, n
                assert star_subgraph(g) == frozenset(range(n)) - {1}, n
                hamiltonian_path(g)  # validates (0, ..., n-1)
            for m in divisors(n):
                gm = build(m)
                assert gm.simple_edges <= g.simple_edges and gm.loops <= g.loops, (m, n)
            assert (has_triangle(g) is not None) == (n >= 4), n
            if n >= 4 and n % 2 == 0:
                cycle = hamiltonian_cycle(g)
                assert cycle is not None and cycle.closed, n
        for n in range(5, 16, 2):
            cycle, longest = oracle.exhaustive_hamiltonian(build(n))
            assert cycle is None and longest == n - 1, n
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"graph sweep took {elapsed:.1f} s"
        ok = True
    finally:
        with capsys.disabled():
            _report(6, "graph propositions to 200 under 60 s", ok)


def test_criterion_7_clique_k5_planarity_coloring(capsys):
    ok = False
    try:
        assert len(max_clique(build(6)).vertices) == 5
        assert len(max_clique(build(7)).vertices) == 4
        for n in range(2, 61):
            has_k5 = len(max_clique(build(n)).vertices) >= 5
            assert has_k5 == (n >= 6 and n != 7), n
        for n in range(2, 31):
            assert is_planar(build(n)) == (n <= 7 and n != 6), n
        expected_chi = {2: 2, 3: 2, 4: 3, 5: 3, 6: 5, 7: 4}
        for n, chi in expected_chi.items():
            assert chromatic_number(build(n)).color_count == chi, n
        for n in range(2, 13):
            g = build(n)
            assert chromatic_number(g).color_count == oracle.exhaustive_chromatic(g), n
        ok = True
    finally:
        with capsys.disabled():
            _report(7, "clique, K5, planarity, coloring", ok)


def test_criterion_8_discrepancy_ledger(capsys):
    ok = False
    try:
        report = run_verification()
        assert not report.failures, [e.claim_id for e in report.failures]
        two_prime = report.entry("clique-two-prime-product")
        assert two_prime.status is Status.DISCREPANCY
        assert "n=22: claimed 12" in two_prime.details
        assert "observed maximum 10" in two_prime.details
        assert report.entry("errata-zero-divisors-mod-8").status is Status.NOTED
        assert report.entry("errata-units-mod-9").status is Status.NOTED
        # property-based substitute: adjacency-validated construction + exact oracle
        g22 = build(22)
        witness = clique_construction(g22)
        members = sorted(witness.vertices)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert 22 % gcd(a, b) == 0
        # maximal: every other residue misses some member
        for v in set(range(22)) - witness.vertices:
            assert any(22 % gcd(v, w) for w in members), v
        assert (
            len(oracle.exhaustive_max_clique(g22).vertices)
            == len(max_clique(g22).vertices)
            == 10
        )
        ok = True
    finally:
        with capsys.disabled():
            _report(8, "discrepancy and errata ledger", ok)


def test_criterion_9_fast_path_performance(capsys):
    ok = False
    try:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "gcdpairs", "list", "5000"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=True,
            env=env,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"list 5000 took {elapsed:.1f} s"
        # spot check: 20 random rows of the fast-path stream against a naive scan
        rng = random.Random(20)
        sample_rows = set()
        while len(sample_rows) < 20:
            sample_rows.add(rng.randrange(5000))
        fast_rows: dict[int, list[int]] = {a: [] for a in sample_rows}
        for a, b in iter_pairs(5000):
            if a in fast_rows:
                fast_rows[a].append(b)
        def naive_row(a: int) -> list[int]:
            out = []
            for b in range(a, 5000):
                g = math.gcd(a, b)
                if g > 0 and 5000 % g == 0:
                    out.append(b)
            return out

        for a in sorted(sample_rows):
            assert fast_rows[a] == naive_row(a), a
        ok = True
    finally:
        with capsys.disabled():
            _report(9, "fast-path list 5000 under 10 s with naive spot check", ok)
