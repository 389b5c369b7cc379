"""Graph construction and exact invariants against the documented results."""

import dataclasses
import hashlib
import itertools
import math

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdpairs import oracle
from gcdpairs.graph import (
    MAX_CHROMATIC_EXACT_N,
    ExactSearchBoundError,
    GcdGraph,
    analyze,
    build,
    chromatic_number,
    clique_construction,
    domination_number,
    embedding_check,
    greedy_coloring,
    hamiltonian_cycle,
    hamiltonian_path,
    has_triangle,
    is_connected,
    is_planar,
    longest_cycle_constructive,
    max_clique,
    star_subgraph,
)
from gcdpairs.numtheory import divisors, phi_sieve, primes_below
from gcdpairs.cli import ANALYZE_MAX_N, main
from gcdpairs.pairs import is_gcd_pair, iter_pairs


def _graph(n, edges):
    adjacency = [0] * n
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return GcdGraph(n, tuple(adjacency), frozenset())


def _dot(capsys, n):
    assert main(["graph", str(n), "--dot", "-"]) == 0
    return capsys.readouterr().out


def test_build_g5_matches_figure():
    g = build(5)
    assert sorted(g.simple_edges) == [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert g.loops == frozenset({1})


def test_build_g1_and_g6():
    g1 = build(1)
    assert (g1.n, g1.simple_edges, g1.loops) == (1, frozenset(), frozenset())
    g6 = build(6)
    assert len(g6.simple_edges) == 13
    assert g6.loops == frozenset({1, 2, 3})
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got {bad}"):
            build(bad)


def test_build_matches_pair_set():
    # every n <= 150, each cell of each mask against the predicate
    for n in range(1, 151):
        g = build(n)
        pairs = set(iter_pairs(n))
        assert {(a, b) for a, b in g.simple_edges} == {(a, b) for a, b in pairs if a != b}
        assert g.loops == {a for a in range(n) if is_gcd_pair(n, a, a)}
        assert g.loops == {a for a in range(1, n) if n % a == 0}
        for a in range(n):
            expected = sum(1 << b for b in range(n) if b != a and is_gcd_pair(n, a, b))
            assert g.adjacency[a] == expected, (n, a)


def test_graph_stores_masks_and_counts_edges():
    assert [f.name for f in dataclasses.fields(GcdGraph)] == ["n", "adjacency", "loops"]
    for n in range(1, 61):
        g = build(n)
        assert g.edge_count() == len(g.simple_edges)


@given(st.integers(1, 200))
@settings(max_examples=60)
def test_connected_everywhere(n):
    assert is_connected(build(n))


def test_star_examples():
    assert star_subgraph(build(6)) == frozenset({0, 2, 3, 4, 5})
    assert star_subgraph(build(2)) == frozenset({0})
    assert len(star_subgraph(build(9))) == 8
    with pytest.raises(ValueError):
        star_subgraph(build(1))


def test_embedding_examples():
    assert embedding_check(build(3), build(6)) == []
    assert embedding_check(build(7), build(7)) == []
    assert embedding_check(build(5), build(20)) == []
    with pytest.raises(ValueError):
        embedding_check(build(4), build(6))


@given(st.integers(1, 150), st.data())
@settings(max_examples=40)
def test_embedding_for_every_divisor(n, data):
    m = data.draw(st.sampled_from(divisors(n)))
    assert embedding_check(build(m), build(n)) == []


def test_domination_examples():
    for n in (6, 2, 12):  # {1} dominates: 1 neighbors every other vertex
        assert domination_number(build(n)) == 1, n
        assert star_subgraph(build(n)) == frozenset(range(n)) - {1}, n
    with pytest.raises(ValueError):
        domination_number(build(1))


def test_triangle_examples():
    assert has_triangle(build(3)) is None
    assert has_triangle(build(2)) is None
    four = has_triangle(build(4))
    assert four is not None and four.vertices == (1, 2, 3) and four.closed
    ten = has_triangle(build(10))
    assert ten is not None and ten.vertices == (1, 2, 3)


@given(st.integers(1, 200))
@settings(max_examples=60)
def test_triangle_iff_n_at_least_4(n):
    assert (has_triangle(build(n)) is not None) == (n >= 4)


def test_hamiltonian_path_examples():
    assert hamiltonian_path(build(7)).vertices == (0, 1, 2, 3, 4, 5, 6)
    assert hamiltonian_path(build(2)).vertices == (0, 1)
    assert hamiltonian_path(build(15)).vertices == tuple(range(15))
    with pytest.raises(ValueError):
        hamiltonian_path(build(1))


def test_hamiltonian_cycle_examples():
    six = hamiltonian_cycle(build(6))
    assert six is not None and six.vertices == (0, 2, 3, 4, 5, 1) and six.closed
    assert hamiltonian_cycle(build(7)) is None
    eight = hamiltonian_cycle(build(8))
    assert eight is not None and eight.vertices == (0, 2, 3, 4, 5, 6, 7, 1)
    assert hamiltonian_cycle(build(2)) is None


@given(st.integers(2, 200))
@settings(max_examples=60)
def test_hamiltonian_cycle_parity(n):
    cycle = hamiltonian_cycle(build(n))
    if n > 2 and n % 2 == 0:
        assert cycle is not None and cycle.closed
        assert sorted(cycle.vertices) == list(range(n))
    else:
        assert cycle is None
        if n % 2 == 1:  # the obstruction: (n + 1) / 2 > n / 2 independent even residues
            evens = range(0, n, 2)
            assert len(evens) == (n + 1) // 2
            assert not any(is_gcd_pair(n, a, b) for a, b in itertools.combinations(evens, 2))


def test_hamiltonian_cycle_checks_the_odd_obstruction():
    # G_7 with the even-even edge {2, 4} added: the even residues are no longer independent
    g = build(7)
    adjacency = list(g.adjacency)
    adjacency[2] |= 1 << 4
    adjacency[4] |= 1 << 2
    with pytest.raises(AssertionError, match="even residues not independent in G_7"):
        hamiltonian_cycle(GcdGraph(7, tuple(adjacency), g.loops))


def test_longest_cycle_examples():
    seven = longest_cycle_constructive(build(7))
    assert seven.vertices == (1, 2, 3, 4, 5, 6) and seven.closed
    assert longest_cycle_constructive(build(5)).vertices == (1, 2, 3, 4)
    assert len(longest_cycle_constructive(build(9)).vertices) == 8
    for bad in (4, 3):
        with pytest.raises(ValueError):
            longest_cycle_constructive(build(bad))


def test_max_clique_examples():
    assert sorted(max_clique(build(6)).vertices) == [1, 2, 3, 4, 5]
    seven = max_clique(build(7))
    assert len(seven.vertices) == 4
    eight = max_clique(build(8))
    assert sorted(eight.vertices) == [1, 2, 3, 4, 5, 7]
    assert eight.maximal
    # maximum: the exhaustive oracle finds no larger clique
    assert len(oracle.exhaustive_max_clique(build(8)).vertices) == len(eight.vertices)


def test_max_clique_bound_error():
    with pytest.raises(ExactSearchBoundError):
        max_clique(build(65))


def test_max_clique_is_lexicographically_smallest():
    # {1,2,4,5,6,7} is also a maximum clique of G_8; the smaller one wins
    assert sorted(max_clique(build(8)).vertices) == [1, 2, 3, 4, 5, 7]
    # both {0,1,2} and {1,2,3} are maximum in G_4
    assert sorted(max_clique(build(4)).vertices) == [0, 1, 2]


# sha256 of repr([tuple(sorted(max_clique(build(n)).vertices)) for n in 27..64]),
# recorded when the witness was extracted vertex by vertex after a separate
# search for the clique number
WITNESSES_27_TO_64 = "04d30fe90269f71e9af35c8bab53f7d24ecf4033081b5fe511b9a9ae4e00c011"


def test_max_clique_witnesses_past_the_oracle_bound():
    witnesses = [tuple(sorted(max_clique(build(n)).vertices)) for n in range(27, 65)]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == WITNESSES_27_TO_64


def test_clique_construction_examples():
    eight = clique_construction(build(8))
    assert sorted(eight.vertices) == [1, 2, 3, 4, 5, 7]
    assert eight.maximal
    # the witness claims maximality only; max_clique is the exact search
    assert [f.name for f in dataclasses.fields(eight)] == ["vertices", "maximal"]
    two = clique_construction(build(2))
    assert sorted(two.vertices) == [0, 1]
    six = clique_construction(build(6))
    assert sorted(six.vertices) == [1, 2, 3, 4, 5]
    assert len(six.vertices) == 5  # m + k + 2 with m = 1, k = 2


def test_clique_construction_two_prime_product_keeps_one_power():
    # q > p^2 here, so only p^2 from the advertised power chain survives
    twenty_two = clique_construction(build(22))
    assert sorted(twenty_two.vertices) == [1, 2, 3, 4, 5, 7, 11, 13, 17, 19]
    assert twenty_two.maximal


@given(st.integers(2, 300))
@settings(max_examples=300, deadline=None)
def test_clique_construction_valid_and_maximal(n):
    # math.gcd, not the masks the construction reads
    g = build(n)
    witness = clique_construction(g)
    members = sorted(witness.vertices)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            d = math.gcd(a, b)
            assert d > 0 and n % d == 0
    assert witness.maximal
    if n <= 64:
        assert len(max_clique(g).vertices) >= len(primes_below(n)) + 1


def test_chromatic_examples():
    expected = {2: 2, 3: 2, 4: 3, 5: 3, 6: 5, 7: 4, 8: 6}
    for n, chi in expected.items():
        g = build(n)
        witness = chromatic_number(g)
        assert witness.color_count == chi, n
        # exact: the count meets omega, a lower bound on any proper coloring
        assert witness.color_count == len(max_clique(g).vertices), n


def test_chromatic_witness_is_proper_and_canonical():
    for n in range(1, MAX_CHROMATIC_EXACT_N + 1):
        g = build(n)
        witness = chromatic_number(g)
        assert sorted(witness.colors) == list(range(n)), n
        for a, b in g.simple_edges:
            assert witness.colors[a] != witness.colors[b], n
        # colors are numbered by first appearance over 0..n-1
        first_seen = list(dict.fromkeys(witness.colors[v] for v in range(n)))
        assert first_seen == list(range(witness.color_count)), n
        assert witness.color_count == len(max_clique(g).vertices), n


def test_chromatic_number_refuses_an_uncertified_coloring():
    # the path 0-2-3-1: first-fit in natural order needs 3 colors, omega is 2
    with pytest.raises(AssertionError):
        chromatic_number(_graph(4, [(0, 2), (2, 3), (3, 1)]))


def test_chromatic_bound_error_and_greedy_mode():
    with pytest.raises(ExactSearchBoundError):
        chromatic_number(build(17))
    g = build(17)
    upper = greedy_coloring(g)
    assert upper.color_count >= len(max_clique(g).vertices)
    for a, b in g.simple_edges:
        assert upper.colors[a] != upper.colors[b]


def test_planarity_examples():
    assert is_planar(build(5))
    assert not is_planar(build(6))
    assert is_planar(build(7))
    assert not is_planar(build(12))


def test_planarity_threshold_to_30():
    import networkx as nx

    for n in range(1, 31):
        g = build(n)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(g.simple_edges)
        assert is_planar(g) == nx.check_planarity(graph)[0] == (n <= 7 and n != 6), n


def test_planarity_at_the_euler_bound():
    k5 = list(itertools.combinations(range(5), 2))
    assert is_planar(_graph(4, list(itertools.combinations(range(4), 2))))  # K4: 6 = 3v - 6 edges
    assert is_planar(_graph(5, k5[1:]))  # K5 minus an edge: 9 = 3v - 6
    assert not is_planar(_graph(5, k5))  # 10 > 3v - 6
    assert not is_planar(_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]))  # K3,3


def test_euler_rejects_every_non_planar_g_n_and_dmp_decides_the_rest(monkeypatch):
    # for n >= 10 the coprime pairs 1 <= a < b < n alone, Phi(n - 1) - 1 edges,
    # exceed Euler's 3n - 6, so is_planar returns at its first test
    totient_sums = numpy.cumsum(phi_sieve(ANALYZE_MAX_N))
    n = numpy.arange(10, ANALYZE_MAX_N + 1)
    assert (totient_sums[n - 1] - 1 > 3 * n - 6).all()
    for m in range(10, 40):
        assert build(m).edge_count() >= totient_sums[m - 1] - 1, m
    for m, edges in ((6, 13), (8, 23), (9, 24)):  # the non-planar G_n below 10
        assert build(m).edge_count() == edges > 3 * m - 6, m

    calls = {}
    dmp_planar = oracle.dmp_planar

    def recording(g):
        calls[g.n] = dmp_planar(g)
        return calls[g.n]

    monkeypatch.setattr(oracle, "dmp_planar", recording)
    for m in range(1, 61):
        assert is_planar(build(m)) == (m <= 7 and m != 6), m
    assert calls == {m: True for m in (1, 2, 3, 4, 5, 7)}


def test_k5_threshold_to_60():
    for n in range(2, 61):
        has_k5 = (
            len(max_clique(build(n)).vertices) >= 5
        )
        assert has_k5 == (n >= 6 and n != 7), n


def test_export_dot_goldens(capsys):
    assert _dot(capsys, 2) == "graph G2 {\n1 -- 1;\n0 -- 1;\n}\n"
    assert _dot(capsys, 1) == "graph G1 {\n}\n"
    lines = _dot(capsys, 5).splitlines()
    assert lines[0] == "graph G5 {" and lines[-1] == "}"
    assert sum("--" in line for line in lines) == 7  # 6 edges + 1 loop


def test_export_dot_distinct_and_stable(capsys):
    texts = {_dot(capsys, n) for n in range(1, 40)}
    assert len(texts) == 39
    assert _dot(capsys, 9) == _dot(capsys, 9)


def test_analyze_reports():
    invariants, notes = analyze(build(6))
    assert invariants == {
        "connected": True,
        "gamma": 1,
        "triangle": True,
        "traceable": True,
        "hamiltonian": True,
        "clique_number": 5,
        "chromatic_number": 5,
        "planar": False,
    }
    assert notes == []
    invariants7, _ = analyze(build(7))
    assert invariants7["chromatic_number"] == 4
    assert invariants7["planar"] and not invariants7["hamiltonian"]


def test_analyze_outside_bounds_gives_null_with_note():
    invariants, notes = analyze(build(20))
    assert invariants["chromatic_number"] is None
    assert invariants["clique_number"] == 12  # within the clique bound
    assert any("chromatic_number" in note for note in notes)
    invariants1, _ = analyze(build(1))
    assert invariants1["traceable"] and not invariants1["hamiltonian"]
