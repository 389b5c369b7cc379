"""Oracle self-checks and the central cross-validation against the fast paths."""

import math
from itertools import chain, combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdpairs import oracle
from gcdpairs.graph import (
    GcdGraph,
    PathWitness,
    build,
    chromatic_number,
    domination_number,
    is_planar,
    max_clique,
)
from gcdpairs.pairs import (
    classify_elements,
    count_pairs,
    iter_pairs,
    pair_rows,
)


def test_naive_enumerate_examples():
    assert len(oracle.naive_enumerate(6)) == 16
    assert len(oracle.naive_enumerate(9)) == 26
    assert len(oracle.naive_enumerate(8)) == 26


def test_naive_count_matches_naive_enumerate():
    for n in range(1, 120):
        assert oracle.naive_count(n) == len(oracle.naive_enumerate(n))


def test_fast_enumeration_equals_oracle_to_500():
    # the central cross-validation property: element-for-element equality, with
    # the reference pairs (a, b), a <= b, read off the oracle's gcd table in
    # row-major order; the tuples themselves are compared to 150 below
    table = oracle.GcdTable(501)
    for n in range(1, 501):
        streamed = np.fromiter(chain.from_iterable(iter_pairs(n)), dtype=np.intp)
        reference = np.argwhere(np.triu(n % table.rows(n) == 0))
        assert np.array_equal(streamed.reshape(-1, 2), reference), n


def test_row_counts_and_rows_equal_euclid_oracle_to_150():
    # naive_count shares np.gcd with the row masks, so the references here are
    # the oracle's own Euclid loops
    for n in range(1, 151):
        reference = oracle.naive_enumerate(n).pairs
        assert list(iter_pairs(n)) == list(reference), n
        units, zero_divisors = classify_elements(n) if n >= 2 else [np.zeros(n, dtype=bool)] * 2
        among = oracle.naive_restricted_count(n, np.flatnonzero(zero_divisors).tolist())
        assert count_pairs(n) == (len(reference), among), n
        rows = pair_rows(n, units)
        among = oracle.naive_restricted_count(n, np.flatnonzero(units).tolist())
        assert sum(len(bs) for _, bs in rows) == among, n


def test_naive_restricted_count():
    assert oracle.naive_restricted_count(6, {2, 3, 4}) == 5
    assert oracle.naive_restricted_count(15, {3, 5, 6, 9, 10, 12}) == 14
    assert oracle.naive_restricted_count(7, set()) == 0


def _check_gcd_table(limit):
    table = oracle.GcdTable(limit)
    for a in range(limit):
        for b in range(limit):
            if a or b:
                assert table.gcds[a, b] == math.gcd(a, b), (a, b)
    assert table.gcds[0, 0] == limit  # the sentinel, which divides no n < limit
    for n in range(1, limit):
        assert table.count(n) == oracle.naive_count(n), n
        everything = np.ones(n, dtype=bool)  # flags 0, so the block holds the sentinel
        assert table.count(n, everything) == oracle.naive_restricted_count(n, range(n)), n
        for within in classify_elements(n) if n >= 2 else [np.zeros(n, dtype=bool)]:
            subset = np.flatnonzero(within).tolist()  # the units, then the zero divisors
            assert table.count(n, within) == oracle.naive_restricted_count(n, subset), (n, subset)
    for n in (0, limit):
        with pytest.raises(oracle.OracleBoundError):
            table.count(n)


def test_gcd_table_matches_the_per_n_oracles_to_150():
    _check_gcd_table(151)


@pytest.mark.parametrize("limit", [1, 2, 3])  # verify --max-n 2 builds GcdTable(3)
def test_gcd_table_at_the_smallest_limits(limit):
    _check_gcd_table(limit)


def test_exhaustive_clique_examples():
    assert len(oracle.exhaustive_max_clique(build(6)).vertices) == 5
    assert len(oracle.exhaustive_max_clique(build(7)).vertices) == 4
    four = oracle.exhaustive_max_clique(build(4))
    assert len(four.vertices) == 3
    with pytest.raises(oracle.OracleBoundError):
        oracle.exhaustive_max_clique(build(27))


def test_clique_cross_validation_to_26():
    for n in range(1, 27):
        g = build(n)
        assert oracle.exhaustive_max_clique(g).vertices == max_clique(g).vertices, n


def _graph(n, edges):
    adjacency = [0] * n
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return GcdGraph(n, tuple(adjacency), frozenset())


@st.composite
def _graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return _graph(n, [e for e, kept in zip(pairs, keep) if kept])


def _is_clique(g, vertices):
    return all(g.adjacency[a] >> b & 1 for a, b in combinations(vertices, 2))


@settings(max_examples=300, deadline=None)
@given(_graphs(max_n=12))
def test_clique_oracle_equals_the_first_largest_subset(g):
    # combinations yields each size's subsets in lexicographic order
    first_largest = next(
        c for size in range(g.n, -1, -1) for c in combinations(range(g.n), size) if _is_clique(g, c)
    )
    assert oracle.exhaustive_max_clique(g).vertices == frozenset(first_largest)
    assert max_clique(g).vertices == frozenset(first_largest)


def _longest_cycle(g):
    """Largest k >= 3 with some k vertices in a closed walk without repeats, by
    trying every ordering that starts at the subset's smallest vertex."""
    for k in range(g.n, 2, -1):
        for first, *rest in combinations(range(g.n), k):
            for order in permutations(rest):
                ring = (first, *order, first)
                if all(_is_clique(g, step) for step in zip(ring, ring[1:])):
                    return k
    return 0


@settings(max_examples=200, deadline=None)
@given(_graphs(max_n=7))
def test_cycle_oracle_equals_the_longest_ordering(g):
    cycle, longest = oracle.exhaustive_hamiltonian(g)
    assert longest == _longest_cycle(g)
    assert (cycle is not None) == (g.n >= 3 and longest == g.n)
    if cycle is not None:  # closed, through every vertex once, along edges of g
        ring = cycle.vertices
        assert cycle.closed and sorted(ring) == list(range(g.n))
        assert all(_is_clique(g, step) for step in zip(ring, ring[1:] + ring[:1]))


TRIANGLE_567 = [(5, 6), (6, 7), (5, 7)]
SQUARE_0123 = [(0, 1), (1, 2), (2, 3), (0, 3)]


@pytest.mark.parametrize(
    "edges, longest",
    [
        (TRIANGLE_567, 3),  # the only cycle sits on the top three vertices
        (TRIANGLE_567 + SQUARE_0123, 4),
        ([(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (4, 7)], 4),  # longest after a shorter
        ([(2, 3), (3, 4), (2, 4), *TRIANGLE_567, (4, 5)], 3),
    ],
)
def test_cycle_oracle_finds_cycles_among_the_top_vertices(edges, longest):
    assert oracle.exhaustive_hamiltonian(_graph(8, edges)) == (None, longest)


def test_cycle_oracle_returns_the_hamiltonian_cycle_from_anchor_0():
    ring = PathWitness(vertices=(0, 3, 2, 1), closed=True)  # walked back from vertex 1
    assert oracle.exhaustive_hamiltonian(_graph(4, SQUARE_0123)) == (ring, 4)


def test_exhaustive_chromatic_examples():
    assert oracle.exhaustive_chromatic(build(7)) == 4
    assert oracle.exhaustive_chromatic(build(3)) == 2
    assert oracle.exhaustive_chromatic(build(9)) == 5
    with pytest.raises(oracle.OracleBoundError):
        oracle.exhaustive_chromatic(build(13))


def test_chromatic_cross_validation_to_12():
    for n in range(2, 13):
        g = build(n)
        assert oracle.exhaustive_chromatic(g) == chromatic_number(g).color_count, n


def test_exhaustive_hamiltonian_examples():
    cycle, longest = oracle.exhaustive_hamiltonian(build(6))
    assert cycle is not None and longest == 6
    cycle7, longest7 = oracle.exhaustive_hamiltonian(build(7))
    assert cycle7 is None and longest7 == 6
    cycle2, longest2 = oracle.exhaustive_hamiltonian(build(2))
    assert cycle2 is None and longest2 == 0
    with pytest.raises(oracle.OracleBoundError):
        oracle.exhaustive_hamiltonian(build(16))


def test_hamiltonian_witness_is_a_valid_cycle():
    for n in (4, 6, 8, 10, 12, 14):
        g = build(n)
        cycle, longest = oracle.exhaustive_hamiltonian(g)
        assert longest == n
        assert cycle is not None and cycle.closed
        vs = cycle.vertices
        assert sorted(vs) == list(range(n))
        edges = set(g.simple_edges)
        ring = list(zip(vs, vs[1:])) + [(vs[-1], vs[0])]
        for u, v in ring:
            assert (min(u, v), max(u, v)) in edges


def test_odd_graphs_have_no_hamiltonian_cycle_and_longest_n_minus_1():
    for n in range(5, 16, 2):
        cycle, longest = oracle.exhaustive_hamiltonian(build(n))
        assert cycle is None, n
        assert longest == n - 1, n


def test_small_graphs_have_no_cycles():
    for n in (1, 2, 3):
        cycle, longest = oracle.exhaustive_hamiltonian(build(n))
        assert cycle is None and longest == 0


def _networkx_planar(g):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.simple_edges)
    return nx.check_planarity(graph)[0]


def _assert_planarity_agrees(g):
    expected = _networkx_planar(g)
    assert oracle.dmp_planar(g) == expected, sorted(g.simple_edges)
    assert is_planar(g) == expected, sorted(g.simple_edges)
    return expected


@st.composite
def _sparse_graphs(draw, max_n):
    # at most 3n edges, so that planar and non-planar graphs both come up often
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    return _graph(n, draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else [])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_graphs(max_n=12), _sparse_graphs(max_n=12)))
def test_planarity_equals_networkx_on_random_graphs(g):
    _assert_planarity_agrees(g)


def _subdivided(n, edges):
    # the first edge (a, b) becomes the path a, n, b through a new vertex n
    (a, b), rest = edges[0], edges[1:]
    return n + 1, [(a, n), (n, b), *rest]


K5 = list(combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


def _wheel(k):
    # hub 0 joined to the rim cycle 1..k-1
    return k, [(0, v) for v in range(1, k)] + [(v, v % (k - 1) + 1) for v in range(1, k)]


GRID = [(r * 5 + c, r * 5 + c + 1) for r in range(4) for c in range(4)]
GRID += [(r * 5 + c, (r + 1) * 5 + c) for r in range(3) for c in range(5)]


@pytest.mark.parametrize(
    "n, edges, planar",
    [
        (5, K5, False),
        (6, K33, False),
        (*_subdivided(5, K5), False),
        (*_subdivided(6, K33), False),
        (5, K5[1:], True),  # K5 minus an edge
        (10, PETERSEN, False),
        (*_wheel(5), True),
        (*_wheel(6), True),
        (*_wheel(7), True),
        (*_wheel(8), True),
        (20, GRID, True),
        # K4, a bridge to a triangle, and an isolated vertex; then K3,3 behind a bridge
        (8, [*combinations(range(4), 2), (3, 4), (4, 5), (5, 6), (4, 6)], True),
        (10, [*K33, (5, 6), (6, 7), (7, 8), (6, 8)], False),
        # a degree-2 vertex 5 whose neighbours 0 and 1 are already adjacent
        (6, [*combinations(range(4), 2), (0, 4), (1, 4), (0, 5), (1, 5)], True),
        (6, [*K5, (0, 5), (1, 5)], False),
    ],
)
def test_planarity_equals_networkx_on_named_graphs(n, edges, planar):
    assert _assert_planarity_agrees(_graph(n, edges)) is planar


def test_planarity_equals_networkx_on_g_1_to_60():
    for n in range(1, 61):
        assert _assert_planarity_agrees(build(n)) == (n <= 7 and n != 6), n


def test_dmp_oracle_has_no_recursion_limit():
    ring = [(v, v + 1) for v in range(4999)] + [(0, 4999), (0, 2500)]
    assert oracle.dmp_planar(_graph(5000, ring))
    k5_at_the_end = [(a + 4995, b + 4995) for a, b in K5]
    assert not oracle.dmp_planar(_graph(5000, ring[:4999] + k5_at_the_end))


def test_exhaustive_domination():
    assert oracle.exhaustive_domination(build(6)) == 1
    assert oracle.exhaustive_domination(build(2)) == 1
    assert oracle.exhaustive_domination(build(16)) == 1
    with pytest.raises(oracle.OracleBoundError):
        oracle.exhaustive_domination(build(21))


def test_domination_cross_validation_to_20():
    for n in range(2, 21):
        g = build(n)
        assert oracle.exhaustive_domination(g) == domination_number(g), n
