"""The graph on vertex set Z_n whose edge family is the gcd-pair set.

Simple edges and loops are stored separately: each vertex a has one int
bitmask whose bit b is set when {a, b} is a simple edge, and a loop sits at
every a >= 1 with a | n (gcd(a, a) = a), but coloring and planarity ignore
loops. All witness-returning searches break ties lexicographically so outputs
are deterministic and golden-testable.

Planarity is Euler's edge bound, which rejects every non-planar G_n, then the
exact oracle.dmp_planar for the rest: among the G_n, n in {1, ..., 5, 7}.

The clique number omega and chromatic number chi have one certificate and no
search: clique_construction's greedy clique C and the first-fit coloring give
|C| <= omega <= chi <= its color count, so equal ends prove omega = chi = |C|.
max_clique, a branch and bound, is verify's independent search. Exact fields
carry fixed input bounds (ExactSearchBoundError beyond them). A fixed witness
that fails its check on the masks raises AssertionError: a regression, which
verify reports as FAIL and the CLI as an internal check failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .numtheory import divisors, primes_below, smallest_prime_factors
from .pairs import _moduli

# Largest n each exact search accepts before raising.
MAX_CLIQUE_EXACT_N = 64
MAX_CHROMATIC_EXACT_N = 16


class ExactSearchBoundError(ValueError):
    """An exact search was asked to exceed its fixed input bound."""


@dataclass(frozen=True)
class GcdGraph:
    """G_n: bit b of adjacency[a] is set exactly when {a, b} is a simple edge."""

    n: int
    adjacency: tuple[int, ...]
    loops: frozenset[int]

    @property
    def simple_edges(self) -> frozenset[tuple[int, int]]:
        """Edges (a, b) with a < b: each row's bits above a."""
        rows = enumerate(self.adjacency)
        return frozenset((a, b) for a, row in rows for b in _bits(row & _above(a)))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


@dataclass(frozen=True)
class PathWitness:
    vertices: tuple[int, ...]
    closed: bool = False


@dataclass(frozen=True)
class CliqueWitness:
    vertices: frozenset[int]


@dataclass(frozen=True)
class ColoringWitness:
    colors: dict[int, int]
    color_count: int


def build(n: int) -> GcdGraph:
    """Graph of Z_n: edge {a, b} for each pair with a != b, loop where a pairs
    with itself; rejects n < 1. Row 0 holds the divisors below n, row a >= 1 the
    b < n that no m of pairs._moduli(n, a) divides. Each m divides a, and row m
    (its one modulus is m) comes first, so later rows AND it in; a mask cache
    freed on return left heap holes that slowed first-fit at n = 20000 by 1/4."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    full, spf = (1 << n) - 1, smallest_prime_factors(n - 1)
    adjacency, loops = [sum(1 << d for d in divisors(n)[:-1])], []
    for a in range(1, n):
        row = full
        for m in _moduli(n, a, spf):
            if m < a:
                row &= adjacency[m]
            else:  # a = m, its one modulus
                multiples, span = 1, m  # the multiples of m in [0, span)
                while span < n:
                    multiples |= multiples << span
                    span *= 2
                row = full & ~multiples
        if row >> a & 1:
            loops.append(a)
            row ^= 1 << a  # the rest of the row is its mask
        adjacency.append(row)
    return GcdGraph(n=n, adjacency=tuple(adjacency), loops=frozenset(loops))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return out


def _above(v: int) -> int:
    """Mask of every vertex above v (an infinite run of ones, for `&` only)."""
    return -1 << (v + 1)


def _validate_path(g: GcdGraph, witness: PathWitness) -> PathWitness:
    vs = witness.vertices
    if len(set(vs)) != len(vs):
        raise AssertionError(f"repeated vertex in path {vs}")
    for u, v in zip(vs, vs[1:]):
        if not g.adjacency[u] >> v & 1:
            raise AssertionError(f"missing edge {{{u},{v}}} in G_{g.n}")
    if witness.closed:
        if len(vs) < 3:
            raise AssertionError(f"cycle needs >= 3 vertices, got {vs}")
        if not g.adjacency[vs[-1]] >> vs[0] & 1:
            raise AssertionError(f"missing closing edge {{{vs[-1]},{vs[0]}}} in G_{g.n}")
    return witness


def is_connected(g: GcdGraph) -> bool:
    seen = frontier = 1  # vertex 0
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= g.adjacency[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def star_subgraph(g: GcdGraph) -> frozenset[int]:
    """The leaves of the maximal star centered at 1: {1, a} is an edge for
    every other a."""
    if g.n < 2:
        raise ValueError(f"star_subgraph requires n >= 2, got {g.n}")
    missing = ((1 << g.n) - 1) & ~(g.adjacency[1] | 0b10)
    if missing:
        raise AssertionError(f"missing star edge {{1,{_bits(missing)[0]}}} in G_{g.n}")
    return frozenset(range(g.n)) - {1}


def embedding_check(small: GcdGraph, big: GcdGraph) -> list[tuple[int, int]]:
    """The edges (a < b) and loops (a, a) of small = G_m missing in big = G_n,
    labels 0..m-1 kept; none means G_m embeds identically. Requires m | n."""
    if small.n < 1 or big.n % small.n != 0:
        raise ValueError(f"{small.n} does not divide {big.n}")
    rows = zip(small.adjacency, big.adjacency)
    missing = [(a, b) for a, (s, t) in enumerate(rows) for b in _bits(s & ~t & _above(a))]
    missing += [(a, a) for a in sorted(small.loops - big.loops)]
    return missing


def domination_number(g: GcdGraph) -> int:
    """Exact domination number: star_subgraph checks that vertex 1 neighbors
    everything, so {1} dominates and the number is 1.
    oracle.exhaustive_domination is the independent search."""
    star_subgraph(g)
    return 1


def has_triangle(g: GcdGraph) -> PathWitness | None:
    """The triangle (1, 2, 3) for n >= 4 (consecutive residues are coprime);
    below that, (0, 1, 2) if g has its three edges, else None. G_1 and G_2
    have fewer than three vertices and G_3 lacks the edge {0, 2}."""
    if g.n >= 4:
        return _validate_path(g, PathWitness(vertices=(1, 2, 3), closed=True))
    adj = g.adjacency
    if g.n == 3 and adj[0] >> 1 & adj[0] >> 2 & adj[1] >> 2 & 1:
        return PathWitness(vertices=(0, 1, 2), closed=True)
    return None


def hamiltonian_path(g: GcdGraph) -> PathWitness:
    """The canonical Hamiltonian path (0, 1, ..., n-1); consecutive residues
    are coprime so every edge exists."""
    if g.n < 2:
        raise ValueError(f"hamiltonian_path requires n >= 2, got {g.n}")
    return _validate_path(g, PathWitness(vertices=tuple(range(g.n)), closed=False))


def hamiltonian_cycle(g: GcdGraph) -> PathWitness | None:
    """Constructive Hamiltonian cycle for even n > 2, else None: n = 2 has no
    cycle at all, and for odd n the even residues are checked to be an
    independent set larger than n/2, which rules one out."""
    if g.n < 2:
        raise ValueError(f"hamiltonian_cycle requires n >= 2, got {g.n}")
    n = g.n
    if n == 2:
        return None
    if n % 2 == 0:
        cycle = PathWitness(vertices=(0,) + tuple(range(2, n)) + (1,), closed=True)
        return _validate_path(g, cycle)
    evens = sum(1 << v for v in range(0, n, 2))
    if any(g.adjacency[v] & evens for v in range(0, n, 2)):
        raise AssertionError(f"even residues not independent in G_{n}")
    return None


def longest_cycle_constructive(g: GcdGraph) -> PathWitness:
    """For odd n >= 5 the cycle (1, 2, ..., n-1) has order n - 1, the maximum
    (no Hamiltonian cycle exists for odd n)."""
    if g.n % 2 == 0 or g.n < 5:
        raise ValueError(f"longest_cycle_constructive requires odd n >= 5, got {g.n}")
    return _validate_path(g, PathWitness(vertices=tuple(range(1, g.n)), closed=True))


def max_clique(g: GcdGraph) -> CliqueWitness:
    """Exact maximum clique: branch and bound over ascending candidates with a
    greedy-coloring upper bound (Carraghan and Pardalos, Oper. Res. Lett. 9,
    1990). Cliques are met in lexicographic order and one is kept only when
    strictly larger, so the witness is the lexicographically smallest maximum
    clique. verify's independent search; analyze reads the certificate."""
    if g.n > MAX_CLIQUE_EXACT_N:
        raise ExactSearchBoundError(
            f"max_clique bounded at n <= {MAX_CLIQUE_EXACT_N}, got {g.n}"
        )
    adj = g.adjacency
    best = best_clique = 0

    def bb(clique: int, size: int, cand: int) -> None:
        nonlocal best, best_clique
        if size > best:
            best, best_clique = size, clique
        if not cand:
            return
        verts = _bits(cand)
        if size + greedy_coloring(g, verts).color_count <= best:
            return
        rest = cand
        for v in verts:
            rest &= ~(1 << v)
            if size + 1 + (rest & adj[v]).bit_count() <= best:
                continue
            bb(clique | 1 << v, size + 1, adj[v] & rest)

    bb(0, 0, (1 << g.n) - 1)
    return CliqueWitness(vertices=frozenset(_bits(best_clique)))


def clique_construction(g: GcdGraph) -> CliqueWitness:
    """The greedy clique of G_n, n = g.n >= 2: from C0 = {1} + the primes
    below n, add in ascending order each vertex adjacent to the whole clique
    so far; a member of C0 that fails the same mask test raises AssertionError.
    Maximal, as a skipped vertex missed a member and the clique only grows; the
    lower bound of the omega/chi certificate. A v outside C0 that joins has only
    primes dividing n (each prime r of v is in C0, and gcd(v, r) = r), and 0
    joins only at n = 2. So n = p^k gets p^2, ..., p^(k-1), and n = pq, p < q,
    gets p^2 and then no p^3 < pq, since gcd(p^3, p^2) = p^2 does not divide pq.
    """
    n, adj = g.n, g.adjacency
    if n < 2:
        raise ValueError(f"clique_construction requires n >= 2, got {n}")
    clique = sum(1 << v for v in {1, *primes_below(n)})
    for v in range(n):
        if (adj[v] | 1 << v) & clique == clique:  # v is in or adjacent to all of it
            clique |= 1 << v
        elif clique >> v & 1:
            raise AssertionError(f"construction for n={n}: {v} misses a member of {_bits(clique)}")
    return CliqueWitness(vertices=frozenset(_bits(clique)))


def greedy_coloring(g: GcdGraph, order: Iterable[int] | None = None) -> ColoringWitness:
    """Upper bound: first-fit over `order` (default: every vertex in natural
    order)."""
    classes: list[int] = []  # one member mask per color class
    colors: dict[int, int] = {}
    for v in range(g.n) if order is None else order:
        row = g.adjacency[v]
        for c, members in enumerate(classes):
            if not row & members:
                classes[c] = members | 1 << v
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colors[v] = c
    return ColoringWitness(colors=colors, color_count=len(classes))


def _certificate(g: GcdGraph) -> tuple[int, ColoringWitness]:
    """(|C|, first-fit in natural order) for the clique C of clique_construction
    (C = {0} in G_1); AssertionError when they differ at n <= MAX_CLIQUE_EXACT_N,
    where analyze reports them as exact."""
    order = len(clique_construction(g).vertices) if g.n > 1 else 1
    greedy = greedy_coloring(g)
    if order != greedy.color_count and g.n <= MAX_CLIQUE_EXACT_N:
        raise AssertionError(f"G_{g.n}: first-fit {greedy.color_count} colors, clique {order}")
    return order, greedy


def chromatic_number(g: GcdGraph) -> ColoringWitness:
    """Exact chromatic number (loops ignored): first-fit in natural order,
    certified by _certificate. Color classes are numbered by first appearance
    over 0..n-1."""
    if g.n > MAX_CHROMATIC_EXACT_N:
        raise ExactSearchBoundError(
            f"chromatic_number bounded at n <= {MAX_CHROMATIC_EXACT_N}, got {g.n}"
        )
    return _certificate(g)[1]


def is_planar(g: GcdGraph) -> bool:
    """Exact planarity of the simple-edge graph (loops are irrelevant).

    Euler's bound comes first: a planar graph on v >= 3 vertices has at most
    3v - 6 edges, and every non-planar G_n has more. The exact
    oracle.dmp_planar decides every other graph; among the G_n, that is
    n in {1, ..., 5, 7}."""
    if g.n >= 3 and g.edge_count() > 3 * g.n - 6:  # Euler: planar has <= 3v - 6 edges
        return False
    from . import oracle  # oracle imports graph

    return oracle.dmp_planar(g)


def analyze(g: GcdGraph) -> tuple[dict, list[str]]:
    """Invariant summary for the CLI's graph report. omega and chi come from
    _certificate; outside the exact-search bounds they come back None with a
    note giving the construction's order and the first-fit count."""
    notes: list[str] = []
    if g.n == 1:
        invariants = {
            "connected": True,
            "gamma": 1,
            "triangle": False,
            "traceable": True,
            "hamiltonian": False,
            "clique_number": 1,
            "chromatic_number": 1,
            "planar": True,
        }
        return invariants, notes
    order, greedy = _certificate(g)
    clique_number = order if g.n <= MAX_CLIQUE_EXACT_N else None
    chromatic = greedy.color_count if g.n <= MAX_CHROMATIC_EXACT_N else None
    if clique_number is None:
        notes.append(
            f"clique_number: exact search skipped (n > {MAX_CLIQUE_EXACT_N}); "
            f"construction gives a maximal clique of order {order}"
        )
    if chromatic is None:
        notes.append(
            f"chromatic_number: exact search skipped (n > {MAX_CHROMATIC_EXACT_N}); "
            f"greedy upper bound = {greedy.color_count}"
        )
    invariants = {
        "connected": is_connected(g),
        "gamma": domination_number(g),
        "triangle": has_triangle(g) is not None,
        "traceable": hamiltonian_path(g) is not None,
        "hamiltonian": hamiltonian_cycle(g) is not None,
        "clique_number": clique_number,
        "chromatic_number": chromatic,
        "planar": is_planar(g),
    }
    return invariants, notes
