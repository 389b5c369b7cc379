"""The graph on vertex set Z_n whose edge family is the gcd-pair set.

Simple edges and loops are stored separately: each vertex a has one int
bitmask whose bit b is set when {a, b} is a simple edge, and a loop sits at
every a >= 1 with a | n (gcd(a, a) = a), but coloring and planarity ignore
loops. All witness-returning searches break ties lexicographically so outputs
are deterministic and golden-testable.

Planarity is Euler's edge bound, which rejects every non-planar G_n, then the
exact oracle.dmp_planar for the rest: among the G_n, n in {1, ..., 5, 7}.

Exact searches (maximum clique; chromatic number, a certified first-fit) carry
fixed input bounds and raise ExactSearchBoundError beyond them. A fixed witness
that fails its check on the masks raises AssertionError: a regression, which
verify reports as FAIL and the CLI as an internal check failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import np
from .numtheory import factorize, primes_below
from .pairs import row_masks

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
    maximal: bool


@dataclass(frozen=True)
class ColoringWitness:
    colors: dict[int, int]
    color_count: int


def build(n: int) -> GcdGraph:
    """Graph of Z_n: edge {a, b} for each pair with a != b, loop where a pairs
    with itself; row_masks rejects n < 1."""
    adjacency, loops = [], []
    for a, row in row_masks(n):
        if row[a]:
            loops.append(a)
            row[a] = False  # the rest of the row packs into its mask
        adjacency.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
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
    """A triangle if one exists: (1, 2, 3) is always one for n >= 4 (consecutive
    residues are coprime); otherwise an exhaustive lexicographic scan."""
    if g.n >= 4:
        return _validate_path(g, PathWitness(vertices=(1, 2, 3), closed=True))
    adj = g.adjacency
    for a in range(g.n):
        for b in _bits(adj[a] & _above(a)):
            common = adj[a] & adj[b] & _above(b)
            if common:
                return PathWitness(vertices=(a, b, _bits(common)[0]), closed=True)
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


def _first_max_clique(g: GcdGraph) -> int:
    """Mask of the lexicographically smallest maximum clique: branch and bound
    over ascending candidates with a greedy-coloring upper bound (Carraghan and
    Pardalos, Oper. Res. Lett. 9, 1990). Cliques are met in lexicographic
    order and one is kept only when strictly larger, so the first maximum met
    is the one kept."""
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
    return best_clique


def max_clique(g: GcdGraph) -> CliqueWitness:
    """Exact maximum clique, certified by branch and bound; the witness is the
    lexicographically smallest maximum clique."""
    if g.n > MAX_CLIQUE_EXACT_N:
        raise ExactSearchBoundError(
            f"max_clique bounded at n <= {MAX_CLIQUE_EXACT_N}, got {g.n}"
        )
    return CliqueWitness(vertices=frozenset(_bits(_first_max_clique(g))), maximal=True)


def clique_construction(g: GcdGraph) -> CliqueWitness:
    """The closed-form clique for n = g.n, validated on G_n's adjacency masks.

    - n = 2: {0, 1}.
    - prime powers p^k: {1} + primes below n other than p + {p, ..., p^(k-1)};
      order (number of other primes) + k, and provably maximal.
    - products of two distinct primes p < q: of the advertised vertex family
      {1, primes below pq, p^2, ..., p^k} only one power above p can be kept
      (two distinct powers p^i, p^j with 2 <= i < j collide: gcd = p^i does not
      divide pq), so the largest valid subset {1} + primes + {p^2} is returned.
    - anything else: {1} + primes below n, greedily extended to a maximal clique.

    The maximal flag reports an explicit single-vertex extension test; the
    clique need not be maximum (use max_clique for that).
    """
    n, adj = g.n, g.adjacency
    if n < 2:
        raise ValueError(f"clique_construction requires n >= 2, got {n}")

    def joins(v: int) -> bool:  # v is in the clique or adjacent to all of it
        return (adj[v] | 1 << v) & clique == clique

    if n == 2:
        clique = 0b11
    else:
        factors = factorize(n)
        p, k = factors[0]
        clique = sum(1 << v for v in {1, *primes_below(n)})
        if len(factors) == 1:  # p itself is among the primes when k >= 2
            clique |= sum(1 << (p**j) for j in range(2, k))
        elif [e for _, e in factors] == [1, 1]:  # n = pq
            clique |= 1 << (p * p)
        else:
            for v in range(n):  # greedy lexicographic extension to maximality
                if joins(v):
                    clique |= 1 << v
    if not all(joins(v) for v in _bits(clique)):
        raise AssertionError(f"construction for n={n} is not pairwise adjacent: {_bits(clique)}")
    maximal = not any(joins(v) for v in _bits(((1 << n) - 1) & ~clique))
    return CliqueWitness(vertices=frozenset(_bits(clique)), maximal=maximal)


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


def chromatic_number(g: GcdGraph) -> ColoringWitness:
    """Exact chromatic number (loops ignored): first-fit in natural order,
    certified by omega <= chi <= first-fit when its color count equals the
    maximum clique's order, and an AssertionError when they differ. Color
    classes are numbered by first appearance over 0..n-1."""
    if g.n > MAX_CHROMATIC_EXACT_N:
        raise ExactSearchBoundError(
            f"chromatic_number bounded at n <= {MAX_CHROMATIC_EXACT_N}, got {g.n}"
        )
    greedy, omega = greedy_coloring(g), _first_max_clique(g).bit_count()
    if greedy.color_count != omega:
        raise AssertionError(f"first-fit: {greedy.color_count} colors, omega {omega} in G_{g.n}")
    return greedy


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
    """Invariant summary for the CLI's graph report; exact fields outside the
    search bounds come back None with an explanatory note."""
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
    clique_number: int | None = None
    if g.n <= MAX_CLIQUE_EXACT_N:
        clique_number = len(max_clique(g).vertices)
    else:
        notes.append(
            f"clique_number: exact search skipped (n > {MAX_CLIQUE_EXACT_N}); "
            f"construction gives a maximal clique of order "
            f"{len(clique_construction(g).vertices)}"
        )
    chromatic: int | None = None
    if g.n <= MAX_CHROMATIC_EXACT_N:
        chromatic = chromatic_number(g).color_count
    else:
        notes.append(
            f"chromatic_number: exact search skipped (n > {MAX_CHROMATIC_EXACT_N}); "
            f"greedy upper bound = {greedy_coloring(g).color_count}"
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
