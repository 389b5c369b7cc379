"""Independent brute-force reference implementations.

Everything in this module is ground truth for the optimized paths and shares
no code with them: the gcd loop, the adjacency build, and the searches are all
written from the definitions. Duplication here is deliberate. Every search is
exhaustive, never approximate; bounded: each carries a hard input bound, and
skips only work that a stated theorem proves cannot change its answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import CliqueWitness, GcdGraph, PathWitness

MAX_CLIQUE_N = 26
MAX_CHROMATIC_N = 12
MAX_CYCLE_N = 15
MAX_DOMINATION_N = 20


class OracleBoundError(ValueError):
    """Raised when an exhaustive oracle is asked to exceed its input bound."""


@dataclass(frozen=True)
class PairSet:
    """A deduplicated, lexicographically ordered collection of gcd-pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def _gcd(a: int, b: int) -> int:
    # deliberately not math.gcd: the oracle keeps its own Euclid loop
    while b:
        a, b = b, a % b
    return a


def naive_enumerate(n: int) -> PairSet:
    """The definition, literally: every 0 <= a <= b < n with gcd(a, b) | n."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    pairs = []
    for a in range(n):
        for b in range(a, n):
            g = _gcd(a, b)
            if g > 0 and n % g == 0:
                pairs.append((a, b))
    return PairSet(tuple(pairs))


def naive_count(n: int) -> int:
    """Count of the same double loop, with the inner row vectorized so that
    sweeps over every prime power below 2048 stay inside the acceptance budget."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    total = 0
    for a in range(n):
        g = np.gcd(np.arange(a, n), a)
        g = g[g > 0]  # drops only gcd(0, 0)
        total += int(np.count_nonzero(n % g == 0))
    return total


def naive_restricted_count(n: int, elements) -> int:
    """Pairs with both endpoints in `elements`, by the definition."""
    chosen = sorted(set(elements))
    total = 0
    for i, a in enumerate(chosen):
        for b in chosen[i:]:
            g = _gcd(a, b)
            if g > 0 and n % g == 0:
                total += 1
    return total


class GcdTable:
    """gcd(a, b) for every 0 <= a, b < limit, by the Euclid recurrence above run
    on whole arrays, for claims that count pairs at many n below one limit."""

    def __init__(self, limit: int):
        values = np.arange(limit, dtype=np.int32)
        a, b = np.repeat(values, limit), np.tile(values, limit)
        while (live := np.flatnonzero(b)).size:
            a[live], b[live] = b[live], a[live] % b[live]
        a[0] = limit  # gcd(0, 0): a sentinel that divides no n < limit
        self.limit = limit
        self.gcds = a.reshape(limit, limit)

    def rows(self, n: int, within: np.ndarray | None = None) -> np.ndarray:
        """gcd(a, b) for a over the residues flagged in the length-n bool array
        `within` (default all of Z_n), ascending, and b over Z_n."""
        if not 1 <= n < self.limit:
            raise OracleBoundError(f"GcdTable({self.limit}) covers 1 <= n < {self.limit}, got {n}")
        block = self.gcds[:n, :n]
        return block if within is None else block[within]

    def count(self, n: int, within: np.ndarray | None = None) -> int:
        """Pairs a <= b flagged in `within` (default all of Z_n) whose gcd divides n."""
        block = self.rows(n)
        if within is not None:
            block = block[np.ix_(within, within)]
        hits = n % block == 0
        # the block is symmetric, so each pair off its diagonal is counted twice
        return (int(np.count_nonzero(hits)) + int(np.count_nonzero(hits.diagonal()))) // 2


def _adjacency(g: GcdGraph) -> list[int]:
    # own adjacency build from the edge set: bit b of adj[a] marks the edge {a, b}
    adj = [0] * g.n
    for a, b in g.simple_edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def exhaustive_max_clique(g: GcdGraph) -> CliqueWitness:
    """Maximum clique by Bron–Kerbosch over every maximal clique (n <= 26).

    C. Bron and J. Kerbosch, "Algorithm 457", CACM 16(9), 1973, with the pivot of
    Tomita, Tanaka and Takahashi, TCS 363, 2006: branch only on P minus N(u), for
    the u in P ∪ X with most neighbours in P. Every maximum clique is maximal, so
    the smallest sorted tuple among the largest maximal cliques is the
    lexicographically smallest maximum clique.
    """
    if g.n > MAX_CLIQUE_N:
        raise OracleBoundError(f"exhaustive_max_clique is bounded at n <= {MAX_CLIQUE_N}")
    adj = _adjacency(g)
    best: tuple[int, ...] = ()

    def bk(r: int, p: int, x: int) -> None:
        nonlocal best
        if not p | x:  # r is a maximal clique
            clique = tuple(v for v in range(g.n) if r >> v & 1)
            if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
                best = clique
            return
        u = max((v for v in range(g.n) if (p | x) >> v & 1), key=lambda v: (adj[v] & p).bit_count())
        branch = p & ~adj[u]
        while branch:
            vbit = branch & -branch
            branch ^= vbit
            v = vbit.bit_length() - 1
            bk(r | vbit, p & adj[v], x & adj[v])
            p ^= vbit
            x |= vbit

    bk(0, (1 << g.n) - 1, 0)
    return CliqueWitness(vertices=frozenset(best), maximal=True, maximum=True)


def exhaustive_chromatic(g: GcdGraph) -> int:
    """Smallest c admitting a proper coloring, by exhaustive assignment in
    natural vertex order with first-use symmetry pruning (n <= 12)."""
    if g.n > MAX_CHROMATIC_N:
        raise OracleBoundError(f"exhaustive_chromatic is bounded at n <= {MAX_CHROMATIC_N}")
    if g.n == 0:
        return 0
    adj = _adjacency(g)
    colors: dict[int, int] = {}

    def colorable(v: int, c: int, used: int) -> bool:
        if v == g.n:
            return True
        taken = {color for u, color in colors.items() if adj[v] >> u & 1}
        for color in range(min(used + 1, c)):
            if color not in taken:
                colors[v] = color
                if colorable(v + 1, c, max(used, color + 1)):
                    return True
                del colors[v]
        return False

    for c in range(1, g.n + 1):
        colors.clear()
        if colorable(0, c, 0):
            return c
    return g.n


def exhaustive_hamiltonian(g: GcdGraph) -> tuple[PathWitness | None, int]:
    """(Hamiltonian cycle or None, maximum cycle order) for n <= 15.

    Exhaustive search over (visited subset, endpoint) states, run once per
    anchor vertex s with all other cycle vertices above s, so every cycle is
    examined exactly once up to rotation, until n - s <= the best order found.
    """
    if g.n > MAX_CYCLE_N:
        raise OracleBoundError(f"exhaustive_hamiltonian is bounded at n <= {MAX_CYCLE_N}")
    n = g.n
    adjmask = _adjacency(g)
    best_order = 0
    ham: PathWitness | None = None
    for s in range(n):
        if n - s <= best_order:  # no cycle on the n - s vertices >= s is longer
            break
        ends: dict[int, int] = {1 << s: 1 << s}
        frontier = [1 << s]
        i = 0
        while i < len(frontier):
            mask = frontier[i]
            i += 1
            size = mask.bit_count()
            endpoints = ends[mask]
            e = endpoints
            while e:
                vbit = e & -e
                e ^= vbit
                v = vbit.bit_length() - 1
                if size >= 3 and adjmask[v] >> s & 1 and size > best_order:
                    best_order = size
                    if size == n:
                        ham = PathWitness(
                            vertices=_reconstruct_cycle(n, v, ends, adjmask), closed=True
                        )
                above = adjmask[v] & ~mask & ~((1 << (s + 1)) - 1)
                w = above
                while w:
                    ubit = w & -w
                    w ^= ubit
                    nxt = mask | ubit
                    if nxt not in ends:
                        ends[nxt] = 0
                        frontier.append(nxt)
                    ends[nxt] |= ubit
    return ham, best_order


def _reconstruct_cycle(
    n: int, last: int, ends: dict[int, int], adjmask: list[int]
) -> tuple[int, ...]:
    """Walk the subset table backwards from (full vertex set, last) to the anchor.

    Only anchor 0 can reach a full-size subset (the search above an anchor s
    never touches vertices below s), so the walk starts from the full mask.
    """
    path = [last]
    mask = (1 << n) - 1
    v = last
    while mask.bit_count() > 1:
        prev_mask = mask & ~(1 << v)
        candidates = ends.get(prev_mask, 0) & adjmask[v]
        u = (candidates & -candidates).bit_length() - 1
        path.append(u)
        mask, v = prev_mask, u
    path.reverse()
    return tuple(path)


def networkx_planar(g: GcdGraph) -> bool:
    """Planarity of the simple-edge graph by networkx's test, with no edge bound."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.simple_edges)
    return nx.check_planarity(graph)[0]


def exhaustive_domination(g: GcdGraph) -> int:
    """Minimum dominating set size by trying all vertex subsets, ascending (n <= 20)."""
    if g.n > MAX_DOMINATION_N:
        raise OracleBoundError(f"exhaustive_domination is bounded at n <= {MAX_DOMINATION_N}")
    adj = _adjacency(g)
    everyone = (1 << g.n) - 1
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            covered = 0
            for v in subset:
                covered |= adj[v] | 1 << v
            if covered == everyone:
                return size
    raise AssertionError("unreachable: the full vertex set always dominates")
