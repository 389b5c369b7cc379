"""Independent brute-force reference implementations.

Everything in this module is ground truth for the optimized paths and shares
no code with them: the gcd loop, the adjacency build, and the searches are all
written from the definitions. Duplication here is deliberate. Every
exponential search is exhaustive, never approximate; bounded: each carries a
hard input bound, and skips only work that a stated theorem proves cannot
change its answer. Planarity is the exception: `dmp_planar` is the polynomial
embedding algorithm of Demoucron, Malgrange and Pertuiset (Rev. Française
Rech. Opér. 8, 1964), exact and with no input bound.

The product path calls in once: graph.is_planar hands `dmp_planar` every
graph within Euler's edge bound, among the G_n those with n in {1, ..., 5, 7}.
For these verify's planarity claim compares DMP with itself; the tests check
them against networkx. Euler's bound rejects every other G_n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import np
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
    """gcd(a, b) for every 0 <= a, b < limit, in the narrowest type holding limit, for
    claims that count pairs at many n below it. Row a comes from the rows b < a by Euclid's
    gcd(a, b) = gcd(b, a mod b); whole-Z_n counts from a running histogram (`totals`)."""

    def __init__(self, limit: int):
        values = np.arange(limit, dtype=np.min_scalar_type(limit))
        self.limit = limit
        self.gcds = gcds = np.zeros((limit, limit), dtype=values.dtype)
        gcds[0], gcds[:, 0] = values, values  # gcd(a, 0) = a
        for a in range(1, limit):
            b = values[1 : a + 1]
            gcds[a, 1 : a + 1] = gcds[1 : a + 1, a] = gcds[b, a % b]
        gcds[0, 0] = limit  # gcd(0, 0): a sentinel that divides no n < limit

    @cached_property
    def totals(self) -> list[int]:
        """totals[n] = #{a <= b < n : gcd(a, b) | n}, read off `gcds` at first use: a
        running histogram of gcd(a, b), a <= b < n, summed over the divisors of n."""
        histogram = np.zeros(self.limit + 1, dtype=np.int64)
        totals = [0]
        for n in range(1, self.limit):
            histogram += np.bincount(self.gcds[n - 1, :n], minlength=self.limit + 1)
            d = np.arange(1, n + 1)
            totals.append(int(histogram[d[n % d == 0]].sum()))
        return totals

    def rows(self, n: int, within: np.ndarray | None = None) -> np.ndarray:
        """gcd(a, b) for a over the residues flagged in the length-n bool array
        `within` (default all of Z_n), ascending, and b over Z_n."""
        if not 1 <= n < self.limit:
            raise OracleBoundError(f"GcdTable({self.limit}) covers 1 <= n < {self.limit}, got {n}")
        block = self.gcds[:n, :n]
        return block if within is None else block[within]

    def count(self, n: int, within: np.ndarray | None = None) -> int:
        """Pairs a <= b flagged in `within` (default all of Z_n) whose gcd divides n."""
        block = self.rows(n, within)  # raises outside the bound
        if within is None:
            return self.totals[n]
        hits = n % block[:, within] == 0
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
    return CliqueWitness(vertices=frozenset(best), maximal=True)


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

    Exhaustive search over every (visited subset, endpoint) state, the subset
    recurrence of Bellman (J. ACM 9, 1962) and Held–Karp (SIAM J. 10, 1962)
    taken one subset size at a time on whole arrays. It runs once per anchor
    vertex s with all other cycle vertices above s, so every cycle is examined
    exactly once up to rotation, until n - s <= the best order found: no cycle
    on the n - s vertices >= s can be longer.
    """
    if g.n > MAX_CYCLE_N:
        raise OracleBoundError(f"exhaustive_hamiltonian is bounded at n <= {MAX_CYCLE_N}")
    n = g.n
    adjmask = _adjacency(g)
    masks = np.arange(1 << n, dtype=np.uint16)  # n <= 15; small temporaries, small peak RSS
    sizes = sum((masks >> bit) & 1 for bit in range(n))  # popcount of every mask
    best_order = 0
    ham: PathWitness | None = None
    for s in range(n):
        if n - s <= best_order:
            break
        ends = np.zeros(1 << n, dtype=np.int32)  # ends[mask]: bitset of path endpoints
        ends[1 << s] = 1 << s
        for size in range(1, n - s + 1):
            layer = np.flatnonzero((sizes == size) & (ends != 0))
            layer_ends = ends[layer]
            if size > max(best_order, 2) and (layer_ends & adjmask[s]).any():
                best_order = size
                if size == n:
                    ham = PathWitness(vertices=_reconstruct_cycle(n, ends, adjmask), closed=True)
            for u in range(s + 1, n):
                extend = layer[(layer >> u & 1 == 0) & (layer_ends & adjmask[u] != 0)]
                ends[extend | 1 << u] |= 1 << u
    return ham, best_order


def _reconstruct_cycle(n: int, ends: np.ndarray, adjmask: list[int]) -> tuple[int, ...]:
    """Walk the subset table backwards from the full vertex set, first to the lowest
    endpoint that closes the cycle at the anchor, then each step to the lowest endpoint
    adjacent to the vertex after it, until the walk is back at the anchor.

    Only anchor 0 can reach a full-size subset (the search above an anchor s
    never touches vertices below s), so the walk starts from the full mask.
    """
    path, mask, v = [], (1 << n) - 1, 0
    while mask:
        candidates = int(ends[mask]) & adjmask[v]
        v = (candidates & -candidates).bit_length() - 1
        path.append(v)
        mask &= ~(1 << v)
    path.reverse()
    return tuple(path)


def _vertices(mask: int) -> list[int]:
    # the oracle's own bit walk: positions of the set bits, ascending
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _blocks(adj: list[int]) -> list[int]:
    """Vertex masks of the biconnected blocks on >= 3 vertices, by Hopcroft and
    Tarjan's depth-first search (CACM 16(6), 1973) on an explicit stack, so no
    recursion limit applies. In a simple graph every edge between two vertices
    of a block belongs to that block."""
    index, low, blocks, order = [-1] * len(adj), [0] * len(adj), [], itertools.count()
    for root in range(len(adj)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(order)
        stack, work = [root], [(root, -1, iter(_vertices(adj[root])))]
        while work:
            v, parent, neighbours = work[-1]
            for w in neighbours:
                if index[w] < 0:
                    index[w] = low[w] = next(order)
                    stack.append(w)
                    work.append((w, v, iter(_vertices(adj[w]))))
                    break
                if w != parent:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:  # parent cuts off the block under v
                    block = 1 << parent
                    while not block >> v & 1:
                        block |= 1 << stack.pop()
                    if block.bit_count() >= 3:
                        blocks.append(block)
    return blocks


def _path(adj: list[int], start: int, inside: int, goal: int) -> list[int]:
    """A shortest path from `start` through vertices of `inside` to one of `goal`."""
    parent, frontier, seen = {start: start}, [start], 1 << start
    while frontier:
        step = []
        for v in frontier:
            hit = adj[v] & goal
            if hit:
                path = [(hit & -hit).bit_length() - 1, v]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1]
            for w in _vertices(adj[v] & inside & ~seen):
                parent[w] = v
                seen |= 1 << w
                step.append(w)
        frontier = step
    raise AssertionError("unreachable: a block stays connected without any one vertex")


def _mask(vertices: list[int]) -> int:
    return sum(1 << v for v in vertices)


def _block_planar(adj: list[int], block: int) -> bool:
    """DMP on one block: embed a cycle, then repeatedly draw a path of a fragment
    into a face that holds all the fragment's contact vertices, taking a fragment
    with only one such face whenever there is one; fail when a fragment has none."""
    left = [row & block for row in adj]  # the edges not drawn yet

    def draw(path: list[int]) -> None:
        for x, y in zip(path, path[1:]):
            left[x] ^= 1 << y
            left[y] ^= 1 << x

    u = (block & -block).bit_length() - 1
    w = (left[u] & -left[u]).bit_length() - 1
    cycle = [u, *_path(left, w, block & ~(1 << u), left[u] & ~(1 << w))]
    draw(cycle + cycle[:1])
    faces = [cycle, cycle[::-1]]  # each face boundary, a cycle of vertices
    embedded = _mask(cycle)
    while True:
        fragments = [  # (contact vertices, the vertices off the embedding)
            (1 << a | 1 << b, 0)
            for a in _vertices(embedded)
            for b in _vertices(left[a] & embedded)
            if a < b
        ]
        rest = block & ~embedded
        while rest:
            part = frontier = rest & -rest
            while frontier:
                reach = 0
                for v in _vertices(frontier):
                    reach |= left[v]
                frontier = reach & rest & ~part
                part |= frontier
            contacts = 0
            for v in _vertices(part):
                contacts |= left[v] & embedded
            fragments.append((contacts, part))
            rest &= ~part
        if not fragments:
            return True
        masks = [_mask(face) for face in faces]
        homes = [[i for i, m in enumerate(masks) if c & ~m == 0] for c, _ in fragments]
        if not all(homes):
            return False
        (contacts, part), fits = min(zip(fragments, homes), key=lambda chosen: len(chosen[1]))
        a = (contacts & -contacts).bit_length() - 1
        if part:
            path = [a, *_path(left, _vertices(left[a] & part)[0], part, contacts & ~(1 << a))]
        else:
            path = [a, contacts.bit_length() - 1]
        draw(path)
        embedded |= _mask(path)
        face, inner = faces[fits[0]], path[1:-1]
        start = face.index(a)
        face = face[start:] + face[:start]
        end = face.index(path[-1])
        faces[fits[0]] = face[: end + 1] + inner[::-1]
        faces.append(face[end:] + [a] + inner)


def dmp_planar(g: GcdGraph) -> bool:
    """Planarity of the simple-edge graph by the face-embedding algorithm of
    Demoucron, Malgrange and Pertuiset (Rev. Française Rech. Opér. 8, 1964), run
    on each biconnected block: a graph is planar exactly when its blocks are.
    Polynomial, so it has no input bound."""
    adj = _adjacency(g)
    return all(_block_planar(adj, block) for block in _blocks(adj))


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
