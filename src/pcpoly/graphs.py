"""Simple undirected graphs on up to 64 vertices, stored as bitset rows.

Vertices are labelled 0..n-1.  ``adj[i]`` is an integer whose bit ``j`` is
set iff ``(i, j)`` is an edge.  Graphs are immutable values; every
constructor validates symmetry and looplessness.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from functools import cache

from . import _Record

MAX_VERTICES = 64


class GraphError(ValueError):
    pass


@cache
def _bit_matrix_masks(size: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(diagonal, transpose steps) of a size x size bit matrix stored row-major.

    ``size`` is a power of two and bit i*size + j holds entry (i, j).  Step
    (d, mask) swaps each bit in ``mask`` with the bit d above it: for block
    side s = size/2, ..., 1 it exchanges the entries (i, j) and (i + s, j - s)
    with bit s clear in i and set in j (Warren, Hacker's Delight, 7-3).
    """
    diagonal = sum(1 << (i * size + i) for i in range(size))
    steps = []
    s = size >> 1
    while s:
        columns = sum(1 << j for j in range(size) if j & s)
        mask = sum(columns << (i * size) for i in range(size) if not i & s)
        steps.append((s * (size - 1), mask))
        s >>= 1
    return diagonal, tuple(steps)


def _valid_rows(adj: Sequence[int]) -> bool:
    """True iff rows ``adj`` are in range, loopless and symmetric.

    Packs the rows into one integer, padded to a power-of-two side of at
    least 8, and compares it with its transpose, so the cost is a few
    whole-matrix operations rather than one step per edge.
    """
    n = len(adj)
    if min(adj) < 0 or max(adj) >> n:
        return False
    size = max(8, 1 << (n - 1).bit_length())
    if size == 8:
        data = bytes(adj)
    else:
        data = b"".join([row.to_bytes(size // 8, "little") for row in adj])
    packed = int.from_bytes(data, "little")
    diagonal, steps = _bit_matrix_masks(size)
    if packed & diagonal:
        return False
    t = packed
    for d, mask in steps:
        x = (t ^ (t >> d)) & mask
        t ^= x ^ (x << d)
    return t == packed


class Graph(_Record):
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count mismatch")
        if _valid_rows(self.adj):
            return
        # name the first fault
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphError("adjacency bit outside vertex range")
            if row >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        for i, row in enumerate(self.adj):
            m = row
            while m:
                b = m & -m
                j = b.bit_length() - 1
                m ^= b
                if not self.adj[j] >> i & 1:
                    raise GraphError(f"asymmetric edge ({i}, {j})")

    # -- basic queries

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.n))

    def neighbors(self, v: int) -> list[int]:
        return bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return edge_list(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def edge_list(adj: Sequence[int]) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v of the adjacency rows, sorted."""
    out = []
    for u, row in enumerate(adj):
        m = row >> (u + 1) << (u + 1)
        while m:
            b = m & -m
            out.append((u, b.bit_length() - 1))
            m ^= b
    return out


def from_edges(n: int, edges: Iterable[tuple[int, int]], max_n: int = MAX_VERTICES) -> Graph:
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    if max_n is not None and n > max_n:
        raise GraphError(f"vertex count {n} exceeds {max_n}")
    adj = [0] * n
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# named families


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_multipartite(parts: Sequence[int]) -> Graph:
    n = sum(parts)
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds {MAX_VERTICES}")
    adj = [0] * n
    start = 0
    full = (1 << n) - 1
    for size in parts:
        part_mask = ((1 << size) - 1) << start
        for v in range(start, start + size):
            adj[v] = full & ~part_mask
        start += size
    return Graph(n, tuple(adj))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with ``leaves`` edges, i.e. K_{1,leaves}."""
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def threshold_graph(bit_string: Sequence[int]) -> Graph:
    """Build a threshold graph by appending isolated (0) / dominating (1) vertices."""
    n = len(bit_string) + 1
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds {MAX_VERTICES}")
    adj = [0] * n
    for idx, bit in enumerate(bit_string):
        v = idx + 1
        if bit not in (0, 1):
            raise GraphError("threshold vector bits must be 0 or 1")
        if bit:
            for u in range(v):
                adj[v] |= 1 << u
                adj[u] |= 1 << v
    return Graph(n, tuple(adj))


_NAMED_RE = re.compile(
    r"^(?:K(?P<kparts>\d+(?:,\d+)*)|Kbar(?P<kbar>\d+)|P(?P<path>\d+)"
    r"|C(?P<cycle>\d+)|star(?P<star>\d+)|thr(?P<thr>[01]+))$"
)


def parse_named(text: str) -> Graph:
    m = _NAMED_RE.match(text.strip())
    if not m:
        raise GraphError(f"unknown graph name: {text!r}")
    if m.group("kparts") is not None:
        parts = [int(p) for p in m.group("kparts").split(",")]
        if any(p < 1 for p in parts):
            raise GraphError("multipartite parts must be positive")
        if len(parts) == 1:
            if parts[0] > MAX_VERTICES:
                raise GraphError("too many vertices")
            return complete_graph(parts[0])
        return complete_multipartite(parts)
    if m.group("kbar") is not None:
        n = int(m.group("kbar"))
        if n > MAX_VERTICES:
            raise GraphError("too many vertices")
        return empty_graph(n)
    if m.group("path") is not None:
        return path_graph(int(m.group("path")))
    if m.group("cycle") is not None:
        return cycle_graph(int(m.group("cycle")))
    if m.group("star") is not None:
        return star_graph(int(m.group("star")))
    return threshold_graph([int(b) for b in m.group("thr")])


# ---------------------------------------------------------------------------
# graph6


# the six stream bits of graph6 value v (its first bit the highest), held
# first bit lowest; reversing six bits is its own inverse
_G6_BITS = tuple(int(f"{v:06b}"[::-1], 2) for v in range(64))
_G6_CHARS = tuple(chr(r + 63) for r in _G6_BITS)


def parse_graph6(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    raw = [ord(ch) - 63 for ch in data]
    if any(b < 0 or b > 63 for b in raw):
        raise GraphError("invalid graph6 character")
    if not raw:
        raise GraphError("empty graph6 string")
    if raw[0] < 63:
        n = raw[0]
        body = raw[1:]
    else:
        if len(raw) < 4 or raw[1] == 63:
            raise GraphError("bad graph6 size prefix")
        n = (raw[1] << 12) | (raw[2] << 6) | raw[3]
        body = raw[4:]
    if n < 1 or n > MAX_VERTICES:
        raise GraphError(f"graph6 vertex count {n} out of range")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError("graph6 body length mismatch")
    # bit j(j-1)/2 + i of the stream is pair (i, j), as in to_graph6
    stream = 0
    for k, v in enumerate(body):
        stream |= _G6_BITS[v] << (6 * k)
    adj = [0] * n
    for j in range(1, n):
        col = stream >> (j * (j - 1) // 2) & ((1 << j) - 1)
        adj[j] = col  # rows above j get their bit j only at later columns
        bit_j = 1 << j
        while col:
            b = col & -col
            adj[b.bit_length() - 1] |= bit_j
            col ^= b
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    n, adj = g.n, g.adj
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    # the pairs i < j in column order; bit j(j-1)/2 + i of the stream is pair (i, j)
    stream = 0
    for j in range(1, n):
        stream |= (adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    chars = []
    for _ in range((n * (n - 1) // 2 + 5) // 6):
        chars.append(_G6_CHARS[stream & 63])
        stream >>= 6
    return prefix + "".join(chars)


# ---------------------------------------------------------------------------
# edge-list text format: "n; u v; u v; ..."


def parse_edge_list(text: str) -> Graph:
    pieces = [p.strip() for p in text.strip().split(";")]
    if not pieces or not pieces[0]:
        raise GraphError("edge list must start with the vertex count")
    try:
        n = int(pieces[0])
    except ValueError as exc:
        raise GraphError(f"bad vertex count: {pieces[0]!r}") from exc
    edges = []
    for piece in pieces[1:]:
        if not piece:
            continue
        try:
            u, v = (int(tok) for tok in piece.split())
        except ValueError as exc:
            raise GraphError(f"bad edge entry: {piece!r}") from exc
        edges.append((u, v))
    return from_edges(n, edges)


def to_edge_list(g: Graph) -> str:
    parts = [str(g.n)]
    parts.extend(f"{u} {v}" for u, v in g.edges())
    return "; ".join(parts)


def parse_graph(text: str, fmt: str) -> Graph:
    """Parse one of the supported formats: graph6, edge-list, named."""
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "named":
        return parse_named(text)
    raise GraphError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# structural operations


def complement_adj(adj: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the complement."""
    full = (1 << len(adj)) - 1
    return tuple(full ^ row ^ (1 << i) for i, row in enumerate(adj))


def complement(g: Graph) -> Graph:
    return Graph(g.n, complement_adj(g.adj))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("induced subgraph needs a nonempty vertex set")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise GraphError("vertex out of range")
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for v in vs:
        m = g.adj[v]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            if u in index:
                adj[index[v]] |= 1 << index[u]
    return Graph(len(vs), tuple(adj))


def induced_subgraph_mask(g: Graph, mask: int) -> Graph:
    return induced_subgraph(g, bits(mask))


def line_rows(adj: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the line graph, on the edges in ``edge_list`` order.

    Two edges are adjacent iff they share an endpoint: the edges at each
    vertex form a clique.  Any number of edges; an edgeless graph gives no
    rows.
    """
    edges = edge_list(adj)
    at = [0] * len(adj)  # at[v]: the edges with endpoint v, as a bitset
    for e, (u, v) in enumerate(edges):
        at[u] |= 1 << e
        at[v] |= 1 << e
    return tuple((at[u] | at[v]) ^ (1 << e) for e, (u, v) in enumerate(edges))


def line_graph(g: Graph) -> Graph:
    """Graph on the edges of ``g``, adjacent iff the edges share an endpoint."""
    m = g.edge_count
    if m > MAX_VERTICES:
        raise GraphError(f"line graph needs {m} vertices, exceeding {MAX_VERTICES}")
    if m == 0:
        raise GraphError("line graph of an edgeless graph is empty")
    return Graph(m, line_rows(g.adj))


def graph_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise GraphError("union exceeds vertex cap")
    adj = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(n, tuple(adj))


def graph_join(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise GraphError("join exceeds vertex cap")
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << g2.n) - 1) << g1.n
    adj = [row | mask2 for row in g1.adj]
    adj += [(row << g1.n) | mask1 for row in g2.adj]
    return Graph(n, tuple(adj))


def graph_join_union(g1: Graph, g2: Graph, kind: str) -> Graph:
    if kind == "join":
        return graph_join(g1, g2)
    if kind == "union":
        return graph_union(g1, g2)
    raise GraphError(f"unknown kind {kind!r}")


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Vertex masks of the connected components, of the subgraph induced on
    the vertex mask ``within`` when given."""
    remaining = (1 << g.n) - 1 if within is None else within
    comps = []
    while remaining:
        seen = frontier = remaining & -remaining
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= g.adj[b.bit_length() - 1]
                m ^= b
            frontier = nxt & remaining & ~seen
            seen |= frontier
        comps.append(seen)
        remaining &= ~seen
    return comps


def adj_from_edge_mask(n: int, mask: int, slots: Sequence[tuple[int, int]]) -> tuple:
    """Adjacency rows only; symmetric by construction, skips validation."""
    adj = [0] * n
    m = mask
    while m:
        b = m & -m
        i, j = slots[b.bit_length() - 1]
        m ^= b
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def graph_from_edge_mask(n: int, mask: int, slots: Sequence[tuple[int, int]]) -> Graph:
    return Graph(n, adj_from_edge_mask(n, mask, slots))


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


# ---------------------------------------------------------------------------
# isomorphism classes


def relabel(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the same graph with vertex ``order[i]`` renamed ``i``."""
    pos = [0] * len(adj)
    for i, v in enumerate(order):
        pos[v] = i
    out = []
    for v in order:
        row = 0
        m = adj[v]
        while m:
            b = m & -m
            row |= 1 << pos[b.bit_length() - 1]
            m ^= b
        out.append(row)
    return tuple(out)


def _equitable(adj: Sequence[int], cells: list) -> list:
    """Coarsest equitable refinement of an ordered partition.

    Each cell splits in place into groups of equal neighbour counts into every
    cell, ordered by those counts, so the result depends on the graph and the
    ordered cells only, never on the vertex names.
    """
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict = {}
            for v in cell:
                row = adj[v]
                groups.setdefault(tuple([(row & m).bit_count() for m in masks]), []).append(v)
            out.extend(groups[key] for key in sorted(groups))
        if len(out) == len(cells):
            return cells
        cells = out


def canonical_form(adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(canonical adjacency rows, |Aut G|) by individualization-refinement.

    The search tree refines the unit partition to an equitable one and
    branches on every vertex of the first non-singleton cell, moved in front
    of its cell, until the partition is discrete.  Each leaf orders the
    vertices; the canonical rows are the largest relabelling over all leaves.
    Isomorphic graphs have the same tree up to renaming, so the same rows.
    The leaves reaching the largest rows are one orbit of Aut G, on which it
    acts freely, so they number |Aut G|.  (McKay and Piperno, "Practical
    graph isomorphism II", J. Symb. Comput. 60, 2014, without pruning.)
    Without pruning the tree has at least |Aut G| leaves, n! for the empty
    graph, so this serves the census sizes, not large graphs.
    """
    best, count = None, 0
    stack = [_equitable(adj, [list(range(len(adj)))])]
    while stack:
        cells = stack.pop()
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            rows = relabel(adj, [cell[0] for cell in cells])
            if best is None or rows > best:
                best, count = rows, 1
            elif rows == best:
                count += 1
            continue
        cell = cells[target]
        for v in cell:
            split = [[v], [u for u in cell if u != v]]
            stack.append(_equitable(adj, cells[:target] + split + cells[target + 1:]))
    return best, count


@cache
def graph_classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every graph on n vertices up to isomorphism, as (canonical rows, weight).

    The weight n!/|Aut G| is the number of labelled graphs in the class, so
    the weights sum to 2^C(n,2).  Classes on n vertices come from those on
    n - 1 by a new vertex with every neighbourhood S; only candidates with
    |S| at most every degree are kept, since deleting a vertex of minimum
    degree leads back from every class.  Sorted by canonical rows.
    """
    if n < 1:
        raise ValueError("graph classes need n >= 1")
    if n == 1:
        return (((0,), 1),)
    found: dict = {}
    top = 1 << (n - 1)
    for small, _ in graph_classes(n - 1):
        degrees = [row.bit_count() for row in small]
        for s in range(top):
            size = s.bit_count()
            if any(size > d + (s >> v & 1) for v, d in enumerate(degrees)):
                continue
            adj = tuple(row | (s >> v & 1) * top for v, row in enumerate(small)) + (s,)
            rows, aut = canonical_form(adj)
            found.setdefault(rows, aut)
    labellings = math.factorial(n)
    return tuple((rows, labellings // aut) for rows, aut in sorted(found.items()))
