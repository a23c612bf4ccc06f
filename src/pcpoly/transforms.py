"""Edge-rewiring transformations and threshold-graph machinery.

The Kelmans move re-homes the private neighbourhood of one vertex onto
another; iterating it reduces any graph to a threshold graph while never
decreasing clique counts or the growth rate.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _Record
from .graphs import Graph, GraphError, bits, threshold_graph


class ThresholdVector(_Record):
    """0/1 construction string: append isolated (0) or dominating (1) vertices."""

    bits: tuple[int, ...]

    def decode(self) -> Graph:
        return threshold_graph(self.bits)

    def __str__(self):
        return "".join(str(b) for b in self.bits)


def _check_pair(g: Graph, u: int, v: int) -> None:
    for w in (u, v):
        if not 0 <= w < g.n:
            raise GraphError(f"vertex {w} out of range for {g.n} vertices")
    if u == v:
        raise GraphError("kelmans needs two distinct vertices")


def kelmans(g: Graph, u: int, v: int) -> Graph:
    """Move the edges from v to N(v) \\ (N(u) + {u}) over to u."""
    _check_pair(g, u, v)
    moved = g.adj[v] & ~g.adj[u] & ~(1 << u) & ~(1 << v)
    adj = list(g.adj)
    adj[v] &= ~moved
    adj[u] |= moved
    m = moved
    while m:
        b = m & -m
        w = b.bit_length() - 1
        m ^= b
        adj[w] = (adj[w] & ~(1 << v)) | (1 << u)
    out = Graph(g.n, tuple(adj))
    assert out.edge_count == g.edge_count
    return out


def is_nontrivial_kelmans(g: Graph, u: int, v: int) -> bool:
    """True iff the move strictly increases the total clique count.

    Equivalent test: some x in N(u)\\N(v), y in N(v)\\N(u) with (x,y) an edge.
    """
    _check_pair(g, u, v)
    xs = g.adj[u] & ~g.adj[v] & ~(1 << v)
    ys = g.adj[v] & ~g.adj[u] & ~(1 << u)
    m = xs
    while m:
        b = m & -m
        x = b.bit_length() - 1
        m ^= b
        if g.adj[x] & ys:
            return True
    return False


def isolating(g: Graph, u: int, part1: Sequence[int]) -> Graph:
    """Detach the hanging vertex u inside part1 and re-add an edge there.

    part1/part2 must split V with every part2 vertex seeing all or none of
    part1; u must have exactly one part1 neighbour and part1 minus u must not
    be complete.  Edge count is preserved.
    """
    p1 = 0
    for x in part1:
        p1 |= 1 << x
    if not p1 >> u & 1:
        raise GraphError("u must belong to part1")
    full = (1 << g.n) - 1
    p2 = full & ~p1
    m = p2
    while m:
        b = m & -m
        w = b.bit_length() - 1
        m ^= b
        inter = g.adj[w] & p1
        if inter != 0 and inter != p1:
            raise GraphError(f"part2 vertex {w} sees part1 only partially")
    inside = g.adj[u] & p1
    if inside.bit_count() != 1:
        raise GraphError("u must have exactly one neighbour inside part1")
    w = inside.bit_length() - 1
    rest = p1 & ~(1 << u)
    rest_list = bits(rest)
    size = len(rest_list)
    edges_inside = sum((g.adj[x] & rest).bit_count() for x in rest_list) // 2
    if edges_inside == size * (size - 1) // 2:
        raise GraphError("part1 minus u is complete; nothing to rewire")
    # preferred target: (w, t) with t a part1 non-neighbour of w
    nonadj_w = rest & ~g.adj[w] & ~(1 << w)
    if nonadj_w:
        t = (nonadj_w & -nonadj_w).bit_length() - 1
        new_edge = (w, t)
    else:
        # w sees everything; any missing edge inside part1 \ {u} avoids w
        new_edge = None
        for i, x in enumerate(rest_list):
            for y in rest_list[i + 1:]:
                if x != w and y != w and not g.has_edge(x, y):
                    new_edge = (x, y)
                    break
            if new_edge:
                break
        if new_edge is None:
            raise GraphError("no edge slot available inside part1")
    adj = list(g.adj)
    adj[u] &= ~(1 << w)
    adj[w] &= ~(1 << u)
    a, b = new_edge
    adj[a] |= 1 << b
    adj[b] |= 1 << a
    out = Graph(g.n, tuple(adj))
    assert out.edge_count == g.edge_count
    return out


# ---------------------------------------------------------------------------
# threshold recognition (two independent characterizations)


def threshold_vector_of(g: Graph) -> ThresholdVector | None:
    """Recover the construction string by peeling dominating/isolated vertices."""
    adj = list(g.adj)
    alive = (1 << g.n) - 1
    rev = []
    while alive.bit_count() > 1:
        found = None
        m = alive
        dominating = None
        isolated = None
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            deg = (adj[v] & alive).bit_count()
            if deg == alive.bit_count() - 1:
                dominating = v
                break
            if deg == 0 and isolated is None:
                isolated = v
        if dominating is not None:
            rev.append(1)
            alive ^= 1 << dominating
        elif isolated is not None:
            rev.append(0)
            alive ^= 1 << isolated
        else:
            return None
    return ThresholdVector(tuple(reversed(rev)))


def is_threshold_by_degrees(g: Graph) -> bool:
    """Hammer-Simeone test: Erdos-Gallai holds with equality on the head."""
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    n = g.n
    s = 0
    for k in range(1, n + 1):
        if degs[k - 1] < k - 1:
            break
        s = k
    for k in range(1, s + 1):
        lhs = sum(degs[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in degs[k:])
        if lhs != rhs:
            return False
    return True


def is_threshold(g: Graph) -> bool:
    by_vector = threshold_vector_of(g) is not None
    by_degrees = is_threshold_by_degrees(g)
    assert by_vector == by_degrees, "threshold characterizations disagree"
    return by_vector


def _degree_prefix_sums(g: Graph) -> list[int]:
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    out = []
    acc = 0
    for d in degs:
        acc += d
        out.append(acc)
    return out


def reduce_to_threshold(g: Graph):
    """Kelmans moves until the graph is threshold.

    Strategy: among ordered pairs with a nonempty moved set and
    deg(u) >= deg(v), take the pair moving the most edges, ties broken
    lexicographically.  The degree-majorization prefix sums then strictly
    increase, which forces termination.
    """
    steps: list[tuple[int, int]] = []
    current = g
    while True:
        vec = threshold_vector_of(current)
        if vec is not None:
            return vec, steps
        best = None
        for u in range(current.n):
            du = current.degree(u)
            for v in range(current.n):
                if u == v:
                    continue
                if du < current.degree(v):
                    continue
                moved = current.adj[v] & ~current.adj[u] & ~(1 << u) & ~(1 << v)
                cnt = moved.bit_count()
                if cnt == 0:
                    continue
                key = (-cnt, u, v)
                if best is None or key < best[0]:
                    best = (key, u, v)
        if best is None:
            raise AssertionError("non-threshold graph with no usable Kelmans pair")
        _, u, v = best
        before = _degree_prefix_sums(current)
        current = kelmans(current, u, v)
        after = _degree_prefix_sums(current)
        assert after >= before and after != before, "majorization must strictly increase"
        steps.append((u, v))


def steps_to_json(steps) -> str:
    import json  # only here: start-up loads no json module

    return json.dumps([{"u": u, "v": v} for u, v in steps])
