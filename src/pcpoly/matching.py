"""Matching and adjoint polynomials with their structural cross-checks.

The matching-generating polynomial is computed by a memoised vertex-deletion
recursion and cross-checked against the independence polynomial of the line
graph; the adjoint polynomial counts partitions of the vertex set into
cliques by a memoised recursion on the remaining vertex set and is checked
exactly against the independence polynomial of the derived edge-conflict
graph.  Both pack their counts into one integer like the clique counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _Record
from .cliquepoly import CLIQUE_MEMO_LIMIT, independence_counts, pc_poly_from_counts, unpack_limbs
from .exactpoly import (
    DEFAULT_WIDTH,
    DominantRoot,
    RootEnclosure,
    dominant_real_root,
    trim,
)
from .graphs import Graph, edge_list, line_rows


class MatchingPair(_Record):
    """Signed matching polynomial mu (degree n) and generating polynomial M."""

    mu: tuple  # ascending integer coefficients, degree n
    generating: tuple  # m_0, m_1, ..., m_nu


MATCHING_MAX_VERTICES = 19  # K_n, the worst case, needs F(n+2) subsets; DECISIONS.md D5


def _limb_bits(n: int) -> int:
    """One bit more than the telephone number T(n), the number of matchings of K_n.

    Every matching count of an n-vertex graph is at most T(n), so
    :func:`unpack_limbs` reads limbs this wide back exactly.
    """
    prev, cur = 1, 1  # T(0), T(1)
    for k in range(1, n):
        prev, cur = cur, cur + k * prev
    return cur.bit_length() + 1


def _packed_matching_poly(p: int, adj, shift: int, memo: dict) -> int:
    """Matching generating polynomial of the subgraph induced on ``p``, limbs packed.

    m(P) = m(P - v) + x sum_{u in N(v) & P} m(P - v - u) with v the lowest
    vertex of P; the coefficient of x^k sits in limb k, ``shift`` bits wide.
    ``memo`` holds m(0) = 1 on entry and every subproblem solved so far.
    """
    got = memo.get(p)
    if got is not None:
        return got
    b = p & -p
    rest = p ^ b
    matched = 0
    m = adj[b.bit_length() - 1] & rest
    while m:
        ub = m & -m
        m ^= ub
        matched += _packed_matching_poly(rest ^ ub, adj, shift, memo)
    val = _packed_matching_poly(rest, adj, shift, memo) + (matched << shift)
    memo[p] = val
    return val


def matching_counts_from_adj(adj, n: int) -> list[int]:
    """Matchings by size, coefficients packed into one integer.

    The lowest vertex stays unmatched or is matched to a neighbour, memoised
    on the remaining vertex set for the length of one call, so only the
    subsets this deletion order reaches are solved: at most F(n+2), the
    number K_n reaches (DECISIONS.md D5).  Raises ValueError above
    MATCHING_MAX_VERTICES vertices.
    """
    if n > MATCHING_MAX_VERTICES:
        raise ValueError(
            f"matching counts are capped at {MATCHING_MAX_VERTICES} vertices"
        )
    shift = _limb_bits(n)
    return unpack_limbs(_packed_matching_poly((1 << n) - 1, adj, shift, {0: 1}), shift)


def matching_counts(g: Graph) -> list[int]:
    """Matchings by size, exact."""
    return matching_counts_from_adj(g.adj, g.n)


def _matching_and_t(
    g: Graph, width: Fraction | None = None
) -> tuple[MatchingPair, RootEnclosure | None]:
    """(MatchingPair, enclosure of t(G) or None) with one matching and one clique count.

    The matching counts are asserted equal to the independence polynomial of
    L(G), which is the clique polynomial of co-L(G); it is counted on the
    rows of L(G) with no ``Graph`` built, so G may have more than 64 edges.
    With a ``width``, the largest root t of mu is enclosed and t^2 is
    asserted to be the growth rate of co-L(G), whose recurrence polynomial
    comes from that same tuple.
    """
    counts = tuple(matching_counts(g))
    n = g.n
    mu = [0] * (n + 1)
    for k, c in enumerate(counts):
        mu[n - 2 * k] = (-1) ** k * c
    pair = MatchingPair(trim(mu), counts)
    if not g.edge_count:
        return pair, None
    rows = line_rows(g.adj)
    line_ind = tuple(independence_counts(rows, len(rows)))
    assert counts == line_ind, "matching counts must match L(G) independence"
    if width is None:
        return pair, None
    enc = dominant_real_root(pair.mu, width)
    lo2, hi2 = sorted((enc.lo * enc.lo, enc.hi * enc.hi))
    assert DominantRoot(pc_poly_from_counts(line_ind)).within(lo2, hi2), (
        "t^2 must be the complement line-graph growth rate"
    )
    return pair, enc


def matching_polynomials(g: Graph) -> MatchingPair:
    """Both matching polynomials; the line-graph identity is asserted."""
    return _matching_and_t(g)[0]


def t_largest(g: Graph, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Largest root of the signed matching polynomial.

    Its square is the growth rate of the complement of the line graph, which
    is asserted by exact containment.
    """
    if g.edge_count == 0:
        raise ValueError("needs at least one edge")
    return _matching_and_t(g, width)[1]


# ---------------------------------------------------------------------------
# adjoint polynomial


def _packed_partition_poly(r: int, adj, shift: int, memo: dict, steps: list) -> int:
    """Clique-partition polynomial of the subgraph induced on ``r``, limbs packed.

    a(R) = x sum a(R - C) over the cliques C of R through the lowest vertex
    of R, memoised on R; the number of partitions into k cliques sits in
    limb k, ``shift`` bits wide.  ``memo`` holds a(0) = 1 on entry, and
    ``steps[0]`` counts the (subset, clique) steps left before ValueError.
    """
    got = memo.get(r)
    if got is not None:
        return got
    b = r & -r
    total = 0
    stack = [(r ^ b, adj[b.bit_length() - 1] & r)]  # (R - C, common neighbours above C)
    while stack:
        left, cand = stack.pop()
        steps[0] -= 1
        if steps[0] < 0:
            raise ValueError(f"counting clique partitions needs more than "
                             f"{CLIQUE_MEMO_LIMIT} steps on this graph")
        total += _packed_partition_poly(left, adj, shift, memo, steps)
        while cand:
            ub = cand & -cand
            cand ^= ub
            stack.append((left ^ ub, cand & adj[ub.bit_length() - 1]))
    memo[r] = val = total << shift
    return val


def clique_partition_counts(adj) -> list[int]:
    """a_k = number of partitions of the vertex set into exactly k nonempty cliques.

    ``adj`` are the adjacency rows.  The lowest vertex lies in one clique of
    the partition, and the rest is partitioned recursively, memoised on the
    remaining vertex set, so partitions are counted without being visited
    one by one.  Every a_k is at most the Bell number B_n <= n!, so limbs one
    bit wider than n! hold them.  Raises ValueError past CLIQUE_MEMO_LIMIT
    (subset, clique) steps: K14 needs 805 353, K16 about 7.2 million.
    """
    n = len(adj)
    shift = math.factorial(n).bit_length() + 1
    packed = _packed_partition_poly((1 << n) - 1, adj, shift, {0: 1}, [CLIQUE_MEMO_LIMIT])
    return unpack_limbs(packed, shift)


def adjoint_polynomial(g: Graph) -> tuple:
    """Signed adjoint polynomial sum (-1)^(n-k) a_k x^k, ascending integers."""
    counts = clique_partition_counts(g.adj)
    n = g.n
    return trim((-1) ** (n - k) * counts[k] for k in range(n + 1))


def hat_rows(adj) -> tuple[int, ...]:
    """Adjacency rows of the edge-conflict graph, on the edges in ``edge_list`` order.

    Two edges clash unless they are disjoint or share their smaller endpoint
    with adjacent upper ends.  Compatible pairs are exactly those that can
    appear together in the minimum-rooted star encoding of a partition into
    cliques, which makes the independent sets of the result count clique
    partitions.  Symmetric and loopless by construction; no rows for an
    edgeless graph.
    """
    edges = edge_list(adj)
    m = len(edges)
    if m > 64:
        raise ValueError("edge-conflict graph capped at 64 edges")
    ends = [1 << i | 1 << j for i, j in edges]
    rows = [0] * m
    for a, (i, j) in enumerate(edges):
        for b in range(a + 1, m):
            k, l = edges[b]
            if not ends[a] & ends[b]:
                continue
            if i == k and adj[j] >> l & 1:
                continue  # common smaller endpoint, adjacent upper ends
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def hat_graph(g: Graph) -> Graph:
    """The edge-conflict graph of :func:`hat_rows` as a ``Graph``."""
    rows = hat_rows(g.adj)
    if not rows:
        raise ValueError("graph has no edges")
    return Graph(len(rows), rows)


def hat_identity_holds(adj, partitions, hat) -> bool:
    """Exact check: unsigned adjoint = x^n I(hat, 1/x) coefficientwise.

    ``partitions`` and ``hat`` are ``clique_partition_counts(adj)`` and
    ``hat_rows(adj)``.  The independence polynomial of the hat graph is the
    clique polynomial of its complement.
    """
    n = len(adj)
    lifted = [0] * (n + 1)  # x^n I(1/x): x^(n - j) takes the x^j coefficient of I
    for j, c in enumerate(independence_counts(hat, len(hat))):
        lifted[n - j] = c
    return trim(partitions) == trim(lifted)
