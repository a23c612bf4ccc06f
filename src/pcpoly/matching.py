"""Matching and adjoint polynomials with their structural cross-checks.

The matching-generating polynomial is computed by subset dynamic programming
and cross-checked against the independence polynomial of the line graph; the
adjoint polynomial counts partitions of the vertex set into cliques and is
checked exactly against the independence polynomial of the derived
edge-conflict graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cliquepoly import clique_counts, independence_polynomial, pc_poly_from_counts
from .exactpoly import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    RootEnclosure,
    dominant_real_root,
    trim,
)
from .graphs import Graph, complement_adj, edge_list, line_graph


@dataclass(frozen=True)
class MatchingPair:
    """Signed matching polynomial mu (degree n) and generating polynomial M."""

    mu: tuple  # ascending integer coefficients, degree n
    generating: tuple  # m_0, m_1, ..., m_nu


MATCHING_MAX_VERTICES = 19  # the 2^n subset table; DECISIONS.md D5


def _limb_bits(n: int) -> int:
    """Bit length of the telephone number T(n), the number of matchings of K_n.

    Every matching count of an n-vertex graph is at most T(n), so limbs this
    wide never carry.
    """
    prev, cur = 1, 1  # T(0), T(1)
    for k in range(1, n):
        prev, cur = cur, cur + k * prev
    return cur.bit_length()


def matching_counts_from_adj(adj, n: int) -> list[int]:
    """Matchings by size via subset DP, coefficients packed into one integer.

    f[mask] encodes the generating polynomial of the induced subgraph with
    the size-k count in limb k; adding a matched edge is a single shift.
    Raises ValueError above MATCHING_MAX_VERTICES vertices.
    """
    if n > MATCHING_MAX_VERTICES:
        raise ValueError(
            f"matching counts need a 2^n table; capped at {MATCHING_MAX_VERTICES} vertices"
        )
    size = 1 << n
    f = [0] * size
    f[0] = 1
    shift = _limb_bits(n)
    for mask in range(1, size):
        b = mask & -mask
        rest = mask ^ b
        acc = f[rest]
        m = adj[b.bit_length() - 1] & rest
        while m:
            ub = m & -m
            m ^= ub
            acc += f[rest ^ ub] << shift
        f[mask] = acc
    packed = f[size - 1]
    counts = []
    while packed:
        counts.append(packed & ((1 << shift) - 1))
        packed >>= shift
    return counts or [1]


def matching_counts(g: Graph) -> list[int]:
    """Matchings by size, exact."""
    return matching_counts_from_adj(g.adj, g.n)


def _matching_and_t(
    g: Graph, width: Fraction | None = None
) -> tuple[MatchingPair, RootEnclosure | None]:
    """(MatchingPair, enclosure of t(G) or None) with one DP and one clique count.

    The matching counts are asserted equal to the independence polynomial of
    L(G), which is the clique polynomial of co-L(G).  With a ``width``, the
    largest root t of mu is enclosed and t^2 is asserted to be the growth rate
    of co-L(G), whose recurrence polynomial comes from that same tuple.
    """
    counts = tuple(matching_counts(g))
    n = g.n
    mu = [0] * (n + 1)
    for k, c in enumerate(counts):
        mu[n - 2 * k] = (-1) ** k * c
    pair = MatchingPair(trim(mu), counts)
    if not g.edge_count:
        return pair, None
    line_ind = independence_polynomial(line_graph(g))
    assert counts == line_ind, "matching counts must match L(G) independence"
    if width is None:
        return pair, None
    enc = dominant_real_root(pair.mu, width)
    lo2, hi2 = sorted((enc.lo * enc.lo, enc.hi * enc.hi))
    pc = pc_poly_from_counts(line_ind)
    target = AlgebraicReal.dominant_root(pc, Fraction(1, 2**24))
    assert target.compare_fraction(lo2) >= 0 and target.compare_fraction(hi2) <= 0, (
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


def t_squared_algebraic(g: Graph) -> AlgebraicReal:
    """t(G)^2 exactly, the largest root of the recurrence polynomial of the matching counts.

    That polynomial g has mu(x) = x^sigma g(x^2); it is the recurrence
    polynomial of co-L(G), so t^2 is the growth rate of co-L(G).  An
    edgeless graph has mu = x^n and t = 0.
    """
    if g.edge_count == 0:
        return AlgebraicReal.from_rational(0)
    return AlgebraicReal.dominant_root(pc_poly_from_counts(matching_polynomials(g).generating))


# ---------------------------------------------------------------------------
# adjoint polynomial


PARTITION_VISIT_LIMIT = 1 << 20  # partitions per clique_partition_counts call; D5


def clique_partition_counts(adj) -> list[int]:
    """a_k = number of partitions of the vertex set into exactly k nonempty cliques.

    ``adj`` are the adjacency rows.  Visits the partitions one by one; raises
    ValueError past PARTITION_VISIT_LIMIT of them (K11 has 678 570, K12
    4 213 597).
    """
    n = len(adj)
    counts = [0] * (n + 1)
    left = PARTITION_VISIT_LIMIT

    def rec(remaining: int, used: int):
        nonlocal left
        if remaining == 0:
            counts[used] += 1
            left -= 1
            if left < 0:
                raise ValueError(
                    f"adjoint polynomial needs more than {PARTITION_VISIT_LIMIT} "
                    "clique partitions on this graph"
                )
            return
        v_bit = remaining & -remaining
        v = v_bit.bit_length() - 1
        rest = remaining ^ v_bit
        # enumerate cliques containing v inside `remaining`
        stack = [(v_bit, adj[v] & rest)]
        while stack:
            clique_mask, cand = stack.pop()
            rec(remaining & ~clique_mask, used + 1)
            m = cand
            while m:
                b = m & -m
                u = b.bit_length() - 1
                m ^= b
                if (adj[u] & clique_mask) == clique_mask:
                    stack.append((clique_mask | b, cand & adj[u] & ~((b << 1) - 1)))

    rec((1 << n) - 1, 0)
    return counts


def adjoint_polynomial(g: Graph) -> tuple:
    """Signed adjoint polynomial sum (-1)^(n-k) a_k x^k, ascending integers."""
    counts = clique_partition_counts(g.adj)
    n = g.n
    return trim((-1) ** (n - k) * counts[k] for k in range(n + 1))


def adjoint_unsigned(g: Graph) -> tuple:
    return trim(clique_partition_counts(g.adj))


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
    for j, c in enumerate(clique_counts(complement_adj(hat), len(hat))):
        lifted[n - j] = c
    return trim(partitions) == trim(lifted)


def adjoint_identity_holds(g: Graph) -> bool:
    """:func:`hat_identity_holds` for a ``Graph``."""
    return hat_identity_holds(g.adj, clique_partition_counts(g.adj), hat_rows(g.adj))


def gamma_algebraic(g: Graph) -> AlgebraicReal:
    return AlgebraicReal.dominant_root(adjoint_polynomial(g))
