"""Weighted dependence polynomials, matrix realizations, and local-lemma checks.

Vertex v carries a weight alpha_v * x^(d_v) with positive rationals alpha_v,
d_v; fractional exponents are handled by substituting s = x^(1/L) for the
common denominator L, never by transcendental evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from . import _Record
from .cliquepoly import beta, char_poly, packed_clique_sum, unpack_limbs
from .exactpoly import (
    DEFAULT_WIDTH,
    RootEnclosure,
    clear_denominators,
    eval_at,
    isolate_real_roots,
    real_root_count,
    trim,
)
from .graphs import Graph, complement, induced_subgraph


class WeightedGraph(_Record):
    graph: Graph
    alpha: tuple  # positive Fractions per vertex
    d: tuple  # positive Fractions per vertex

    def __post_init__(self):
        if len(self.alpha) != self.graph.n or len(self.d) != self.graph.n:
            raise ValueError("weight vectors must match the vertex count")
        if any(a <= 0 for a in self.alpha) or any(w <= 0 for w in self.d):
            raise ValueError("weights must be positive")

    @staticmethod
    def uniform(graph: Graph, alpha=1, d=1) -> "WeightedGraph":
        a = Fraction(alpha)
        w = Fraction(d)
        return WeightedGraph(graph, (a,) * graph.n, (w,) * graph.n)


class FractionalPoly(_Record):
    """Polynomial in s = x^(1/L); substituting x = s^L recovers the weighted sum."""

    L: int
    poly: tuple  # ascending Fractions in s


def weighted_dependence(gw: WeightedGraph) -> FractionalPoly:
    """Alternating clique sum with weights, as a polynomial in s = x^(1/L).

    Runs the clique recursion of :func:`cliquepoly.packed_clique_sum` with
    vertex term -alpha_v s^(e_v), e_v = L d_v.  With D the common denominator
    of the alphas, substituting s = D u makes every term the integer monomial
    -(D alpha_v) D^(e_v - 1) u^(e_v), so the sum is packed like the clique
    counts; the coefficient of s^E is that of u^E divided by D^E.  Raises
    ValueError past CLIQUE_MEMO_LIMIT subproblems.
    """
    n = gw.graph.n
    L = math.lcm(*(w.denominator for w in gw.d))
    D = math.lcm(*(a.denominator for a in gw.alpha))
    exps = [int(w * L) for w in gw.d]
    weights = [int(a * D) * D ** (e - 1) for a, e in zip(gw.alpha, exps)]
    # |coefficient of u^E| <= sum over all vertex sets of their weight products
    shift = math.prod(1 + w for w in weights).bit_length() + 1
    terms = [-w << (e * shift) for w, e in zip(weights, exps)]
    packed = packed_clique_sum((1 << n) - 1, gw.graph.adj, terms, {0: 1})
    coeffs = unpack_limbs(packed, shift)
    return FractionalPoly(L, trim(Fraction(c, D**e) for e, c in enumerate(coeffs)))


def matrix_to_weighted_graph(matrix: Sequence[Sequence[Fraction]]) -> WeightedGraph:
    """Vertices are the simple directed cycles of the matrix digraph.

    Two cycles commute iff vertex-disjoint; each carries the product of its
    entries and its length.  The weighted alternating clique sum then equals
    det(I - x M), which is verified exactly before returning.
    """
    m = len(matrix)
    if m > 8:
        raise ValueError("cycle enumeration capped at order 8")
    rows = [[Fraction(x) for x in row] for row in matrix]
    if any(len(r) != m for r in rows):
        raise ValueError("matrix must be square")
    if any(x < 0 for r in rows for x in r):
        raise ValueError("matrix entries must be nonnegative")
    cycles = []  # (vertex mask, length, weight)
    for start in range(m):
        stack = [(start, start, 1 << start, Fraction(1))]
        while stack:
            s, cur, mask, weight = stack.pop()
            for nxt in range(s, m):
                w = rows[cur][nxt]
                if w == 0:
                    continue
                if nxt == s:
                    cycles.append((mask, mask.bit_count(), weight * w))
                elif not mask >> nxt & 1:
                    stack.append((s, nxt, mask | (1 << nxt), weight * w))
    k = len(cycles)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            if not cycles[i][0] & cycles[j][0]:
                edges.append((i, j))
    if k == 0:
        graph = Graph(1, (0,))
        gw = WeightedGraph(graph, (Fraction(1),), (Fraction(1),))
        dep = FractionalPoly(1, (Fraction(1),))
    else:
        adj = [0] * k
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        graph = Graph(k, tuple(adj))
        gw = WeightedGraph(
            graph,
            tuple(Fraction(c[2]) for c in cycles),
            tuple(Fraction(c[1]) for c in cycles),
        )
        dep = weighted_dependence(gw)
    det = _det_identity_minus_x(rows)
    lhs = dep.poly if k else (Fraction(1),)
    assert trim(lhs) == trim(det), "weighted sum must reproduce det(I - xM)"
    return gw


def _det_identity_minus_x(rows) -> tuple:
    """det(I - x M) from the characteristic polynomial of the integer matrix D M.

    With D the common denominator of M's entries and chi = det(yI - DM) of
    degree m, det(I - x M) = (x/D)^m chi(D/x) = sum_k chi[m - k] (x/D)^k.
    """
    m = len(rows)
    D = math.lcm(*(x.denominator for row in rows for x in row))
    chi = char_poly([[int(x * D) for x in row] for row in rows])
    return trim(Fraction(chi[m - k], D**k) for k in range(m + 1))


def mcmullen_growth(gw: WeightedGraph, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Growth rate: reciprocal of the smallest positive root of the weighted sum.

    Works on the s = x^(1/L) scale and raises the enclosure back via x = s^L.
    """
    dep = weighted_dependence(gw)
    s_width = Fraction(1, 10**6)
    while True:
        # the constant term is 1, so 0 is never a root and signs decide
        roots = [e for e in isolate_real_roots(dep.poly, s_width) if e.hi > 0]
        if any(e.lo <= 0 for e in roots):
            s_width /= 2**8
            continue
        if not roots:
            raise ArithmeticError("weighted sum has no positive root")
        smallest = roots[0]
        # x = s^L is monotone on s > 0
        lo_x = smallest.lo**dep.L
        hi_x = smallest.hi**dep.L
        lam_lo = 1 / hi_x
        lam_hi = 1 / lo_x
        if lam_hi - lam_lo <= width:
            return RootEnclosure(lam_lo, lam_hi, smallest.multiplicity)
        s_width /= 2**8


def lll_threshold(g: Graph, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Exact uniform-probability threshold of the dependency graph: 1/beta of
    the complement."""
    s_width = width / 4
    while True:
        enc = beta(complement(g), s_width)
        lo = 1 / enc.hi
        hi = 1 / enc.lo
        if hi - lo <= width:
            return RootEnclosure(lo, hi, enc.multiplicity)
        s_width /= 2**4


class LLLResult(_Record):
    feasible: bool
    bound: Fraction | None = None  # P(no event) lower bound when feasible
    witness_lo: Fraction | None = None
    witness_hi: Fraction | None = None


def lll_check(g: Graph, probs) -> LLLResult:
    """Certified local-lemma check for per-event probabilities.

    Builds the weighted independent-set sum of the dependency graph (weights
    p_i, unit exponents, complement convention) and certifies positivity on
    [0, 1] by root isolation.  A root at t = 1 is reported as a witness.
    """
    probs = [Fraction(p) for p in probs]
    if len(probs) != g.n:
        raise ValueError("one probability per vertex required")
    if any(p < 0 or p >= 1 for p in probs):
        raise ValueError("probabilities must lie in [0, 1)")
    keep = [v for v in range(g.n) if probs[v] > 0]
    if not keep:
        return LLLResult(True, Fraction(1))
    comp_sub = induced_subgraph(complement(g), keep)  # complement graph on surviving events
    gw = WeightedGraph(
        comp_sub,
        tuple(probs[v] for v in keep),
        (Fraction(1),) * len(keep),
    )
    iw = weighted_dependence(gw)  # polynomial in t (L = 1)
    ipoly = clear_denominators(iw.poly)
    # I_w(0) = 1, so positivity on [0, 1] fails iff a root lands in (0, 1]
    if real_root_count(ipoly, (Fraction(0), Fraction(1))) == 0:
        bound = eval_at(iw.poly, Fraction(1))
        assert bound > 0
        return LLLResult(True, bound)
    roots = [
        e
        for e in isolate_real_roots(ipoly, Fraction(1, 10**15))
        if e.hi > 0 and e.lo <= 1
    ]
    w = roots[0]
    return LLLResult(False, None, max(w.lo, Fraction(0)), min(w.hi, Fraction(1)))
