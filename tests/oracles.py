"""Independent generators and censuses used as test oracles, and the checks
of the paper's claims that only the tests run."""

import math
from collections import Counter, deque
from fractions import Fraction as F
from itertools import combinations, product

from pcpoly.exactpoly import (
    AlgebraicReal,
    _div_exact_int,
    clear_denominators,
    eval_at,
    primitive,
    scale,
    squarefree_decomposition,
    trim,
)
from pcpoly.graphs import bits, edge_slots, graph_from_edge_mask
from pcpoly.matching import clique_partition_counts, hat_identity_holds, hat_rows
from pcpoly.monoid import word_weight
from pcpoly.randomgraph import f_n_polynomial, ladder_limit_roots
from pcpoly.transforms import kelmans


def pad_zip(a, b):
    m = max(len(a), len(b))
    return zip(tuple(a) + (0,) * (m - len(a)), tuple(b) + (0,) * (m - len(b)))


def hermite_prob(n):
    """Probabilists' Hermite polynomial, ascending integer coefficients."""
    polys = [(1,), (0, 1)]
    for k in range(1, n):
        x_times = (0,) + polys[k]
        polys.append(trim(tuple(a - b for a, b in pad_zip(x_times, scale(polys[k - 1], k)))))
    return polys[n] if n >= 1 else polys[0]


def chebyshev_2tn_half(n):
    """2 T_n(x/2), ascending integer coefficients."""
    a, b = (2,), (0, 1)
    for _ in range(n - 1):
        a, b = b, trim(tuple(x - y for x, y in pad_zip((0,) + tuple(b), a)))
    return b if n >= 1 else a


def laguerre_scaled(n):
    """n! L_n(y), ascending integer coefficients in y."""
    a, b = (F(1),), (F(1), F(-1))
    if n == 0:
        lag = a
    else:
        for k in range(1, n):
            term = tuple(x - y for x, y in pad_zip(scale(b, F(2 * k + 1)), (0,) + tuple(b)))
            nxt = tuple((x - y) / (k + 1) for x, y in pad_zip(term, scale(a, F(k))))
            a, b = b, trim(nxt)
        lag = b
    return trim(tuple(int(c * math.factorial(n)) for c in lag))


def nonreal_census(n):
    """(graphs, polys with a non-real root, sum of omega, non-real roots) for n.

    Runs over all labelled graphs on n vertices with networkx clique
    enumeration and sympy's exact real_roots, no pcpoly code.  The recurrence
    polynomial of clique counts c_0..c_w is sum_k (-1)^k c_k x^(w-k); non-real
    roots are counted with multiplicity, once per distinct clique profile.
    """
    import networkx as nx
    import sympy

    x = sympy.Symbol("x")
    slots = list(combinations(range(n), 2))
    profiles = Counter()
    for mask in range(1 << len(slots)):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(e for i, e in enumerate(slots) if mask >> i & 1)
        sizes = Counter(len(c) for c in nx.enumerate_all_cliques(g))
        profiles[(1,) + tuple(sizes[k] for k in range(1, max(sizes) + 1))] += 1
    polys = roots_total = roots_nonreal = 0
    for counts, graphs in profiles.items():
        w = len(counts) - 1
        pc = sympy.Poly(sum((-1) ** k * c * x ** (w - k) for k, c in enumerate(counts)), x)
        nonreal = w - len(sympy.real_roots(pc))
        roots_total += graphs * w
        roots_nonreal += graphs * nonreal
        polys += graphs if nonreal else 0
    return 1 << len(slots), polys, roots_total, roots_nonreal


def matching_counts_recursive(n, edges):
    """m_0..m_nu from edge pairs, no pcpoly code.

    The highest remaining vertex stays unmatched or is matched to a remaining
    neighbour; each remaining vertex set is solved once.
    """
    nb = [set() for _ in range(n)]
    for i, j in edges:
        nb[i].add(j)
        nb[j].add(i)
    memo = {frozenset(): (1,)}

    def solve(free):
        if free in memo:
            return memo[free]
        v = max(free)
        rest = free - {v}
        acc = list(solve(rest)) + [0]
        for u in nb[v] & rest:
            for k, c in enumerate(solve(rest - {u})):
                acc[k + 1] += c
        while acc[-1] == 0:
            acc.pop()
        memo[free] = tuple(acc)
        return memo[free]

    return list(solve(frozenset(range(n))))


def weighted_clique_sum(n, edges, alpha, d):
    """(L, ascending Fractions in s = x^(1/L)) of sum over cliques C of prod_{v in C} -alpha_v x^(d_v).

    Cliques come from networkx clique enumeration, the empty clique adds 1,
    and L is the common denominator of the exponents; no pcpoly code.
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    L = math.lcm(*(F(w).denominator for w in d))
    terms = Counter({0: F(1)})
    for clique in nx.enumerate_all_cliques(g):
        exponent = sum(int(d[v] * L) for v in clique)
        terms[exponent] += math.prod((-F(alpha[v]) for v in clique), start=F(1))
    coeffs = [terms[e] for e in range(max(terms) + 1)]
    while coeffs[-1] == 0:
        coeffs.pop()
    return L, tuple(coeffs)


def trace_class(word, commute):
    """Every word reachable from ``word`` by swapping adjacent letters a != b
    with ``commute(a, b)``, by breadth-first search; no pcpoly code."""
    start = tuple(word)
    seen = {start}
    todo = deque([start])
    while todo:
        w = todo.popleft()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and commute(a, b):
                v = w[:i] + (b, a) + w[i + 2:]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


def iter_all_graphs(n):
    """All labelled graphs on n vertices, ordered by edge-slot bitmask."""
    slots = edge_slots(n)
    for mask in range(1 << len(slots)):
        yield graph_from_edge_mask(n, mask, slots)


def is_claw_free(g):
    """No induced star on three leaves."""
    for v in range(g.n):
        nb = bits(g.adj[v])
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if g.has_edge(nb[i], nb[j]):
                    continue
                for k in range(j + 1, len(nb)):
                    if not g.has_edge(nb[i], nb[k]) and not g.has_edge(nb[j], nb[k]):
                        return False
    return True


def hat_rows_by_definition(adj):
    """Rows of the edge-conflict graph, edges (u, v) with u < v in sorted order.

    Two edges clash iff they share an endpoint, unless they share their
    smaller endpoint and their upper ends are adjacent; no pcpoly code.
    """
    n = len(adj)
    edges = sorted((u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1)
    rows = []
    for e in edges:
        row = 0
        for b, f in enumerate(edges):
            exempt = e[0] == f[0] and adj[e[1]] >> f[1] & 1
            if e != f and set(e) & set(f) and not exempt:
                row |= 1 << b
        rows.append(row)
    return tuple(rows)


def f_n_divisible_by(n, divisor):
    """Exact divisibility test of f_n by the given integer polynomial.

    By Gauss's lemma a primitive divisor of the integer f_n over Q divides it
    in Z[x], so exact integer division decides it.
    """
    try:
        _div_exact_int(f_n_polynomial(n), primitive(trim(divisor)))
        return True
    except ArithmeticError:
        return False


def ladder_curve_csv(r, t, grid):
    """CSV rows p,value for the r-th limiting scaled root on a probability grid."""
    lines = ["p,beta_over_n"]
    for p in grid:
        p = F(p)
        enc = ladder_limit_roots(r, p, t)
        lines.append(f"{p},{float(enc.midpoint):.12f}")
    return "\n".join(lines) + "\n"


def from_enclosure(p, enc):
    """The root of ``p`` that ``enc`` (from pcpoly's isolation) encloses, as an AlgebraicReal.

    The defining polynomial is the squarefree factor of multiplicity
    ``enc.multiplicity``: the enclosure isolates one root of that factor,
    while a root of another factor may lie inside it.
    """
    for mult, factor in squarefree_decomposition(clear_denominators(p)):
        if mult == enc.multiplicity:
            return AlgebraicReal(factor, enc.lo, enc.hi)
    raise ValueError(f"no root of multiplicity {enc.multiplicity}")


def eval_at_surd(p, s):
    """Evaluate a polynomial at a quadratic surd, exactly, as (u, v) = u + v*sqrt(b)."""
    if s.is_rational():
        return eval_at(p, s.as_fraction()), F(0)
    x_u = s.a / s.c
    x_v = F(s.sgn, 1) / s.c
    u, v = F(0), F(0)
    for c in reversed(p):
        u, v = u * x_u + v * x_v * s.b + c, u * x_v + v * x_u
    return u, v


def adjoint_identity_holds(g):
    """:func:`hat_identity_holds` for a ``Graph``."""
    return hat_identity_holds(g.adj, clique_partition_counts(g.adj), hat_rows(g.adj))


def expected_normal_count(n, t, p):
    """Sum of word weights over all words of length t on n letters.

    Brute-force oracle for the random-graph recurrence; only sensible for
    tiny n and t.
    """
    p = F(p)
    total = F(0)
    for word in product(range(n), repeat=t):
        total += word_weight(word, p)
    return total


def replay_steps(g, steps):
    for u, v in steps:
        g = kelmans(g, u, v)
    return g
