"""Independent generators and censuses used as test oracles."""

import math
from collections import Counter, deque
from fractions import Fraction as F
from itertools import combinations

from pcpoly.exactpoly import scale, trim


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
