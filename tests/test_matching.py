"""Matching and adjoint polynomials against classical families and identities."""

import math
import random
from fractions import Fraction as F

import pytest

from pcpoly.cliquepoly import pc_poly_from_counts
from pcpoly import matching
from pcpoly.exactpoly import (
    AlgebraicReal,
    clear_denominators,
    count_nonreal_roots,
    _taylor_shift,
    trim,
)
from pcpoly.graphs import (
    complete_multipartite,
    edge_slots,
    from_edges,
    graph_classes,
    graph_from_edge_mask,
    line_graph,
    parse_graph,
)
from pcpoly.matching import (
    adjoint_polynomial,
    MATCHING_MAX_VERTICES,
    clique_partition_counts,
    hat_graph,
    hat_rows,
    matching_counts,
    matching_counts_from_adj,
    matching_polynomials,
    t_largest,
)


from oracles import chebyshev_2tn_half as _chebyshev_2tn_half
from oracles import adjoint_identity_holds, hat_rows_by_definition, is_claw_free, iter_all_graphs
from oracles import hermite_prob as _hermite
from oracles import laguerre_scaled as _laguerre_scaled
from oracles import matching_counts_recursive as _matching_counts_recursive
from oracles import pad_zip as _pad


def test_matching_polynomial_families():
    for n in range(1, 7):
        mu = matching_polynomials(parse_graph(f"K{n}", "named")).mu
        assert mu == _hermite(n)
    for n in range(3, 7):
        mu = matching_polynomials(parse_graph(f"C{n}", "named")).mu
        assert mu == _chebyshev_2tn_half(n)
    for n in range(1, 4):
        # mu(K_{n,n}, x) = (-1)^n n! L_n(x^2)
        mu = matching_polynomials(complete_multipartite([n, n])).mu
        lag = _laguerre_scaled(n)
        lifted = [0] * (2 * n + 1)
        for j, c in enumerate(lag):
            lifted[2 * j] = (-1) ** n * c
        assert mu == trim(lifted)


def test_matching_path_recursion():
    # mu(P_n) = x mu(P_{n-1}) - mu(P_{n-2})
    mus = {1: (0, 1), 2: (-1, 0, 1)}
    for n in range(3, 8):
        prev = mus[n - 1]
        prev2 = mus[n - 2]
        mus[n] = trim(tuple(a - b for a, b in _pad((0,) + prev, prev2)))
        assert matching_polynomials(parse_graph(f"P{n}", "named")).mu == mus[n]


def test_matching_counts_examples():
    assert matching_counts(parse_graph("K4", "named")) == [1, 6, 3]
    assert matching_counts(parse_graph("C4", "named")) == [1, 4, 2]
    assert matching_counts(parse_graph("Kbar3", "named")) == [1]


def test_matching_counts_beyond_twelve_vertices_match_recursive_oracle():
    # one packed DP for every n; the limbs are as wide as T(n), the count of
    # all matchings of K_n, so dense graphs are the ones that would carry
    rng = random.Random(16)
    telephone = [1, 1]
    for k in range(1, 16):
        telephone.append(telephone[-1] + k * telephone[-2])
    for n in range(13, 17):
        complete = [(i, j) for j in range(n) for i in range(j)]
        assert sum(matching_counts(from_edges(n, complete))) == telephone[n]
        for p in (0.3, 0.6, 0.9):
            edges = [e for e in complete if rng.random() < p]
            assert matching_counts(from_edges(n, edges)) == _matching_counts_recursive(n, edges)


def _subsets_solved(adj, n):
    memo = {0: 1}
    matching._packed_matching_poly((1 << n) - 1, adj, matching._limb_bits(n), memo)
    return len(memo)


def test_matching_recursion_matches_recursive_oracle():
    rng = random.Random(12)
    for n in range(1, 13):
        slots = [(i, j) for j in range(n) for i in range(j)]
        for p in (0.2, 0.5, 0.8):
            edges = [e for e in slots if rng.random() < p]
            assert matching_counts_from_adj(from_edges(n, edges).adj, n) == (
                _matching_counts_recursive(n, edges))
    # K_n reaches F(n+2) vertex subsets, and any graph on n vertices at most that many
    fib = [0, 1]
    while len(fib) < 17:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 15):
        complete = [(i, j) for j in range(n) for i in range(j)]
        adj = from_edges(n, complete).adj
        assert matching_counts_from_adj(adj, n) == _matching_counts_recursive(n, complete)
        assert _subsets_solved(adj, n) == fib[n + 2]
        sub = from_edges(n, [e for e in complete if rng.random() < 0.6]).adj
        assert _subsets_solved(sub, n) <= fib[n + 2]


@pytest.mark.parametrize("shift", [F(1, 2**20), F(-1, 2**20)])
def test_t_squared_check_is_live(monkeypatch, shift):
    g = parse_graph("C5", "named")
    t_largest(g)
    unshifted = matching.pc_poly_from_counts

    def shifted(counts):
        # p(x - shift): every root moves by ``shift``
        return clear_denominators(_taylor_shift([F(c) for c in unshifted(counts)], -shift))

    monkeypatch.setattr(matching, "pc_poly_from_counts", shifted)
    with pytest.raises(AssertionError, match="t\\^2"):
        t_largest(g)


def test_matching_counts_fail_fast_above_cap():
    n = MATCHING_MAX_VERTICES + 1
    with pytest.raises(ValueError, match="capped at"):
        matching_counts(parse_graph(f"K{n}", "named"))


def test_line_graph_crosscheck_runs():
    rng = random.Random(15)
    slots = edge_slots(6)
    for _ in range(40):
        g = graph_from_edge_mask(6, rng.randrange(1 << len(slots)), slots)
        matching_polynomials(g)  # identity asserted internally


def test_t_largest():
    assert t_largest(parse_graph("K2", "named")).lo == 1
    enc = t_largest(parse_graph("K4", "named"))
    # largest root of x^4 - 6x^2 + 3: sqrt(3 + sqrt 6)
    assert float(enc.midpoint) == pytest.approx((3 + 6**0.5) ** 0.5, abs=1e-9)
    with pytest.raises(ValueError):
        t_largest(parse_graph("Kbar3", "named"))


def test_t_bounds_small():
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            k = g.edge_count
            if k == 0:
                continue
            generating = matching_polynomials(g).generating
            t2 = AlgebraicReal.dominant_root(pc_poly_from_counts(generating))
            delta = g.max_degree()
            assert t2.compare_fraction(F(4 * k, n) - 1) >= 0
            if delta > 1:
                assert t2.compare_fraction(F(delta)) >= 0
                assert t2.compare_fraction(F(4 * (delta - 1))) <= 0


def test_heilmann_lieb_small():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            assert count_nonreal_roots(matching_polynomials(g).mu) == 0


def test_chudnovsky_seymour_small():
    from pcpoly.cliquepoly import clique_type_polynomial

    for n in range(1, 6):
        for g in iter_all_graphs(n):
            if is_claw_free(g):
                ind = clique_type_polynomial(g, "independence")
                assert count_nonreal_roots(ind) == 0


def test_adjoint_examples():
    assert adjoint_polynomial(parse_graph("K3", "named")) == (0, 1, -3, 1)
    assert trim(clique_partition_counts(parse_graph("K3", "named").adj)) == (0, 1, 3, 1)
    for n in range(1, 6):
        kbar = parse_graph(f"Kbar{n}", "named")
        expected = [0] * (n + 1)
        expected[n] = 1
        assert trim(clique_partition_counts(kbar.adj)) == trim(expected)


def test_adjoint_identity_all_small():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            assert adjoint_identity_holds(g)


def test_hat_graph_spanning_subgraph_of_line_graph():
    rng = random.Random(44)
    slots = edge_slots(6)
    for _ in range(30):
        g = graph_from_edge_mask(6, rng.randrange(1 << len(slots)), slots)
        if g.edge_count == 0:
            continue
        hg = hat_graph(g)
        lg = line_graph(g)
        assert hg.n == lg.n
        assert all(hg.adj[i] & ~lg.adj[i] == 0 for i in range(hg.n))


def test_hat_rows_match_their_definition():
    # every labelled graph to n = 5 and every class to n = 7, edgeless ones included
    graphs = [g.adj for n in range(1, 6) for g in iter_all_graphs(n)]
    graphs += [adj for n in range(1, 8) for adj, _ in graph_classes(n)]
    for adj in graphs:
        assert hat_rows(adj) == hat_rows_by_definition(adj), adj


def test_gamma_bounded_by_t_squared():
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            if g.edge_count == 0:
                continue
            gamma = AlgebraicReal.dominant_root(adjoint_polynomial(g))
            generating = matching_polynomials(g).generating
            t2 = AlgebraicReal.dominant_root(pc_poly_from_counts(generating))
            assert gamma.compare(t2) <= 0


def test_gamma_dominates_other_roots():
    import numpy as np

    rng = random.Random(90)
    slots = edge_slots(6)
    for _ in range(40):
        g = graph_from_edge_mask(6, rng.randrange(1 << len(slots)), slots)
        if g.edge_count == 0:
            continue
        h = adjoint_polynomial(g)
        gamma = AlgebraicReal.dominant_root(adjoint_polynomial(g))
        gf = float(gamma)
        roots = np.roots([float(c) for c in reversed(h)])
        assert sum(abs(r) > gf + 1e-7 for r in roots) == 0


def test_regular_bipartite_spot_check():
    # matching counts of K_{d,d} for d <= 3: m_k = C(d,k)^2 k!
    for d in (1, 2, 3):
        counts = matching_counts(complete_multipartite([d, d]))
        assert counts == [math.comb(d, k) ** 2 * math.factorial(k) for k in range(d + 1)]
