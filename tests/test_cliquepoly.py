"""Clique profiles, clique-type polynomials, growth rates, and their identities."""

import gc
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from pcpoly.cliquepoly import (
    adjacency_char_poly,
    beta,
    beta_algebraic,
    clique_counts,
    clique_profile,
    clique_type_polynomial,
    independence_at_minus_one,
    is_complete_multipartite_equal_parts,
    occupancy_fraction,
    pc_polynomial,
    spectral_radius,
)
from pcpoly.exactpoly import (
    AlgebraicReal,
    QuadSurd,
    _taylor_shift,
    clear_denominators,
    count_nonreal_roots,
    eval_at,
    mul,
    squarefree_part,
    to_fraction_poly,
    trim,
)
from pcpoly.graphs import (
    complement,
    edge_slots,
    from_edges,
    graph_from_edge_mask,
    graph_join_union,
    induced_subgraph,
    parse_graph,
)

from oracles import is_claw_free, iter_all_graphs


def _random_graph(rng, n):
    slots = edge_slots(n)
    return graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)


def _brute_profile(g):
    counts = [0] * (g.n + 1)
    counts[0] = 1
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                counts[size] += 1
    while counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def test_profile_examples():
    assert clique_profile(parse_graph("P3", "named")).counts == (1, 3, 2)
    assert clique_profile(parse_graph("K4", "named")).counts == (1, 4, 6, 4, 1)
    petersen = from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
         (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert clique_profile(petersen).counts == _brute_profile(petersen) == (1, 10, 15)


def test_profile_matches_brute_force_random():
    rng = random.Random(100)
    for n in (4, 5, 6, 7):
        for _ in range(20):
            g = _random_graph(rng, n)
            assert clique_profile(g).counts == _brute_profile(g)


def test_clique_counts_within_equals_induced_subgraph():
    rng = random.Random(101)
    for n in range(1, 7):
        for _ in range(10):
            g = _random_graph(rng, n)
            assert clique_counts(g.adj, n, 0) == [1]
            for mask in range(1, 1 << n):
                sub = induced_subgraph(g, [v for v in range(n) if mask >> v & 1])
                assert clique_counts(g.adj, n, mask) == clique_counts(sub.adj, sub.n)


def test_clique_counts_match_networkx_enumeration():
    nx = pytest.importorskip("networkx")
    rng = random.Random(102)
    for n in range(1, 15):
        for _ in range(6):
            g = _random_graph(rng, n)
            within = rng.randrange(1 << n)
            sub = nx.Graph()
            sub.add_nodes_from(v for v in range(n) if within >> v & 1)
            sub.add_edges_from((a, b) for a, b in g.edges() if within >> a & within >> b & 1)
            sizes = Counter(len(c) for c in nx.enumerate_all_cliques(sub))
            expected = [1] + [sizes[k] for k in range(1, max(sizes, default=0) + 1)]
            assert clique_counts(g.adj, n, within) == expected


def test_clique_counts_complete_graphs_give_binomial_rows():
    start = time.perf_counter()
    for n in range(65):
        full = (1 << n) - 1
        adj = tuple(full ^ (1 << v) for v in range(n))
        assert clique_counts(adj, n) == [math.comb(n, k) for k in range(n + 1)]
    assert time.perf_counter() - start < 1.0


def test_clique_counts_leave_no_reference_cycle():
    g = _random_graph(random.Random(103), 40)
    gc.collect()
    clique_counts(g.adj, g.n)
    assert gc.collect() == 0


def test_polynomials():
    t4 = parse_graph("P4", "named")  # a tree on 4 vertices
    assert pc_polynomial(t4) == (3, -4, 1)  # (x-1)(x-3)
    assert clique_type_polynomial(parse_graph("K2", "named"), "dependence") == (1, -2, 1)
    assert pc_polynomial(parse_graph("K2,2,2", "named")) == (-8, 12, -6, 1)  # (x-2)^3
    # independence = clique of complement
    g = parse_graph("C5", "named")
    assert clique_type_polynomial(g, "independence") == clique_type_polynomial(
        complement(g), "clique"
    )


def test_pc_dependence_reversal_identity():
    rng = random.Random(3)
    for n in range(2, 9):
        g = _random_graph(rng, n)
        pc = to_fraction_poly(pc_polynomial(g))
        dep = clique_type_polynomial(g, "dependence")
        w = len(pc) - 1
        # x^w PC(1/x) must equal D(x) coefficientwise
        rev = tuple(reversed(pc))
        assert trim(rev) == to_fraction_poly(dep)


def test_beta_examples():
    assert beta(parse_graph("star4", "named")).lo == 4  # K_{1,4}
    assert beta(parse_graph("K2,3", "named")).lo == 3
    enc = beta(parse_graph("C5", "named"))
    surd = QuadSurd.make(5, 5, 2)
    alg = beta_algebraic(parse_graph("C5", "named"))
    assert alg.compare(surd.to_algebraic()) == 0
    assert enc.width <= F(1, 10**12)


def test_compare_beta_outcomes():
    def compare(a, b):
        return beta_algebraic(parse_graph(a, "named")).compare(beta_algebraic(parse_graph(b, "named")))

    assert compare("K4", "Kbar4") < 0
    assert compare("Kbar4", "C4") > 0
    # different graphs with the same growth rate: a star and a path
    assert compare("star4", "P5") == 0
    assert compare("C5", "C5") == 0


def test_beta_multiplicity():
    enc = beta(parse_graph("K4", "named"))
    assert enc.lo == enc.hi == 1 and enc.multiplicity == 4
    assert beta(parse_graph("Kbar5", "named")).lo == 5
    # Turan graph: multiplicity = number of equal parts
    enc = beta(parse_graph("K2,2,2", "named"))
    assert enc.lo == 2 and enc.multiplicity == 3


def test_occupancy():
    for n in (2, 4, 6):
        for x in (F(0), F(1, 4), F(1), F(4)):
            kbar = parse_graph(f"Kbar{n}", "named")
            assert occupancy_fraction(kbar, x) == x / (1 + x)
            kn = parse_graph(f"K{n}", "named")
            assert occupancy_fraction(kn, x) == x / (1 + n * x)
    rng = random.Random(8)
    for _ in range(10):
        assert occupancy_fraction(_random_graph(rng, 6), F(0)) == 0


def test_statement_3_8_occupancy_vs_spectral():
    # complement occupancy at the reciprocal spectral radius is at least 1/n
    rng = random.Random(9)
    graphs = list(iter_all_graphs(4)) + [_random_graph(rng, 6) for _ in range(25)]
    for g in graphs:
        if g.edge_count == 0:
            continue
        rho = spectral_radius(g, F(1, 10**15))
        x = 1 / rho.lo  # certified x >= 1/rho
        assert occupancy_fraction(complement(g), x) >= F(1, g.n)


def test_independence_at_minus_one():
    value, phi = independence_at_minus_one(parse_graph("C5", "named"))
    assert (value, phi) == (1, 1)
    value, phi = independence_at_minus_one(parse_graph("K4", "named"))
    assert (value, phi) == (-3, 2)
    rng = random.Random(4)
    for _ in range(20):  # random forests: |I(G,-1)| <= 1 and phi = 0
        n = rng.randint(1, 7)
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.8]
        g = from_edges(n, edges)
        value, phi = independence_at_minus_one(g)
        assert phi == 0 and abs(value) <= 1


def test_spectral_radius():
    for n in (2, 3, 5, 8):
        assert spectral_radius(parse_graph(f"K{n}", "named")).lo == n - 1
    assert spectral_radius(parse_graph("C4", "named")).lo == 2
    assert adjacency_char_poly(parse_graph("P3", "named")) == (0, -2, 0, 1)
    rho = AlgebraicReal.dominant_root(adjacency_char_poly(parse_graph("P3", "named")))
    assert rho.compare(QuadSurd.make(0, 2, 1).to_algebraic()) == 0
    # oracle: numpy eigenvalues on random graphs
    rng = random.Random(17)
    for _ in range(10):
        g = _random_graph(rng, 6)
        a = np.array([[1 if g.has_edge(i, j) else 0 for j in range(6)] for i in range(6)])
        lam = max(np.linalg.eigvalsh(a))
        assert abs(float(spectral_radius(g).midpoint) - lam) < 1e-8


# ---------------------------------------------------------------------------
# identity suite for the dependence polynomial


def _dep(g):
    return to_fraction_poly(clique_type_polynomial(g, "dependence"))


def _check_identities(g):
    from pcpoly.exactpoly import add, sub

    n = g.n
    dg = _dep(g)
    # (a) vertex deletion, for every vertex
    for v in range(n):
        nb = g.neighbors(v)
        left = _dep(induced_subgraph(g, [u for u in range(n) if u != v])) if n > 1 else (F(1),)
        inner = _dep(induced_subgraph(g, nb)) if nb else (F(1),)
        rhs = sub(left, tuple(F(0) if i == 0 else inner[i - 1] for i in range(len(inner) + 1)))
        assert trim(rhs) == dg
    # (b) edge deletion
    for u, v in g.edges():
        common = [w for w in g.neighbors(u) if g.has_edge(w, v)]
        inner = _dep(induced_subgraph(g, common)) if common else (F(1),)
        shifted = tuple(F(0) if i < 2 else inner[i - 2] for i in range(len(inner) + 2))
        cut = from_edges(n, [e for e in g.edges() if e != (u, v)])
        assert trim(add(_dep(cut), shifted)) == dg
    # (c) derivative
    from pcpoly.exactpoly import derivative, neg

    total = ()
    for v in range(n):
        nb = g.neighbors(v)
        inner = _dep(induced_subgraph(g, nb)) if nb else (F(1),)
        total = add(total, inner)
    assert trim(derivative(dg)) == trim(neg(total))


def test_lemma_identity_suite_small():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            _check_identities(g)


def test_lemma_identity_union_join():
    from pcpoly.exactpoly import add, sub

    rng = random.Random(12)
    for _ in range(60):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        g1, g2 = _random_graph(rng, n1), _random_graph(rng, n2)
        du = _dep(graph_join_union(g1, g2, "union"))
        assert trim(du) == trim(sub(add(_dep(g1), _dep(g2)), (F(1),)))
        dj = _dep(graph_join_union(g1, g2, "join"))
        assert trim(dj) == trim(mul(_dep(g1), _dep(g2)))


def test_lemma_identity_random_large():
    rng = random.Random(13)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(7, 10))
        _check_identities(g)


# ---------------------------------------------------------------------------
# root structure and bounds


def test_dominant_root_dominates_modulus():
    # all other roots of the squarefree recurrence polynomial have smaller modulus
    rng = random.Random(77)
    graphs = list(iter_all_graphs(4)) + [_random_graph(rng, rng.randint(5, 7)) for _ in range(60)]
    for g in graphs:
        pc = pc_polynomial(g)
        sq = squarefree_part(pc)
        b = beta(g, F(1, 10**9))
        roots = np.roots(list(map(float, reversed(sq))))
        domin = float(b.midpoint)
        others = sorted(abs(r) for r in roots)[:-1]
        for m in others:
            assert m < domin + 1e-6
        # exact comparison on real roots
        from pcpoly.exactpoly import isolate_real_roots

        for enc in isolate_real_roots(pc, F(1, 10**9))[:-1]:
            assert enc.hi < b.lo or (enc.hi <= -b.lo + F(1, 10**6))
            assert -b.hi <= enc.lo or enc.lo >= -b.hi


def test_clique_number_bounds_lemma():
    # n/omega <= beta <= n with the stated equality characterizations
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            prof = clique_profile(g)
            b = beta_algebraic(g)
            lower = F(n, prof.clique_number)
            cl = b.compare_fraction(lower)
            assert cl >= 0
            if cl == 0:
                assert n % prof.clique_number == 0
                assert is_complete_multipartite_equal_parts(g)
            cu = b.compare_fraction(F(n))
            assert cu <= 0
            if cu == 0:
                assert g.edge_count == 0


def test_monotonicity_lemmas():
    rng = random.Random(21)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(3, 7))
        b = beta_algebraic(g)
        verts = sorted(rng.sample(range(g.n), rng.randint(2, g.n)))
        h = induced_subgraph(g, verts)
        assert beta_algebraic(h).compare(b) <= 0
        if g.edge_count:
            u, v = rng.choice(g.edges())
            spanning = from_edges(g.n, [e for e in g.edges() if e != (u, v)])
            assert beta_algebraic(spanning).compare(b) >= 0


def test_theorem_3_1_clique_bound():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            w = clique_profile(g).clique_number
            cpoly = to_fraction_poly(clique_type_polynomial(g, "clique"))
            for x in (F(1, 4), F(1), F(4)):
                lhs = eval_at(cpoly, x)
                rhs = (1 + F(n) * x / w) ** w
                assert lhs <= rhs
                if lhs == rhs:
                    assert is_complete_multipartite_equal_parts(g)


def test_moon_moser_and_fisher_chain():
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            c = clique_profile(g)
            w = c.clique_number
            for s in range(2, w + 1):
                if c[s - 1] == 0:
                    continue
                lhs = F(c[s + 1])
                rhs = F(s * s, s * s - 1) * c[s] * (F(c[s], c[s - 1]) - F(n, s * s))
                assert lhs >= rhs
            for j in range(1, w):
                # (c_j / C(w,j))^(1/j) >= (c_{j+1} / C(w,j+1))^(1/(j+1))
                a = F(c[j], math.comb(w, j))
                b = F(c[j + 1], math.comb(w, j + 1))
                assert a ** (j + 1) >= b**j


def test_corollary_beta_vs_complement_spectral():
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            b = beta_algebraic(g)
            rho = AlgebraicReal.dominant_root(adjacency_char_poly(complement(g)))
            shifted = clear_denominators(_taylor_shift([F(c) for c in rho.poly], F(-1)))
            one_plus = AlgebraicReal(squarefree_part(shifted), rho.lo + 1, rho.hi + 1)
            assert b.compare(one_plus) >= 0


def test_decycling_bound_small():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            value, phi = independence_at_minus_one(g)
            assert abs(value) <= 2**phi


def test_clawfree_complement_real_rooted():
    for n in range(1, 6):
        for g in iter_all_graphs(n):
            if is_claw_free(complement(g)):
                assert count_nonreal_roots(pc_polynomial(g)) == 0


def test_mantel_census():
    for n in range(2, 7):
        best = 0
        for g in iter_all_graphs(n):
            if clique_profile(g).clique_number <= 2:
                best = max(best, g.edge_count)
        assert best == n * n // 4
