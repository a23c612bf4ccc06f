"""Weighted dependence polynomials, matrix realization, local-lemma checks."""

import random
from fractions import Fraction as F

import pytest

from oracles import iter_all_graphs, weighted_clique_sum
from pcpoly.cliquepoly import beta, pc_polynomial
from pcpoly.exactpoly import DominantRoot
from pcpoly.graphs import (
    complement,
    edge_list,
    edge_slots,
    graph_from_edge_mask,
    graph_join_union,
    parse_graph,
)
from pcpoly.weighted import (
    WeightedGraph,
    lll_check,
    lll_threshold,
    matrix_to_weighted_graph,
    mcmullen_growth,
    weighted_dependence,
)


def _random_graph(rng, n):
    slots = edge_slots(n)
    return graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)


def test_weighted_dependence_reduces_to_plain():
    rng = random.Random(1)
    from pcpoly.cliquepoly import clique_type_polynomial
    from pcpoly.exactpoly import to_fraction_poly

    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 6))
        dep = weighted_dependence(WeightedGraph.uniform(g))
        assert dep.L == 1
        assert dep.poly == to_fraction_poly(clique_type_polynomial(g, "dependence"))


def test_weighted_dependence_examples():
    g1 = parse_graph("Kbar1", "named")
    dep = weighted_dependence(WeightedGraph(g1, (F(1),), (F(2),)))
    assert dep.L == 1 and dep.poly == (F(1), F(0), F(-1))  # 1 - x^2
    k2k2 = graph_join_union(parse_graph("K2", "named"), parse_graph("K2", "named"), "union")
    dep = weighted_dependence(WeightedGraph.uniform(k2k2, 1, F(1, 2)))
    assert dep.L == 2 and dep.poly == (F(1), F(-4), F(2))  # 1 - 4 s + 2 s^2


def test_weighted_dependence_matches_networkx_clique_sum():
    pytest.importorskip("networkx")
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n)
        alpha = tuple(F(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(n))
        d = tuple(F(rng.randint(1, 6), rng.choice((1, 1, 2, 3))) for _ in range(n))
        dep = weighted_dependence(WeightedGraph(g, alpha, d))
        assert (dep.L, dep.poly) == weighted_clique_sum(n, edge_list(g.adj), alpha, d)


def test_mcmullen_examples():
    k2k2 = graph_join_union(parse_graph("K2", "named"), parse_graph("K2", "named"), "union")
    lam = mcmullen_growth(WeightedGraph.uniform(k2k2, 1, F(1, 2)))
    target = 6 + 4 * 2**0.5
    assert abs(float(lam.midpoint) - target) < 1e-10
    for n in (2, 3):
        g = graph_join_union(parse_graph(f"K{n}", "named"), parse_graph("Kbar1", "named"), "union")
        gw = WeightedGraph(g, (F(1),) * (n + 1), tuple([F(1, n)] * n + [F(1)]))
        lam = mcmullen_growth(gw)
        assert lam.lo <= 2**n <= lam.hi
    c5 = parse_graph("C5", "named")
    lam = mcmullen_growth(WeightedGraph.uniform(c5))
    b = beta(c5)
    assert lam.lo <= b.hi and b.lo <= lam.hi


def test_matrix_correspondence_basics():
    gw = matrix_to_weighted_graph([[1]])
    assert gw.graph.n == 1 and gw.alpha == (F(1),) and gw.d == (F(1),)
    gw = matrix_to_weighted_graph([[0, 1], [1, 0]])
    assert gw.graph.n == 1 and gw.d == (F(2),)
    with pytest.raises(ValueError):
        matrix_to_weighted_graph([[0] * 9] * 9)
    with pytest.raises(ValueError):
        matrix_to_weighted_graph([[-1]])


def test_matrix_correspondence_random():
    rng = random.Random(10)
    for _ in range(50):
        m = rng.randint(1, 4)
        mat = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        matrix_to_weighted_graph(mat)  # identity asserted inside


def test_matrix_realization_past_64_cycles():
    # the cycle graph is built as rows, not by from_edges, which refuses more
    # than 64 vertices: the all-ones matrices of order 5 and 6 have 89 and 415
    # simple cycles
    for m, cycles in ((5, 89), (6, 415)):
        gw = matrix_to_weighted_graph([[1] * m] * m)  # identity asserted inside
        assert gw.graph.n == cycles


def test_weighted_dominance_lemma():
    # coprime integer exponents + connected complement: the smallest-modulus
    # root of the weighted sum is the unique root at that modulus
    import math

    import numpy as np

    from pcpoly.graphs import connected_components

    rng = random.Random(3)
    done = 0
    while done < 25:
        g = _random_graph(rng, rng.randint(2, 6))
        if len(connected_components(complement(g))) != 1:
            continue
        d = tuple(F(rng.choice((1, 1, 2, 3))) for _ in range(g.n))
        if math.gcd(*(int(x) for x in d)) != 1:
            continue
        gw = WeightedGraph(g, (F(1),) * g.n, d)
        dep = weighted_dependence(gw)
        roots = np.roots([float(c) for c in reversed(dep.poly)])
        moduli = sorted(abs(r) for r in roots)
        smallest = min(roots, key=abs)
        assert abs(smallest.imag) < 1e-9 and smallest.real > 0
        if len(moduli) > 1:
            assert moduli[1] > moduli[0] * (1 + 1e-9)
        done += 1


def test_lll_threshold_examples():
    assert lll_threshold(parse_graph("Kbar4", "named")).lo == 1
    enc = lll_threshold(parse_graph("K4", "named"))
    assert enc.lo == enc.hi == F(1, 4)
    enc = lll_threshold(parse_graph("C5", "named"))
    b = beta(complement(parse_graph("C5", "named")))
    assert enc.lo <= 1 / b.lo and 1 / b.hi <= enc.hi


@pytest.mark.parametrize("width", [F(1, 10**12), F(1), F(2), F(3), F(100)], ids=str)
def test_lll_threshold_is_a_true_enclosure_within_width(width):
    # 1/beta of the complement: never inverted, never wider than asked
    for name in ("K1", "Kbar4", "K4", "P4", "C5", "star4", "K3,3", "K1,2,3", "thr0101"):
        g = parse_graph(name, "named")
        enc = lll_threshold(g, width)
        assert enc.lo <= enc.hi and enc.hi - enc.lo <= width, name
        assert DominantRoot(pc_polynomial(complement(g))).within(1 / enc.hi, 1 / enc.lo), name


def test_lll_check_examples():
    res = lll_check(parse_graph("Kbar3", "named"), [0, 0, 0])
    assert res.feasible and res.bound == 1
    # two dependent events at probability 1/2: boundary witness at t = 1
    res = lll_check(parse_graph("K2", "named"), [F(1, 2), F(1, 2)])
    assert not res.feasible
    assert res.witness_lo == res.witness_hi == 1
    res = lll_check(parse_graph("K3", "named"), [F(1, 10)] * 3)
    assert res.feasible and res.bound == F(7, 10)


def test_lll_flip_across_threshold():
    rng = random.Random(9)
    flips = 0
    while flips < 50:
        n = rng.randint(2, 7)
        g = _random_graph(rng, n)
        if g.edge_count == 0:
            continue  # threshold 1; no room above
        enc = lll_threshold(g, F(1, 10**12))
        below = enc.lo * (1 - F(1, 10**6))
        above = enc.hi * (1 + F(1, 10**6))
        if above >= 1:
            continue
        res_lo = lll_check(g, [below] * n)
        res_hi = lll_check(g, [above] * n)
        assert res_lo.feasible
        assert not res_hi.feasible
        flips += 1


def test_shearer_bound_small():
    # threshold >= (d-1)^(d-1)/d^d for dependency max degree d >= 2
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            d = g.max_degree()
            if d < 2:
                continue
            enc = lll_threshold(g, F(1, 10**12))
            bound = F((d - 1) ** (d - 1), d**d)
            assert enc.hi >= bound


@pytest.mark.slow
def test_corollary_11_4_desk_scale():
    # observational n=60 regimes; sampled in the dense upper range where the
    # complement clique census stays tractable
    rng = random.Random(60)
    n = 60
    for bound_k, prob in ((int(0.24326 * n * n), F(4, 3 * n)), (n * n // 4, F("1.3316") / n)):
        for _ in range(15):
            k = rng.randint(int(0.2 * n * n), bound_k)
            g = _random_gnk(rng, n, k)
            enc = lll_threshold(g, F(1, 10**9))
            assert enc.hi >= prob, (k, float(enc.midpoint), float(prob))


def _random_gnk(rng, n, k):
    from pcpoly.graphs import from_edges

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return from_edges(n, pairs[:k])
