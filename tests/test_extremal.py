"""Extremal constructions, bounds, planar extremes, Nordhaus-Gaddum."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from pcpoly.cliquepoly import beta_algebraic, clique_profile, pc_polynomial
from pcpoly.exactpoly import AlgebraicReal, QuadSurd, RootEnclosure, is_root_surd
from pcpoly.extremal import (
    _assert_is_beta,
    apollonian_graph,
    apollonian_pc,
    beta_bounds,
    is_planar_small,
    max_beta_construction,
    max_beta_equality_family,
    max_beta_graph,
    min_beta_graph,
    nordhaus_gaddum,
    planar_extremes,
)
from pcpoly.graphs import (
    Graph,
    canonical_form,
    edge_slots,
    from_edges,
    graph_from_edge_mask,
    parse_graph,
)

from oracles import iter_all_graphs


_CENSUS_CACHE = {}


def _census_min_max_by_k(n):
    """One pass over all labelled graphs: exact min/max growth rate per k.

    Floats prefilter; exact comparisons settle anything within 1e-6.
    """
    if n in _CENSUS_CACHE:
        return _CENSUS_CACHE[n]
    slots = edge_slots(n)
    best: dict = {}
    for mask in range(1 << len(slots)):
        g = graph_from_edge_mask(n, mask, slots)
        k = g.edge_count
        b = beta_algebraic(g)
        bf = float(b)
        if k not in best:
            best[k] = [b, bf, b, bf]  # min, min_f, max, max_f
            continue
        entry = best[k]
        if bf < entry[1] - 1e-6 or (bf < entry[1] + 1e-6 and b.compare(entry[0]) < 0):
            entry[0], entry[1] = b, bf
        if bf > entry[3] + 1e-6 or (bf > entry[3] - 1e-6 and b.compare(entry[2]) > 0):
            entry[2], entry[3] = b, bf
    out = {k: (e[0], e[2]) for k, e in best.items()}
    _CENSUS_CACHE[n] = out
    return out


def _census_extreme(n, k, want_max):
    mn, mx = _census_min_max_by_k(n)[k]
    return mx if want_max else mn


def test_max_construction_shapes():
    r = max_beta_graph(6, 3)
    assert sorted(r.graph.edges()) == [(0, 1), (0, 2), (1, 2)]  # K3 + isolated
    r = max_beta_graph(7, 10)
    assert clique_profile(r.graph).clique_number == 5
    assert r.graph.edge_count == 10  # K5 plus two isolated vertices
    assert max_beta_graph(5, 10).predicted_beta == F(1)
    assert max_beta_graph(4, 0).predicted_beta == F(4)


def test_max_matches_census_n5():
    for k in range(11):
        res = max_beta_graph(5, k)
        best = _census_extreme(5, k, want_max=True)
        pred = beta_algebraic(res.graph)
        assert pred.compare(best) == 0


def test_enclosure_prediction_must_contain_beta():
    g = max_beta_construction(5, 4)
    a = beta_algebraic(g)
    assert not a.is_rational()
    _assert_is_beta(g, RootEnclosure(a.lo, a.hi))
    # each end point overlaps beta's enclosure, and neither is beta
    for point in (a.lo, a.hi):
        with pytest.raises(AssertionError, match="predicted enclosure"):
            _assert_is_beta(g, RootEnclosure(point, point))


def test_max_equality_family_is_closed_under_relabelling():
    # every class the family meets lies in it with all n!/|Aut| labellings
    for n in range(1, 7):
        for k in range(n * (n - 1) // 2 + 1):
            family = max_beta_equality_family(n, k)
            members = Counter()
            auts = {}
            for adj in family:
                rows, auts[rows] = canonical_form(adj)
                members[rows] += 1
            for rows, count in members.items():
                assert count * auts[rows] == math.factorial(n), (n, k, rows)


def test_min_unconditional_examples():
    res = min_beta_graph(7, 12)
    assert res.conditional is None
    assert isinstance(res.predicted_beta, QuadSurd)
    assert res.predicted_beta.is_rational() and res.predicted_beta.as_fraction() == 4
    res = min_beta_graph(6, 9)  # n^2/4 for even n: balanced bipartite
    assert res.predicted_beta.as_fraction() == 3
    res = min_beta_graph(6, 12)  # Turan boundary: K_{2,2,2}
    assert res.conditional is None and res.predicted_beta == F(2)


def test_min_matches_census_small():
    for n, k in ((5, 4), (5, 6), (5, 9)):
        res = min_beta_graph(n, k)
        best = _census_extreme(n, k, want_max=False)
        pred = (
            AlgebraicReal.from_rational(res.predicted_beta)
            if isinstance(res.predicted_beta, F)
            else res.predicted_beta.to_algebraic()
        )
        assert pred.compare(best) == 0


def test_min_conditional_regime():
    res = min_beta_graph(5, 8)
    assert res.conditional == "Conjecture 9.1"
    best = _census_extreme(5, 8, want_max=False)
    pred = res.predicted_beta.to_algebraic()
    assert pred.compare(best) == 0


def test_bounds_examples():
    b = beta_bounds(10, 25)
    assert b["fisher_lower"] == 5
    low = b["fisher_nonis_lower"]
    assert low.is_rational() and low.as_fraction() == 5
    b = beta_bounds(10, 40)
    assert b["fisher_nonis_lower"].is_rational()
    assert b["fisher_nonis_lower"].as_fraction() == 2  # w = 5 regime boundary
    assert float(b["sqrt_upper"]) == pytest.approx((100 - 60) ** 0.5)
    assert b["samuelson_upper"]["value"] == F(60, 10)
    lo, hi = b["corollary94_window"]
    assert hi.to_algebraic().compare_fraction(lo.to_algebraic().lo) > 0


def test_corollary94_window_on_minimum():
    n = 5
    for k in range(1, n * (n - 1) // 2 + 1):
        best = _census_extreme(n, k, want_max=False)
        bounds = beta_bounds(n, k)
        wlo, whi = bounds["corollary94_window"]
        lo_alg = (
            AlgebraicReal.from_rational(wlo.as_fraction())
            if wlo.is_rational()
            else wlo.to_algebraic()
        )
        hi_alg = (
            AlgebraicReal.from_rational(whi.as_fraction())
            if whi.is_rational()
            else whi.to_algebraic()
        )
        assert best.compare(lo_alg) >= 0
        assert best.compare(hi_alg) < 0


def test_planar_special_cases():
    for (n, k), val in (((3, 3), 1), ((4, 6), 1), ((4, 5), 2), ((5, 9), 2)):
        res = planar_extremes(n, k)
        assert res.lambda_minus == val and res.lambda_plus == val


def test_planar_triangle_free_cases():
    res = planar_extremes(6, 2)
    assert isinstance(res.lambda_minus, QuadSurd)
    assert is_root_surd(pc_polynomial(res.g_minus), res.lambda_minus)
    res = planar_extremes(7, 8)  # 3 <= k <= 2n-4
    assert float(res.lambda_minus) == pytest.approx((7 + (49 - 32) ** 0.5) / 2)


def test_planar_middle_and_top():
    n = 7
    res = planar_extremes(n, 12)  # 2n-4 < k < 3n-6
    assert float(res.lambda_minus) == pytest.approx(
        -1 + (n + (n * n + 4 * n - 4 * 12 - 12) ** 0.5) / 2
    )
    res = planar_extremes(n, 3 * n - 6)
    assert res.lambda_plus == n - 3
    assert float(res.lambda_minus) == pytest.approx((n + (n * n - 8 * n + 12) ** 0.5) / 2 - 1)
    assert res.g_minus.edge_count == 3 * n - 6
    assert is_planar_small(planar_extremes(6, 12).g_plus)
    assert is_planar_small(planar_extremes(6, 12).g_minus)


def test_planar_out_of_range():
    with pytest.raises(ValueError):
        planar_extremes(7, 16)  # > 3n-6


def test_apollonian_counts():
    for n, k in ((6, 7), (6, 9), (7, 12), (7, 15), (5, 6), (6, 8)):
        g = apollonian_graph(n, k)
        assert g.edge_count == k
        assert apollonian_pc(n, k) == pc_polynomial(g)
        if n <= 6:
            assert is_planar_small(g)


def test_planarity_small():
    assert not is_planar_small(parse_graph("K5", "named"))
    assert not is_planar_small(parse_graph("K3,3", "named"))
    assert is_planar_small(parse_graph("C6", "named"))
    assert is_planar_small(parse_graph("K4", "named"))
    k5_sub = from_edges(
        6,
        [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)]
        + [(5, 0), (5, 1)],
    )
    assert not is_planar_small(k5_sub)
    # K5 with an extra vertex: still non-planar
    k5_plus = from_edges(6, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert not is_planar_small(k5_plus)


def test_planarity_small_matches_networkx():
    nx = pytest.importorskip("networkx")
    # canonical_form relabels g, which keeps its planarity, so networkx runs once per class
    planar = {}
    for n in range(1, 7):
        for g in iter_all_graphs(n):
            rows, _ = canonical_form(g.adj)
            if rows not in planar:
                h = nx.Graph(Graph(n, rows).edges())
                h.add_nodes_from(range(n))
                planar[rows] = nx.check_planarity(h)[0]
            assert is_planar_small(g) == planar[rows], g


def test_nordhaus_gaddum():
    for n in (3, 5, 7):
        s, p = nordhaus_gaddum(parse_graph(f"K{n}", "named"))
        assert s.lo <= n + 1 <= s.hi and p.lo <= n <= p.hi
        assert s.width < F(1, 10**10)
    s, p = nordhaus_gaddum(parse_graph("K1,2", "named"))
    # 2 + (3+sqrt5)/2
    target = 2 + (3 + 5**0.5) / 2
    assert float((s.lo + s.hi) / 2) == pytest.approx(target, abs=1e-9)


@pytest.mark.slow
def test_planar_average_report():
    # the mean planar growth rate sits a bounded distance below n; report only
    from pcpoly.cliquepoly import beta
    from pcpoly.graphs import edge_slots, graph_from_edge_mask

    n = 5
    slots = edge_slots(n)
    lo = hi = F(0)
    cnt = 0
    for mask in range(1 << len(slots)):
        g = graph_from_edge_mask(n, mask, slots)
        if not is_planar_small(g):
            continue
        enc = beta(g, F(1, 10**6))
        lo += enc.lo
        hi += enc.hi
        cnt += 1
    avg = float((lo + hi) / 2 / cnt)
    print(f"planar mean growth rate at n={n}: {avg:.4f} (gap to n: {n - avg:.3f})")
    assert 0 < n - avg < n


def test_nordhaus_gaddum_lower_bounds_census():
    for n in (3, 4, 5):
        for g in iter_all_graphs(n):
            s, p = nordhaus_gaddum(g)
            assert s.hi >= n + 1
            assert p.hi >= n
            complete_or_empty = g.edge_count in (0, n * (n - 1) // 2)
            if not complete_or_empty:
                assert s.lo > n + 1 or s.hi > n + 1  # strict except the pair
