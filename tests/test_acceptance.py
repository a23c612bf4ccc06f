"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line.  Two printed constants of the source
material are misprints (the n=6 census row and the ten-digit growth-rate
constant): criteria 01 and 08 assert the verified values instead, and the
decisions ledger DECISIONS.md records the evidence, which
tests/test_oracles.py recomputes with code independent of pcpoly.
"""

import random
from fractions import Fraction as F

from pcpoly.cliquepoly import beta
from pcpoly.exactpoly import QuadSurd, to_fraction_poly, trim
from pcpoly.graphs import (
    complement,
    complete_multipartite,
    edge_slots,
    from_edges,
    graph_from_edge_mask,
    graph_join_union,
    parse_graph,
)
from pcpoly.matching import matching_polynomials
from pcpoly.randomgraph import (
    beta0_constant,
    beta_random,
    beta_series,
    ladder_limit_roots,
    random_root_ladder,
)
from pcpoly.survey import (
    census_adjoint_check,
    census_decycling_check,
    census_extremal_check,
    census_identity_check,
    census_lll_check,
    census_matching_check,
    census_monoid_check,
    census_planar_check,
    survey_nonreal,
)
from pcpoly.weighted import lll_check, lll_threshold, matrix_to_weighted_graph, mcmullen_growth

def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_nonreal_census():
    expected = {
        4: (64, 4, 151, 8),
        5: (1024, 135, 2750, 270),
        # printed as (4666, 97839, 9344): a misprint, see DECISIONS.md
        6: (32768, 4476, 97829, 8964),
    }
    rows = {}
    ok = True
    details = []
    for n, (total, polys, roots, nonreal) in expected.items():
        row = survey_nonreal(n)
        rows[n] = row
        good = (
            row.graphs_total == total
            and row.polys_with_nonreal == polys
            and row.roots_total == roots
            and row.roots_nonreal == nonreal
        )
        ok &= good
        details.append(
            f"n={n}: got ({row.polys_with_nonreal}/{row.graphs_total}, "
            f"{row.roots_nonreal}/{row.roots_total})"
            + ("" if good else " != expected table row")
        )
    _report(1, ok, "section-13.1 census rows; " + "; ".join(details))
    assert ok, "census row differs from the verified table; see DECISIONS.md"


def test_criterion_02_recurrence_equals_enumeration():
    bad = []
    for n in range(1, 6):
        bad += census_monoid_check(n, 8)
    ok = _report(2, not bad, f"recurrence == direct count, n <= 5, len <= 8; {len(bad)} mismatches")
    assert ok


def test_criterion_03_dominant_root_facts():
    rng = random.Random(303)
    ok = True
    for n in range(1, 11):
        enc = beta(parse_graph(f"K{n}", "named"))
        ok &= enc.lo == enc.hi == 1 and enc.multiplicity == n
        enc = beta(parse_graph(f"Kbar{n}", "named"))
        ok &= enc.lo == enc.hi == n
    for n in range(2, 11):
        for tree in _some_trees(rng, n):
            enc = beta(tree)
            ok &= enc.lo == enc.hi == n - 1
    for _ in range(20):
        parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        if sum(parts) > 10:
            continue
        enc = beta(complete_multipartite(parts))
        ok &= enc.lo == enc.hi == max(parts)
    ok = _report(3, ok, "exact rational dominant roots for the named families, n <= 10")
    assert ok


def _some_trees(rng, n):
    yield parse_graph(f"P{n}", "named")
    yield parse_graph(f"star{n - 1}", "named")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    yield from_edges(n, edges)


def test_criterion_04_identity_suite():
    from pcpoly.exactpoly import add, mul, sub
    from pcpoly.cliquepoly import clique_type_polynomial

    bad = []
    for n in range(1, 7):
        bad += census_identity_check(n)
    rng = random.Random(404)
    slots_cache = {}
    pair_fail = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        slots = slots_cache.setdefault(n, edge_slots(n))
        g = graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)
        n1 = rng.randint(1, n - 1)
        h_slots = slots_cache.setdefault(n1, edge_slots(n1))
        h = graph_from_edge_mask(n1, rng.randrange(1 << len(h_slots)), h_slots)
        if n + n1 > 10:
            continue
        dg = to_fraction_poly(clique_type_polynomial(g, "dependence"))
        dh = to_fraction_poly(clique_type_polynomial(h, "dependence"))
        du = to_fraction_poly(
            clique_type_polynomial(graph_join_union(g, h, "union"), "dependence")
        )
        dj = to_fraction_poly(
            clique_type_polynomial(graph_join_union(g, h, "join"), "dependence")
        )
        if trim(du) != trim(sub(add(dg, dh), (F(1),))):
            pair_fail += 1
        if trim(dj) != trim(mul(dg, dh)):
            pair_fail += 1
    ok = _report(
        4,
        not bad and pair_fail == 0,
        f"deletion/derivative identities on all n <= 6 plus union/join on random pairs; "
        f"{len(bad)} + {pair_fail} failures",
    )
    assert ok


_EXTREMAL_RESULTS = {}


def _extremal(n):
    if n not in _EXTREMAL_RESULTS:
        _EXTREMAL_RESULTS[n] = census_extremal_check(n)
    return _EXTREMAL_RESULTS[n]


def test_criterion_05_extremal_maximum():
    ok = True
    details = []
    for n in range(2, 8):
        res = _extremal(n)
        ok &= not res["max_violations"]
        ok &= all(res["max_family_exact"].values())
        bad_fams = [k for k, good in res["max_family_exact"].items() if not good]
        details.append(
            f"n={n}: {len(res['max_violations'])} exceedances, "
            f"family mismatch at k={bad_fams}" if bad_fams or res["max_violations"]
            else f"n={n}: ok"
        )
    ok = _report(5, ok, "construction attains the census maximum with the exact "
                        "uniqueness family, n <= 7; " + "; ".join(details))
    assert ok


def test_criterion_06_extremal_minimum():
    ok = True
    details = []
    for n in range(2, 8):
        res = _extremal(n)
        ok &= not res["min_violations"]
        # below the Mantel bound the value is attained exactly by the
        # triangle-free graphs: no equality from a clique-bearing graph
        ok &= not res["min_equal_nontriangle_free"]
        for k in res["conditional_ks"]:
            ok &= res["min_equal_counts"].get(k, 0) >= 1
        details.append(
            f"n={n}: {len(res['min_violations'])} undercuts, conditional regime "
            f"matched at {len(res['conditional_ks'])} edge counts"
        )
    ok = _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_random_closed_forms_and_structure():
    grid = (F(1, 10), F(1, 2), F(9, 10))
    ok = True
    for n in range(2, 6):
        for p in grid:
            enc, closed = beta_random(n, p, F(1, 10**12))
            mid = (closed.lo + closed.hi) / 2
            ok &= abs(mid - enc.midpoint) <= F(1, 10**12)
    for n in range(2, 9):
        for p in grid:
            random_root_ladder(n, p, 1)  # asserts real/simple/interlacing inside
    ok = _report(7, ok, "radical closed forms within 1e-12 on the p grid; "
                        "real-simple-interlacing asserted for n <= 8")
    assert ok


def test_criterion_08_limit_constant():
    enc = beta0_constant(F(1, 10**8))
    width_ok = enc.width <= F(1, 10**8)
    # printed as 0.6720076538: a misprint, see DECISIONS.md
    verified = F("0.6720075381")
    contains_verified = enc.lo <= verified <= enc.hi
    ladder_printed = [
        F("0.672008"), F("0.204871"), F("0.073744"),
        F("0.028756"), F("0.011768"), F("0.004975"),
    ]
    ladder_ok = True
    for r, target in enumerate(ladder_printed, start=1):
        lr = ladder_limit_roots(r, F(1, 2), 40, F(1, 10**9))
        ladder_ok &= abs(lr.midpoint - target) <= F(1, 10**6)
    ok = width_ok and contains_verified and ladder_ok
    _report(
        8,
        ok,
        f"width<=1e-8 {width_ok}; contains verified 0.6720075381 {contains_verified} "
        f"(computed {float(enc.midpoint):.10f}); six ladder roots to 1e-6 {ladder_ok}",
    )
    assert ok, "limit constant or ladder roots moved; see DECISIONS.md"


def test_criterion_09_series_consistency():
    series_val = beta_series(1).eval(F(1, 2))
    enc = beta0_constant(F(1, 10**10))
    diff = abs(series_val - enc.midpoint)
    ok = diff < F(3, 10**8)
    _report(
        9,
        ok,
        f"|series(1/2) - constant| = {float(diff):.3e} vs stated 3e-8 "
        f"(vs the misprinted 0.6720076538 of DECISIONS.md D2: "
        f"{float(abs(series_val - F('0.6720076538'))):.3e})",
    )
    assert ok, "series-vs-constant gap exceeds the stated 3e-8; see DECISIONS.md"


def test_criterion_10_weighted_correspondence():
    rng = random.Random(1010)
    for _ in range(50):
        m = rng.randint(1, 5)
        mat = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        matrix_to_weighted_graph(mat)  # det identity asserted exactly inside
    from pcpoly.weighted import WeightedGraph

    k2k2 = graph_join_union(parse_graph("K2", "named"), parse_graph("K2", "named"), "union")
    lam = mcmullen_growth(WeightedGraph.uniform(k2k2, 1, F(1, 2)), F(1, 10**12))
    target = QuadSurd.make(6, 32, 1)  # 6 + 4 sqrt 2
    iv = target.interval(F(1, 10**15))
    ok = lam.lo - F(1, 10**12) <= iv.hi and iv.lo <= lam.hi + F(1, 10**12)
    ok = _report(10, ok, "50 exact det(I - xM) realizations; the half-weight "
                         "union growth rate hits 6+4*sqrt(2) within 1e-12")
    assert ok


def test_criterion_11_lll():
    ok = True
    for n in range(2, 8):
        bad = census_lll_check(n)
        ok &= not bad
    # threshold consistency spot checks
    rng = random.Random(1111)
    for _ in range(10):
        n = rng.randint(2, 7)
        slots = edge_slots(n)
        g = graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)
        enc = lll_threshold(g, F(1, 10**12))
        b = beta(complement(g), F(1, 10**13))
        ok &= enc.lo <= 1 / b.lo and 1 / b.hi <= enc.hi
    flips = 0
    while flips < 50:
        n = rng.randint(2, 7)
        slots = edge_slots(n)
        g = graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)
        if g.edge_count == 0:
            continue
        enc = lll_threshold(g, F(1, 10**12))
        above = enc.hi * (1 + F(1, 10**6))
        if above >= 1:
            continue
        ok &= lll_check(g, [enc.lo * (1 - F(1, 10**6))] * n).feasible
        ok &= not lll_check(g, [above] * n).feasible
        flips += 1
    ok = _report(11, ok, "degree bound censuses n <= 7, reciprocal-threshold "
                         "consistency, and 50 feasibility flips")
    assert ok


def test_criterion_12_matching_adjoint():
    from oracles import chebyshev_2tn_half, hermite_prob, laguerre_scaled

    ok = True
    for n in range(2, 7):
        res = census_matching_check(n)
        ok &= not res["nonreal"] and not res["bound_violations"]
    res7 = census_matching_check(7)
    ok &= not res7["nonreal"] and not res7["bound_violations"]
    # classical family identities, n <= 6, exact coefficients
    families = True
    for n in range(1, 7):
        families &= matching_polynomials(parse_graph(f"K{n}", "named")).mu == hermite_prob(n)
        if n >= 3:
            families &= (
                matching_polynomials(parse_graph(f"C{n}", "named")).mu
                == chebyshev_2tn_half(n)
            )
        if n <= 3:
            lag = laguerre_scaled(n)
            lifted = [0] * (2 * n + 1)
            for j, c in enumerate(lag):
                lifted[2 * j] = (-1) ** n * c
            families &= matching_polynomials(complete_multipartite([n, n])).mu == trim(lifted)
    ok &= families
    adjoint_ok = True
    for n in range(1, 7):
        res = census_adjoint_check(n)
        adjoint_ok &= not res["identity"] and not res["gamma"]
    ok &= adjoint_ok
    ok = _report(
        12,
        ok,
        f"real-rooted matching polynomials and degree sandwich through n=7 "
        f"({len(res7['nonreal'])}/{len(res7['bound_violations'])} failures); classical "
        f"families exact {families}; adjoint identity and gamma <= t^2 exact {adjoint_ok}",
    )
    assert ok


def test_criterion_13_planar_extremes():
    ok = True
    details = []
    for n in range(1, 7):
        res = census_planar_check(n)
        ok &= not res["violations"]
        for k in res["ks"]:
            lo_att, hi_att = res["attained"].get(k, (0, 0))
            ok &= lo_att >= 1 and hi_att >= 1
        details.append(f"n={n}: {len(res['violations'])} violations")
    ok = _report(13, ok, "full planar census with both ends attained; " + "; ".join(details))
    assert ok


def test_criterion_14_decycling_bound():
    ok = True
    for n in range(1, 8):
        bad = census_decycling_check(n)
        ok &= not bad
    ok = _report(14, ok, "alternating independent-set count bounded by 2^decycling, n <= 7")
    assert ok
