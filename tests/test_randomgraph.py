"""Random-graph recurrence polynomials, root ladder, and the limit constant."""

import time
from fractions import Fraction as F

import pytest

from pcpoly import randomgraph
from pcpoly.cliquepoly import clique_type_polynomial
from pcpoly.exactpoly import (
    RatInterval,
    RootEnclosure,
    clear_denominators,
    eval_at,
    mul,
    to_fraction_poly,
    trim,
)
from pcpoly.randomgraph import (
    SERIES_TERMS,
    beta0_constant,
    beta_random,
    beta_series,
    clique_random,
    f_n_polynomial,
    ladder_limit_roots,
    pc_random,
    random_root_ladder,
    truncation_poly,
)

from oracles import f_n_divisible_by, iter_all_graphs, ladder_curve_csv

GRID = (F(1, 10), F(1, 2), F(9, 10))


def test_pc_random_edges():
    rpc = pc_random(2, F(1, 3))
    assert rpc.poly == (F(1, 3), F(-2), F(1))
    rpc = pc_random(4, F(0))
    assert trim(rpc.poly) == (0, 0, 0, -4, 1) or rpc.poly[3] == -4
    enc, _ = beta_random(4, 0)
    assert enc.lo == 4
    enc, _ = beta_random(4, 1)
    assert enc.lo == 1 and enc.multiplicity == 4
    with pytest.raises(ValueError):
        pc_random(3, F(3, 2))


def test_beta_random_quadratic():
    enc, closed = beta_random(2, F(3, 4))
    assert enc.lo == enc.hi == F(3, 2)
    assert closed.lo <= F(3, 2) <= closed.hi


def test_closed_forms_match_roots():
    for n in (2, 3, 4, 5):
        for p in GRID:
            enc, closed = beta_random(n, p, F(1, 10**12))
            assert closed is not None
            mid = (closed.lo + closed.hi) / 2
            assert abs(mid - enc.midpoint) <= F(1, 10**12)


def test_closed_form_must_contain_the_root(monkeypatch):
    # shifted off the root by 1.5 * width, the interval still overlaps the
    # enclosure padded by width on each side, but no longer contains the root
    width = F(1, 10**6)
    true_interval = randomgraph._closed_form_interval

    def shifted(n, p, eps):
        closed = true_interval(n, p, eps)
        return RatInterval(closed.lo + 3 * width / 2, closed.hi + 3 * width / 2)

    monkeypatch.setattr(randomgraph, "_closed_form_interval", shifted)
    with pytest.raises(AssertionError, match="closed form"):
        beta_random(4, F(1, 3), width)


def test_ladder_domination_is_certified(monkeypatch):
    # 10x^2 - 29x + 19 has roots 1 and 19/10, and 1 > (1/2)(19/10): no domination.
    # With the top root enclosed in the valid but wide [9/5, 11/5], 1 lies
    # below (1/2)(11/5), which proves nothing about (1/2)(19/10).
    monkeypatch.setattr(randomgraph, "pc_random",
                        lambda n, p: randomgraph.RandomPC(2, F(1, 2), (19, -29, 10)))
    true_isolate = randomgraph.isolate_real_roots

    def wide_top(p, width):
        return true_isolate(p, width)[:-1] + [RootEnclosure(F(9, 5), F(11, 5), 1)]

    monkeypatch.setattr(randomgraph, "isolate_real_roots", wide_top)
    with pytest.raises(AssertionError, match="domination chain violated"):
        random_root_ladder(2, F(1, 2), 1)


@pytest.mark.parametrize("poly", [
    (-1, 1, -1, 1),  # (x - 1)(x^2 + 1): a complex pair
    (-2, 5, -4, 1),  # (x - 1)^2 (x - 2): a double root
], ids=["complex-pair", "double-root"])
def test_ladder_needs_n_real_simple_roots(monkeypatch, poly):
    monkeypatch.setattr(randomgraph, "pc_random",
                        lambda n, p: randomgraph.RandomPC(3, F(1, 2), poly))
    with pytest.raises(AssertionError, match="real and simple"):
        random_root_ladder(3, F(1, 2), 1)


def test_ladder_structure():
    for n in (2, 3, 5, 6, 8):
        for p in GRID:
            enc = random_root_ladder(n, p, 1)
            top, _ = beta_random(n, p)
            assert enc.lo <= top.hi and top.lo <= enc.hi  # same root
    # middle root exactness for odd n
    enc = random_root_ladder(5, F(1, 2), 3)
    assert enc.lo == enc.hi == F(1, 4)
    enc = random_root_ladder(7, F(1, 3), 4)
    assert enc.lo == enc.hi == F(1, 27)


def test_ladder_pairing_products():
    for n, p in ((4, F(1, 2)), (6, F(1, 5)), (5, F(1, 2))):
        roots = [random_root_ladder(n, p, r, F(1, 10**14)) for r in range(1, n + 1)]
        for i in range(n // 2):
            prod_lo = roots[i].lo * roots[n - 1 - i].lo
            prod_hi = roots[i].hi * roots[n - 1 - i].hi
            target = p ** (n - 1)
            assert prod_lo - F(1, 10**8) <= target <= prod_hi + F(1, 10**8)


def test_lemma_sandwich_n10():
    n, p = 10, F(1, 2)
    enc = random_root_ladder(n, p, 1)
    lower = 1 + (n - 1) * (1 - p)
    assert enc.lo >= lower
    upper_sq = (n - 1) ** 2 * (1 - p)  # (beta - 1)^2 <= (n-1)^2 (1-p)
    assert (enc.hi - 1) ** 2 <= upper_sq


def test_beta1_monotone_in_p():
    for n in (4, 8, 12):
        prev = None
        for i in range(0, 9):
            p = F(i, 8)
            if p == 0:
                enc, _ = beta_random(n, 0)
            elif p == 1:
                enc, _ = beta_random(n, 1)
            else:
                enc = random_root_ladder(n, p, 1, F(1, 10**9))
            if prev is not None:
                assert enc.hi < prev.lo  # strictly decreasing, separated enclosures
            prev = enc


def test_mean_clique_polynomial():
    for n in range(2, 7):
        total = None
        for g in iter_all_graphs(n):
            poly = to_fraction_poly(clique_type_polynomial(g, "clique"))
            padded = list(poly) + [F(0)] * (n + 1 - len(poly))
            total = padded if total is None else [a + b for a, b in zip(total, padded)]
        count = 1 << (n * (n - 1) // 2)
        mean = tuple(c / count for c in total)
        assert trim(mean) == trim(clique_random(n, F(1, 2)))


def test_smallest_root_sandwich():
    for n, p in ((4, F(1, 2)), (5, F(1, 3)), (6, F(3, 4))):
        smallest = random_root_ladder(n, p, n, F(1, 10**12))
        # sqrt(1-p) >= 1-p, so lo_bound <= hi_bound
        lo_bound = p ** (n - 1) / (1 + (n - 1) * _sqrt_upper(1 - p))
        hi_bound = p ** (n - 1) / (1 + (n - 1) * (1 - p))
        assert smallest.hi >= lo_bound - F(1, 10**9)
        assert smallest.lo <= hi_bound + F(1, 10**9)


def _sqrt_upper(q):
    from pcpoly.exactpoly import sqrt_interval

    return sqrt_interval(q, F(1, 10**12))[1]


def test_truncation_poly_reverses_series():
    p = truncation_poly(6, F(2))
    assert p[6] == 1 and p[5] == -1 and p[4] == F(1, 4) and p[3] == F(-1, 48)


def test_ladder_scan_refuses_a_root_at_or_above_its_start():
    # (x - 2)(2x - 1) and 2x - 3: the descending scan starts at 3/2
    for ipoly in ((2, -5, 2), (-3, 2)):
        with pytest.raises(ValueError, match="3/2"):
            randomgraph._positive_roots_descending(ipoly, 1, F(1, 10**6))


def test_ladder_scan_certifies_the_ranks():
    # (x - 1.3)(x - 1.3001)(x - 1.3002)(x - 1/2): one scan step holds the three
    # close roots, so the scan alone takes 1/2 for the second-largest root
    p = (1,)
    for root in (F(13, 10), F(13001, 10000), F(13002, 10000), F(1, 2)):
        p = mul(p, (-root, 1))
    ipoly = clear_denominators(p)
    with pytest.raises(ValueError, match="stepped over roots"):
        randomgraph._positive_roots_descending(ipoly, 2, F(1, 10**9))
    # a root on a scan point, (3/2)(63/64), counts towards the ranks
    ipoly = clear_denominators(mul((-F(189, 128), 1), (-F(1, 10), 1)))
    roots = randomgraph._positive_roots_descending(ipoly, 1, F(1, 10**9))
    assert [(e.lo, e.hi) for e in roots] == [(F(189, 128), F(189, 128))]


def test_ladder_fails_fast_on_out_of_reach_ranks():
    # Descartes' rule allows 4 roots above the scan floor, so no scan can find 5 or 6
    for r, p, t in ((5, F(1, 100), 20), (6, F(1, 100), 40)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"fewer than {r} positive roots found for t={t}"):
            ladder_limit_roots(r, p, t)
        assert time.perf_counter() - start < 1


def test_random_sizes_are_capped_at_64():
    assert len(pc_random(64, F(1, 2)).poly) == len(truncation_poly(64, F(2))) == 65
    with pytest.raises(ValueError, match="capped at n = 64"):
        pc_random(65, F(1, 2))
    with pytest.raises(ValueError, match="capped at t = 64"):
        truncation_poly(65, F(2))


def test_ladder_limits_match_printed_values():
    printed = [
        F("0.672008"),
        F("0.204871"),
        F("0.073744"),
        F("0.028756"),
        F("0.011768"),
        F("0.004975"),
    ]
    for r, target in enumerate(printed, start=1):
        enc = ladder_limit_roots(r, F(1, 2), 40, F(1, 10**9))
        assert abs(enc.midpoint - target) <= F(1, 10**6)


def test_beta0_two_methods_agree():
    enc = beta0_constant(F(1, 10**10))
    assert enc.width <= F(1, 10**10)
    # converged value from both the ladder and the series root
    assert abs(enc.midpoint - F("0.6720075381484585")) < F(1, 10**12)


def test_beta0_reciprocal_inside_disc():
    enc = beta0_constant(F(1, 10**9))
    recip = 1 / enc.midpoint
    assert recip <= 2


# the hard-coded tables that the series reversion replaced
STORED_BETA1 = (
    F(1), F(-1, 2), F(-1, 4), F(-1, 12), F(-1, 16), F(-1, 48), F(-7, 288),
    F(-1, 96), F(-7, 768), F(-49, 6912), F(-113, 23040), F(-17, 4608),
    F(-293, 92160), F(-737, 276480), F(-3107, 1658880),
)
STORED_BETA2 = (
    F(0), F(1, 2), F(-1, 12), F(-5, 36), F(-29, 432), F(-85, 1296),
    F(-163, 7776), F(-1387, 38880),
)


def test_series_values():
    s1, s2 = beta_series(1), beta_series(2)
    assert s1.coeffs[:15] == STORED_BETA1
    assert s2.coeffs[:8] == STORED_BETA2
    assert len(s1.coeffs) == len(s2.coeffs) == SERIES_TERMS
    assert all(c < 0 for c in s1.coeffs[1:])  # so partial sums at p > 0 decrease
    with pytest.raises(ValueError):
        beta_series(3)


def test_series_vs_ladder_small_p():
    for r in (1, 2):
        val = beta_series(r).eval(F(1, 10))
        enc = ladder_limit_roots(r, F(1, 10), 40, F(1, 10**12))
        assert abs(val - enc.midpoint) <= F(1, 10**10)


def test_f_n_polynomial():
    assert f_n_polynomial(3) == (4, 3, 0, 1)
    for n in range(0, 11):
        divisor = tuple([1] + [0] * (n - 1) + [1]) if n >= 1 else (2,)
        if n >= 1:
            assert f_n_divisible_by(2 * n + 1, divisor)
    assert not f_n_divisible_by(4, (1, 0, 1))
    # f_n(1/2) = expected clique count at x = 1
    for n in range(1, 8):
        fn = f_n_polynomial(n)
        assert eval_at(to_fraction_poly(fn), F(1, 2)) == eval_at(
            clique_random(n, F(1, 2)), F(1)
        )


def test_ladder_csv():
    text = ladder_curve_csv(1, 20, [F(1, 4), F(1, 2)])
    lines = text.strip().split("\n")
    assert lines[0] == "p,beta_over_n" and len(lines) == 3


@pytest.mark.slow
def test_census_average_tracks_limit():
    # mean growth rate over G(n, floor(n^2/4)) against n * (limiting scaled
    # root at the matching density); an asymptotic claim, checked loosely
    from pcpoly.cliquepoly import beta
    from pcpoly.graphs import edge_slots, graph_from_edge_mask

    for n in (4, 5):
        k = n * n // 4
        slots = edge_slots(n)
        lo = hi = F(0)
        cnt = 0
        for mask in range(1 << len(slots)):
            g = graph_from_edge_mask(n, mask, slots)
            if g.edge_count != k:
                continue
            enc = beta(g, F(1, 10**6))
            lo += enc.lo
            hi += enc.hi
            cnt += 1
        avg = (lo + hi) / 2 / cnt
        limit = n * ladder_limit_roots(1, F(2 * k, n * n), 40).midpoint
        ratio = avg / limit
        print(f"n={n}: census mean {float(avg):.4f} vs scaled limit {float(limit):.4f}")
        assert F(9, 10) <= ratio <= F(11, 10)
