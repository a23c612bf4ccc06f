"""Root counting, isolation, and exact algebraic comparisons."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpoly import exactpoly
from pcpoly.cliquepoly import clique_counts, pc_poly_from_counts, pc_polynomial
from pcpoly.exactpoly import (
    AlgebraicReal,
    DominantRoot,
    QuadSurd,
    RatInterval,
    _sign_at,
    _taylor_shift,
    count_nonreal_roots,
    count_roots_halfopen,
    degree,
    descartes_no_root_above,
    dominant_real_root,
    eval_at,
    is_root_surd,
    isolate_real_roots,
    mul,
    real_root_count,
    sqrt_interval,
    squarefree_decomposition,
    sturm_chain,
    trim,
)
from pcpoly.graphs import from_edges, graph_classes
from pcpoly.matching import matching_polynomials

from oracles import eval_at_surd, from_enclosure


def test_real_root_count_examples():
    assert real_root_count((-2, 0, 1), (F(0), F(2))) == 1
    assert real_root_count((-1, 3, -3, 1), (F(0), F(2))) == 1  # triple root, distinct
    assert real_root_count((1, 0, 1), (F(-10), F(10))) == 0


def test_real_root_count_halfopen_endpoints():
    p = (-2, 1)  # x - 2
    assert real_root_count(p, (F(0), F(2))) == 1  # right endpoint included
    assert real_root_count(p, (F(2), F(3))) == 0  # left endpoint excluded


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_root_count((), (F(0), F(1)))
    with pytest.raises(ValueError):
        isolate_real_roots((0,))


def test_isolate_multiplicities():
    p = mul((1, -2, 1), (-3, 1))  # (x-1)^2 (x-3)
    encs = isolate_real_roots(p)
    assert [(e.lo, e.hi, e.multiplicity) for e in encs] == [
        (F(1), F(1), 2),
        (F(3), F(3), 1),
    ]


def test_isolate_pc_k23():
    # (x-2)(x-3)
    encs = isolate_real_roots((6, -5, 1))
    assert [(e.lo, e.multiplicity) for e in encs] == [(F(2), 1), (F(3), 1)]


def _bisect_oracle(p, lo, hi, iters=80):
    f = lambda x: eval_at(tuple(float(c) for c in p), x)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_cuberoot_enclosure_matches_bisection():
    enc = dominant_real_root((-2, 0, 0, 1), F(1, 10**12))
    assert enc.width <= F(1, 10**12)
    oracle = _bisect_oracle((-2, 0, 0, 1), 1.0, 2.0)
    assert abs(float(enc.midpoint) - oracle) < 1e-9


def test_dominant_root_exact_hits():
    assert dominant_real_root((-5, 1)).lo == 5
    p = mul(mul((-1, 1), (-1, 1)), mul((-1, 1), (-1, 1)))  # (x-1)^4
    enc = dominant_real_root(p)
    assert enc.lo == enc.hi == 1 and enc.multiplicity == 4


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


def _irreducible_quadratic(abc):
    c, b, a = abc
    disc = b * b - 4 * a * c
    return disc < 0 or math.isqrt(disc) ** 2 != disc


@st.composite
def _polys_with_real_roots(draw):
    """Product of (x - r)^m over rational r, m in 1..3, times an optional
    quadratic irreducible over Q (real surd roots or a complex pair)."""
    p = (1,)
    for root, mult in draw(st.lists(st.tuples(_rationals, st.integers(1, 3)),
                                    min_size=1, max_size=4)):
        for _ in range(mult):
            p = mul(p, (-root, 1))
    quad = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4))
    extra = draw(st.none() | quad.filter(_irreducible_quadratic))
    return p if extra is None else mul(p, extra)


@settings(max_examples=60, deadline=None)
@given(_polys_with_real_roots(), st.sampled_from((F(1, 10**12), F(1, 2**24), F(1, 10**6))))
def test_dominant_equals_top_of_isolation(p, width):
    top = dominant_real_root(p, width)
    last = isolate_real_roots(p, width)[-1]
    assert (top.lo, top.hi, top.multiplicity) == (last.lo, last.hi, last.multiplicity)


def _sympy_real_roots(p):
    """Real roots with multiplicity, ascending, by sympy's exact ``real_roots``."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.real_roots(sympy.Poly([sympy.Rational(c) for c in reversed(p)], x))


@settings(max_examples=40, deadline=None)
@given(_polys_with_real_roots(), st.sampled_from((F(1, 10**12), F(1, 2**24))))
def test_isolation_counts_and_contains_the_real_roots(p, width):
    roots = _sympy_real_roots(p)
    encs = isolate_real_roots(p, width)
    assert sum(e.multiplicity for e in encs) == len(roots)
    assert count_nonreal_roots(p) == degree(p) - len(roots)
    distinct = sorted(set(roots))
    assert len(encs) == len(distinct)
    for enc, root in zip(encs, distinct):
        assert enc.width <= width
        assert enc.lo <= root <= enc.hi
        assert enc.multiplicity == roots.count(root)


@settings(max_examples=30, deadline=None)
@given(_polys_with_real_roots(), _polys_with_real_roots())
def test_algebraic_compare_is_an_exact_order(p, q):
    # the roots of p * q repeat those of p with another defining polynomial
    pq = mul(p, q)
    numbers = [
        (from_enclosure(poly, enc), root)
        for poly in (p, pq)
        for enc, root in zip(isolate_real_roots(poly, F(1, 2**8)),
                             sorted(set(_sympy_real_roots(poly))))
    ]
    signs = {}
    for i, (a, ra) in enumerate(numbers):
        for j, (b, rb) in enumerate(numbers):
            signs[i, j] = a.compare(b)
            assert signs[i, j] == bool(ra > rb) - bool(ra < rb)
    for (i, j), sign in signs.items():
        assert signs[j, i] == -sign
        assert (sign == 0) == (i == j or bool(numbers[i][1] == numbers[j][1]))
    for i, j, k in itertools.product(range(len(numbers)), repeat=3):
        if signs[i, j] <= 0 and signs[j, k] <= 0:
            assert signs[i, k] <= 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
       st.one_of(st.integers(-50, 50), st.fractions(max_denominator=10**9)))
def test_sign_at_matches_rational_evaluation(p, x):
    value = eval_at(p, F(x))
    assert _sign_at(p, x) == (value > 0) - (value < 0)


def test_dominant_refines_one_root_per_factor(monkeypatch):
    calls = []
    refine = exactpoly._refine_simple_root

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(exactpoly, "_refine_simple_root", counted)
    p = (81, -18, 1)  # (x - 9)^2
    for k in range(1, 9):
        p = mul(p, (-k, 1))
    enc = dominant_real_root(p)
    assert (enc.lo, enc.hi, enc.multiplicity) == (9, 9, 2)
    assert len(calls) <= 2  # squarefree factors: (x-1)...(x-8) and x-9
    calls.clear()
    assert len(isolate_real_roots(p)) == 9 and len(calls) == 9


def test_count_nonreal():
    assert count_nonreal_roots((-1, 3, -3, 1)) == 0
    assert count_nonreal_roots((1, 0, 1)) == 2
    assert count_nonreal_roots((1, -4, 6, -100, 1)) == 2


def _yun_nonreal(p):
    """Degree minus the real roots counted per Yun factor, times its multiplicity."""
    real = sum(mult * count_roots_halfopen(sturm_chain(factor), None, None)
               for mult, factor in squarefree_decomposition(p))
    return degree(p) - real


def test_count_nonreal_matches_yun_on_repeated_factors():
    rng = random.Random(20261019)

    def rand_poly():
        return trim([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)])

    for _ in range(150):
        f, g = rand_poly(), rand_poly()
        for p in (mul(mul(f, f), g), mul(mul(mul(f, f), f), mul(g, g))):
            assert count_nonreal_roots(p) == _yun_nonreal(p)
    profiles = {tuple(clique_counts(rows, 6)) for rows, _ in graph_classes(6)}
    assert len(profiles) == 54
    for counts in profiles:
        pc = pc_poly_from_counts(counts)
        assert count_nonreal_roots(pc) == _yun_nonreal(pc)


def _count_calls(monkeypatch, names):
    calls = Counter()
    for name in names:
        original = getattr(exactpoly, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(exactpoly, name, counted)
    return calls


def test_one_remainder_sequence_per_squarefree_polynomial(monkeypatch):
    calls = _count_calls(monkeypatch, ("gcd_int", "sturm_chain", "squarefree_decomposition"))
    p = (1, 3, -4, 0, 7)  # squarefree, two real roots
    top = dominant_real_root(p)
    assert calls == {"sturm_chain": 1}
    calls.clear()
    assert count_nonreal_roots(p) == 2 and calls == {"sturm_chain": 1}
    calls.clear()
    alg = AlgebraicReal.dominant_root(p)
    assert calls == {"sturm_chain": 1}
    assert alg.compare_fraction(top.lo - 1) == 1  # decided by signs, no chain
    assert calls == {"sturm_chain": 1}
    # (x^2 - 2)^3 (x + 1): one chain per iterated gcd, no gcd_int
    calls.clear()
    q = mul(mul(mul((-2, 0, 1), (-2, 0, 1)), (-2, 0, 1)), (1, 1))
    assert count_nonreal_roots(q) == 0 and calls == {"sturm_chain": 3}


def test_random_total_count_invariant():
    rng = random.Random(20240809)
    for _ in range(1000):
        deg = rng.randint(1, 10)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        p = trim(coeffs)
        if degree(p) < 1:
            continue
        encs = isolate_real_roots(p, F(1, 10**6))
        for e1, e2 in zip(encs, encs[1:]):
            assert e1.hi < e2.lo or e1.is_exact() or e2.is_exact()
        assert sum(e.multiplicity for e in encs) + count_nonreal_roots(p) == degree(p)


def test_enclosures_certified_by_sign_change():
    from pcpoly.exactpoly import squarefree_part

    rng = random.Random(55)
    for _ in range(200):
        deg = rng.randint(2, 8)
        p = trim([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)])
        if degree(p) < 2:
            continue
        sq = squarefree_part(p)
        for enc in isolate_real_roots(p, F(1, 10**4)):
            if enc.is_exact():
                assert eval_at(p, enc.lo) == 0
            else:
                assert eval_at(sq, enc.lo) * eval_at(sq, enc.hi) < 0


def test_random_dominant_vs_float_oracle():
    rng = random.Random(7)
    for _ in range(50):
        roots = sorted(rng.sample(range(-30, 30), rng.randint(1, 5)))
        p = (1,)
        for r in roots:
            p = mul(p, (-r, 1))
        enc = dominant_real_root(p, F(1, 10**9))
        assert enc.lo <= roots[-1] <= enc.hi


def test_algebraic_compare():
    sqrt2 = AlgebraicReal.dominant_root((-2, 0, 1))
    assert sqrt2.compare_fraction(F(3, 2)) < 0
    assert sqrt2.compare_fraction(F(7, 5)) > 0
    other = AlgebraicReal.dominant_root((-4, 0, 0, 0, 1))  # x^4 = 4
    assert sqrt2.compare(other) == 0
    bigger = AlgebraicReal.dominant_root((-3, 0, 1))
    assert sqrt2.compare(bigger) < 0
    assert AlgebraicReal.from_rational(F(2)).compare(sqrt2) > 0


@settings(max_examples=40, deadline=None)
@given(_polys_with_real_roots(), st.sampled_from((F(1, 2**8), F(1, 2**24))))
def test_compare_fraction_matches_the_exact_root(p, width):
    sympy = pytest.importorskip("sympy")
    for enc, root in zip(isolate_real_roots(p, width), sorted(set(_sympy_real_roots(p)))):
        w = max(enc.width, F(1, 2**30))
        points = {enc.lo, enc.hi, enc.midpoint, enc.lo + enc.width / 3, enc.hi - w / 2**20,
                  enc.lo - w, enc.lo - w / 2**20, enc.hi + w, enc.hi + w / 2**20}
        if root.is_Rational:
            points.add(F(int(root.p), int(root.q)))
        for q in points:
            # a fresh number per point: each one starts from the isolating interval
            alg = from_enclosure(p, enc)
            exact = sympy.Rational(q.numerator, q.denominator)
            assert alg.compare_fraction(q) == bool(root > exact) - bool(root < exact)
            assert alg.lo <= alg.hi and (alg.lo == alg.hi == root or alg.lo < root <= alg.hi)


def test_compare_fraction_half_open_at_a_root_on_the_left_end():
    # (x - 1)(x - 2): the number is 2, the one root in (1, 3]; 1 is the other root
    two = AlgebraicReal((2, -3, 1), 1, 3)
    assert two.compare_fraction(1) == 1
    two.refine(F(1, 2**30))
    assert two.lo <= 2 <= two.hi and two.hi - two.lo <= F(1, 2**30)
    # (x - 1)(x^2 - 2): sqrt 2 is irrational, so refine moves lo off the root 1 by signs
    root2 = AlgebraicReal((2, -2, -1, 1), 1, 3)
    assert root2.compare_fraction(1) == 1
    root2.refine(F(1, 2**30))
    assert 1 < root2.lo and root2.lo**2 < 2 < root2.hi**2 and root2.hi - root2.lo <= F(1, 2**30)
    assert root2.compare_fraction(root2.hi + F(1, 2**40)) == -1
    # the number at hi, with lo on the other root; its denominator 10^7 is
    # beyond the rational-root search, and refine still returns it exactly
    top = F(2 * 10**7 + 1, 10**7)
    p = mul((-1, 1), (-top.numerator, top.denominator))
    assert AlgebraicReal(p, 1, top).compare_fraction(top - F(1, 10**9)) == 1
    at_hi = AlgebraicReal(p, 1, top)
    at_hi.refine(F(1, 2**30))
    assert at_hi.lo == at_hi.hi == top


def test_dominant_root_within_at_exact_ends():
    # (x - 2)(x + 1): p(2) = 0, so Descartes cannot certify an upper end at 2
    p = (-2, -1, 1)
    eps = F(1, 10**9)
    assert DominantRoot(p).within(F(2), F(3))  # root at lo
    assert DominantRoot(p).within(F(1), F(2))  # root at hi
    assert DominantRoot(p).within(F(2), F(2))
    assert not DominantRoot(p).within(2 + eps, F(3))
    assert not DominantRoot(p).within(F(1), 2 - eps)
    assert not DominantRoot(p).within(2 - 2 * eps, 2 - eps)
    assert DominantRoot(p).within(2 - eps, 2 + eps)
    root = DominantRoot(p)
    assert root.sign(F(2), 1) == root.sign(F(2), -1) == 0


def test_quad_surd():
    s = QuadSurd.make(5, 5, 2)  # (5 + sqrt 5)/2
    assert is_root_surd((5, -5, 1), s)
    assert s.to_algebraic().compare_fraction(F(36, 10)) > 0
    assert s.to_algebraic().compare_fraction(F(37, 10)) < 0
    alg = s.to_algebraic()
    assert alg.compare(AlgebraicReal.dominant_root((5, -5, 1))) == 0
    rationalized = QuadSurd.make(1, 4, 2)  # (1 + 2)/2
    assert rationalized.is_rational() and rationalized.as_fraction() == F(3, 2)


def _surd_cases():
    """Irrational surds of both signs, surds that ``make`` rationalizes, and rationals."""
    irrational = [QuadSurd.make(a, b, c, sgn) for a, b, c in
                  ((5, 5, 2), (0, 2, 1), (1, 3, 1), (F(2, 3), F(7, 5), 3), (-4, 12, 5), (7, 33, 2))
                  for sgn in (1, -1)]
    rational = [QuadSurd.make(1, 4, 2), QuadSurd.make(3, F(9, 4), -2, -1), QuadSurd.make(F(5, 7), 0, 1)]
    assert not any(s.is_rational() for s in irrational) and all(s.is_rational() for s in rational)
    return irrational + rational


def _agrees_with_evaluation(p, s):
    """is_root_surd(p, s), checked against the exact value at s and at its conjugate."""
    conjugate = QuadSurd.make(s.a, s.b, s.c, -s.sgn)
    verdict = is_root_surd(p, s)
    assert verdict == (eval_at_surd(p, s) == (0, 0)), (p, s)
    assert is_root_surd(p, conjugate) == (eval_at_surd(p, conjugate) == (0, 0)) == verdict
    return verdict


def test_is_root_surd_matches_evaluation_at_the_surd():
    rng = random.Random(20261020)
    for s in _surd_cases():
        for _ in range(30):
            p = trim([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 9)])
            multiple = mul(p, s.min_poly())
            c = rng.choice((-3, -1, 1, 2, F(1, 2)))
            assert _agrees_with_evaluation(multiple, s)
            assert _agrees_with_evaluation(tuple(F(x, 7) for x in multiple), s)
            assert not _agrees_with_evaluation(exactpoly.add(multiple, (c,)), s)
            _agrees_with_evaluation(p, s)  # either verdict, as the evaluation decides
    assert _agrees_with_evaluation((), QuadSurd.make(0, 2, 1))  # the zero polynomial


def test_is_root_surd_on_every_extremal_prediction():
    from pcpoly.extremal import min_beta_graph, planar_extremes

    predictions = 0
    for n in range(1, 8):
        for k in range(n * (n - 1) // 2 + 1):
            res = min_beta_graph(n, k)
            pairs = [(res.graph, res.predicted_beta)]
            try:
                planar = planar_extremes(n, k)
            except ValueError:
                planar = None
            if planar is not None:
                pairs += [(planar.g_minus, planar.lambda_minus), (planar.g_plus, planar.lambda_plus)]
            for g, pred in pairs:
                if isinstance(pred, QuadSurd):
                    assert _agrees_with_evaluation(pc_polynomial(g), pred), (n, k)
                    predictions += 1
    assert predictions == 103


def test_compare_overlap_excludes_its_open_left_end():
    # sqrt 2 in (0, 3] against 0 in (-1, 1]: the gcd x vanishes at the overlap's open end 0
    root2 = (0, -2, 0, 1)
    assert AlgebraicReal(root2, 0, 3).compare(AlgebraicReal((0, -3, 0, 1), -1, 1)) == 1
    # sqrt 2 against sqrt 3, both in (0, 3]: the shared factor x has its root at 0 only
    assert AlgebraicReal(root2, 0, 3).compare(AlgebraicReal((0, -3, 0, 1), 0, 3)) == -1
    # sqrt 2 through two polynomials: the gcd x^3 - 2x has roots at 0 and in (0, 2]
    other = AlgebraicReal(mul(root2, (5, 1)), 0, 3)
    assert AlgebraicReal(root2, 0, 2).compare(other) == 0


def test_descartes_shift_filter():
    p = (-2, 0, 1)  # x^2 - 2
    assert descartes_no_root_above(p, F(2))
    assert not descartes_no_root_above(p, F(14, 10))
    assert not descartes_no_root_above(p, F(1414213562373095, 10**15))


def test_taylor_shift():
    assert _taylor_shift([F(0), F(0), F(1)], F(1)) == [F(1), F(2), F(1)]
    p = (3, -1, 4, 2)
    for t in (F(1, 3), F(-2, 7)):
        shifted = _taylor_shift([F(c) for c in p], t)
        assert eval_at(shifted, F(5, 11)) == eval_at(p, F(5, 11) + t)


def test_sqrt_interval_and_ratinterval():
    lo, hi = sqrt_interval(F(2), F(1, 10**12))
    assert lo * lo <= 2 <= hi * hi and hi - lo <= F(1, 10**12)
    assert sqrt_interval(F(9, 4), F(1, 10))[0] == F(3, 2)
    iv = (RatInterval.point(2).sqrt() + 1) * 2
    assert float(iv.lo) == pytest.approx(2 * (1 + 2**0.5), abs=1e-9)
    assert F(2) in RatInterval.point(2)


_int_polys = st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(trim).filter(
    lambda p: len(p) >= 2
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_int_polys, st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(-3, 3).filter(bool))
def test_squarefree_decomposition_matches_sympy_sqf_list(parts, unit):
    sympy = pytest.importorskip("sympy")
    p = (unit,)
    for q, mult in parts:
        for _ in range(mult):
            p = mul(p, q)
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(p)), x).sqf_list()
    expected = {
        (mult, exactpoly.primitive(tuple(int(c) for c in reversed(f.all_coeffs()))))
        for f, mult in factors
    }
    assert set(squarefree_decomposition(p)) == expected


def _seeded_polys(seed=20261018, count=240):
    """Integer polynomials, every other one with a squared or cubed factor."""
    rng = random.Random(seed)
    for i in range(count):
        p = trim([rng.randint(-12, 12) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)])
        if i % 2:
            q = trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 4)])
            for _ in range(rng.randint(2, 3)):
                p = mul(p, q)
        yield p, (F(1, 10**6), F(1, 10**12), F(1, 3))[i % 3]


def test_enclosures_match_pinned_digest():
    digest = hashlib.sha256()
    for p, width in _seeded_polys():
        encs = isolate_real_roots(p, width)
        digest.update(repr([(e.lo, e.hi, e.multiplicity) for e in encs]).encode())
        if encs:
            top = dominant_real_root(p, width)
            digest.update(repr((top.lo, top.hi, top.multiplicity)).encode())
    # computed with the earlier Fraction-based kernel (Yun over the rationals,
    # Fraction midpoints), before the integer kernel replaced it
    assert digest.hexdigest() == "29b1db19ce854fba7cf3cdfd7d5670d68c632bb9a8d641ead20681b3ad6ff59d"


def _seeded_graph_polys(seed=20261019):
    """Recurrence polynomials of G(n, m) graphs up to 40 vertices, then signed
    matching polynomials of graphs up to 12 vertices."""
    rng = random.Random(seed)

    def gnm(n, density):
        slots = [(i, j) for j in range(1, n) for i in range(j)]
        return from_edges(n, rng.sample(slots, round(density * len(slots))))

    for n in (4, 6, 9, 12, 16, 20, 25, 30, 35, 40):
        for density in (0.2, 0.35, 0.5, 0.65, 0.8):
            yield pc_polynomial(gnm(n, density))
    for n in range(2, 13):
        for density in (0.3, 0.5, 0.7, 0.9):
            yield matching_polynomials(gnm(n, density)).mu


def test_graph_enclosures_match_pinned_digest():
    digest = hashlib.sha256()
    for p in _seeded_graph_polys():
        top = dominant_real_root(p, F(1, 10**12))
        digest.update(repr((top.lo, top.hi, top.multiplicity)).encode())
    # computed with the Fraction-interval isolation (two Sturm evaluations per
    # bisection level), before the stack carried integer endpoints
    assert digest.hexdigest() == "1706efe156be9006a2b74cfb70ba599c53496530843990f2d4f529c88dbc3758"


def test_integer_kernel_builds_no_fractions(monkeypatch):
    built = []

    class CountingFraction(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return F(*args, **kwargs)

    monkeypatch.setattr(exactpoly, "Fraction", CountingFraction)
    p = mul(mul((-2, 0, 1), (-2, 0, 1)), (1, 3, -4, 0, 7))
    assert count_nonreal_roots(p) == 2
    assert squarefree_decomposition(p) == [(1, (1, 3, -4, 0, 7)), (2, (-2, 0, 1))]
    assert built == []
    # isolation builds only the returned endpoints: two per squarefree factor
    top = dominant_real_root(p, F(1, 10**12))
    assert top.multiplicity == 2 and top.lo**2 < 2 < top.hi**2
    assert len(built) == 4


def test_cauchy_bound_in_lowest_terms():
    assert exactpoly.cauchy_bound((2, -6, 4)) == (5, 2)  # 1 + 6/4, not 10/4
    assert exactpoly.cauchy_bound((-2, 0, 1)) == (3, 1)


def test_refinement_returns_integers_and_leaves_an_adjacent_root():
    # x^3 - 2x on (0, 3]: the left end is the root 0, the enclosed root is sqrt(2)
    p = (0, -2, 0, 1)
    a, b, d = exactpoly._refine_simple_root(p, 0, 3, 1, F(1, 2**20))
    assert all(type(v) is int for v in (a, b, d))
    assert 0 < a and a * a < 2 * d * d < b * b and (b - a) * 2**20 <= d


def test_ends_move_off_the_roots_of_other_factors():
    # sqrt(2) in (0, 3/2]; x (2x - 3) (x^2 - 2) vanishes at both ends
    q = mul(mul((0, 1), (-3, 2)), (-2, 0, 1))
    a, b, d = exactpoly._move_ends_off_roots((-2, 0, 1), q, 0, 3, 2)
    # lo + (hi - lo)/4, then hi - (hi - lo)/16: the first step from 3/2 lands below sqrt(2)
    assert (F(a, d), F(b, d)) == (F(3, 8), F(183, 128))
    # a candidate on the enclosed root comes back as a point: 1 = 0 + (4 - 0)/4
    assert exactpoly._move_ends_off_roots((-1, 1), (0, -1, 1), 0, 4, 1) == (4, 4, 4)


def test_equality_certificate_decides_by_signs(monkeypatch):
    root2 = AlgebraicReal((-2, 0, 1), 1, 2)
    other = AlgebraicReal(mul((-2, 0, 1), (5, 1)), F(7, 5), F(3, 2))
    calls = _count_calls(monkeypatch, ("sturm_chain", "count_roots_halfopen"))
    assert root2.compare(other) == 0 and other.compare(root2) == 0
    assert not calls
    # gcd x^2 - 2 has one sign on the overlap (29/20, 8/5]: no common root there
    three_halves = AlgebraicReal(mul((-2, 0, 1), (-3, 2)), F(29, 20), F(8, 5))
    assert three_halves.compare(AlgebraicReal((-2, 0, 1), 1, 2)) == 1
    assert not calls


def test_enclosure_holding_another_factors_root():
    # beta = sqrt(2 + 1e-9) is simple; sqrt(2), a double root, lies 3.5e-10 below it
    p = mul(mul((-2, 0, 1), (-2, 0, 1)), (-(2 * 10**9 + 1), 0, 10**9))
    beta = AlgebraicReal.dominant_root(p)
    assert beta.poly == (-(2 * 10**9 + 1), 0, 10**9)
    beta.refine(1e-15)
    assert beta.lo * beta.lo < F(2 * 10**9 + 1, 10**9) < beta.hi * beta.hi
    below = beta.lo - F(1, 10**16)
    above = beta.hi + F(1, 10**16)
    assert beta.compare_fraction(below) > 0 and beta.compare_fraction(above) < 0
    # both enclosures overlap inside compare's 2^-10 refinement floor
    assert beta.compare(AlgebraicReal.dominant_root((-2, 0, 1))) > 0
    [enc] = [e for e in isolate_real_roots(p, F(1, 10**6)) if e.lo > 0 and e.multiplicity == 1]
    assert from_enclosure(p, enc).poly == beta.poly


@settings(max_examples=40, deadline=None)
@given(_polys_with_real_roots(), st.sampled_from((F(1, 2**8), F(1, 2**24))))
def test_from_enclosure_isolates_one_root_of_its_polynomial(p, width):
    for enc in isolate_real_roots(p, width):
        alg = from_enclosure(p, enc)
        if enc.is_exact():
            assert eval_at(alg.poly, enc.lo) == 0
        else:
            assert count_roots_halfopen(sturm_chain(alg.poly), enc.lo, enc.hi) == 1
