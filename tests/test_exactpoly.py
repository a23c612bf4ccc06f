"""Root counting, isolation, and exact algebraic comparisons."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpoly import exactpoly
from pcpoly.exactpoly import (
    AlgebraicReal,
    QuadSurd,
    RatInterval,
    _sign_at,
    count_nonreal_roots,
    degree,
    descartes_no_root_above,
    dominant_real_root,
    eval_at,
    is_root_surd,
    isolate_real_roots,
    mul,
    real_root_count,
    shift_poly,
    sqrt_interval,
    trim,
)


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
        (AlgebraicReal.from_enclosure(poly, enc), root)
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


def test_quad_surd():
    s = QuadSurd.make(5, 5, 2)  # (5 + sqrt 5)/2
    assert is_root_surd((5, -5, 1), s)
    assert s.compare_fraction(F(36, 10)) > 0
    assert s.compare_fraction(F(37, 10)) < 0
    alg = s.to_algebraic()
    assert alg.compare(AlgebraicReal.dominant_root((5, -5, 1))) == 0
    rationalized = QuadSurd.make(1, 4, 2)  # (1 + 2)/2
    assert rationalized.is_rational() and rationalized.as_fraction() == F(3, 2)


def test_descartes_shift_filter():
    p = (-2, 0, 1)  # x^2 - 2
    assert descartes_no_root_above(p, F(2))
    assert not descartes_no_root_above(p, F(14, 10))
    assert not descartes_no_root_above(p, F(1414213562373095, 10**15))


def test_shift_poly():
    assert shift_poly((0, 0, 1), 1) == (F(1), F(2), F(1))
    p = (3, -1, 4, 2)
    for t in (F(1, 3), F(-2, 7)):
        shifted = shift_poly(p, t)
        assert eval_at(shifted, F(5, 11)) == eval_at(p, F(5, 11) + t)


def test_sqrt_interval_and_ratinterval():
    lo, hi = sqrt_interval(F(2), F(1, 10**12))
    assert lo * lo <= 2 <= hi * hi and hi - lo <= F(1, 10**12)
    assert sqrt_interval(F(9, 4), F(1, 10))[0] == F(3, 2)
    iv = (RatInterval.point(2).sqrt() + 1) * 2
    assert float(iv.lo) == pytest.approx(2 * (1 + 2**0.5), abs=1e-9)
    assert F(2) in RatInterval.point(2)
