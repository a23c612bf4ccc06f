"""Expected clique-count polynomials of binomial random graphs.

The degree-n recurrence polynomial with c_k replaced by C(n,k) p^{C(k,2)} has
all roots real, simple and positive; this module isolates them, evaluates the
printed radical closed forms for n <= 5, computes the limiting root ladder
through the factorial truncation polynomials, and computes the series of the
two largest scaled roots in p by exact power-series reversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from .exactpoly import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    RatInterval,
    RootEnclosure,
    _bisect,
    _div_exact_int,
    _sign_at,
    add,
    clear_denominators,
    count_nonreal_roots,
    dominant_real_root,
    eval_at,
    isolate_real_roots,
    mul,
    primitive,
    scale,
    sub,
    trim,
    x_power,
)


@dataclass(frozen=True)
class RandomPC:
    """Expected recurrence polynomial of G(n, p), exact rational coefficients."""

    n: int
    p: Fraction
    poly: tuple  # ascending Fractions, degree n

    def coefficient(self, power: int) -> Fraction:
        return self.poly[power]


def pc_random(n: int, p) -> RandomPC:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = (-1) ** k * math.comb(n, k) * p ** (k * (k - 1) // 2)
    return RandomPC(n, p, tuple(coeffs))


def clique_random(n: int, p) -> tuple:
    """Expected clique polynomial, ascending rational coefficients."""
    p = Fraction(p)
    return tuple(math.comb(n, k) * p ** (k * (k - 1) // 2) for k in range(n + 1))


# ---------------------------------------------------------------------------
# closed forms for n <= 5


def _closed_form_interval(n: int, p: Fraction, eps: Fraction) -> RatInterval:
    one = RatInterval.point(1)
    pi = RatInterval.point(p)
    if n == 1:
        return one
    if n == 2:
        return one + (one - pi).sqrt(eps)
    if n == 3:
        return one + (one - pi) / 2 + (3 * (1 - pi) * (3 + pi)).sqrt(eps) / 2
    if n == 4:
        root2 = RatInterval.point(2).sqrt(eps)
        first = (one - pi) * ((2 + pi) / 2).sqrt(eps)
        inner = (one - pi) * (4 + pi + pi * pi + 2 * root2 * (2 + pi).sqrt(eps)) / 2
        return one + first + inner.sqrt(eps)
    if n == 5:
        root5 = RatInterval.point(5).sqrt(eps)
        root2 = RatInterval.point(2).sqrt(eps)
        t = (5 + 2 * pi + pi * pi).sqrt(eps)
        second = (one - pi * pi) / 4
        third = root5 * (one - pi) * t / 4
        inner = 5 * (5 + pi + pi * pi + pi * pi * pi) + (5 - pi * pi) * root5 * t
        fourth = (one - pi).sqrt(eps) * inner.sqrt(eps) / (2 * root2)
        return one + second + third + fourth
    raise ValueError("closed forms cover n <= 5 only")


def beta_random(n: int, p, width: Fraction = DEFAULT_WIDTH):
    """(enclosure of the dominant root, closed-form interval or None).

    For n <= 5 the printed radical expression is evaluated with certified
    interval arithmetic and must agree with the isolated root within width.
    """
    rpc = pc_random(n, p)
    p = rpc.p
    if p == 0:
        enc = RootEnclosure(Fraction(n), Fraction(n), 1)
    elif p == 1:
        enc = RootEnclosure(Fraction(1), Fraction(1), n)
    else:
        enc = dominant_real_root(rpc.poly, width)
    closed = None
    if n <= 5:
        closed = _closed_form_interval(n, p, min(width / 8, Fraction(1, 10**16)))
        assert closed.lo <= enc.hi + width and enc.lo - width <= closed.hi, (
            "closed form drifted from the isolated dominant root"
        )
    return enc, closed


def random_root_ladder(n: int, p, r: int, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Enclosure of the r-th largest root, with the full structure asserted.

    Asserts: all n roots real and simple, consecutive-root domination
    (next < p * previous), the exact middle root for odd n, and the exact
    p^(n-1)-inversion symmetry pairing the roots.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("ladder structure needs 0 < p < 1")
    if not 1 <= r <= n:
        raise ValueError("root index out of range")
    rpc = pc_random(n, p)
    ipoly = clear_denominators(rpc.poly)
    assert count_nonreal_roots(ipoly) == 0, "roots must all be real"
    roots = isolate_real_roots(ipoly, min(width, Fraction(1, 10**14)))
    assert len(roots) == n and all(e.multiplicity == 1 for e in roots), (
        "roots must be simple"
    )
    # descending-order interlacing: beta_{i+1} < p * beta_i
    for low, high in zip(roots, roots[1:]):
        scaled_hi = p * high.hi
        # the roots are simple, so ipoly is squarefree and isolates each of them
        assert low.hi < scaled_hi or AlgebraicReal(ipoly, low.lo, low.hi).compare_fraction(
            p * high.lo
        ) < 0, "domination chain violated"
    # inversion symmetry: x^n PC(p^(n-1)/x) = (-1)^n p^C(n,2) PC(x)
    shift = p ** (n - 1)
    lhs = tuple(
        rpc.poly[n - j] * shift ** (n - j) for j in range(n + 1)
    )
    rhs = tuple((-1) ** n * p ** (n * (n - 1) // 2) * c for c in rpc.poly)
    assert trim(lhs) == trim(rhs), "p^(n-1)-inversion symmetry failed"
    if n % 2 == 1:
        mid = p ** ((n - 1) // 2)
        assert eval_at(rpc.poly, mid) == 0, "odd-n middle root must be exact"
        below = sum(1 for e in roots if e.hi < mid)
        above = sum(1 for e in roots if e.lo > mid)
        assert below == above == (n - 1) // 2
        idx = (n - 1) // 2  # ascending position of the middle root
        roots[idx] = RootEnclosure(mid, mid, 1)
    return roots[n - r]


# ---------------------------------------------------------------------------
# truncation-polynomial ladder and the limiting constant


def truncation_poly(t: int, b: Fraction) -> tuple:
    """P_t(x) = sum_{i<=t} (-1)^i x^(t-i) / (i! b^C(i,2)), ascending rationals."""
    coeffs = [Fraction(0)] * (t + 1)
    for i in range(t + 1):
        coeffs[t - i] = Fraction((-1) ** i, math.factorial(i)) / b ** (i * (i - 1) // 2)
    return tuple(coeffs)


def _positive_roots_descending(ipoly, how_many: int, width: Fraction):
    """Bracket the largest positive roots by a descending multiplicative scan."""
    brackets = []
    hi = Fraction(3, 2)
    sign_hi = _sign_at(ipoly, hi)
    if sign_hi == 0:
        hi += Fraction(1, 97)
        sign_hi = _sign_at(ipoly, hi)
    lo = hi
    floor = Fraction(1, 10**7)
    while len(brackets) < how_many and lo > floor:
        lo = lo * Fraction(63, 64)
        sign_lo = _sign_at(ipoly, lo)
        if sign_lo == 0:
            brackets.append((lo, lo))
            sign_hi = -sign_hi if sign_hi else sign_hi
            hi = lo
            continue
        if sign_lo != sign_hi:
            brackets.append((lo, hi))
            sign_hi = sign_lo
        hi = lo
    return [RootEnclosure(*_bisect(ipoly, a, b_, width), 1) for a, b_ in brackets[:how_many]]


def ladder_limit_roots(r: int, p, t: int, width: Fraction = Fraction(1, 10**9)) -> RootEnclosure:
    """r-th largest positive root of the degree-t truncation polynomial.

    This is the limit of the r-th scaled root of the random-graph recurrence
    polynomial as the vertex count grows.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    if t < 2 * r:
        raise ValueError("truncation degree must be at least 2r")
    b = 1 / p
    ipoly = clear_denominators(truncation_poly(t, b))
    roots = _positive_roots_descending(ipoly, r, width)
    if len(roots) < r:
        raise ValueError(f"fewer than {r} positive roots found for t={t}")
    return roots[r - 1]


def beta0_constant(width: Fraction = Fraction(1, 10**10)) -> RootEnclosure:
    """The limiting scaled growth rate at p = 1/2, two independent ways.

    (i) dominant positive roots of the even/odd truncation polynomials, which
    sandwich the limit; (ii) the reciprocal of the unique small-modulus root
    of the entire series F(x) = sum x^m / (m! 2^C(m,2)), located by certified
    bisection with an explicit tail bound.  The enclosures must intersect.
    """
    if width < Fraction(1, 10**30):
        raise ValueError("width below the supported precision floor")
    half = Fraction(1, 2)
    lower_t, upper_t = 60, 61
    enc_even = ladder_limit_roots(1, half, lower_t, width / 8)
    enc_odd = ladder_limit_roots(1, half, upper_t, width / 8)
    method_i = (min(enc_even.lo, enc_odd.lo), max(enc_even.hi, enc_odd.hi))

    n_trunc = 40
    coeffs = [
        Fraction(1, math.factorial(m) * 2 ** (m * (m - 1) // 2)) for m in range(n_trunc + 1)
    ]
    tail = Fraction(2 ** (n_trunc + 1), math.factorial(n_trunc + 1) * 2
                    ** (n_trunc * (n_trunc + 1) // 2)) * 2
    lo_x, hi_x = Fraction(-2), Fraction(-1)
    flo = eval_at(coeffs, lo_x)
    fhi = eval_at(coeffs, hi_x)
    assert flo < -tail and fhi > tail, "bracket must certify opposite signs"
    target = width / 16
    while hi_x - lo_x > target:
        mid = (lo_x + hi_x) / 2
        v = eval_at(coeffs, mid)
        if v > tail:
            hi_x = mid
        elif v < -tail:
            lo_x = mid
        else:  # pragma: no cover - tail bound is astronomically small
            raise ArithmeticError("truncation too short to certify the sign")
    method_ii = (-1 / lo_x, -1 / hi_x)

    lo = max(method_i[0], method_ii[0])
    hi = min(method_i[1], method_ii[1])
    if lo > hi:
        raise ArithmeticError("the two constant computations disagree")
    assert hi - lo <= width
    return RootEnclosure(lo, hi, 1)


# ---------------------------------------------------------------------------
# series of the scaled roots, by exact reversion over Q[[p]]

SERIES_TERMS = 25


@dataclass(frozen=True)
class SeriesCoeffs:
    """Series of the r-th scaled root in the edge probability."""

    r: int
    coeffs: tuple  # coeffs[j] multiplies p^j

    def eval(self, p) -> Fraction:
        return eval_at(self.coeffs, Fraction(p))


def _series_inverse(a, n: int) -> tuple:
    """1/a mod p^n for a power series a (ascending) with a[0] != 0."""
    inv = [Fraction(1) / a[0]]
    for k in range(1, n):
        inv.append(-inv[0] * sum(a[j] * inv[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return tuple(inv)


def _horner_mod(coeffs, u, n: int) -> tuple:
    """sum_i coeffs[i] u^i mod p^n, every coeffs[i] a polynomial in p below p^n."""
    acc = ()
    for c in reversed(coeffs):
        acc = add(mul(acc, u)[:n], c)
    return acc


def _implicit_series(coeffs, start, n: int) -> tuple:
    """The series u(p) mod p^n with sum_i coeffs[i](p) u^i = 0 and u(0) = start.

    start must be a simple root at p = 0, so each Newton step doubles the
    number of exact terms; the loop ends when the residual is 0 mod p^n.
    """
    dcoeffs = [scale(c, i) for i, c in enumerate(coeffs)][1:]
    u = (Fraction(start),)
    while residual := _horner_mod(coeffs, u, n):
        step = mul(residual, _series_inverse(_horner_mod(dcoeffs, u, n), n))[:n]
        u = sub(u, step)
    return u + (Fraction(0),) * (n - len(u))


@lru_cache(maxsize=None)
def beta_series(r: int) -> SeriesCoeffs:
    """First SERIES_TERMS series coefficients of the largest (r=1) or second (r=2) root.

    Both come from sum_i (-1)^i y^i p^C(i,2) / i! = 0, reverted exactly:
    beta_1 = 1/y on the branch y(0) = 1, and beta_2 = p/u on the scaled
    branch y = u/p with u(0) = 2 (the equation times p, in u).
    """
    if r not in (1, 2):
        raise ValueError("series data covers r in {1, 2}")
    # exponent of p next to y^i (r=1) or u^i (r=2): C(i,2), or C(i,2) - i + 1
    terms = SERIES_TERMS
    coeffs = []
    for i in range(terms + 2):
        power = i * (i - 1) // 2 - (r - 1) * (i - 1)
        c = Fraction((-1) ** i, math.factorial(i))
        coeffs.append(scale(x_power(power), c) if power < terms else ())
    root = _implicit_series(coeffs, r, terms)  # y(0) = 1 for r=1, u(0) = 2 for r=2
    if r == 1:
        return SeriesCoeffs(1, _series_inverse(root, terms))
    return SeriesCoeffs(2, (Fraction(0),) + _series_inverse(root, terms - 1))


# ---------------------------------------------------------------------------
# the clique-count generating polynomial in the edge probability


def f_n_polynomial(n: int) -> tuple:
    """f_n(z) = sum_k C(n,k) z^C(k,2), ascending integer coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = n * (n - 1) // 2 + 1
    coeffs = [0] * size
    for k in range(n + 1):
        coeffs[k * (k - 1) // 2] += math.comb(n, k)
    return trim(coeffs)


def f_n_divisible_by(n: int, divisor: tuple) -> bool:
    """Exact divisibility test of f_n by the given integer polynomial.

    By Gauss's lemma a primitive divisor of the integer f_n over Q divides it
    in Z[x], so exact integer division decides it.
    """
    try:
        _div_exact_int(f_n_polynomial(n), primitive(trim(divisor)))
        return True
    except ArithmeticError:
        return False


def ladder_curve_csv(r: int, t: int, grid) -> str:
    """CSV rows p,value for the r-th limiting scaled root on a probability grid."""
    lines = ["p,beta_over_n"]
    for p in grid:
        p = Fraction(p)
        enc = ladder_limit_roots(r, p, t)
        lines.append(f"{p},{float(enc.midpoint):.12f}")
    return "\n".join(lines) + "\n"
