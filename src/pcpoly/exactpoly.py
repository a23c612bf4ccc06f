"""Exact polynomial arithmetic and certified real-root isolation.

Polynomials are tuples of coefficients in ascending degree order.  Public
entry points accept ``int`` or ``Fraction`` coefficients; the root kernel
(squarefree decomposition, Sturm chains, isolation and bisection) runs on
primitive ``int`` tuples and on intervals held as integer numerators over
one shared denominator.  ``Fraction`` appears only at its boundary: the
endpoints it returns, a rational root it hits, and the Fraction points that
callers such as :class:`AlgebraicReal` pass in.  Every root bound produced
here is a rational interval certified by exact sign evaluations (or an
exact rational hit), so no floating point enters any result.  Every
question about where a largest root lies goes through :class:`DominantRoot`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from . import _Record

DEFAULT_WIDTH = Fraction(1, 10**12)
# starting enclosure width of a largest root before a certified comparison refines it
COMPARE_WIDTH = Fraction(1, 2**20)


# ---------------------------------------------------------------------------
# basic arithmetic


def trim(coeffs) -> tuple:
    """Drop trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p) -> int:
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    return trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p, c):
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def x_power(k):
    return tuple([0] * k + [1])


def eval_at(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim(i * p[i] for i in range(1, len(p)))


def to_fraction_poly(p):
    return tuple(Fraction(c) for c in p)


def clear_denominators(p) -> tuple:
    """Rational polynomial -> primitive integer polynomial with positive lead."""
    p = trim(p)
    if not p:
        return ()
    if all(type(c) is int for c in p):
        return primitive(p)
    lcm = 1
    for c in p:
        c = Fraction(c)
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return primitive(tuple(int(Fraction(c) * lcm) for c in p))


def content(p) -> int:
    return math.gcd(*p) or 1


def primitive(p):
    g = content(p)
    sign = -1 if p and p[-1] < 0 else 1
    return tuple(c * sign // g for c in p)


def _div_exact_int(p, q):
    """p / q in Z[x]; raises ArithmeticError unless q divides p there.

    For a primitive q that divides p over the rationals the quotient is
    integral (Gauss's lemma), so this is exact division by a primitive gcd.
    """
    r = list(p)
    dq = len(q) - 1
    lq = q[-1]
    quot = [0] * max(len(r) - dq, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, rest = divmod(r[k + dq], lq)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        quot[k] = c
        if c:
            for i in range(dq):  # the top term cancels by construction
                r[k + i] -= c * q[i]
    if any(r[:dq]):
        raise ArithmeticError("inexact polynomial division")
    return trim(quot)


def _pseudo_rem_signed(a, b):
    """Pseudo-remainder of a by b scaled by an even power of lc(b).

    The even power keeps the sign of the true remainder, which Sturm chains
    rely on.  Content is not removed here.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    steps = 0
    while len(r) - 1 >= db and any(r):
        dr = len(r) - 1
        coef = r[-1]
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[dr - db + i] -= coef * bc
        del r[dr:]
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if lb < 0 and steps % 2 == 1:
        r = [lb * c for c in r]
    return trim(r)


def gcd_int(p, q):
    """Primitive gcd of integer polynomials: the last element of their remainder
    sequence is an associate, whose primitive part it is (DECISIONS.md D8)."""
    a, b = trim(p), trim(q)
    seq = _remainder_sequence(a, b) if len(a) >= len(b) else _remainder_sequence(b, a)
    return primitive(seq[-1]) if seq else ()


def squarefree_part(p):
    p = primitive(trim(p))
    if len(p) <= 1:
        return p
    return _div_exact_int(p, primitive(sturm_chain(p)[-1]))  # p / gcd(p, p')


def squarefree_decomposition(p):
    """List of (multiplicity, primitive squarefree factor), multiplicities ascending."""
    return [(mult, factor) for mult, factor, _ in _squarefree_with_chains(primitive(trim(p)))]


def _gcd_tower(p):
    """[(p_j, Sturm chain of p_j)] for p_0 = p and p_(j+1) = gcd(p_j, p_j') while not constant.

    p_(j+1) is the primitive last element of the chain of p_j (DECISIONS.md
    D8).  A root of multiplicity m in p is a root of p_0, ..., p_(m-1) only.
    """
    tower = []
    while len(p) > 1:
        chain = sturm_chain(p)
        tower.append((p, chain))
        p = primitive(chain[-1])
    return tower


def _squarefree_with_chains(p):
    """Squarefree decomposition of primitive ``p`` as [(multiplicity, factor, Sturm chain of factor)].

    q_j = p_(j-1)/p_j over the gcd tower is the product of the roots of
    multiplicity at least j, and the factor of multiplicity m is
    q_m/q_(m+1).  All divisions are exact by primitive divisors, so every
    factor is primitive with a positive leading coefficient (DECISIONS.md
    D11).  A squarefree p keeps the chain the tower built.
    """
    tower = _gcd_tower(p)
    if len(tower) == 1:
        return [(1, p, tower[0][1])]
    levels = [q for q, _ in tower] + [(1,)]
    radicals = [_div_exact_int(a, b) for a, b in zip(levels, levels[1:])] + [(1,)]
    factors = [_div_exact_int(a, b) for a, b in zip(radicals, radicals[1:])]
    return [(m, f, sturm_chain(f)) for m, f in enumerate(factors, 1) if len(f) > 1]


# ---------------------------------------------------------------------------
# Sturm machinery


def _reduce_content(p):
    """Divide by the (positive) content; keeps the sign of every coefficient."""
    if not p:
        return p
    g = content(p)
    return tuple(c // g for c in p)


def _remainder_sequence(a, b):
    """a, b and their negated pseudo-remainders, content-reduced, up to the last nonzero one."""
    seq = [_reduce_content(a), _reduce_content(b)]
    while seq[-1]:
        r = _pseudo_rem_signed(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_reduce_content(neg(r)))
    return [f for f in seq if f]


def sturm_chain(p):
    """Sturm chain of an integer polynomial (content-reduced at each step)."""
    return _remainder_sequence(trim(p), derivative(p))


def _variations(signs) -> int:
    prev = 0
    v = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at(p, x) -> int:
    """Sign of p(x) for an integer polynomial ``p`` and a rational ``x = n/d``.

    Evaluates d^k p(n/d), k = deg p, by Horner in integers: no rational
    normalization, and the sign is the same because d > 0.
    """
    return _sign_nd(p, x.numerator, x.denominator)


def _sign_nd(p, n, d) -> int:
    """Sign of p(n/d) for integers n and d > 0, as in :func:`_sign_at`."""
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * n + c * power
        power *= d
    return (acc > 0) - (acc < 0)


def _variations_nd(chain, n, d) -> int:
    """Sign variations of the chain at n/d, for integers n and d > 0."""
    return _variations([_sign_nd(f, n, d) for f in chain])


def variations_at(chain, x) -> int:
    return _variations_nd(chain, x.numerator, x.denominator)


def variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for f in chain:
        s = _sign(f[-1])
        if not positive and degree(f) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_roots_halfopen(chain, a, b) -> int:
    """Distinct real roots in (a, b]; neither end may be a multiple root of the chain head.

    With zero signs dropped, the variation count at a point equals the count
    just to its right, which yields half-open semantics at both ends.  Every
    chain element vanishes at a multiple root of the head, and only there,
    so a head that is not squarefree is counted right at every other point
    and at infinity (DECISIONS.md D8).
    """
    va = variations_at(chain, a) if a is not None else variations_at_inf(chain, False)
    vb = variations_at(chain, b) if b is not None else variations_at_inf(chain, True)
    return va - vb


def real_root_count(p, interval=(None, None)) -> int:
    """Number of distinct real roots of ``p`` in the half-open (a, b].

    ``None`` endpoints mean minus/plus infinity.  ``p`` may have rational
    coefficients and need not be squarefree.
    """
    ip = clear_denominators(p)
    if not ip:
        raise ValueError("zero polynomial")
    # the squarefree factors are pairwise coprime: their roots partition those of p
    a, b = interval
    return sum(count_roots_halfopen(chain, a, b) for _, _, chain in _squarefree_with_chains(ip))


def cauchy_bound(p) -> tuple[int, int]:
    """(m, d) with every real root of integer ``p`` inside (-m/d, m/d).

    m/d = 1 + max |c_i| / |c_n|, Cauchy's bound, in lowest terms: every
    bisection point then has the smallest denominator.
    """
    lead = abs(p[-1])
    m = lead + max((abs(c) for c in p[:-1]), default=0)
    g = math.gcd(m, lead)
    return m // g, lead // g


# ---------------------------------------------------------------------------
# enclosures


class RootEnclosure(_Record):
    """Rational interval [lo, hi] certified to contain exactly one real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, q) -> bool:
        return self.lo <= q <= self.hi

    def __float__(self) -> float:
        return float(self.midpoint)


def _try_rational_root(p, a, b, d):
    """A rational root of integer ``p`` in (a/d, b/d] as the point (num, num, den), or None."""
    lead = abs(p[-1])
    dens = [1]
    if lead > 1 and lead <= 10**6:
        dens = sorted({q for i in range(1, math.isqrt(lead) + 1) if lead % i == 0
                       for q in (i, lead // i)})
    for den in dens:
        # num/den > a/d from num > floor(a den / d), and num/den <= b/d
        first = a * den // d + 1
        last = b * den // d
        if last - first > 32:
            continue
        for num in range(first, last + 1):
            if _sign_nd(p, num, den) == 0:
                return num, num, den
    return None


def _over_one_denominator(lo, hi) -> tuple[int, int, int]:
    """(a, b, d) with lo = a/d and hi = b/d for Fractions lo and hi."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _bisect(p, a, b, d, wn, wd):
    """Halve (a/d, b/d] around the sign change of ``p`` until it is at most wn/wd wide.

    The midpoint is (a + b)/2d, its sign comes from integer Horner
    (:func:`_sign_nd`), and b - a never changes while d doubles.  Returns
    the interval as (a, b, d); an exact hit on a root returns it with a = b.
    """
    gap = b - a
    s_lo = _sign_nd(p, a, d)
    while gap * wd > wn * d:
        mid = a + b
        d *= 2
        s = _sign_nd(p, mid, d)
        if s == 0:
            return mid, mid, d
        if s == s_lo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return a, b, d


def _move_ends_off_roots(p, q, a, b, d):
    """Move the ends of (a/d, b/d] off the roots of ``q``, keeping the simple root of ``p``.

    ``p`` has exactly one root in the interval, simple, and p(b) != 0.  An
    end on a root of q steps inward by (b - a)/4^j d, j = 1, 2, ..., to the
    first candidate on its side of the enclosed root, which the sign of p
    against p(b) tells (DECISIONS.md D10); a candidate on the root itself
    returns it as the point (c, c, d).
    """
    for left in (True, False):
        while _sign_nd(q, a if left else b, d) == 0:
            s_hi = _sign_nd(p, b, d)  # only when an end moves; a moved hi keeps it
            e = 4
            while True:
                c = a * e + b - a if left else b * e - b + a
                s = _sign_nd(p, c, d * e)
                if s == 0:
                    return c, c, d * e
                if (s == s_hi) != left:
                    a, b, d = (c, b * e, d * e) if left else (a * e, c, d * e)
                    break
                e *= 4
    return a, b, d


def _refine_simple_root(p, a, b, d, width):
    """Shrink (a/d, b/d] around the unique simple root of squarefree ``p``, as (a, b, d).

    Works on integer numerators over one denominator and builds no
    Fraction.  The root is simple and the only one in the interval, so p
    has one sign on (lo, root) and the other on (root, hi]: the sign of p at
    a point against its sign at hi tells on which side of the root the
    point lies.  An exact hit on the root returns it with a = b.
    """
    wn, wd = width.as_integer_ratio()
    exact = _try_rational_root(p, a, b, d)
    if exact is not None:
        return exact
    if _sign_nd(p, b, d) == 0:
        return b, b, d
    # lo may be an adjacent root of p; a hit on the root (a = b) passes through
    a, b, d = _move_ends_off_roots(p, p, a, b, d)
    # the widths run (b - a)/2^k d; the rational-root search is retried
    # once, at the first of them below 2 that is still wider than ``width``
    first_d = d
    while b - a >= 2 * first_d:
        first_d *= 2
    if (b - a) * wd > wn * first_d:
        a, b, d = _bisect(p, a, b, d, b - a, first_d)
        if (b - a) * wd > wn * d:
            exact = _try_rational_root(p, a, b, d)
            if exact is not None:
                return exact
    return _bisect(p, a, b, d, wn, wd)


def _root_enclosures(factor, chain, mult, sqfull, width):
    """Enclosures of the real roots of squarefree ``factor``, largest first.

    Bisects the Cauchy-bound interval at rational midpoints, counting roots
    in each half-open (a/d, b/d] with ``chain``, the Sturm chain of
    ``factor``, and searching the right half first.  Each stack entry
    carries the chain's sign variations at both ends, so a split evaluates
    the chain at its midpoint only.  Each interval that holds one root is
    refined, and its ends moved off the roots of ``sqfull``, only when the
    caller asks for the next enclosure.
    """
    m, d = cauchy_bound(factor)
    # no root lies outside (-m/d, m/d), so Sturm's counts there are those at -inf and +inf
    stack = [(-m, m, d, variations_at_inf(chain, False), variations_at_inf(chain, True))]
    while stack:
        a, b, d, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            a, b, d = _refine_simple_root(factor, a, b, d, width)
            if a != b:
                a, b, d = _move_ends_off_roots(factor, sqfull, a, b, d)
            yield RootEnclosure(Fraction(a, d), Fraction(b, d), mult)
            continue
        mid = a + b
        vm = _variations_nd(chain, mid, 2 * d)
        stack.append((2 * a, mid, 2 * d, va, vm))
        stack.append((mid, 2 * b, 2 * d, vm, vb))


def _enclosures_per_factor(p, width):
    """(factor, lazy :func:`_root_enclosures` iterator) per squarefree factor of ``p``."""
    ip = clear_denominators(p)
    if not ip:
        raise ValueError("zero polynomial")
    if width <= 0:
        raise ValueError("width must be positive")
    factors = _squarefree_with_chains(ip)
    # the product of the factors has the roots of ip; it serves the zero tests
    sqfull = reduce(mul, (factor for _, factor, _ in factors), (1,))
    return [(factor, _root_enclosures(factor, chain, mult, sqfull, width))
            for mult, factor, chain in factors]


def isolate_real_roots(p, width=DEFAULT_WIDTH):
    """Disjoint enclosures of all distinct real roots, sorted ascending.

    Multiplicities come from the squarefree decomposition.  Every root of
    every squarefree factor is refined to ``width``.  Every non-exact
    enclosure carries a sign change of the squarefree part at its endpoints
    (endpoints are moved off roots of other factors).  Signs are taken by
    integer Horner (:func:`_sign_at`), so every decision is exact.
    """
    out = [enc for _, encs in _enclosures_per_factor(p, width) for enc in encs]
    out.sort(key=lambda e: (e.lo, e.hi))
    return out


def dominant_real_root(p, width=DEFAULT_WIDTH) -> RootEnclosure:
    """Enclosure of the largest real root, equal to ``isolate_real_roots(p, width)[-1]``.

    Only the top root of each squarefree factor is isolated and refined: the
    bisection stops at the first single-root interval from the right, and
    the other roots are never refined.  Signs are taken by integer Horner
    (:func:`_sign_at`).
    """
    return _dominant_root_and_factor(p, width)[0]


def _dominant_root_and_factor(p, width):
    """(enclosure of the largest real root, the squarefree factor it is a root of)."""
    best = None
    for factor, encs in _enclosures_per_factor(p, width):
        top = next(encs, None)
        # on equal keys the later factor wins, like the stable sort in isolate_real_roots
        if top is not None and (best is None or (top.lo, top.hi) >= (best[0].lo, best[0].hi)):
            best = top, factor
    if best is None:
        raise ValueError("polynomial has no real root")
    return best


def count_nonreal_roots(p) -> int:
    """Degree minus the multiplicity-weighted number of real roots.

    Summing Sturm's count of distinct real roots, valid without
    squarefreeness, over the gcd tower of :func:`_gcd_tower` weights each
    real root by its multiplicity (DECISIONS.md D8).
    """
    ip = clear_denominators(p)
    if not ip:
        raise ValueError("zero polynomial")
    real = sum(count_roots_halfopen(chain, None, None) for _, chain in _gcd_tower(ip))
    return degree(ip) - real


# ---------------------------------------------------------------------------
# exact algebraic reals


class AlgebraicReal:
    """A real algebraic number as (squarefree integer polynomial, isolating interval).

    The number is the one root of ``poly`` in (lo, hi], or lo when lo = hi.
    It is simple, so refining the interval or placing a rational against the
    root needs only signs of ``poly`` (DECISIONS.md D10).  Comparisons are
    exact: intervals refine until disjoint, and equality is certified through
    a common factor of the defining polynomials.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly, lo, hi):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    # -- constructors

    @staticmethod
    def from_rational(q) -> "AlgebraicReal":
        q = Fraction(q)
        return AlgebraicReal((-q.numerator, q.denominator), q, q)

    @staticmethod
    def dominant_root(p, width=Fraction(1, 10**6)) -> "AlgebraicReal":
        enc, factor = _dominant_root_and_factor(p, width)
        return AlgebraicReal(factor, enc.lo, enc.hi)

    # -- basics

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not refined to a rational point")
        return self.lo

    def refine(self, width) -> None:
        if self.hi - self.lo <= width:
            return
        a, b, d = _refine_simple_root(self.poly, *_over_one_denominator(self.lo, self.hi), width)
        self.lo, self.hi = Fraction(a, d), Fraction(b, d)

    def __float__(self) -> float:
        self.refine(Fraction(1, 10**17))
        return float((self.lo + self.hi) / 2)

    # -- exact comparisons

    def compare_fraction(self, q) -> int:
        q = Fraction(q)
        if self.is_rational():
            return _sign(self.lo - q)
        if q <= self.lo:
            return 1  # the root lies in (lo, hi]
        if q > self.hi:
            return -1
        s = _sign_at(self.poly, q)
        if s == 0:  # the one root of poly in (lo, hi]
            self.lo = self.hi = q
            return 0
        # p changes sign at the simple root and nowhere else in (lo, hi],
        # so p(q) and p(hi) agree iff q lies above it (p(hi) = 0 included)
        if s == _sign_at(self.poly, self.hi):
            self.hi = q
            return -1
        self.lo = q
        return 1

    def compare(self, other: "AlgebraicReal") -> int:
        if other.is_rational():
            return self.compare_fraction(other.lo)
        if self.is_rational():
            return -other.compare_fraction(self.lo)
        # certified equality test: a root of g = gcd in the overlap (a, b],
        # where a lies in neither interval.  g divides the squarefree
        # self.poly, whose one root in (lo, hi] is simple, so g has at most one
        # root in (a, b], and every root of g is simple: at a root a, g' gives
        # the sign of g just right of a
        g = gcd_int(self.poly, other.poly)
        a = max(self.lo, other.lo)
        b = min(self.hi, other.hi)
        if len(g) > 1 and a < b:
            sa = _sign_at(g, a) or _sign_at(derivative(g), a)
            sb = _sign_at(g, b)
            if sb == 0 or sa != sb:
                return 0
        while True:
            if self.hi < other.lo:
                return -1
            if other.hi < self.lo:
                return 1
            w = max(self.hi - self.lo, other.hi - other.lo)
            target = max(w, Fraction(1, 2**8)) / 4
            if target >= w:  # both already inside the 2^-10 floor: keep shrinking
                target = w / 4
            self.refine(target)
            other.refine(target)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __repr__(self):
        return f"AlgebraicReal({float(self):.12g})"


def _taylor_shift(coeffs, c) -> list:
    """Coefficients of p(x + c) from those of p, by repeated synthetic division."""
    work = list(coeffs)
    n = len(work)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            work[j] += work[j + 1] * c
    return work


def _descartes_bound(p, t) -> int:
    """Sign variations of p(x + t), plus one if p(t) = 0, for integer ``p`` and rational t.

    By Descartes' rule of signs no more distinct real roots of p lie at or
    above t.  For t = a/b the shift runs on b^n p((y + a)/b), n = deg p,
    whose coefficients have the signs of those of p(x + t).
    """
    t = Fraction(t)
    n = len(p) - 1
    work = _taylor_shift([int(c) * t.denominator ** (n - i) for i, c in enumerate(p)],
                         t.numerator)
    return _variations([_sign(c) for c in work]) + (work[0] == 0)


def descartes_no_root_above(p, t) -> bool:
    """True certifies that integer polynomial ``p`` has no real root >= t.

    Zero sign variations of p(x + t) and p(t) != 0 leave no root at or above
    t (:func:`_descartes_bound`).  Only a sufficient test in general, but
    exact for polynomials whose root of maximal modulus is real (the shifted
    factors all gain positive coefficients in that case).
    """
    return _descartes_bound(p, t) == 0


class DominantRoot:
    """Exact comparisons of the largest real root of a rational polynomial.

    Every largest-root decision goes through :meth:`sign` (DECISIONS.md D7,
    D10).  Each comparison first tries a certified prefilter on the side the
    caller expects.  Only when the prefilter leaves it open is the root
    isolated, by :meth:`AlgebraicReal.dominant_root` at ``COMPARE_WIDTH``, at
    most once per polynomial.
    """

    def __init__(self, poly):
        self.poly = clear_denominators(poly)  # integers, positive leading coefficient
        self._root = None

    def sign(self, target, expect: int) -> int:
        """Exact sign of the root minus ``target``, a Fraction or an AlgebraicReal.

        With ``expect`` -1, no root at or above the target's lower end
        (Descartes) gives -1; with +1, a negative value at its upper end
        gives +1.
        """
        if not isinstance(target, AlgebraicReal):
            target = AlgebraicReal.from_rational(target)
        if expect < 0 and descartes_no_root_above(self.poly, target.lo):
            return -1
        if expect > 0 and _sign_at(self.poly, target.hi) < 0:
            return 1
        if self._root is None:
            self._root = AlgebraicReal.dominant_root(self.poly, COMPARE_WIDTH)
        return self._root.compare(target)

    def within(self, lo, hi) -> bool:
        """Whether lo <= root <= hi, decided exactly."""
        return self.sign(lo, 1) >= 0 and self.sign(hi, -1) <= 0


# ---------------------------------------------------------------------------
# rational interval arithmetic (for radical closed forms)


def sqrt_interval(q, eps) -> tuple[Fraction, Fraction]:
    """Rational [lo, hi] with lo <= sqrt(q) <= hi and hi - lo <= eps."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    num, den = q.numerator, q.denominator
    k = 0
    step = Fraction(1, den)
    while step > eps:
        k += 1
        step = Fraction(1, den << k)
    s = math.isqrt(num * den << (2 * k))
    lo = Fraction(s, den << k)
    if lo * lo == q:
        return lo, lo
    return lo, Fraction(s + 1, den << k)


class RatInterval(_Record):
    """Closed rational interval used to evaluate nested radicals exactly."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def point(q) -> "RatInterval":
        q = Fraction(q)
        return RatInterval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        other = _as_interval(other)
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        prods = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return RatInterval(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval straddles zero")
        invs = [Fraction(1) / b for b in (other.lo, other.hi)]
        return self * RatInterval(min(invs), max(invs))

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def sqrt(self, eps=Fraction(1, 10**18)) -> "RatInterval":
        lo, _ = sqrt_interval(max(self.lo, Fraction(0)), eps)
        _, hi = sqrt_interval(max(self.hi, Fraction(0)), eps)
        return RatInterval(lo, hi)

    def intersects(self, other) -> bool:
        other = _as_interval(other)
        return self.lo <= other.hi and other.lo <= self.hi

    def __contains__(self, q):
        return self.lo <= Fraction(q) <= self.hi


def _as_interval(x):
    if isinstance(x, RatInterval):
        return x
    return RatInterval.point(Fraction(x))


# ---------------------------------------------------------------------------
# quadratic surds (a + sgn*sqrt(b)) / c


class QuadSurd(_Record):
    """Exact quadratic value (a + sgn*sqrt(b)) / c with rationals a, b >= 0, c > 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    sgn: int = 1

    @staticmethod
    def make(a, b, c, sgn=1) -> "QuadSurd":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if b < 0:
            raise ValueError("negative discriminant")
        if c == 0:
            raise ZeroDivisionError
        if c < 0:
            a, c, sgn = -a, -c, -sgn
        r = _exact_sqrt(b)
        if r is not None:
            return QuadSurd((a + sgn * r) / c, Fraction(0), Fraction(1), 1)
        return QuadSurd(a, b, c, sgn)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational surd")
        return self.a / self.c

    def interval(self, eps=Fraction(1, 10**18)) -> RatInterval:
        lo, hi = sqrt_interval(self.b, eps)
        if self.sgn < 0:
            lo, hi = -hi, -lo
        return RatInterval((self.a + lo) / self.c, (self.a + hi) / self.c)

    def min_poly(self):
        """Integer polynomial with this value as a root (degree <= 2)."""
        if self.b == 0:
            q = self.a / self.c
            return (-q.numerator, q.denominator)
        return clear_denominators(
            (self.a * self.a - self.b, -2 * self.a * self.c, self.c * self.c)
        )

    def to_algebraic(self) -> AlgebraicReal:
        poly = self.min_poly()
        if self.b == 0:
            q = self.a / self.c
            return AlgebraicReal(poly, q, q)
        eps = self.b / 4 if self.b < 1 else Fraction(1, 4)
        while True:
            iv = self.interval(eps)
            other = QuadSurd(self.a, self.b, self.c, -self.sgn).interval(eps)
            if not iv.intersects(other):
                return AlgebraicReal(poly, iv.lo, iv.hi)
            eps /= 16

    def __float__(self):
        iv = self.interval(Fraction(1, 10**17))
        return float((iv.lo + iv.hi) / 2)


def _exact_sqrt(q):
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def is_root_surd(p, s: QuadSurd) -> bool:
    """Whether the surd is a root of ``p``, exactly.

    The minimal polynomial of an irrational surd is irreducible over Q, as
    :meth:`QuadSurd.make` rationalizes square radicands, so the surd is a root
    iff it divides ``p``: iff the pseudo-remainder is zero.
    """
    return not _pseudo_rem_signed(clear_denominators(p), s.min_poly())
