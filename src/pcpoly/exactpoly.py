"""Exact polynomial arithmetic and certified real-root isolation.

Polynomials are tuples of coefficients in ascending degree order.  Public
entry points accept ``int`` or ``Fraction`` coefficients; the root kernel
(squarefree decomposition, Sturm chains, bisection) runs on primitive
``int`` tuples, and ``Fraction`` appears only at its boundary: the
endpoints it returns and the candidates of the rational-root search.  Every
root bound produced here is a rational interval certified by exact sign
evaluations (or an exact rational hit), so no floating point enters any
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

DEFAULT_WIDTH = Fraction(1, 10**12)


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
    ints = [int(Fraction(c) * lcm) for c in p]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    if g:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


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
    """Primitive gcd of integer polynomials via subresultant-style remainders."""
    a, b = primitive(trim(p)), primitive(trim(q))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem_signed(a, b)
        a, b = b, primitive(r) if r else ()
    return primitive(a)


def squarefree_part(p):
    p = primitive(trim(p))
    if len(p) <= 1:
        return p
    g = gcd_int(p, derivative(p))
    if len(g) == 1:
        return p
    return primitive(_div_exact_int(p, g))


def squarefree_decomposition(p):
    """Yun decomposition: list of (multiplicity, primitive squarefree factor).

    Runs exactly in Z[x] (D. Y. Y. Yun, SYMSAC 1976): every divisor is a
    primitive gcd, so every quotient is integral.  b and c are always divided
    by the same gcd, which keeps the c - b' bookkeeping exact; normalizing b
    or c on its own would break it, so only the emitted factors are made
    primitive.
    """
    p = primitive(trim(p))
    out = []
    if len(p) <= 1:
        return out
    d = derivative(p)
    a = gcd_int(p, d)
    b = _div_exact_int(p, a)
    c = _div_exact_int(d, a)
    m = 1
    while len(b) > 1:
        delta = sub(c, derivative(b))
        if not delta:
            out.append((m, primitive(b)))
            break
        f = gcd_int(b, delta)
        if len(f) > 1:
            out.append((m, primitive(f)))
        b = _div_exact_int(b, f)
        c = _div_exact_int(delta, f)
        m += 1
    return out


# ---------------------------------------------------------------------------
# Sturm machinery


def _reduce_content(p):
    """Divide by the (positive) content; keeps the sign of every coefficient."""
    if not p:
        return p
    g = content(p)
    return tuple(c // g for c in p)


def sturm_chain(p):
    """Sturm chain of an integer polynomial (content-reduced at each step)."""
    p = _reduce_content(trim(p))
    chain = [p, _reduce_content(derivative(p))]
    while chain[-1]:
        r = _pseudo_rem_signed(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_reduce_content(neg(r)))
    return [f for f in chain if f]


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


def variations_at(chain, x) -> int:
    n, d = x.numerator, x.denominator
    return _variations([_sign_nd(f, n, d) for f in chain])


def variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for f in chain:
        s = _sign(f[-1])
        if not positive and degree(f) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_roots_halfopen(chain, a, b) -> int:
    """Distinct real roots in (a, b]; requires a squarefree chain head.

    With zero signs dropped, the variation count at a point equals the count
    just to its right, which yields half-open semantics at both ends.
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
    sq = squarefree_part(ip)
    chain = sturm_chain(sq)
    a, b = interval
    return count_roots_halfopen(chain, a, b)


def cauchy_bound(p) -> Fraction:
    lead = abs(Fraction(p[-1]))
    m = max((abs(Fraction(c)) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


# ---------------------------------------------------------------------------
# enclosures


@dataclass(frozen=True)
class RootEnclosure:
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


def _try_rational_root(p, lo, hi):
    """Search for an exact rational root of integer ``p`` inside (lo, hi]."""
    lead = abs(p[-1])
    dens = [1]
    if lead > 1 and lead <= 10**6:
        dens = sorted({d for i in range(1, math.isqrt(lead) + 1) if lead % i == 0
                       for d in (i, lead // i)})
    for den in dens:
        first = math.floor(lo * den) + 1
        last = math.floor(hi * den)
        if last - first > 32:
            continue
        for num in range(first, last + 1):
            cand = Fraction(num, den)
            if cand > lo and _sign_at(p, cand) == 0:
                return cand
    return None


def _bisect(p, lo, hi, width):
    """Halve (lo, hi] around the sign change of ``p`` until hi - lo <= width.

    Works on lo = a/d, hi = b/d over one shared denominator d: the midpoint
    is (a + b)/2d, its sign comes from integer Horner (:func:`_sign_nd`), and
    b - a never changes while d doubles.  Only the returned endpoints become
    Fractions; an exact hit on a root returns it as both.
    """
    width = Fraction(width)
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    gap = b - a
    s_lo = _sign_nd(p, a, d)
    while gap * width.denominator > width.numerator * d:
        mid = a + b
        d *= 2
        s = _sign_nd(p, mid, d)
        if s == 0:
            hit = Fraction(mid, d)
            return hit, hit
        if s == s_lo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return Fraction(a, d), Fraction(b, d)


def _refine_simple_root(p, chain, lo, hi, width):
    """Shrink (lo, hi] around the unique simple root of squarefree ``p``."""
    exact = _try_rational_root(p, lo, hi)
    if exact is not None:
        return exact, exact
    # move lo off an adjacent root without skipping over the enclosed one
    if _sign_at(p, lo) == 0:
        step = (hi - lo) / 4
        while True:
            cand = lo + step
            if _sign_at(p, cand) == 0:
                return cand, cand
            if count_roots_halfopen(chain, cand, hi) == 1:
                lo = cand
                break
            step /= 4
    if _sign_at(p, hi) == 0:
        return hi, hi
    # the widths run (hi - lo) / 2^k; the rational-root search is retried
    # once, at the first of them below 2 that is still wider than ``width``
    first = hi - lo
    while first >= 2:
        first /= 2
    lo, hi = _bisect(p, lo, hi, max(width, first))
    if hi - lo > width:
        exact = _try_rational_root(p, lo, hi)
        if exact is not None:
            return exact, exact
    return _bisect(p, lo, hi, width)


def _root_enclosures(factor, mult, sqfull, width):
    """Enclosures of the real roots of squarefree ``factor``, largest first.

    Bisects the Cauchy-bound interval at rational midpoints, counting roots
    in each half-open (a, b] with the Sturm chain and searching the right
    half first.  Each interval that holds one root is refined and nudged
    only when the caller asks for the next enclosure.
    """
    chain = sturm_chain(factor)
    bound = cauchy_bound(factor)
    total = count_roots_halfopen(chain, -bound, bound)
    stack = [(-bound, bound, total)]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            lo, hi = _refine_simple_root(factor, chain, a, b, width)
            if lo != hi:
                lo, hi = _nudge_off_roots(factor, sqfull, lo, hi)
            yield RootEnclosure(lo, hi, mult)
            continue
        m = (a + b) / 2
        left = count_roots_halfopen(chain, a, m)
        stack.append((a, m, left))
        stack.append((m, b, cnt - left))


def _enclosures_per_factor(p, width):
    """(factor, lazy :func:`_root_enclosures` iterator) per squarefree factor of ``p``."""
    ip = clear_denominators(p)
    if not ip:
        raise ValueError("zero polynomial")
    if width <= 0:
        raise ValueError("width must be positive")
    factors = squarefree_decomposition(ip)
    # the product of the factors has the roots of ip; it serves the zero tests
    sqfull = reduce(mul, (factor for _, factor in factors), (1,))
    return [(factor, _root_enclosures(factor, mult, sqfull, width)) for mult, factor in factors]


def isolate_real_roots(p, width=DEFAULT_WIDTH):
    """Disjoint enclosures of all distinct real roots, sorted ascending.

    Multiplicities come from the squarefree decomposition.  Every root of
    every squarefree factor is refined to ``width``.  Every non-exact
    enclosure carries a sign change of the squarefree part at its endpoints
    (endpoints are nudged off roots of other factors).  Signs are taken by
    integer Horner (:func:`_sign_at`), so every decision is exact.
    """
    out = [enc for _, encs in _enclosures_per_factor(p, width) for enc in encs]
    out.sort(key=lambda e: (e.lo, e.hi))
    return out


def _nudge_off_roots(factor, sqfull, lo, hi):
    """Shrink so neither endpoint is a root of any other squarefree factor.

    The enclosed root stays strictly inside; hitting it exactly collapses the
    interval to a point.
    """
    s_lo = _sign_at(factor, lo)
    while _sign_at(sqfull, lo) == 0:
        step = (hi - lo) / 4
        while True:
            cand = lo + step
            s = _sign_at(factor, cand)
            if s == 0:
                return cand, cand
            if s == s_lo:
                lo = cand
                break
            step /= 4
    while _sign_at(sqfull, hi) == 0:
        step = (hi - lo) / 4
        while True:
            cand = hi - step
            s = _sign_at(factor, cand)
            if s == 0:
                return cand, cand
            if s != s_lo:
                hi = cand
                break
            step /= 4
    return lo, hi


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
    best = best_factor = None
    for factor, encs in _enclosures_per_factor(p, width):
        top = next(encs, None)
        # on equal keys the later factor wins, like the stable sort in isolate_real_roots
        if top is not None and (best is None or (top.lo, top.hi) >= (best.lo, best.hi)):
            best, best_factor = top, factor
    if best is None:
        raise ValueError("polynomial has no real root")
    return best, best_factor


def count_nonreal_roots(p) -> int:
    """Degree minus the multiplicity-weighted number of real roots."""
    ip = clear_denominators(p)
    if not ip:
        raise ValueError("zero polynomial")
    if len(ip) == 1:
        return 0
    real = 0
    for mult, factor in squarefree_decomposition(ip):
        chain = sturm_chain(factor)
        real += mult * count_roots_halfopen(chain, None, None)
    return degree(ip) - real


# ---------------------------------------------------------------------------
# exact algebraic reals


class AlgebraicReal:
    """A real algebraic number as (squarefree integer polynomial, isolating interval).

    Comparisons are exact: intervals refine until disjoint, and equality is
    certified through a common factor of the defining polynomials.
    """

    __slots__ = ("poly", "lo", "hi", "_chain")

    def __init__(self, poly, lo, hi):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._chain = None

    # -- constructors

    @staticmethod
    def from_rational(q) -> "AlgebraicReal":
        q = Fraction(q)
        return AlgebraicReal((-q.numerator, q.denominator), q, q)

    @staticmethod
    def from_enclosure(p, enc: RootEnclosure) -> "AlgebraicReal":
        """The root of ``p`` that ``enc`` (from this module's isolation) encloses.

        The defining polynomial is the squarefree factor of multiplicity
        ``enc.multiplicity``: the enclosure isolates one root of that factor,
        while a root of another factor may lie inside it.
        """
        for mult, factor in squarefree_decomposition(clear_denominators(p)):
            if mult == enc.multiplicity:
                return AlgebraicReal(factor, enc.lo, enc.hi)
        raise ValueError(f"no root of multiplicity {enc.multiplicity}")

    @staticmethod
    def dominant_root(p, width=Fraction(1, 10**6)) -> "AlgebraicReal":
        enc, factor = _dominant_root_and_factor(p, width)
        return AlgebraicReal(factor, enc.lo, enc.hi)

    # -- basics

    def chain(self):
        if self._chain is None:
            self._chain = sturm_chain(self.poly)
        return self._chain

    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not refined to a rational point")
        return self.lo

    def refine(self, width) -> None:
        if self.hi - self.lo <= width:
            return
        lo, hi = _refine_simple_root(self.poly, self.chain(), self.lo, self.hi, width)
        self.lo, self.hi = lo, hi

    def enclosure(self, width, multiplicity=1) -> RootEnclosure:
        self.refine(width)
        return RootEnclosure(self.lo, self.hi, multiplicity)

    def __float__(self) -> float:
        self.refine(Fraction(1, 10**17))
        return float((self.lo + self.hi) / 2)

    # -- exact comparisons

    def compare_fraction(self, q) -> int:
        q = Fraction(q)
        if self.is_rational():
            return _sign(self.lo - q)
        if q < self.lo:
            return 1
        if q > self.hi:
            return -1
        if _sign_at(self.poly, q) == 0:
            # the interval holds exactly one root of poly on (lo, hi]
            if q > self.lo:
                self.lo = self.hi = q
                return 0
            return 1  # root at the excluded left endpoint; ours lies above
        if count_roots_halfopen(self.chain(), q, self.hi) >= 1:
            self.lo = q
            return 1
        self.hi = q
        return -1

    def compare(self, other: "AlgebraicReal") -> int:
        if other.is_rational():
            return self.compare_fraction(other.lo)
        if self.is_rational():
            return -other.compare_fraction(self.lo)
        # certified equality test: a shared root in the interval overlap
        g = gcd_int(self.poly, other.poly)
        if len(g) > 1:
            a = max(self.lo, other.lo)
            b = min(self.hi, other.hi)
            if a <= b:
                gchain = sturm_chain(g)
                hits = count_roots_halfopen(gchain, a, b)
                if _sign_at(g, a) == 0:
                    hits += 1
                if hits >= 1:
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


def shift_poly(p, c):
    """p(x + c) for rational c, via repeated synthetic division."""
    c = Fraction(c)
    work = [Fraction(x) for x in p]
    n = len(work)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            work[j] += work[j + 1] * c
    return trim(work)


def descartes_no_root_above(p, t) -> bool:
    """True certifies that integer polynomial ``p`` has no real root >= t.

    Shifts by rational t and checks all coefficients share the leading sign;
    zero sign variations leave no positive root for the shifted polynomial.
    Only a sufficient test in general, but exact for polynomials whose root
    of maximal modulus is real (the shifted factors all gain positive
    coefficients in that case).
    """
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    n = len(p) - 1
    work = [int(c) * b ** (n - i) for i, c in enumerate(p)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            work[j] += work[j + 1] * a
    lead = _sign(work[-1])
    return all(_sign(c) == lead for c in work if c != 0) and work[0] != 0


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


@dataclass(frozen=True)
class RatInterval:
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


@dataclass(frozen=True)
class QuadSurd:
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

    def compare_fraction(self, q) -> int:
        q = Fraction(q)
        # compare sgn*sqrt(b) with q*c - a
        rhs = q * self.c - self.a
        if self.b == 0:
            return _sign(-rhs)
        if self.sgn > 0:
            if rhs < 0:
                return 1
            return _sign(self.b - rhs * rhs)
        if rhs > 0:
            return -1
        return _sign(rhs * rhs - self.b)

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


def eval_at_surd(p, s: QuadSurd):
    """Evaluate polynomial at a quadratic surd, exactly, as (u, v) = u + v*sqrt(b)."""
    if s.is_rational():
        return eval_at(p, s.as_fraction()), Fraction(0)
    x_u = s.a / s.c
    x_v = Fraction(s.sgn, 1) / s.c
    u, v = Fraction(0), Fraction(0)
    for c in reversed(p):
        u, v = u * x_u + v * x_v * s.b + c, u * x_v + v * x_u
    return u, v


def is_root_surd(p, s: QuadSurd) -> bool:
    u, v = eval_at_surd(p, s)
    return u == 0 and v == 0
