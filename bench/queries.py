"""Seeded CLI query list and the independent checks of each answer.

Every seed yields the same multiset of (verb, vertices, edge count) specs;
the seed draws which edges and the order.  Fixing the edge count (G(n, m),
not G(n, p)) keeps the per-query cost distribution nearly the same on every
seed, so medians and tails agree across seeds.

The reference values come from this file alone: clique and matching counts
are enumerated here, and an enclosure is accepted when it is no wider than
the requested width, brackets a sign change of the squarefree part of the
reference polynomial and has no root of it above its upper end.  Any valid
refinement passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WIDTH = Fraction(1, 10**12)  # the CLI default

# (verb, vertex counts, edge densities, copies of each spec)
PLAN = (
    ("beta", (6, 12, 20, 30, 40), (0.35, 0.5, 0.65), 4),
    ("poly", (6, 12, 20, 30, 40), (0.35, 0.5, 0.65), 4),
    ("matching", (4, 6, 8, 10, 12), (0.3, 0.5, 0.7), 4),
)
POLY_KINDS = ("pc", "dependence", "clique", "independence")


@dataclass(frozen=True)
class Query:
    verb: str
    n: int
    edges: tuple
    kind: str | None = None

    @property
    def argv(self) -> list:
        argv = [self.verb, graph6(self.n, self.edges), "--fmt", "graph6", "--format", "json"]
        if self.kind:
            argv += ["--kind", self.kind]
        return argv


def make_queries(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for verb, sizes, densities, copies in PLAN:
        for n in sizes:
            for p in densities:
                slots = [(i, j) for j in range(1, n) for i in range(j)]
                m = round(p * len(slots))
                for _ in range(copies):
                    edges = tuple(sorted(rng.sample(slots, m), key=lambda e: (e[1], e[0])))
                    kind = rng.choice(POLY_KINDS) if verb == "poly" else None
                    out.append(Query(verb, n, edges, kind))
    rng.shuffle(out)
    return out


def graph6(n: int, edges) -> str:
    """graph6 text of a graph on at most 62 vertices."""
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(bit << (5 - k) for k, bit in enumerate(bits[s:s + 6])))
        for s in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


# ---------------------------------------------------------------------------
# reference values


def _neighbours(n, edges):
    nb = [set() for _ in range(n)]
    for i, j in edges:
        nb[i].add(j)
        nb[j].add(i)
    return nb


def clique_counts(n: int, edges) -> list:
    """c_0..c_omega by extending each clique with larger common neighbours."""
    nb = _neighbours(n, edges)
    counts = [1]

    def extend(size, cands):
        if len(counts) <= size:
            counts.append(0)
        counts[size] += 1
        for v in cands:
            extend(size + 1, {u for u in cands & nb[v] if u > v})

    for v in range(n):
        extend(1, {u for u in nb[v] if u > v})
    return counts


def complement_edges(n: int, edges) -> tuple:
    present = set(edges)
    return tuple((i, j) for j in range(1, n) for i in range(j) if (i, j) not in present)


def matching_counts(n: int, edges) -> list:
    """m_0..m_nu: the lowest free vertex stays unmatched or takes a free neighbour."""
    nb = _neighbours(n, edges)
    counts = [0] * (n // 2 + 1)

    def walk(free, size):
        if not free:
            counts[size] += 1
            return
        v = min(free)
        rest = free - {v}
        walk(rest, size)
        for u in nb[v] & rest:
            walk(rest - {u}, size + 1)

    walk(frozenset(range(n)), 0)
    while counts[-1] == 0:
        counts.pop()
    return counts


def pc_poly(counts) -> list:
    w = len(counts) - 1
    return [(-1) ** (w - j) * counts[w - j] for j in range(w + 1)]


def expected_poly(q: Query) -> list:
    if q.kind == "independence":
        return clique_counts(q.n, complement_edges(q.n, q.edges))
    counts = clique_counts(q.n, q.edges)
    if q.kind == "pc":
        return pc_poly(counts)
    if q.kind == "dependence":
        return [(-1) ** k * c for k, c in enumerate(counts)]
    return counts


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _value(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def no_root_above(poly, t: Fraction) -> bool:
    """Descartes: poly(x + t) without sign variations has no root > t.

    Exact when the largest real root has the largest modulus, as for the
    recurrence polynomial of a graph and for the real-rooted matching
    polynomial: every root left of t shifts into the open left half-plane
    and every coefficient then shares one sign.
    """
    a, b = t.numerator, t.denominator
    d = len(poly) - 1
    work = [c * b ** (d - i) for i, c in enumerate(poly)]  # b^d poly(y / b)
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            work[j] += work[j + 1] * a
    signs = [_sign(c) for c in work if c]
    return all(s == signs[-1] for s in signs)


def _divmod(a, b):
    """Quotient and remainder of polynomials with rational coefficients."""
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        q[shift] = f
        for i, c in enumerate(b):
            a[i + shift] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return q, a


def squarefree_part(poly) -> list:
    """poly / gcd(poly, poly'): the same roots, each simple."""
    p = [Fraction(c) for c in poly]
    a, b = p, [i * c for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _divmod(a, b)[1]
    return _divmod(p, a)[0]


def encloses_largest_root(poly, enc: dict, width: Fraction = WIDTH) -> bool:
    """[lo, hi] is at most width wide and holds the largest real root of poly.

    The sign change is taken on the squarefree part, so a multiple root
    (two equal components, say) is bracketed too.
    """
    lo, hi = Fraction(enc["lo"]), Fraction(enc["hi"])
    if not lo <= hi or hi - lo > width:
        return False
    simple = squarefree_part(poly)
    if lo == hi:
        inside = _value(simple, lo) == 0
    else:
        inside = _sign(_value(simple, lo)) * _sign(_value(simple, hi)) <= 0
    return inside and no_root_above(poly, hi)


class Checker:
    """Checks CLI answers against reference values computed once per query."""

    def __init__(self):
        self._expected: dict = {}

    def expected(self, q: Query) -> dict:
        if q not in self._expected:
            self._expected[q] = self._reference(q)
        return self._expected[q]

    @staticmethod
    def _reference(q: Query) -> dict:
        if q.verb == "poly":
            return {"kind": q.kind, "coefficients_ascending": expected_poly(q)}
        if q.verb == "beta":
            return {"pc": pc_poly(clique_counts(q.n, q.edges))}
        counts = matching_counts(q.n, q.edges)
        mu = [0] * (q.n + 1)
        for k, c in enumerate(counts):
            mu[q.n - 2 * k] = (-1) ** k * c
        return {"generating": counts, "mu_ascending": mu}

    def check(self, q: Query, stdout: str) -> bool:
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        ref = self.expected(q)
        if q.verb == "poly":
            return out == ref
        if q.verb == "beta":
            return encloses_largest_root(ref["pc"], out)
        if out.get("generating") != ref["generating"] or out.get("mu_ascending") != ref["mu_ascending"]:
            return False
        if not q.edges:
            return "t_largest" not in out
        return "t_largest" in out and encloses_largest_root(ref["mu_ascending"], out["t_largest"])
