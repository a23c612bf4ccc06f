"""Extremal growth-rate constructions over G(n,k) and planar graph classes.

The maximizer is a clique plus one partially attached vertex plus isolated
vertices; the minimizers are triangle-free graphs below the Mantel bound and
balanced multipartite graphs with triangle-free part fillings above it (the
latter conditional on a conjecture, and labelled as such).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cliquepoly import beta, beta_algebraic, pc_polynomial
from .exactpoly import (
    QuadSurd,
    RatInterval,
    dominant_real_root,
    is_root_surd,
    mul,
    scale,
    sub,
    trim,
    x_power,
)
from .graphs import (
    Graph,
    complement,
    complete_multipartite,
    empty_graph,
    from_edges,
)

Predicted = object  # Fraction | QuadSurd | RootEnclosure


@dataclass(frozen=True)
class ExtremalResult:
    graph: Graph
    predicted_beta: Predicted
    bound_kind: str  # "max" | "min"
    conditional: str | None = None


def _assert_is_beta(g: Graph, pred) -> None:
    """Assert that the Fraction or QuadSurd ``pred`` is beta(g), or that the enclosure holds it.

    Containment lo <= beta <= hi is decided exactly; an overlap test against
    an enclosure of beta would also pass a rational point next to beta.
    """
    actual = beta_algebraic(g)
    if isinstance(pred, Fraction):
        assert actual.compare_fraction(pred) == 0, "predicted value is not beta"
    elif isinstance(pred, QuadSurd):
        assert is_root_surd(pc_polynomial(g), pred), "predicted value is not a root"
        assert actual.compare(pred.to_algebraic()) == 0, "predicted value is not beta"
    else:
        assert actual.compare_fraction(pred.lo) >= 0, "predicted enclosure lies above beta"
        assert actual.compare_fraction(pred.hi) <= 0, "predicted enclosure lies below beta"


# ---------------------------------------------------------------------------
# maximum


def _split_edges(k: int) -> tuple[int, int]:
    """(d, e) with k = C(d,2) + e and 0 <= e < d, for k >= 1."""
    d = 2
    while (d + 1) * d // 2 <= k:
        d += 1
    return d, k - d * (d - 1) // 2


def max_beta_construction(n: int, k: int) -> Graph:
    """K_d plus a vertex of degree e (k = C(d,2)+e, e < d) plus isolated vertices."""
    if not 0 <= k <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    if k == 0:
        return empty_graph(n)
    d, e = _split_edges(k)
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges += [(i, d) for i in range(e)]
    return from_edges(n, edges)


def max_beta_pc(n: int, k: int) -> tuple:
    """Assembled recurrence polynomial of the maximizer, ascending integers."""
    if k == 0:
        return (-n, 1)
    d, e = _split_edges(k)
    xm1 = (-1, 1)
    p = (1,)
    for _ in range(d):
        p = mul(p, xm1)
    term2 = scale(x_power(d - 1), n - d - 1)
    q = (1,)
    for _ in range(e):
        q = mul(q, xm1)
    term3 = mul(x_power(d - e - 1), q)
    return trim(sub(sub(p, term2), term3))


def max_beta_graph(n: int, k: int) -> ExtremalResult:
    g = max_beta_construction(n, k)
    assembled = max_beta_pc(n, k)
    assert assembled == pc_polynomial(g), "assembled polynomial disagrees with profile"
    if k == 0:
        pred: Predicted = Fraction(n)
    elif k == n * (n - 1) // 2:
        pred = Fraction(1)
    else:
        pred = dominant_real_root(assembled)
    _assert_is_beta(g, pred)
    return ExtremalResult(g, pred, "max")


def max_beta_equality_family(n: int, k: int) -> set[tuple[int, ...]]:
    """Adjacency tuples of every labelled graph attaining the maximum.

    Unique labelled copies of the construction, except k = C(d,2)+1 where the
    family is K_d plus one edge anywhere.
    """
    if k == 0:
        return {empty_graph(n).adj}
    d, e = _split_edges(k)
    out: set[tuple[int, ...]] = set()
    for clique in combinations(range(n), d):
        base = [(a, b) for a, b in combinations(clique, 2)]
        others = [v for v in range(n) if v not in clique]
        if e == 0:
            out.add(from_edges(n, base).adj)
        elif e == 1:
            # one extra edge anywhere outside the clique edge set
            for u, v in combinations(range(n), 2):
                if u in clique and v in clique:
                    continue
                out.add(from_edges(n, base + [(u, v)]).adj)
        else:
            for v in others:
                for attach in combinations(clique, e):
                    out.add(from_edges(n, base + [(a, v) for a in attach]).adj)
    return out


# ---------------------------------------------------------------------------
# minimum


def _triangle_free_edges(vertices: list[int], m: int) -> list[tuple[int, int]]:
    """m edges on the given vertices avoiding triangles (bipartite filling)."""
    half = (len(vertices) + 1) // 2
    left, right = vertices[:half], vertices[half:]
    out = []
    for u in left:
        for v in right:
            if len(out) == m:
                return out
            out.append((u, v))
    if len(out) < m:
        raise ValueError("too many edges for a triangle-free filling")
    return out


def _regime_w(n: int, k: int) -> int:
    """w >= 2 with (1 - 1/(w-1)) n^2/2 < k <= (1 - 1/w) n^2/2."""
    w = 2
    while Fraction(k) > Fraction(n * n, 2) * (1 - Fraction(1, w)):
        w += 1
    return w


def _multipartite_edge_count(n: int, w: int, n1: int) -> int:
    b = n - (w - 1) * n1
    return (n * n - (w - 1) * n1 * n1 - b * b) // 2


def min_beta_graph(n: int, k: int) -> ExtremalResult:
    if not 0 <= k <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    if 4 * k <= n * n:
        # triangle-free regime, unconditional
        if k == 0:
            g, pred = empty_graph(n), Fraction(n)
        else:
            g = from_edges(n, _triangle_free_edges(list(range(n)), k))
            pred = QuadSurd.make(n, n * n - 4 * k, 2)
        _assert_is_beta(g, pred)
        return ExtremalResult(g, pred, "min")

    w = _regime_w(n, k)
    if Fraction(k) == Fraction(n * n, 2) * (1 - Fraction(1, w)) and n % w == 0:
        g = complete_multipartite([n // w] * w)
        _assert_is_beta(g, Fraction(n, w))
        return ExtremalResult(g, Fraction(n, w), "min")

    # try the K_{n1,...,n1,b} base, smallest feasible n1 first
    n1_lo = n // w + 1
    n1_hi = n // (w - 1)
    chosen = None
    for n1 in range(n1_lo, n1_hi + 1):
        if n - (w - 1) * n1 < 0:
            break
        if _multipartite_edge_count(n, w, n1) <= k:
            chosen = n1
            break
    if chosen is not None:
        n1 = chosen
        b = n - (w - 1) * n1
        kprime = k - _multipartite_edge_count(n, w, n1)
        c, r = divmod(kprime, w - 1)
        parts = [n1] * (w - 1) + ([b] if b else [])
        g = complete_multipartite(parts)
        start = 0
        edges = list(g.edges())
        for idx in range(w - 1):
            verts = list(range(start, start + n1))
            extra = c + (1 if idx < r else 0)
            edges += _triangle_free_edges(verts, extra)
            start += n1
        g = from_edges(n, edges)
        pred = QuadSurd.make(n1, n1 * n1 - 4 * c, 2)
        _assert_is_beta(g, pred)
        return ExtremalResult(g, pred, "min", "Conjecture 9.1")

    # sparse side: balanced (w-1)-partite base with l/l+1 parts
    l = n // (w - 1)
    p = n - l * (w - 1)
    q = (w - 1) - p
    parts = [l + 1] * p + [l] * q
    base = complete_multipartite(parts)
    kprime = k - base.edge_count
    if kprime < 0:
        raise ValueError("edge count below the regime base; inconsistent regime")
    c, r = divmod(kprime, p)
    edges = list(base.edges())
    start = 0
    for idx in range(p):
        verts = list(range(start, start + l + 1))
        extra = c + (1 if idx < r else 0)
        edges += _triangle_free_edges(verts, extra)
        start += l + 1
    g = from_edges(n, edges)
    pred = QuadSurd.make(l + 1, (l + 1) ** 2 - 4 * c, 2)
    _assert_is_beta(g, pred)
    return ExtremalResult(g, pred, "min", "Conjecture 9.1")


# ---------------------------------------------------------------------------
# bounds


def beta_bounds(n: int, k: int) -> dict:
    """Closed-form lower/upper bounds on the growth rate over G(n,k)."""
    if not 0 <= k <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    out: dict = {}
    out["fisher_lower"] = Fraction(n * n - 2 * k, n)
    if k == 0:
        out["fisher_nonis_lower"] = Fraction(n)
        out["corollary94_window"] = (Fraction(n), Fraction(n) + 1)
    else:
        w = _regime_w(n, k)
        radicand = Fraction(n * n) - Fraction(2 * k * w, w - 1)
        lower = QuadSurd.make(n, radicand, w)
        out["fisher_nonis_lower"] = lower
        out["corollary94_window"] = (lower, _surd_plus_one(lower))
    out["samuelson_upper"] = {
        "value": Fraction(n * n - k, n),
        "applies": "only when the recurrence polynomial is real-rooted",
    }
    out["sqrt_upper"] = QuadSurd.make(0, Fraction(n * n) - Fraction(3 * k, 2), 1)
    return out


def _surd_plus_one(s: QuadSurd) -> QuadSurd:
    return QuadSurd.make(s.a + s.c, s.b, s.c, s.sgn)


# ---------------------------------------------------------------------------
# planar extremes


@dataclass(frozen=True)
class PlanarExtremes:
    lambda_minus: Predicted
    lambda_plus: Predicted
    g_minus: Graph
    g_plus: Graph


_SPECIAL_PLANAR = {
    (3, 3): ("K3", Fraction(1)),
    (4, 6): ("K4", Fraction(1)),
    (4, 5): ("K1,1,2", Fraction(2)),
    (5, 9): ("K1,1,1,2", Fraction(2)),
}


def _bipartite_hub_graph(n: int, k: int, inner: list[tuple[int, int]]) -> Graph:
    """Supergraph of K_{2,n-2}: hubs 0,1 joined to everyone else, plus inner edges."""
    edges = [(h, v) for h in (0, 1) for v in range(2, n)]
    edges += inner
    assert len(edges) == k
    return from_edges(n, edges)


def apollonian_graph(n: int, k: int) -> Graph:
    """Repeated triangle splitting starting from K3, partial last vertex."""
    if n < 4 or k < 3:
        raise ValueError("needs n >= 4 and k >= 3")
    full, leftover = divmod(k - 3, 3)
    used = 3 + full + (1 if leftover else 0)
    if used > n or k > 3 * n - 6:
        raise ValueError("too many edges for an Apollonian build")
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    v = 3
    for _ in range(full):
        a, b, c = faces.pop()
        edges += [(v, a), (v, b), (v, c)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
        v += 1
    if leftover:
        a, b, _ = faces[-1]
        edges.append((v, a))
        if leftover == 2:
            edges.append((v, b))
    return from_edges(n, edges)


def apollonian_pc(n: int, k: int) -> tuple:
    if 3 <= k < 6:
        c3 = 1 + (k - 3) // 2
        return (-c3, k, -n, 1)
    c3 = 1 + (k - 3) // 3 + (2 * (k - 3)) // 3
    c4 = k // 3 - 1
    return (c4, -c3, k, -n, 1)


def planar_extremes(n: int, k: int):
    """Extremal growth rates over planar graphs with n vertices and k edges."""
    if n < 1 or k < 0 or k > n * (n - 1) // 2:
        raise ValueError("bad parameters")
    if (n, k) in _SPECIAL_PLANAR:
        name, val = _SPECIAL_PLANAR[(n, k)]
        from .graphs import parse_named

        g = parse_named(name)
        return PlanarExtremes(val, val, g, g)
    if n < 3 or k <= 2:
        lam = QuadSurd.make(n, n * n - 4 * k, 2) if k else Fraction(n)
        edges = [(0, 1), (1, 2)][:k] if n >= 3 else [(0, 1)][:k]
        g = from_edges(n, edges)
        return PlanarExtremes(lam, lam, g, g)
    if k > 3 * n - 6:
        raise ValueError(f"no planar graph with n={n}, k={k}")
    # maximum: Apollonian splitting
    g_plus = apollonian_graph(n, k)
    pc_plus = apollonian_pc(n, k)
    assert pc_plus == pc_polynomial(g_plus), "assembled maximizer polynomial mismatch"
    lam_plus: Predicted = dominant_real_root(pc_plus)
    if k == 3 * n - 6:
        lam_plus = Fraction(n - 3)
        assert beta_algebraic(g_plus).compare_fraction(lam_plus) == 0
    # minimum
    if k <= 2 * n - 4:
        lam_minus = QuadSurd.make(n, n * n - 4 * k, 2)
        g_minus = from_edges(
            n, _triangle_free_edges_bip_hubs(n, k)
        )
    elif k < 3 * n - 6:
        s = k - 2 * n + 4
        inner = [(i, i + 1) for i in range(2, 2 + s)]
        g_minus = _bipartite_hub_graph(n, k, inner)
        lam_minus = QuadSurd.make(n - 2, n * n + 4 * n - 4 * k - 12, 2)
    else:
        inner = [(i, i + 1) for i in range(2, n - 1)] + [(n - 1, 2)]
        g_minus = _bipartite_hub_graph(n, k, inner)
        lam_minus = QuadSurd.make(n - 2, n * n - 8 * n + 12, 2)
    _assert_is_beta(g_minus, lam_minus)
    _assert_is_beta(g_plus, lam_plus)
    return PlanarExtremes(lam_minus, lam_plus, g_minus, g_plus)


def _triangle_free_edges_bip_hubs(n: int, k: int) -> list[tuple[int, int]]:
    pairs = [(h, v) for v in range(2, n) for h in (0, 1)]
    if k > len(pairs):
        raise ValueError("too many edges for the two-hub bipartite host")
    return pairs[:k]


# ---------------------------------------------------------------------------
# planarity for tiny graphs

# the ten 3|3 splits of six vertices: the side holding vertex 0, and the other side's mask
_K33_SPLITS = tuple(
    ((0, b, c), 63 ^ (1 | 1 << b | 1 << c)) for b in range(1, 6) for c in range(b + 1, 6)
)


def is_planar_small(g: Graph) -> bool:
    """Planarity by forbidden-subgraph tests on row masks; n <= 6 only.

    On at most six vertices the only K5/K3,3 subdivisions are K5 itself, K5
    with one subdivided edge, and K3,3 itself.  Each five-vertex set (all of
    V at n = 5, V minus one vertex w at n = 6) is a K5 when no pair in it is
    missing, and a subdivided K5 when exactly one pair a, b is missing and w
    is adjacent to both.  K3,3 is tested on the ten 3|3 splits.
    """
    n, adj = g.n, g.adj
    if n > 6:
        raise ValueError("small-graph planarity is restricted to n <= 6")
    if n < 5:
        return True
    full = (1 << n) - 1
    for w in range(6) if n == 6 else (5,):  # w = 5 at n = 5 leaves all of V
        five = full & ~(1 << w)
        gaps = missing = 0  # each missing pair counts twice in gaps
        for v in range(n):
            if v != w:
                gap = five & ~adj[v] & ~(1 << v)
                gaps += gap.bit_count()
                missing |= gap
        if gaps == 0 or (gaps == 2 and n == 6 and adj[w] & missing == missing):
            return False
    return n == 5 or not any(
        adj[a] & adj[b] & adj[c] & right == right for (a, b, c), right in _K33_SPLITS
    )


# ---------------------------------------------------------------------------
# Nordhaus-Gaddum


def nordhaus_gaddum(g: Graph, width: Fraction = Fraction(1, 10**12)):
    """Certified intervals for beta(G)+beta(co-G) and beta(G)*beta(co-G)."""
    e1 = beta(g, width / 4)
    e2 = beta(complement(g), width / 4)
    i1 = RatInterval(e1.lo, e1.hi)
    i2 = RatInterval(e2.lo, e2.hi)
    return i1 + i2, i1 * i2
