"""Extremal growth-rate constructions over G(n,k) and planar graph classes.

The maximizer is a clique plus one partially attached vertex plus isolated
vertices; the minimizers are triangle-free graphs below the Mantel bound and
balanced multipartite graphs with triangle-free part fillings above it (the
latter conditional on a conjecture, and labelled as such).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import _Record
from .cliquepoly import beta, pc_polynomial
from .exactpoly import (
    DominantRoot,
    QuadSurd,
    RatInterval,
    RootEnclosure,
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
    parse_named,
)

Predicted = object  # Fraction | QuadSurd | RootEnclosure


class ExtremalResult(_Record):
    graph: Graph
    predicted_beta: Predicted
    bound_kind: str  # "max" | "min"
    conditional: str | None = None


def _assert_is_beta(g: Graph, pred) -> None:
    """Assert that the Fraction or QuadSurd ``pred`` is beta(g), or that the enclosure holds it.

    Every case is an exact sign from :class:`DominantRoot`.  Containment
    lo <= beta <= hi is decided exactly; an overlap test against an
    enclosure of beta would also pass a rational point next to beta.
    """
    pc = pc_polynomial(g)
    beta_g = DominantRoot(pc)
    if isinstance(pred, RootEnclosure):
        assert beta_g.within(pred.lo, pred.hi), "predicted enclosure does not hold beta"
        return
    if isinstance(pred, QuadSurd):
        assert is_root_surd(pc, pred), "predicted value is not a root"
        pred = pred.to_algebraic()
    assert beta_g.sign(pred, 1) == 0, "predicted value is not beta"


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
    for n1 in range(n // w + 1, n // (w - 1) + 1):
        b = n - (w - 1) * n1
        if b < 0:
            break
        parts = [n1] * (w - 1) + ([b] if b else [])
        if complete_multipartite(parts).edge_count <= k:
            return _filled_multipartite(n, k, parts, w - 1)

    # sparse side: balanced (w-1)-partite base with l/l+1 parts
    l = n // (w - 1)
    p = n - l * (w - 1)
    return _filled_multipartite(n, k, [l + 1] * p + [l] * (w - 1 - p), p)


def _filled_multipartite(n: int, k: int, parts: list[int], filled: int) -> ExtremalResult:
    """The conditional minimiser: complete_multipartite(parts) plus k - e(base) edges.

    The extra edges are spread as evenly as possible over the first
    ``filled`` parts, all of size s = parts[0], triangle-free inside each.
    With c = floor(extra / filled), the predicted growth rate is
    (s + sqrt(s^2 - 4c))/2.
    """
    base = complete_multipartite(parts)
    kprime = k - base.edge_count
    if kprime < 0:
        raise ValueError("edge count below the regime base; inconsistent regime")
    c, r = divmod(kprime, filled)
    size = parts[0]
    edges = list(base.edges())
    for idx in range(filled):
        verts = list(range(idx * size, (idx + 1) * size))
        edges += _triangle_free_edges(verts, c + (1 if idx < r else 0))
    g = from_edges(n, edges)
    pred = QuadSurd.make(size, size * size - 4 * c, 2)
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


class PlanarExtremes(_Record):
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


def _hub_edges(n: int) -> list[tuple[int, int]]:
    """The edges of K_{2,n-2}, hubs 0 and 1, vertex by vertex: (0, 2), (1, 2), (0, 3), ..."""
    return [(h, v) for v in range(2, n) for h in (0, 1)]


def _bipartite_hub_graph(n: int, k: int, inner: list[tuple[int, int]]) -> Graph:
    """Supergraph of K_{2,n-2}: hubs 0,1 joined to everyone else, plus inner edges."""
    edges = _hub_edges(n) + inner
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
    # minimum
    if k <= 2 * n - 4:
        lam_minus = QuadSurd.make(n, n * n - 4 * k, 2)
        g_minus = from_edges(n, _hub_edges(n)[:k])
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
