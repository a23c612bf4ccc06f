"""Clique counting and the unweighted clique-type polynomials.

Clique counts come from one memoised vertex-deletion recursion with a fixed
work bound (``packed_clique_sum``), which the weighted sums of ``weighted``
share.  On top of the counts this module provides the clique profile, the
four clique-type polynomials, the monoid growth rate beta(G) as a certified
enclosure, the hard-core occupancy fraction, I(G, -1) with the decycling
number, and the adjacency spectral radius, all in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import _Record
from .exactpoly import (
    DEFAULT_WIDTH,
    AlgebraicReal,
    RootEnclosure,
    derivative,
    dominant_real_root,
    eval_at,
    to_fraction_poly,
    trim,
)
from .graphs import (
    Graph,
    bits,
    complement,
    complement_adj,
    connected_components,
)


class CliqueProfile(_Record):
    """Counts (c_0=1, c_1, ..., c_omega) of complete subgraphs by size."""

    counts: tuple[int, ...]

    @property
    def clique_number(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, k: int) -> int:
        return self.counts[k] if k < len(self.counts) else 0

    def total(self) -> int:
        """Number of all cliques, the empty one included."""
        return sum(self.counts)


CLIQUE_MEMO_LIMIT = 1 << 20  # work bound of every clique sum; DECISIONS.md D5


def unpack_limbs(packed: int, shift: int) -> list[int]:
    """Coefficients of a polynomial from its value at 2^shift, lowest first.

    Each limb is read as a signed ``shift``-bit number, so the coefficients
    may be negative but must satisfy |c| < 2^(shift-1).  Trailing zero
    coefficients are dropped.
    """
    half = 1 << (shift - 1)
    limb = (1 << shift) - 1
    coeffs = []
    while packed:
        c = ((packed & limb) ^ half) - half
        coeffs.append(c)
        packed = (packed - c) >> shift
    return coeffs


def packed_clique_sum(p: int, adj, terms, memo: dict) -> int:
    """Sum over the cliques C of the subgraph induced on ``p`` of prod_{v in C} terms[v].

    f(P) = f(P - v) + terms[v] f(P & N(v)) with v the lowest vertex of P
    (Hoede & Li, Discrete Math. 125, 1994), memoised on P, so cliques are
    summed without being visited one by one.  ``terms[v]`` is vertex v's
    monomial evaluated at 2^shift, so the result packs one coefficient per
    limb.  ``memo`` holds f(0) = 1 on entry and every subproblem solved so
    far; past CLIQUE_MEMO_LIMIT subproblems it raises ValueError, which bounds
    the time and memory on any input.
    """
    got = memo.get(p)
    if got is not None:
        return got
    b = p & -p
    rest = p ^ b
    v = b.bit_length() - 1
    val = packed_clique_sum(rest, adj, terms, memo)
    val += terms[v] * packed_clique_sum(rest & adj[v], adj, terms, memo)
    memo[p] = val
    if len(memo) > CLIQUE_MEMO_LIMIT:
        raise ValueError(
            f"clique sum needs more than {CLIQUE_MEMO_LIMIT} subproblems on this graph"
        )
    return val


def clique_counts(adj: tuple[int, ...], n: int, within: int | None = None) -> list[int]:
    """Clique counts (c_0 = 1, c_1, ..., c_omega) by :func:`packed_clique_sum`.

    Every vertex term is x; every count is at most C(n, k) < 2^(n+1), so
    limbs n+2 bits wide hold them.  With a vertex mask ``within``, the counts
    are those of the induced subgraph on it.  Raises ValueError past
    CLIQUE_MEMO_LIMIT subproblems.
    """
    if within is None:
        within = (1 << n) - 1
    shift = n + 2
    return unpack_limbs(packed_clique_sum(within, adj, [1 << shift] * n, {0: 1}), shift)


def independence_counts(adj: tuple[int, ...], n: int) -> list[int]:
    """Independent-set counts by size of rows ``adj``: the clique counts of the complement."""
    return clique_counts(complement_adj(adj), n)


def clique_profile(g: Graph) -> CliqueProfile:
    return CliqueProfile(tuple(clique_counts(g.adj, g.n)))


def dependence_poly_from_counts(counts) -> tuple:
    """D(G, x) = sum (-1)^k c_k x^k, ascending integer coefficients."""
    return trim((-1) ** k * c for k, c in enumerate(counts))


def pc_poly_from_counts(counts) -> tuple:
    """Characteristic polynomial of the word-count recurrence, ascending."""
    w = len(counts) - 1
    return tuple((-1) ** (w - j) * counts[w - j] for j in range(w + 1))


def clique_type_polynomial(g: Graph, kind: str) -> tuple:
    """One of the clique-type polynomials as an ascending integer tuple.

    kind: "pc" | "dependence" | "clique" | "independence".  The independence
    polynomial is the clique polynomial of the complement.
    """
    if kind == "independence":
        return tuple(independence_counts(g.adj, g.n))
    counts = clique_counts(g.adj, g.n)
    if kind == "pc":
        return pc_poly_from_counts(counts)
    if kind == "dependence":
        return dependence_poly_from_counts(counts)
    if kind == "clique":
        return tuple(counts)
    raise ValueError(f"unknown polynomial kind {kind!r}")


def pc_polynomial(g: Graph) -> tuple:
    return pc_poly_from_counts(clique_counts(g.adj, g.n))


def beta(g: Graph, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Enclosure of the dominant real root of the recurrence polynomial."""
    return dominant_real_root(pc_polynomial(g), width)


def beta_algebraic(g: Graph) -> AlgebraicReal:
    """beta(G) as an exactly comparable algebraic number."""
    return AlgebraicReal.dominant_root(pc_polynomial(g), Fraction(1, 2**24))


def independence_polynomial(g: Graph) -> tuple:
    return clique_type_polynomial(g, "independence")


def occupancy_fraction(g: Graph, x) -> Fraction:
    """Expected fraction of vertices in a hard-core independent set at fugacity x."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("fugacity must be nonnegative")
    ind = to_fraction_poly(independence_polynomial(g))
    num = x * eval_at(derivative(ind), x)
    den = g.n * eval_at(ind, x)
    return num / den


def independence_at_minus_one(g: Graph) -> tuple[int, int]:
    """(I(G, -1), decycling number), both exact."""
    if g.n > 20:
        raise ValueError("decycling brute force capped at 20 vertices")
    value = eval_at(independence_polynomial(g), -1)
    return value, decycling_number(g)


def _is_forest_mask(g: Graph, mask: int) -> bool:
    verts = bits(mask)
    edge_cnt = sum((g.adj[v] & mask).bit_count() for v in verts) // 2
    # acyclic iff every component is a tree; equivalent to |E| = |V| - #components
    return edge_cnt == len(verts) - len(connected_components(g, mask))


def decycling_number(g: Graph) -> int:
    """Minimum vertices whose removal leaves a forest; smallest subsets first."""
    full = (1 << g.n) - 1
    for k in range(g.n + 1):
        for removal in combinations(range(g.n), k):
            mask = full
            for v in removal:
                mask ^= 1 << v
            if mask == 0 or _is_forest_mask(g, mask):
                return k
    return g.n


def adjacency_char_poly(g: Graph) -> tuple:
    """Characteristic polynomial det(xI - A), ascending integer coefficients."""
    return char_poly([[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)])


def char_poly(a) -> tuple:
    """det(xI - A) of an integer matrix given by its rows, ascending integer coefficients.

    Faddeev-LeVerrier over exact integers; the trace divisions are exact.
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    c = 1
    for k in range(1, n + 1):
        # M <- A (M + c I)
        for i in range(n):
            m[i][i] += c
        nm = [[0] * n for _ in range(n)]
        for i in range(n):
            ai = a[i]
            for l in range(n):
                ail = ai[l]
                if ail:
                    ml = m[l]
                    row = nm[i]
                    for j in range(n):
                        row[j] += ail * ml[j]
        m = nm
        tr = sum(m[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace division must be exact"
        c = -tr // k
        coeffs[n - k] = c
    return trim(coeffs)


def spectral_radius(g: Graph, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Largest eigenvalue of the adjacency matrix as a certified enclosure."""
    return dominant_real_root(adjacency_char_poly(g), width)


def is_complete_multipartite_equal_parts(g: Graph) -> bool:
    """True iff the complement is a disjoint union of equal-size cliques."""
    comp = complement(g)
    comps = connected_components(comp)
    sizes = {m.bit_count() for m in comps}
    if len(sizes) != 1:
        return False
    size = sizes.pop()
    # a component is a clique iff each of its vertices has degree size - 1 there
    return all(comp.degree(v) == size - 1 for v in range(g.n))
