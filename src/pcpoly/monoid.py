"""Normal forms of partially commutative monoids and their counting.

Words over the vertex set commute across edges of the commutation graph.
The normal form of a word is the lexicographically maximal representative;
checking it only needs the suffix condition: a letter may not commute past
everything up to a larger letter.
"""

from __future__ import annotations

from fractions import Fraction

from . import _Record
from .cliquepoly import clique_counts, pc_polynomial
from .graphs import Graph, graph_from_edge_mask

Word = tuple


class VertexOrder(_Record):
    """Total order on vertices; position 0 of ``perm`` is the greatest vertex."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a permutation of 0..n-1")

    @staticmethod
    def default(n: int) -> "VertexOrder":
        """Vertex i is greater than vertex j iff i < j."""
        return VertexOrder(tuple(range(n)))

    def rank(self) -> tuple[int, ...]:
        r = [0] * len(self.perm)
        for pos, v in enumerate(self.perm):
            r[v] = pos
        return tuple(r)


class LieDims(_Record):
    """Dimensions l_1..l_N of the graded pieces of the free partially
    commutative Lie algebra on the commutation graph."""

    dims: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.dims[n - 1]


def is_normal_form(word, g: Graph, order: VertexOrder | None = None) -> bool:
    """Lexicographic-maximality test via the suffix condition.

    ``word`` fails iff it has a factorization x a y b z with a < b, (a,b) an
    edge, and every letter of y adjacent to b.
    """
    if order is None:
        order = VertexOrder.default(g.n)
    rank = order.rank()
    return not any(_extension_blocked(word[:q], word[q], rank, g.adj) for q in range(1, len(word)))


def _extension_blocked(word, c, rank, adj) -> bool:
    """Would appending ``c`` to the normal word break normality?"""
    row = adj[c]
    rc = rank[c]
    for p in range(len(word) - 1, -1, -1):
        a = word[p]
        if not row >> a & 1:
            return False
        if rank[a] > rc:
            return True
    return False


def _count_normal_direct(g: Graph, order: VertexOrder, maxlen: int) -> list[int]:
    """Counts of normal words by length via prefix DFS.

    Normal forms are closed under subwords, so it suffices to extend normal
    prefixes and re-test only factorizations ending at the new letter.
    """
    rank = order.rank()
    adj = g.adj
    counts = [1] + [0] * maxlen
    stack = [()]
    letters = list(range(g.n))
    while stack:
        w = stack.pop()
        depth = len(w) + 1
        for c in letters:
            if _extension_blocked(w, c, rank, adj):
                continue
            counts[depth] += 1
            if depth < maxlen:
                stack.append(w + (c,))
    return counts


DIRECT_LIMIT = 16


def normal_form_counts(g: Graph, order: VertexOrder | None = None,
                       maxlen: int = 8) -> list[int]:
    """Counts for all lengths 0..maxlen in one pass, by direct enumeration.

    It enumerates normal prefixes (length capped at 16) and is the reference
    that the monoid census and the tests check the clique recurrence against.
    """
    if order is None:
        order = VertexOrder.default(g.n)
    if maxlen > DIRECT_LIMIT:
        raise ValueError(f"direct enumeration capped at length {DIRECT_LIMIT}")
    return _count_normal_direct(g, order, maxlen)


def m_sequence(g: Graph, upto: int) -> list[int]:
    """m_0..m_upto from the clique-count linear recurrence."""
    return _word_counts(clique_counts(g.adj, g.n), upto)


def count_normal_forms(g: Graph, length: int) -> int:
    """Exact number of normal forms of the given length: m_length of the clique
    recurrence.  The normal forms depend on the vertex order, their number does
    not (Cartier and Foata)."""
    return m_sequence(g, length)[length]


def _word_counts(counts, upto: int) -> list:
    """m_0..m_upto: m_0 = 1 and m_t = sum_j (-1)^(j+1) counts[j] m_(t-j) over j >= 1."""
    if upto < 0:
        raise ValueError("length must be nonnegative")
    w = len(counts) - 1
    ms = [1]
    for t in range(1, upto + 1):
        val = 0
        for j in range(1, min(w, t) + 1):
            val += (-1) ** (j + 1) * counts[j] * ms[t - j]
        ms.append(val)
    return ms


# ---------------------------------------------------------------------------
# Lie algebra dimensions


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _power_sums(pc, upto: int) -> list[int]:
    """Newton's identities on the monic recurrence polynomial, exact integers."""
    w = len(pc) - 1
    # elementary symmetric functions of the roots: e_k = c_k
    e = [(-1) ** k * pc[w - k] for k in range(w + 1)]
    p = [0] * (upto + 1)
    p[0] = w
    for k in range(1, upto + 1):
        val = 0
        for j in range(1, min(k, w) + 1):
            if j == k:
                val += (-1) ** (j - 1) * j * e[j]
            else:
                val += (-1) ** (j - 1) * e[j] * p[k - j]
        p[k] = val
    return p


def lie_dimensions(g: Graph, upto: int) -> LieDims:
    """Graded dimensions via the Moebius-inverted power sums, exact."""
    if upto < 0:
        raise ValueError("Lie degree must be nonnegative")
    pc = pc_polynomial(g)
    psums = _power_sums(pc, upto)
    totals = [0] * (upto + 1)  # totals[n] = sum over d | n of mu(d) p_(n/d)
    for d in range(1, upto + 1):
        mu = _mobius(d)
        for m in range(1, upto // d + 1):
            totals[d * m] += mu * psums[m]
    dims = []
    for n, total in enumerate(totals[1:], 1):
        if total % n != 0:
            raise ArithmeticError(f"inexact Witt division at degree {n}")
        val = total // n
        if val < 0:
            raise ArithmeticError(f"negative graded dimension at degree {n}")
        dims.append(val)
    return LieDims(tuple(dims))


# ---------------------------------------------------------------------------
# random word weight


MAX_CROSS_PAIRS = 20


def word_weight(word, p) -> Fraction:
    """Probability that the occurrence-tagged word stays in normal form in a
    random multipartite commutation graph with edge probability p.

    Parts are the occurrence sets of each distinct letter; all cross pairs
    are independently present with probability p.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if not word:
        return Fraction(1)
    letters = sorted(set(word))  # ascending index = descending order
    mult = {a: 0 for a in letters}
    for a in word:
        mult[a] += 1
    # tagged alphabet: (letter, occurrence); order is by letter rank then tag
    tagged = []
    for a in letters:
        for s in range(mult[a]):
            tagged.append((a, s))
    index = {t: i for i, t in enumerate(tagged)}
    tagged_word = []
    seen = {a: 0 for a in letters}
    for a in word:
        tagged_word.append(index[(a, seen[a])])
        seen[a] += 1
    cross = [
        (i, j)
        for i in range(len(tagged))
        for j in range(i + 1, len(tagged))
        if tagged[i][0] != tagged[j][0]
    ]
    if len(cross) > MAX_CROSS_PAIRS:
        raise ValueError(f"too many cross pairs ({len(cross)} > {MAX_CROSS_PAIRS})")
    total = Fraction(0)
    nverts = len(tagged)
    order = VertexOrder.default(nverts)  # the tagged list is already in descending order
    tagged_word = tuple(tagged_word)
    for mask in range(1 << len(cross)):
        if is_normal_form(tagged_word, graph_from_edge_mask(nverts, mask, cross), order):
            ecount = mask.bit_count()
            total += p**ecount * (1 - p) ** (len(cross) - ecount)
    return total
