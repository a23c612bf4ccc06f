"""Normal forms, counting modes, Lie dimensions, and random word weights."""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from oracles import expected_normal_count, iter_all_graphs, trace_class
from pcpoly import monoid
from pcpoly.cliquepoly import beta
from pcpoly.graphs import (
    edge_slots,
    graph_from_edge_mask,
    graph_join_union,
    parse_graph,
)
from pcpoly.monoid import (
    VertexOrder,
    _word_counts,
    count_normal_forms,
    is_normal_form,
    lie_dimensions,
    m_sequence,
    normal_form_counts,
    word_weight,
)
from pcpoly.randomgraph import clique_random


def test_normal_form_length_two():
    # letters: vertex 0 is the greatest; with an edge, the larger must come first
    k2 = parse_graph("K2", "named")
    assert is_normal_form((0, 1), k2)  # b a with b > a
    assert not is_normal_form((1, 0), k2)
    kbar2 = parse_graph("Kbar2", "named")
    assert is_normal_form((1, 0), kbar2)  # free monoid: everything normal
    assert is_normal_form((0, 0, 1), k2)  # bba
    assert not is_normal_form((0, 1, 0), k2)  # bab


def test_is_normal_form_is_the_lexicographic_maximum_of_its_trace_class():
    # every word of length <= 5 on every labelled graph with n <= 4, under the
    # default order and three seeded ones; the greatest letter has rank 0
    rng = random.Random(20261019)
    for n in range(1, 5):
        slots = edge_slots(n)
        for mask in range(1 << len(slots)):
            g = graph_from_edge_mask(n, mask, slots)
            classes = {}  # word -> its trace class
            for length in range(6):
                for w in product(range(n), repeat=length):
                    if w not in classes:
                        cls = frozenset(trace_class(w, g.has_edge))
                        classes.update(dict.fromkeys(cls, cls))
            orders = [VertexOrder.default(n)]
            orders += [VertexOrder(tuple(rng.sample(range(n), n))) for _ in range(3)]
            for order in orders:
                rank = order.rank()
                top = {cls: min(cls, key=lambda w: [rank[c] for c in w])
                       for cls in set(classes.values())}
                for w, cls in classes.items():
                    assert is_normal_form(w, g, order) == (w == top[cls]), (n, mask, order, w)


def test_free_monoid_all_normal():
    kbar3 = parse_graph("Kbar3", "named")
    rng = random.Random(0)
    for _ in range(50):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 7)))
        assert is_normal_form(w, kbar3)


def test_counts_examples():
    assert count_normal_forms(parse_graph("Kbar2", "named"), length=3) == 8
    assert count_normal_forms(parse_graph("K2", "named"), length=3) == 4
    assert count_normal_forms(parse_graph("P3", "named"), length=2) == 7


def test_m_sequence_closed_forms():
    for q in (1, 2, 3, 5):
        g = parse_graph(f"Kbar{q}", "named")
        assert m_sequence(g, 6) == [q**t for t in range(7)]
    for n in (2, 3, 4):
        g = parse_graph(f"K{n}", "named")
        assert m_sequence(g, 6) == [math.comb(n + t - 1, t) for t in range(7)]


def test_modes_agree_all_small_graphs():
    for n in range(1, 5):
        for g in iter_all_graphs(n):
            ms = m_sequence(g, 6)
            assert normal_form_counts(g, maxlen=6) == ms
            assert [count_normal_forms(g, length=t) for t in range(7)] == ms


def test_modes_agree_random_orders():
    rng = random.Random(42)
    slots = edge_slots(5)
    for _ in range(15):
        g = graph_from_edge_mask(5, rng.randrange(1 << len(slots)), slots)
        ms = m_sequence(g, 6)
        for _ in range(3):
            perm = list(range(5))
            rng.shuffle(perm)
            order = VertexOrder(tuple(perm))
            # counts are order-invariant even though the normal forms differ
            assert normal_form_counts(g, order, maxlen=6) == ms
            assert [count_normal_forms(g, order, t) for t in range(7)] == ms


def test_direct_mode_cap():
    with pytest.raises(ValueError):
        normal_form_counts(parse_graph("K2", "named"), maxlen=17)


def test_counts_run_on_the_automaton(monkeypatch):
    def refuse(*args):
        raise AssertionError("direct enumeration ran")

    monkeypatch.setattr(monoid, "_count_normal_direct", refuse)
    g = parse_graph("C6", "named")
    assert count_normal_forms(g, length=8) == m_sequence(g, 8)[8]


def test_submultiplicativity():
    rng = random.Random(5)
    slots = edge_slots(5)
    for _ in range(10):
        g = graph_from_edge_mask(5, rng.randrange(1 << len(slots)), slots)
        ms = m_sequence(g, 10)
        for s in range(1, 6):
            for t in range(1, 11 - s):
                assert ms[s + t] <= ms[s] * ms[t]


def test_growth_rate_sanity():
    # (m_t)^(1/t) approaches the dominant recurrence root; loose check at t=40.
    # A dominant root of multiplicity s contributes a t^(s-1) factor, so the
    # 0.15 slack only suffices for s = 1 (complete graphs need the correction).
    for n in range(2, 6):
        for g in [parse_graph(f"Kbar{n}", "named"), parse_graph(f"K{n}", "named"),
                  parse_graph(f"C{n}", "named") if n >= 3 else parse_graph("K2", "named"),
                  parse_graph(f"P{n}", "named")]:
            m40 = count_normal_forms(g, length=40)
            enc = beta(g)
            slack = 0.15 + (enc.multiplicity - 1) * math.log(40) / 40
            assert abs(math.log(m40) / 40 - math.log(float(enc.midpoint))) <= slack


def test_lie_dimensions_witt():
    for q in (2, 3, 4):
        dims = lie_dimensions(parse_graph(f"Kbar{q}", "named"), 8).dims
        # classical values via the Moebius sum over q^(n/d)
        for n in range(1, 9):
            total = 0
            for d in range(1, n + 1):
                if n % d == 0:
                    total += _mobius(d) * q ** (n // d)
            assert dims[n - 1] == total // n
    assert lie_dimensions(parse_graph("Kbar2", "named"), 2)[2] == 1


def _mobius(n):
    if n == 1:
        return 1
    res, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            res = -res
        d += 1
    return -res if n > 1 else res


def test_lie_dimensions_completely_commutative():
    dims = lie_dimensions(parse_graph("K4", "named"), 8).dims
    assert dims == (4, 0, 0, 0, 0, 0, 0, 0)


def test_lie_dimensions_k2_union_k1():
    # independent oracle: power sums from the trace recurrence p_k = 3p_{k-1} - p_{k-2}
    g = graph_join_union(parse_graph("K2", "named"), parse_graph("Kbar1", "named"), "union")
    dims = lie_dimensions(g, 10).dims
    p = [2, 3]  # p_0 = 2 roots, p_1 = trace 3
    for _ in range(10):
        p.append(3 * p[-1] - p[-2])
    for n in range(1, 11):
        total = sum(_mobius(d) * p[n // d] for d in range(1, n + 1) if n % d == 0)
        assert dims[n - 1] == total // n


def test_lie_dimensions_trees_match_free():
    for q in (3, 4, 5, 6):
        tree = parse_graph(f"P{q}", "named")
        star = parse_graph(f"star{q - 1}", "named")
        free = lie_dimensions(parse_graph(f"Kbar{q - 1}", "named"), 8).dims
        for g in (tree, star):
            dims = lie_dimensions(g, 8).dims
            assert dims[1:] == free[1:]
            assert dims[0] == q


def test_lie_dimensions_multipartite():
    g = parse_graph("K2,3", "named")
    d23 = lie_dimensions(g, 8).dims
    d2 = lie_dimensions(parse_graph("Kbar2", "named"), 8).dims
    d3 = lie_dimensions(parse_graph("Kbar3", "named"), 8).dims
    for n in range(2, 9):
        assert d23[n - 1] == d2[n - 1] + d3[n - 1]


def test_word_weight_examples():
    for p in (F(0), F(1, 4), F(1, 2), F(1)):
        assert word_weight((0, 0, 1, 2), p) == 1  # monotonic
    # w = acb with a > b > c: weight 1 - p
    for p in (F(0), F(1, 3), F(2, 3), F(1)):
        assert word_weight((0, 2, 1), p) == 1 - p


def test_word_weight_neighbour_pair_bound():
    rng = random.Random(6)
    for _ in range(30):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
        pairs = {frozenset((a, b)) for a, b in zip(w, w[1:]) if a != b}
        p = F(rng.randint(0, 4), 4)
        assert word_weight(w, p) >= (1 - p) ** len(pairs)


def test_word_weight_monotone_in_p():
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    words = set()
    rng = random.Random(30)
    while len(words) < 25:
        w = tuple(rng.randrange(3) for _ in range(rng.randint(2, 5)))
        # vertex 0 is the greatest, so a value increase breaks monotonicity
        if any(a > b for a, b in zip(w, w[1:])):
            words.add(w)
    for w in words:
        vals = [word_weight(w, p) for p in grid]
        for a, b in zip(vals, vals[1:]):
            assert b < a  # strictly decreasing in p


def test_random_recurrence_expectation_oracle():
    # expectation over words equals the binomial recurrence, tiny sizes
    for n in (2, 3):
        for t in (1, 2, 3):
            for p in (F(1, 2), F(1, 4)):
                assert expected_normal_count(n, t, p) == _word_counts(clique_random(n, p), t)[t]
