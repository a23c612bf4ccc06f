import json
from collections import Counter
from fractions import Fraction

from pcpoly.cliquepoly import clique_counts as program_clique_counts
from pcpoly.graphs import parse_graph6
from pcpoly.matching import matching_counts_from_adj
from queries import (
    Checker,
    clique_counts,
    encloses_largest_root,
    make_queries,
    matching_counts,
)


def test_query_list_is_deterministic_per_seed():
    assert make_queries(7) == make_queries(7)
    assert make_queries(7) != make_queries(8)


def test_every_seed_has_the_same_specs():
    def specs(seed):
        return Counter((q.verb, q.n, len(q.edges)) for q in make_queries(seed))

    assert specs(1) == specs(2) == specs(3)


def test_graph6_and_reference_counts_agree_with_the_program():
    for q in make_queries(3)[:40]:
        g = parse_graph6(q.argv[1])
        assert g.n == q.n and g.edge_count == len(q.edges)
        assert clique_counts(q.n, q.edges) == program_clique_counts(g.adj, g.n)
        if q.n <= 12:
            assert matching_counts(q.n, q.edges) == matching_counts_from_adj(g.adj, g.n)


def test_enclosure_check():
    poly = [-2, 0, 1]  # roots -sqrt(2), sqrt(2)
    width = Fraction(1, 100)
    good = {"lo": "141/100", "hi": "142/100"}
    assert encloses_largest_root(poly, good, width)
    assert not encloses_largest_root(poly, good, Fraction(1, 1000))  # too wide
    assert not encloses_largest_root(poly, {"lo": "-142/100", "hi": "-141/100"}, width)
    assert not encloses_largest_root(poly, {"lo": "142/100", "hi": "143/100"}, width)
    assert encloses_largest_root([-4, 0, 1], {"lo": "2", "hi": "2"}, width)  # exact root
    # (x^2 - 3x + 1)^2, the recurrence polynomial of graph6 "Ervg": no sign change
    # of the polynomial itself around its double root (3 + sqrt 5) / 2
    assert encloses_largest_root([1, -6, 11, -6, 1], {"lo": "2618/1000", "hi": "2619/1000"}, width)
    assert not encloses_largest_root([1, -6, 11, -6, 1], {"lo": "2617/1000", "hi": "2618/1000"},
                                     width)


def test_checker_rejects_wrong_coefficients():
    q = next(q for q in make_queries(5) if q.verb == "poly")
    checker = Checker()
    good = checker.expected(q)
    assert checker.check(q, json.dumps(good))
    bad = dict(good, coefficients_ascending=good["coefficients_ascending"][:-1] + [2])
    assert not checker.check(q, json.dumps(bad))
    assert not checker.check(q, "not json")
