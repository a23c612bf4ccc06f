"""Census plumbing: tallies, determinism, bounds survey, averages."""

import hashlib
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from pcpoly import survey
from pcpoly.graphs import adj_from_edge_mask, complement, edge_slots, iter_all_graphs
from pcpoly.cliquepoly import clique_profile
from pcpoly.exactpoly import AlgebraicReal
from pcpoly.matching import adjoint_polynomial, matching_counts
from pcpoly.survey import (
    average_beta,
    census_adjoint_check,
    census_csv,
    census_decycling_check,
    census_extremal_check,
    census_identity_check,
    census_lll_check,
    census_matching_check,
    census_monoid_check,
    census_planar_check,
    graph_census_csv,
    survey_bounds,
    survey_nonreal,
)

# every census that decides once per invariant key, run at n=5
KEYED_CENSUSES = {
    "nonreal": lambda: survey_nonreal(5),
    "bounds": lambda: survey_bounds(5),
    "average": lambda: average_beta(5),
    "dump": lambda: graph_census_csv(5),
    "extremal": lambda: census_extremal_check(5),
    "planar": lambda: census_planar_check(5),
    "lll": lambda: census_lll_check(5),
    "matching": lambda: census_matching_check(5),
    "adjoint": lambda: census_adjoint_check(5),
}

SIZED_CENSUSES = (
    survey_nonreal, survey_bounds, average_beta, graph_census_csv, census_extremal_check,
    census_matching_check, census_lll_check, census_identity_check, census_monoid_check,
    census_adjoint_check, census_planar_check, census_decycling_check,
)


def test_rows_small():
    row = survey_nonreal(2, 1)
    assert (row.graphs_total, row.polys_with_nonreal, row.roots_total, row.roots_nonreal) == (
        2, 0, 3, 0,
    )
    row = survey_nonreal(3, 1)
    assert (row.graphs_total, row.polys_with_nonreal, row.roots_total, row.roots_nonreal) == (
        8, 0, 16, 0,
    )


def test_row_n4_matches_table():
    row = survey_nonreal(4, 2)
    assert row.graphs_total == 64
    assert row.polys_with_nonreal == 4
    assert row.roots_total == 151
    assert row.roots_nonreal == 8


def test_roots_total_bookkeeping():
    row = survey_nonreal(4, 1)
    assert row.roots_total == sum(
        clique_profile(g).clique_number for g in iter_all_graphs(4)
    )
    assert row.polys_with_nonreal <= row.graphs_total
    assert row.roots_nonreal <= row.roots_total


def test_threads_do_not_change_output():
    rows = [survey_nonreal(4, threads) for threads in (1, 2, 3)]
    assert all(r == rows[0] for r in rows)
    assert len({census_csv([r]) for r in rows}) == 1
    for census in (survey_nonreal, census_extremal_check):
        results = [census(5, threads) for threads in (1, 2, 3)]
        assert results[1] == results[0] and results[2] == results[0], census.__name__


@pytest.mark.parametrize("n", (0, 8))
@pytest.mark.parametrize("census", SIZED_CENSUSES, ids=lambda census: census.__name__)
def test_census_size_out_of_range_fails_fast(census, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="supported for 1 <= n <= "):
        census(n)
    assert time.perf_counter() - start < 1


def test_keyed_census_outputs_pinned():
    # values of the per-graph implementation these censuses replaced
    text = graph_census_csv(5)
    assert len(text.encode()) == 59667
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a23d6bb06631e53153dc29f99bec8bf7482329623c990bd5c305b678c4c16762"
    )
    assert average_beta(5) == (
        F(32133909114405, 8796093022208), F(32133909119367, 8796093022208)
    )
    res = survey_bounds(5)
    assert res["violations"] == []
    assert res["density_envelope"] == (F(896411867, 4294967296), F(2, 5))


def test_keyed_census_outputs_pinned_n6():
    text = graph_census_csv(6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36e867f4a185968a3d3a57e3544c2885360d78e52500673286553b418707193b"
    )
    res = survey_bounds(6)
    assert res["violations"] == []
    assert res["density_envelope"] == (F(4411646399, 25769803776), F(1, 3))
    res = census_planar_check(6)
    assert res["violations"] == []
    assert res["attained"] == {
        0: [1, 1], 1: [15, 15], 2: [105, 105], 3: [435, 20], 4: [1125, 240],
        5: [1773, 90], 6: [1560, 15], 7: [660, 135], 8: [105, 180], 9: [510, 60],
        10: [585, 300], 11: [180, 585], 12: [15, 180],
    }


def _lll_key(g):
    return g.max_degree(), clique_profile(complement(g)).counts


def _matching_key(g):
    return tuple(matching_counts(g)), g.max_degree()


def _adjoint_key(g):
    return tuple(matching_counts(g)), adjoint_polynomial(g)


@pytest.mark.parametrize("name", sorted(KEYED_CENSUSES))
def test_exact_algebra_runs_per_key_not_per_graph(monkeypatch, name):
    calls = Counter()

    def count(fn, original):
        def counted(*args):
            calls[fn] += 1
            return original(*args)

        return counted

    # the targets per edge count are prepared before anything is counted
    for prepare in ("_prepare_extremal_targets", "_prepare_planar_targets"):
        targets = getattr(survey, prepare)(5)
        monkeypatch.setattr(survey, prepare, lambda n, _targets=targets: _targets)
    for fn in ("count_nonreal_roots", "dominant_real_root", "descartes_no_root_above"):
        monkeypatch.setattr(survey, fn, count(fn, getattr(survey, fn)))
    monkeypatch.setattr(
        AlgebraicReal, "dominant_root",
        staticmethod(count("dominant_root", AlgebraicReal.dominant_root)),
    )
    KEYED_CENSUSES[name]()
    if name in ("matching", "adjoint"):
        key = _matching_key if name == "matching" else _adjoint_key
        keys = len({key(g) for g in iter_all_graphs(5) if g.edge_count})
    else:
        key = _lll_key if name == "lll" else (lambda g: clique_profile(g).counts)
        keys = len({key(g) for g in iter_all_graphs(5)})
    roots = 2 if name == "adjoint" else 1  # the adjoint verdict isolates t^2 and gamma
    assert calls
    for fn, n_calls in calls.items():
        assert n_calls <= keys * roots, (fn, n_calls, keys)


def test_adjoint_census_builds_partitions_and_hat_graph_once_per_graph(monkeypatch):
    from pcpoly import matching
    from pcpoly.graphs import graph_classes

    calls = Counter()
    for fn in ("clique_partition_counts", "hat_rows"):
        original = getattr(matching, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(matching, fn, counted)
        monkeypatch.setattr(survey, fn, counted)
    res = census_adjoint_check(5)
    assert res == {"identity": [], "gamma": [], "subgraph": []}
    # the hat checks visit every labelled graph; the gamma check every class with an edge
    graphs, classes = 1 << 10, len(graph_classes(5))
    assert calls == {"clique_partition_counts": graphs + classes - 1, "hat_rows": graphs}


def _labelled_graphs(n):
    slots = edge_slots(n)
    return tuple((adj_from_edge_mask(n, mask, slots), 1) for mask in range(1 << len(slots)))


# the censuses on the class driver, at n
CLASS_CENSUSES = {
    "nonreal": survey_nonreal,
    "bounds": survey_bounds,
    "average": average_beta,
    "extremal": census_extremal_check,
    "lll": census_lll_check,
    "planar": census_planar_check,
    "matching": census_matching_check,
    "identity": census_identity_check,
    "monoid": lambda n: census_monoid_check(n, maxlen=4),
    "decycling": census_decycling_check,
    "adjoint": census_adjoint_check,  # its gamma check; the hat checks are labelled anyway
}
# n <= 5 only, to keep the labelled runs short
SLOW_AT_6 = ("identity", "monoid", "decycling", "adjoint")


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in CLASS_CENSUSES for n in range(1, 6)]
    + [(name, 6) for name in CLASS_CENSUSES if name not in SLOW_AT_6],
)
def test_class_driver_equals_labelled_census(monkeypatch, name, n):
    census = CLASS_CENSUSES[name]
    by_class = census(n)
    sources = []
    monkeypatch.setattr(survey, "graph_classes", lambda n: sources.append(n) or _labelled_graphs(n))
    assert census(n) == by_class
    assert sources == [n]


def test_census_csv_format():
    text = census_csv([survey_nonreal(2, 1), survey_nonreal(3, 1)])
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,graphs_total")
    assert lines[1] == "2,2,0,3,0"


def test_survey_bounds_no_violations():
    for n in (3, 4, 5):
        res = survey_bounds(n)
        assert res["violations"] == []
        lo, hi = res["density_envelope"]
        assert lo > 0 and hi <= F(2, n)


def test_average_beta():
    lo, hi = average_beta(2, F(1, 10**9))
    assert lo == hi == F(3, 2)
    lo, hi = average_beta(3, F(1, 10**9))
    # 8 graphs: empty 3; three 1-edge ((3+sqrt5)/2); three paths 2+...;
    # triangle 1; check against a direct interval sum
    from pcpoly.cliquepoly import beta

    total_lo = total_hi = F(0)
    for g in iter_all_graphs(3):
        enc = beta(g, F(1, 10**9))
        total_lo += enc.lo
        total_hi += enc.hi
    assert lo == total_lo / 8 and hi == total_hi / 8


def test_decycling_census_small():
    assert census_decycling_check(4) == []


def test_lll_census_small():
    assert census_lll_check(4) == []


def test_matching_census_small():
    res = census_matching_check(5)
    assert res["nonreal"] == [] and res["bound_violations"] == []
