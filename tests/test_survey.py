"""Census plumbing: tallies, determinism, bounds survey, averages."""

import hashlib
import time
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

from oracles import census_csv, iter_all_graphs
from pcpoly import exactpoly, survey
from pcpoly.extremal import max_beta_construction
from pcpoly.graphs import (
    adj_from_edge_mask,
    canonical_form,
    complement,
    edge_slots,
    graph_classes,
)
from pcpoly.cliquepoly import clique_profile
from pcpoly.exactpoly import AlgebraicReal, QuadSurd, RootEnclosure
from pcpoly.matching import adjoint_polynomial, matching_counts
from pcpoly.survey import (
    CENSUSES,
    average_beta,
    census_extremal_check,
    run,
    survey_bounds,
    survey_nonreal,
)

# every census that decides once per invariant key, run at n=5
KEYED_CENSUSES = ("nonreal", "bounds", "average", "dump", "extremal", "planar", "lll",
                  "matching", "adjoint")

# every census through run, its four views and the dump's CSV; the test ids keep
# the names of the twelve entry functions that the census table replaced
SIZED_CENSUSES = {
    "survey_nonreal": survey_nonreal, "survey_bounds": survey_bounds,
    "average_beta": average_beta,
    "graph_census_csv": lambda n: run("dump", n).tallies["csv"],
    "census_extremal_check": census_extremal_check,
    **{f"census_{name}_check": partial(run, name)
       for name in ("matching", "lll", "identity", "monoid", "adjoint", "planar", "decycling")},
}


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
@pytest.mark.parametrize("census", SIZED_CENSUSES.values(), ids=list(SIZED_CENSUSES))
def test_census_size_out_of_range_fails_fast(census, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="supported for 1 <= n <= "):
        census(n)
    assert time.perf_counter() - start < 1


def test_planar_census_rejects_n_above_6_before_generating_classes(monkeypatch):
    def generate(n):
        raise AssertionError("graph_classes ran")

    monkeypatch.setattr(survey, "graph_classes", generate)
    with pytest.raises(ValueError, match="planar census supported for 1 <= n <= 6"):
        run("planar", 7)


def test_max_family_check_is_live(monkeypatch):
    # reject one attaining class, K3 plus a pendant edge at n=5, k=4
    rows, _ = canonical_form(max_beta_construction(5, 4).adj)
    assert rows in dict(graph_classes(5))
    target = survey._prepare_extremal_targets(5)[4]
    monkeypatch.setitem(target, "family", target["family"] - {rows})
    res = census_extremal_check(5)
    assert res["max_family_exact"] == {k: k != 4 for k in range(11)}
    assert res["max_violations"] == []


def test_keyed_census_outputs_pinned():
    # values of the per-graph implementation these censuses replaced
    text = run("dump", 5).tallies["csv"]
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
    text = run("dump", 6).tallies["csv"]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "36e867f4a185968a3d3a57e3544c2885360d78e52500673286553b418707193b"
    )
    res = survey_bounds(6)
    assert res["violations"] == []
    assert res["density_envelope"] == (F(4411646399, 25769803776), F(1, 3))
    res = run("planar", 6)
    assert res.violations == []
    assert res.tallies["attained"] == {
        0: [1, 1], 1: [15, 15], 2: [105, 105], 3: [435, 20], 4: [1125, 240],
        5: [1773, 90], 6: [1560, 15], 7: [660, 135], 8: [105, 180], 9: [510, 60],
        10: [585, 300], 11: [180, 585], 12: [15, 180],
    }


def test_average_beta_n7_pinned():
    lo, hi = average_beta(7)
    assert (lo, hi) == (
        F(45347285677685359, 9007199254740992), F(362778285469107901, 72057594037927936)
    )
    assert hi - lo <= F(1, 10**9)
    assert abs(float((lo + hi) / 2) - 5.0345601) < 1e-7


def _clear_targets():
    survey._prepare_extremal_targets.cache_clear()
    survey._prepare_planar_targets.cache_clear()


def _counted(calls, fn, original):
    def counted(*args):
        calls[fn] += 1
        return original(*args)

    return counted


def test_targets_are_built_once_per_process(monkeypatch):
    calls = Counter()
    for fn in ("max_beta_pc", "min_beta_graph", "planar_extremes", "_target"):
        monkeypatch.setattr(survey, fn, _counted(calls, fn, getattr(survey, fn)))
    dominant_root = AlgebraicReal.dominant_root

    def target_root(p, width=F(1, 10**6)):
        if width == survey._TARGET_WIDTH:  # the censuses isolate graphs' roots wider
            calls["target dominant_root"] += 1
        return dominant_root(p, width)

    monkeypatch.setattr(AlgebraicReal, "dominant_root", staticmethod(target_root))
    _clear_targets()
    census_extremal_check(6)
    run("planar", 5)
    assert calls["max_beta_pc"] == 16 and calls["min_beta_graph"] == 16
    assert calls["planar_extremes"] and calls["target dominant_root"]
    calls.clear()
    census_extremal_check(6)
    run("planar", 5)
    assert calls == Counter()


def test_shared_targets_leave_results_unchanged():
    runs = [("extremal", n) for n in (5, 6, 5, 6, 7)] + [("planar", n) for n in (5, 6, 5)]
    _clear_targets()
    shared = [run(name, n) for name, n in runs]
    fresh = []
    for name, n in runs:
        _clear_targets()
        fresh.append(run(name, n))
    assert shared == fresh


def test_target_construction_checks_run_on_first_build(monkeypatch):
    from pcpoly import extremal

    def refuse(g, pred):
        raise AssertionError("construction check ran")

    _clear_targets()
    monkeypatch.setattr(extremal, "_assert_is_beta", refuse)
    with pytest.raises(AssertionError, match="construction check ran"):
        census_extremal_check(6)
    with pytest.raises(AssertionError, match="construction check ran"):
        run("planar", 5)


def test_extremal_census_certifies_the_printed_minimum(monkeypatch):
    from pcpoly import extremal

    check = extremal._assert_is_beta

    def refuse_below_mantel(g, pred):
        if 4 * g.edge_count <= g.n * g.n:
            raise AssertionError("triangle-free minimum checked")
        check(g, pred)

    _clear_targets()
    monkeypatch.setattr(extremal, "_assert_is_beta", refuse_below_mantel)
    with pytest.raises(AssertionError, match="triangle-free minimum checked"):
        census_extremal_check(6)


def test_extremal_census_certifies_the_printed_maximum(monkeypatch):
    from pcpoly import extremal

    check = extremal._assert_is_beta

    def refuse_enclosures(g, pred):
        if isinstance(pred, RootEnclosure):  # of the extremes, only the maximum is one
            raise AssertionError("enclosed maximum checked")
        check(g, pred)

    _clear_targets()
    monkeypatch.setattr(extremal, "_assert_is_beta", refuse_enclosures)
    with pytest.raises(AssertionError, match="enclosed maximum checked"):
        census_extremal_check(6)


@pytest.mark.parametrize("key, value", [
    ("sqrt_upper", QuadSurd.make(0, 1, 1)),  # 1, below every beta but K4's
    ("fisher_nonis_lower", QuadSurd.make(4, 0, 1)),  # 4, above every beta but the edgeless one's
])
def test_bounds_census_checks_beta_bounds(monkeypatch, key, value):
    bounds = survey.beta_bounds
    monkeypatch.setattr(survey, "beta_bounds", lambda n, k: {**bounds(n, k), key: value})
    assert key in {name for _, name in run("bounds", 4).violations}


def _lll_key(g):
    return g.max_degree(), clique_profile(complement(g)).counts


def _matching_key(g):
    return tuple(matching_counts(g)), g.max_degree()


def _adjoint_key(g):
    return tuple(matching_counts(g)), adjoint_polynomial(g)


@pytest.mark.parametrize("name", sorted(KEYED_CENSUSES))
def test_exact_algebra_runs_per_key_not_per_graph(monkeypatch, name):
    calls = Counter()
    # the targets per edge count are built once per process, before anything is counted
    survey._prepare_extremal_targets(5)
    survey._prepare_planar_targets(5)
    for module, fn in ((survey, "count_nonreal_roots"), (survey, "dominant_real_root"),
                       (exactpoly, "descartes_no_root_above")):
        monkeypatch.setattr(module, fn, _counted(calls, fn, getattr(module, fn)))
    monkeypatch.setattr(
        AlgebraicReal, "dominant_root",
        staticmethod(_counted(calls, "dominant_root", AlgebraicReal.dominant_root)),
    )
    run(name, 5)
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

    calls = Counter()
    for fn in ("clique_partition_counts", "hat_rows"):
        original = getattr(matching, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(matching, fn, counted)
        monkeypatch.setattr(survey, fn, counted)
    assert run("adjoint", 5).violations == []
    # the hat check visits every labelled graph; the gamma check every class with an edge
    graphs, classes = 1 << 10, len(graph_classes(5))
    assert calls == {"clique_partition_counts": graphs + classes - 1, "hat_rows": graphs}


def _labelled_graphs(n):
    slots = edge_slots(n)
    return tuple((adj_from_edge_mask(n, mask, slots), 1) for mask in range(1 << len(slots)))


# the censuses on the class driver; the adjoint census's hat check is labelled anyway
CLASS_CENSUSES = [name for name in CENSUSES if name != "dump"]
# n <= 5 only, to keep the labelled runs short
SLOW_AT_6 = ("identity", "monoid", "decycling", "adjoint")


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in CLASS_CENSUSES for n in range(1, 6)]
    + [(name, 6) for name in CLASS_CENSUSES if name not in SLOW_AT_6],
)
def test_class_driver_equals_labelled_census(monkeypatch, name, n):
    monkeypatch.setattr(survey, "_MONOID_LENGTH", 4)  # keeps the labelled monoid runs short
    by_class = run(name, n)
    sources = []
    monkeypatch.setattr(survey, "graph_classes", lambda n: sources.append(n) or _labelled_graphs(n))
    assert run(name, n) == by_class
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
    assert run("decycling", 4).violations == []


def test_lll_census_small():
    assert run("lll", 4).violations == []


def test_matching_census_small():
    assert run("matching", 5).violations == []
