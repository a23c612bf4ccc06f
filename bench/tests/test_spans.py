import importlib
import itertools

import pytest

import pcpoly.cliquepoly
import pcpoly.exactpoly
import pcpoly.graphs
import pcpoly.survey
from spans import LAYERS, Tracer


def ticking_clock():
    """Each reading is one second after the previous one."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_span_nesting_and_self_time():
    tracer = Tracer(clock=ticking_clock())
    inner = tracer.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()  # clock: outer 0, inner 1-2, inner 3-4, outer 5
    outer()  # second operation: 6 .. 11

    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"] * 2
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 0, -1, 3, 3]
    ops = [s[4] for s in tracer.spans]
    assert ops == [1, 1, 1, 2, 2, 2]
    assert tracer.spans[0][1:3] == (0.0, 5.0)

    totals = tracer.layer_totals()
    assert totals["outer"] == {"calls": 2, "self_s": 6.0}  # 5 - 1 - 1, twice
    assert totals["inner"] == {"calls": 4, "self_s": 4.0}
    assert tracer.root_wall() == 10.0
    assert sum(row["self_s"] for row in totals.values()) == tracer.root_wall()


def test_span_recorded_when_call_raises():
    tracer = Tracer(clock=ticking_clock())

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.spans == [("boom", 0.0, 1.0, -1, 1)]
    assert tracer._open == []


def test_counters_fold_results():
    tracer = Tracer()
    with tracer.installed():
        pcpoly.survey.clique_counts((0b110, 0b101, 0b011), 3)  # triangle: 3 + 3 + 1
    assert tracer.layer_totals()["cliquepoly.clique_counts"]["cliques"] == 7


def test_installed_wraps_importers_and_restores():
    originals = {
        (pcpoly.cliquepoly, "clique_counts"): pcpoly.cliquepoly.clique_counts,
        (pcpoly.survey, "clique_counts"): pcpoly.survey.clique_counts,
        (pcpoly.survey, "count_nonreal_roots"): pcpoly.survey.count_nonreal_roots,
        (pcpoly.exactpoly.AlgebraicReal, "compare"): pcpoly.exactpoly.AlgebraicReal.compare,
        (pcpoly.graphs.Graph, "__post_init__"): pcpoly.graphs.Graph.__post_init__,
    }
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (owner, attr), original in originals.items():
                assert getattr(owner, attr) is not original
                assert getattr(owner, attr).__wrapped__ is original
            pcpoly.graphs.path_graph(3)  # validation runs through the wrapped method
            raise RuntimeError("restore even on error")
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    assert tracer.layer_totals()["graphs"]["calls"] >= 1


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *cls, attr = qualname.split(".")
    if cls:
        return getattr(owner, cls[0]).__dict__[attr]
    return getattr(owner, attr)


def test_every_layer_target_is_wrapped_then_restored():
    targets = [t for group in LAYERS.values() for t in group]
    with Tracer().installed():
        assert all(hasattr(_resolve(t), "__wrapped__") for t in targets)
    assert not any(hasattr(_resolve(t), "__wrapped__") for t in targets)
