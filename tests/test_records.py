"""Every record class behaves like the frozen dataclass with the same fields."""

import dataclasses
import importlib
from fractions import Fraction as F

import pytest

import pcpoly
from pcpoly import _Record
from pcpoly.graphs import Graph, GraphError
from pcpoly.monoid import VertexOrder
from pcpoly.weighted import WeightedGraph

for _module in pcpoly._EXPORTS:
    importlib.import_module(f"pcpoly.{_module}")
RECORDS = sorted(_Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__qualname__))

G2, G2_EMPTY = Graph(2, (2, 1)), Graph(2, (0, 0))
# two valid field tuples for each record whose __post_init__ validates
VALID = {
    Graph: ((2, (2, 1)), (2, (0, 0))),
    VertexOrder: (((1, 0, 2),), ((0, 1, 2),)),
    WeightedGraph: ((G2, (F(1), F(1)), (F(1), F(2))), (G2_EMPTY, (F(1, 2), F(1)), (F(1), F(1)))),
}


def _samples(cls):
    if cls in VALID:
        return VALID[cls]
    k = len(cls._fields)
    return tuple(F(i + 1, 3) for i in range(k)), tuple((i, "x") for i in range(k))


def _twin(cls):
    """The frozen dataclass with the record's name, fields and defaults."""
    spec = [(f, object, dataclasses.field(default=cls._defaults[f])) if f in cls._defaults
            else (f, object) for f in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def test_every_record_is_found():
    assert len(RECORDS) == 18
    assert {cls for cls in RECORDS if "__post_init__" in vars(cls)} == set(VALID)
    assert all(cls.__qualname__ == cls.__name__ for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    twin, other = _twin(cls), next(c for c in RECORDS if c is not cls)
    values, different = _samples(cls)
    # a second record class with the same fields, so only the class differs
    same = type("Same", (_Record,), {"__annotations__": dict.fromkeys(cls._fields), **cls._defaults})
    rec, dup = cls(*values), twin(*values)
    assert list(vars(rec).items()) == list(vars(dup).items())
    assert _Record.__repr__(rec) == repr(dup)
    if "__repr__" not in vars(cls):
        assert repr(rec) == repr(dup)
    assert hash(rec) == hash(dup) == hash(cls(*values))
    assert hash(cls(*different)) == hash(twin(*different))

    for pair, twin_pair in [
        ((cls(*values), cls(*values)), (twin(*values), twin(*values))),
        ((cls(*values), cls(*different)), (twin(*values), twin(*different))),
        ((rec, values), (dup, values)),
        ((rec, other(*_samples(other)[0])), (dup, _twin(other)(*_samples(other)[0]))),
        ((rec, same(*values)), (dup, _twin(same)(*values))),
        ((rec, None), (dup, None)),
    ]:
        assert (pair[0] == pair[1]) is (twin_pair[0] == twin_pair[1])
        assert (pair[0] != pair[1]) is (twin_pair[0] != twin_pair[1])
        assert (pair[1] == pair[0]) is (twin_pair[1] == twin_pair[0])
    assert rec.__eq__(values) is NotImplemented is dup.__eq__(values)

    # keyword construction, and each default taken when its field is left out
    kwargs = dict(zip(cls._fields, values))
    assert vars(cls(**kwargs)) == vars(twin(**kwargs)) == vars(rec)
    required = {f: kwargs[f] for f in cls._fields if f not in cls._defaults}
    assert required, "every record has a field without a default"
    assert vars(cls(**required)) == vars(twin(**required))

    # binding errors
    n_req = len(required)
    calls = [
        lambda c: c(),
        lambda c: c(*values[: n_req - 1]),
        lambda c: c(*values, values[0]),
        lambda c: c(*values, no_such_field=1),
        lambda c: c(*values, **{cls._fields[0]: values[0]}),
    ]
    for call in calls:
        assert _outcome(lambda: call(cls)) is TypeError
        assert _outcome(lambda: call(twin)) is TypeError

    # frozen: no field or other attribute can be set or deleted
    for obj in (rec, dup):
        for name in (cls._fields[0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert vars(rec) == vars(dup)


def test_post_init_validators_still_raise():
    with pytest.raises(GraphError, match="symmetric|asymmetric"):
        Graph(2, (2, 0))
    with pytest.raises(GraphError):
        Graph(n=2, adj=(2, 0))
    with pytest.raises(ValueError, match="permutation"):
        VertexOrder((0, 0, 1))
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(G2, (F(0), F(1)), (F(1), F(1)))
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(graph=G2, alpha=(F(1), F(-1)), d=(F(1), F(1)))
