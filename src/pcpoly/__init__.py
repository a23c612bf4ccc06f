"""Exact clique-type graph polynomials and certified growth rates.

The public names below and the submodules that define them resolve on first
access (PEP 562), so ``import pcpoly.graphs`` loads ``graphs`` alone and
``pcpoly.beta`` loads ``cliquepoly`` and what it imports.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "cliquepoly": (
        "CliqueProfile",
        "beta",
        "beta_algebraic",
        "clique_profile",
        "clique_type_polynomial",
        "independence_at_minus_one",
        "occupancy_fraction",
        "pc_polynomial",
        "spectral_radius",
    ),
    "exactpoly": (
        "AlgebraicReal",
        "QuadSurd",
        "RatInterval",
        "RootEnclosure",
        "count_nonreal_roots",
        "dominant_real_root",
        "isolate_real_roots",
        "real_root_count",
    ),
    "extremal": (
        "ExtremalResult",
        "beta_bounds",
        "max_beta_graph",
        "min_beta_graph",
        "nordhaus_gaddum",
        "planar_extremes",
    ),
    "graphs": (
        "Graph",
        "GraphError",
        "complement",
        "graph_join_union",
        "induced_subgraph",
        "line_graph",
        "parse_graph",
        "to_edge_list",
        "to_graph6",
    ),
    "matching": (
        "MatchingPair",
        "adjoint_polynomial",
        "hat_graph",
        "matching_polynomials",
        "t_largest",
    ),
    "monoid": (
        "LieDims",
        "VertexOrder",
        "count_normal_forms",
        "is_normal_form",
        "lie_dimensions",
        "m_sequence",
        "word_weight",
    ),
    "randomgraph": (
        "RandomPC",
        "SeriesCoeffs",
        "beta0_constant",
        "beta_random",
        "beta_series",
        "f_n_polynomial",
        "ladder_limit_roots",
        "pc_random",
        "random_root_ladder",
    ),
    "survey": ("CensusRow", "average_beta", "survey_bounds", "survey_nonreal"),
    "transforms": (
        "ThresholdVector",
        "is_nontrivial_kelmans",
        "is_threshold",
        "isolating",
        "kelmans",
        "reduce_to_threshold",
    ),
    "weighted": (
        "FractionalPoly",
        "LLLResult",
        "WeightedGraph",
        "lll_check",
        "lll_threshold",
        "matrix_to_weighted_graph",
        "mcmullen_growth",
        "weighted_dependence",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


class _Record:
    """Base of the package's immutable value classes; DECISIONS.md D15.

    Behaves as a frozen dataclass with no ``dataclasses`` module loaded:
    the fields are the subclass's own annotations in order, a class attribute
    is a field's default, ``__post_init__`` runs after the fields are set, and
    ``==``, ``hash`` and ``repr`` are those of the field tuple.
    """

    def __init_subclass__(cls):
        from operator import attrgetter

        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        if len(fields) == 1:
            cls._values = staticmethod(lambda obj, get=attrgetter(fields[0]): (get(obj),))
        else:
            cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # as a dataclass does: touching self.__dict__ would give every instance its own dict
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Field values from positional and keyword arguments, as Python binds them."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {key!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
