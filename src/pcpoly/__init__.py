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


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
