"""Exhaustive graph censuses through one driver.

Every census checks a claim on all graphs with n vertices.  The driver
:func:`_census` is one in-process loop over ``(adjacency rows, weight)``
pairs that hands each to the census's ``visit(adj, verdict, events, weight)``:

* ``verdict`` is the census's pure ``decide`` behind ``functools.cache``, so
  the exact algebra (Sturm counts, root refinement, certified comparison)
  runs once per invariant key.  The growth rate and every root fact the
  censuses check depend only on the clique profile (c_0..c_omega); for the
  local-lemma census on (max degree, clique counts of the complement), for
  the matching census on (matching counts, max degree), and for the adjoint
  census on (matching counts, adjoint polynomial).  Every growth-rate
  verdict is an exact sign from :class:`_DominantRoot`.
* ``events`` is a ``Counter`` to which the visit adds ``weight`` per
  hashable event: a violator's graph6, an equality, a CSV row.  The
  non-real and average censuses only count the profile and decide once per
  profile afterwards.

A check that is an isomorphism invariant visits one canonical representative
per class from :func:`graphs.graph_classes` (156 classes for the 2^15
labelled graphs on six vertices, 1 044 for the 2^21 on seven), with weight
n!/|Aut G|, the number of labelled graphs in the class.  Every tally
therefore equals the one over all labelled graphs, and a violator is
reported as the graph6 of its class's canonical representative.  Two checks
depend on vertex names and visit every labelled graph at weight 1, in
edge-mask order (:func:`_labelled_graphs`): ``graph_census_csv`` writes one
row per labelled graph, and ``census_adjoint_check`` checks the hat graph,
which depends on the vertex order, while its gamma <= t^2 check runs on the
classes.

``survey_nonreal`` and ``census_extremal_check`` accept a ``threads``
argument and ignore it: the benchmark harness passes it positionally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .cliquepoly import (
    clique_counts,
    decycling_number,
    independence_polynomial,
    is_complete_multipartite_equal_parts,
    pc_poly_from_counts,
)
from .exactpoly import (
    AlgebraicReal,
    QuadSurd,
    _sign_at,
    add,
    count_nonreal_roots,
    derivative,
    descartes_no_root_above,
    dominant_real_root,
    eval_at,
    neg,
    sub,
    trim,
)
from .extremal import (
    apollonian_pc,
    is_planar_small,
    max_beta_equality_family,
    max_beta_pc,
    min_beta_graph,
    planar_extremes,
)
from .graphs import (
    Graph,
    adj_from_edge_mask,
    complement_adj,
    edge_list,
    edge_slots,
    graph_classes,
    relabel,
    to_graph6,
)
from .matching import (
    adjoint_polynomial,
    clique_partition_counts,
    hat_identity_holds,
    hat_rows,
    matching_counts,
    matching_counts_from_adj,
)
from .monoid import m_sequence, normal_form_counts
from .transforms import threshold_vector_of

# starting enclosure width of beta before a certified comparison refines it
_COMPARE_WIDTH = Fraction(1, 2**20)
# enclosure width of the predicted extremes the censuses compare against
_TARGET_WIDTH = Fraction(1, 10**12)


def _check_size(n: int) -> None:
    """Reject census sizes out of range before any work starts."""
    if not 1 <= n <= 7:
        raise ValueError("census supported for 1 <= n <= 7")


def _census(graphs, visit, decide=None) -> Counter:
    """Sum of the events ``visit`` counts over the ``(adj, weight)`` pairs."""
    verdict = cache(decide) if decide else None
    events = Counter()
    for adj, weight in graphs:
        visit(adj, verdict, events, weight)
    return events


def _labelled_graphs(n: int):
    """Every labelled graph on n vertices at weight 1, in edge-mask order."""
    slots = edge_slots(n)
    return ((adj_from_edge_mask(n, mask, slots), 1) for mask in range(1 << len(slots)))


def _g6(adj) -> str:
    return to_graph6(Graph(len(adj), adj))


def _visit_profile(adj, verdict, events, weight):
    events[tuple(clique_counts(adj, len(adj)))] += weight


def _edges(counts) -> int:
    return counts[2] if len(counts) > 2 else 0


class _DominantRoot:
    """Exact comparisons of the largest real root of a monic integer polynomial.

    Each comparison first tries a certified prefilter on the side the caller
    expects.  Only when the prefilter leaves it open is the root isolated, by
    ``AlgebraicReal.dominant_root``, at most once per polynomial.
    """

    def __init__(self, poly):
        self.poly = poly
        self._root = None

    def sign(self, target, expect: int) -> int:
        """Exact sign of the root minus ``target``, a Fraction or an AlgebraicReal.

        With ``expect`` -1, no root at or above the target's lower end
        (Descartes) gives -1; with +1, a negative value at its upper end
        gives +1.
        """
        if not isinstance(target, AlgebraicReal):
            target = AlgebraicReal.from_rational(target)
        if expect < 0 and descartes_no_root_above(self.poly, target.lo):
            return -1
        if expect > 0 and _sign_at(self.poly, target.hi) < 0:
            return 1
        if self._root is None:
            self._root = AlgebraicReal.dominant_root(self.poly, _COMPARE_WIDTH)
        return self._root.compare(target)


def _target(pred, poly=None) -> AlgebraicReal:
    """A predicted growth rate, refined to ``_TARGET_WIDTH``.

    ``pred`` is a Fraction, a QuadSurd, or an enclosure of the largest root
    of ``poly``, which is then isolated from ``poly`` itself.
    """
    if isinstance(pred, Fraction):
        alg = AlgebraicReal.from_rational(pred)
    elif isinstance(pred, QuadSurd):
        alg = pred.to_algebraic()
    else:
        return AlgebraicReal.dominant_root(poly, _TARGET_WIDTH)
    alg.refine(_TARGET_WIDTH)
    return alg


# ---------------------------------------------------------------------------
# non-real root census


@dataclass(frozen=True)
class CensusRow:
    n: int
    graphs_total: int
    polys_with_nonreal: int
    roots_total: int
    roots_nonreal: int


def survey_nonreal(n: int, threads: int | None = None) -> CensusRow:
    """Census of recurrence polynomials with non-real roots, exact integers."""
    _check_size(n)
    polys = roots_total = roots_nonreal = 0
    for counts, graphs in _census(graph_classes(n), _visit_profile).items():
        roots_total += graphs * (len(counts) - 1)
        nonreal = count_nonreal_roots(pc_poly_from_counts(counts))
        if nonreal:
            polys += graphs
            roots_nonreal += graphs * nonreal
    total = 1 << (n * (n - 1) // 2)
    return CensusRow(n, total, polys, roots_total, roots_nonreal)


def census_csv(rows) -> str:
    lines = ["n,graphs_total,polys_with_nonreal,roots_total,roots_nonreal"]
    for r in sorted(rows, key=lambda r: r.n):
        lines.append(
            f"{r.n},{r.graphs_total},{r.polys_with_nonreal},{r.roots_total},{r.roots_nonreal}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bound survey


def _decide_bounds(counts, n: int):
    """(Fisher equality, violated bounds, edge-density envelope) of a profile.

    Fisher equality is a violation only for a graph that is not complete
    multipartite with equal parts, which the caller checks per graph.
    """
    omega = len(counts) - 1
    k = _edges(counts)
    pc = pc_poly_from_counts(counts)
    b = AlgebraicReal.dominant_root(pc, Fraction(1, 10**9))
    # edge density envelope e(G) = (n - beta)/k, read before the comparisons narrow b
    envelope = ((n - b.hi) / k, (n - b.lo) / k) if k else None
    names = []
    cmp_fisher = b.compare_fraction(Fraction(n * n - 2 * k, n))
    if cmp_fisher < 0:
        names.append("fisher_lower")
    if b.compare_fraction(Fraction(n, omega)) < 0:
        names.append("clique_number_lower")
    if b.compare_fraction(Fraction(n)) > 0:
        names.append("vertex_upper")
    if k and count_nonreal_roots(pc) == 0:
        if b.compare_fraction(Fraction(n * n - k, n)) > 0:
            names.append("samuelson_upper")
    if envelope and envelope[0] > Fraction(2, n):
        names.append("edge_density_upper")
    return cmp_fisher == 0 and k > 0, tuple(names), envelope


def _visit_bounds(adj, verdict, events, weight):
    n = len(adj)
    fisher_equal, names, envelope = verdict(tuple(clique_counts(adj, n)))
    if envelope:
        events["envelope", envelope] += weight  # only the extremes count
    if fisher_equal or names:
        g = Graph(n, adj)
        if fisher_equal and not is_complete_multipartite_equal_parts(g):
            names = ("fisher_equality_characterization",) + names
        g6 = to_graph6(g)
        for name in names:
            events["violation", g6, name] += weight


def survey_bounds(n: int) -> dict:
    """Exhaustively check the closed-form growth-rate bounds; expect no violations."""
    _check_size(n)
    events = _census(graph_classes(n), _visit_bounds, partial(_decide_bounds, n=n))
    envelopes = [e[1] for e in events if e[0] == "envelope"]
    return {
        "n": n,
        "violations": [e[1:] for e in events if e[0] == "violation"],
        "density_envelope": (
            (min(e[0] for e in envelopes), max(e[1] for e in envelopes)) if envelopes else None
        ),
    }


# ---------------------------------------------------------------------------
# average growth rate


def _decide_beta(counts, width):
    return dominant_real_root(pc_poly_from_counts(counts), width)


def average_beta(n: int, width: Fraction = Fraction(1, 10**9)):
    """Interval for the mean growth rate over all labelled graphs on n vertices."""
    if not 1 <= n <= 6:
        raise ValueError("average supported for 1 <= n <= 6")
    lo = hi = Fraction(0)
    for counts, graphs in _census(graph_classes(n), _visit_profile).items():
        enc = _decide_beta(counts, width)
        lo += graphs * enc.lo
        hi += graphs * enc.hi
    total = 1 << (n * (n - 1) // 2)
    return lo / total, hi / total


# ---------------------------------------------------------------------------
# extremal census (maximum and minimum per edge count)


def _prepare_extremal_targets(n: int):
    """Per-k data needed to classify every graph against both extremes."""
    targets = {}
    for k in range(n * (n - 1) // 2 + 1):
        pc_star = max_beta_pc(n, k)
        if 4 * k <= n * n:
            min_pred = QuadSurd.make(n, n * n - 4 * k, 2) if k else Fraction(n)
            conditional = None
        else:
            res = min_beta_graph(n, k)
            min_pred = res.predicted_beta
            conditional = res.conditional
        targets[k] = {
            "max": AlgebraicReal.dominant_root(pc_star, _TARGET_WIDTH),
            "family": max_beta_equality_family(n, k),
            "min": _target(min_pred),
            "conditional": conditional,
        }
    return targets


def _decide_extremal(counts, targets) -> tuple[int, int]:
    """Exact signs of beta minus the maximum and minus the minimum at its k."""
    tgt = targets[_edges(counts)]
    root = _DominantRoot(pc_poly_from_counts(counts))
    to_max = root.sign(tgt["max"], -1)
    if len(counts) <= 3:
        return to_max, 0  # triangle-free: the growth rate is the quadratic value exactly
    return to_max, root.sign(tgt["min"], 1)


def _visit_extremal(adj, verdict, events, weight):
    n = len(adj)
    counts = tuple(clique_counts(adj, n))
    k = _edges(counts)
    to_max, to_min = verdict(counts)
    if to_max > 0:
        events["max_violation", k, _g6(adj)] += weight
    elif to_max == 0:
        events["max_equal", k, adj] += weight
    if to_min < 0:
        events["min_violation", k, _g6(adj)] += weight
    elif to_min == 0:
        # below the Mantel bound only triangle-free graphs may attain
        events["min_equal", k, len(counts) > 3 and 4 * k <= n * n] += weight


def _is_family_exact(equal: dict, family: set, n: int) -> bool:
    """Whether the labelled graphs of the weighted classes in ``equal`` are ``family``.

    ``family`` is checked closed under the transposition (0 1) and the
    n-cycle, which generate S_n.  A class with its representative in an
    S_n-closed family lies in it with every labelling, so the classes cover
    part of the family, and equal weight totals make it all of it.
    """
    swap = [1, 0, *range(2, n)] if n > 1 else [0]
    shift = [*range(1, n), 0]
    closed = all(relabel(adj, swap) in family and relabel(adj, shift) in family
                 for adj in family)
    return closed and set(equal) <= family and sum(equal.values()) == len(family)


def census_extremal_check(n: int, threads: int | None = None) -> dict:
    """Verify both extremal constructions against the full census.

    Returns per-k results: maximum attained exactly by the construction
    family, minimum never undercut, plus equality tallies for the minimum
    side (triangle-free counts below the Mantel bound, conditional-regime
    matches above it).
    """
    _check_size(n)
    targets = _prepare_extremal_targets(n)
    events = _census(graph_classes(n), _visit_extremal,
                     partial(_decide_extremal, targets=targets))
    max_equal: dict[int, dict] = {}
    min_equal_counts: dict[int, int] = {}
    min_equal_nontf: dict[int, int] = {}
    for (tag, k, detail), count in events.items():
        if tag == "max_equal":
            max_equal.setdefault(k, {})[detail] = count
        elif tag == "min_equal":
            min_equal_counts[k] = min_equal_counts.get(k, 0) + count
            if detail:
                min_equal_nontf[k] = min_equal_nontf.get(k, 0) + count
    return {
        "n": n,
        "max_violations": [(k, g6) for tag, k, g6 in events if tag == "max_violation"],
        "min_violations": [(k, g6) for tag, k, g6 in events if tag == "min_violation"],
        "max_family_exact": {
            k: _is_family_exact(max_equal.get(k, {}), t["family"], n)
            for k, t in targets.items()
        },
        "min_equal_counts": min_equal_counts,
        "min_equal_nontriangle_free": min_equal_nontf,
        "conditional_ks": [k for k, t in targets.items() if t["conditional"]],
    }


# ---------------------------------------------------------------------------
# matching census (real-rootedness and degree bounds)


def _decide_matching(counts, delta, n: int):
    """The failed check for matching counts at max degree Delta, or None.

    The signed matching polynomial is mu = x^sigma g(x^2) with g the
    recurrence polynomial of the counts, whose alternating coefficients rule
    out negative roots, so mu is real-rooted iff g is.  t^2, the largest root
    of g, is at least 4k/n - 1 and, for Delta > 1, between Delta and 4(Delta - 1).
    """
    g = pc_poly_from_counts(counts)
    if count_nonreal_roots(g):
        return "nonreal"
    t2 = _DominantRoot(g)
    ok = t2.sign(Fraction(4 * counts[1] - n, n), 1) >= 0 and (
        delta <= 1
        or t2.sign(Fraction(delta), 1) >= 0 and t2.sign(Fraction(4 * (delta - 1)), -1) <= 0
    )
    return None if ok else "bound"


def _visit_matching(adj, verdict, events, weight):
    counts = tuple(matching_counts_from_adj(adj, len(adj)))
    if len(counts) > 1:
        failed = verdict(counts, max(row.bit_count() for row in adj))
        if failed:
            events[failed, _g6(adj)] += weight


def census_matching_check(n: int) -> dict:
    _check_size(n)
    events = _census(graph_classes(n), _visit_matching, partial(_decide_matching, n=n))
    return {
        "nonreal": [g6 for tag, g6 in events if tag == "nonreal"],
        "bound_violations": [g6 for tag, g6 in events if tag == "bound"],
    }


# ---------------------------------------------------------------------------
# local-lemma threshold census


def _decide_lll(d, comp_counts) -> bool:
    """True when beta(complement) exceeds d^d/(d-1)^(d-1) for max degree d."""
    # threshold >= (d-1)^(d-1)/d^d  <=>  beta(complement) <= d^d/(d-1)^(d-1)
    bound = Fraction(d**d, (d - 1) ** (d - 1))
    return _DominantRoot(pc_poly_from_counts(comp_counts)).sign(bound, -1) > 0


def _visit_lll(adj, verdict, events, weight):
    d = max(row.bit_count() for row in adj)
    if d >= 2 and verdict(d, tuple(clique_counts(complement_adj(adj), len(adj)))):
        events[_g6(adj)] += weight


def census_lll_check(n: int) -> list:
    _check_size(n)
    return list(_census(graph_classes(n), _visit_lll, _decide_lll))


# ---------------------------------------------------------------------------
# alternating independent-set census


def _dependence_from_mask(adj, mask: int) -> tuple:
    """Dependence polynomial of the induced subgraph on a vertex mask."""
    return tuple((-1) ** k * c for k, c in enumerate(clique_counts(adj, len(adj), mask)))


def _identities_hold(n: int, adj) -> bool:
    """Vertex-deletion, edge-deletion and derivative identities of D(G)."""
    full = (1 << n) - 1
    dg = trim(_dependence_from_mask(adj, full))
    total = ()  # sum over v of D(G[N(v)]), which is -D'(G)
    for v in range(n):
        inner = _dependence_from_mask(adj, adj[v])
        if trim(sub(_dependence_from_mask(adj, full ^ (1 << v)), (0,) + inner)) != dg:
            return False
        total = add(total, inner)
    for u in range(n):
        mm = adj[u] & ~((1 << (u + 1)) - 1)
        while mm:
            b = mm & -mm
            v = b.bit_length() - 1
            mm ^= b
            cut = list(adj)
            cut[u] ^= 1 << v
            cut[v] ^= 1 << u
            inner = _dependence_from_mask(adj, adj[u] & adj[v])
            if trim(add(_dependence_from_mask(cut, full), (0, 0) + inner)) != dg:
                return False
    return trim(derivative(dg)) == trim(neg(total))


def _visit_identities(adj, verdict, events, weight):
    if not _identities_hold(len(adj), adj):
        events[_g6(adj)] += weight


def census_identity_check(n: int) -> list:
    """Vertex-deletion, edge-deletion, and derivative identities, every graph."""
    _check_size(n)
    return list(_census(graph_classes(n), _visit_identities))


def _visit_monoid(adj, verdict, events, weight, maxlen):
    g = Graph(len(adj), adj)
    if m_sequence(g, maxlen) != normal_form_counts(g, maxlen=maxlen, mode="direct"):
        events[to_graph6(g)] += weight


def census_monoid_check(n: int, maxlen: int = 8) -> list:
    """Recurrence counts versus direct normal-form enumeration, every graph."""
    _check_size(n)
    return list(_census(graph_classes(n), partial(_visit_monoid, maxlen=maxlen)))


def _decide_adjoint(counts, adjoint) -> bool:
    """True when gamma, the largest root of the adjoint polynomial, exceeds t^2."""
    t2 = AlgebraicReal.dominant_root(pc_poly_from_counts(counts), _COMPARE_WIDTH)
    return _DominantRoot(adjoint).sign(t2, -1) > 0


def _visit_hat(adj, verdict, events, weight):
    """The adjoint checks that depend on the vertex order, on adjacency rows."""
    hat = hat_rows(adj)
    if not hat_identity_holds(adj, clique_partition_counts(adj), hat):
        events["identity", _g6(adj)] += weight
        return
    # the hat graph must lie inside L(G), which joins edges sharing an endpoint
    edges = edge_list(adj)
    at = [0] * len(adj)  # the edges at each vertex
    for a, (i, j) in enumerate(edges):
        at[i] |= 1 << a
        at[j] |= 1 << a
    if any(row & ~(at[i] | at[j]) for row, (i, j) in zip(hat, edges)):
        events["subgraph", _g6(adj)] += weight


def _visit_gamma(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    if g.edge_count and verdict(tuple(matching_counts(g)), adjoint_polynomial(g)):
        events["gamma", to_graph6(g)] += weight


def census_adjoint_check(n: int) -> dict:
    """Partition-count identity, conflict-graph containment, gamma <= t^2.

    The first two depend on the vertex order and run on every labelled graph;
    gamma <= t^2 is an invariant and runs once per class.
    """
    _check_size(n)
    events = _census(_labelled_graphs(n), _visit_hat)
    events += _census(graph_classes(n), _visit_gamma, _decide_adjoint)
    return {
        "identity": [g6 for tag, g6 in events if tag == "identity"],
        "gamma": [g6 for tag, g6 in events if tag == "gamma"],
        "subgraph": [g6 for tag, g6 in events if tag == "subgraph"],
    }


def _prepare_planar_targets(n: int):
    targets = {}
    for k in range(min(n * (n - 1) // 2, max(3 * n - 6, 1)) + 1):
        try:
            res = planar_extremes(n, k)
        except ValueError:
            continue
        # only an Apollonian maximum comes as an enclosure
        pc = apollonian_pc(n, k)
        targets[k] = {"minus": _target(res.lambda_minus, pc), "plus": _target(res.lambda_plus, pc)}
    return targets


def _decide_planar(counts, targets) -> tuple[int, int]:
    """Exact signs of beta minus the planar minimum and minus the maximum at its k."""
    tgt = targets[_edges(counts)]
    root = _DominantRoot(pc_poly_from_counts(counts))
    return root.sign(tgt["minus"], 1), root.sign(tgt["plus"], -1)


def _visit_planar(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    if not is_planar_small(g):
        return
    k = g.edge_count
    to_min, to_max = verdict(tuple(clique_counts(adj, g.n)))
    if to_min < 0:
        events["violation", k, to_graph6(g), "below_min"] += weight
    if to_max > 0:
        events["violation", k, to_graph6(g), "above_max"] += weight
    events["planar", k, to_min == 0, to_max == 0] += weight


def census_planar_check(n: int) -> dict:
    """Verify the planar extremes over the full planar census at tiny n."""
    _check_size(n)
    targets = _prepare_planar_targets(n)
    events = _census(graph_classes(n), _visit_planar, partial(_decide_planar, targets=targets))
    attained: dict = {}
    for (tag, k, equal_min, equal_max), count in events.items():
        if tag == "planar":
            att = attained.setdefault(k, [0, 0])
            att[0] += count * equal_min
            att[1] += count * equal_max
    return {
        "violations": [e[1:] for e in events if e[0] == "violation"],
        "attained": attained,
        "ks": sorted(targets),
    }


def _visit_dump(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    counts = tuple(clique_counts(adj, g.n))
    enc = verdict(counts)
    flags = []
    if len(counts) <= 3:
        flags.append("triangle-free")
    if threshold_vector_of(g) is not None:
        flags.append("threshold")
    if is_planar_small(g):
        flags.append("planar")
    events[f"{g.n},{g.edge_count},{to_graph6(g)},{enc.lo},{enc.hi},{'|'.join(flags)}"] += weight


def graph_census_csv(n: int, width: Fraction = Fraction(1, 10**9)) -> str:
    """Per-graph census rows: n, k, graph6, beta_lo, beta_hi, flags, in edge-mask order."""
    if not 1 <= n <= 6:
        raise ValueError("per-graph dump supported for 1 <= n <= 6")
    rows = _census(_labelled_graphs(n), _visit_dump, partial(_decide_beta, width=width))
    return "n,k,graph6,beta_lo,beta_hi,flags\n" + "\n".join(rows) + "\n"


def _visit_decycling(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    if abs(eval_at(independence_polynomial(g), -1)) > 2 ** decycling_number(g):
        events[to_graph6(g)] += weight


def census_decycling_check(n: int) -> list:
    _check_size(n)
    return list(_census(graph_classes(n), _visit_decycling))
