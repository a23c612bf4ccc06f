"""Exhaustive graph censuses through one table.

Every census checks a claim on all graphs with n vertices.  The table
:data:`CENSUSES` gives each census its largest n, its passes over the graphs,
its summary and its violation test; :func:`run` runs any of them and returns
one :class:`CensusResult` ``(name, n, tallies, violations)`` (DECISIONS.md
D16).  A pass hands each ``(adjacency rows, weight)`` pair to the census's
``visit(adj, verdict, events, weight)``:

* ``verdict`` is the census's pure ``decide`` behind ``functools.cache``, so
  the exact algebra (Sturm counts, root refinement, certified comparison)
  runs once per invariant key.  The growth rate and every root fact the
  censuses check depend only on the clique profile (c_0..c_omega); for the
  local-lemma census on (max degree, clique counts of the complement), for
  the matching census on (matching counts, max degree), and for the adjoint
  census on (matching counts, adjoint polynomial).  Every growth-rate
  verdict is an exact sign of a largest root against a target, from
  :class:`exactpoly.DominantRoot`, the one largest-root comparator of the
  package (DECISIONS.md D7, D10).
* ``events`` is a ``Counter`` to which the visit adds ``weight`` per
  hashable event: a violator's graph6, an equality, a CSV row.  The
  non-real and average censuses only count the profile and decide once per
  profile in their summary.

A check that is an isomorphism invariant visits one canonical representative
per class from :func:`graphs.graph_classes` (156 classes for the 2^15
labelled graphs on six vertices, 1 044 for the 2^21 on seven), with weight
n!/|Aut G|, the number of labelled graphs in the class.  Every tally
therefore equals the one over all labelled graphs, and a violator is
reported as the graph6 of its class's canonical representative.  The dump
and the adjoint census's hat-graph identity depend on vertex names and
visit every labelled graph at weight 1, in edge-mask order.

The extremal and planar censuses compare each verdict with targets per edge
count k, which depend on n alone.  Like the classes they are built once per
process and n, on first use, and their construction checks run in that
build.  The verdict cache, the events and the result belong to one run and
are never reused (DECISIONS.md, D9).

``survey_nonreal``, ``survey_bounds``, ``average_beta`` and
``census_extremal_check`` are views of :func:`run` in the shapes their
callers read.  The first and the fourth ignore their ``threads`` argument,
which the benchmark harness passes positionally.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

from . import _Record
from .cliquepoly import (
    clique_counts,
    dependence_poly_from_counts,
    independence_at_minus_one,
    is_complete_multipartite_equal_parts,
    pc_poly_from_counts,
)
from .exactpoly import (
    COMPARE_WIDTH,
    AlgebraicReal,
    DominantRoot,
    QuadSurd,
    add,
    count_nonreal_roots,
    derivative,
    dominant_real_root,
    neg,
    sub,
    trim,
)
from .extremal import (
    _split_edges,
    apollonian_pc,
    is_planar_small,
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

# enclosure width of the predicted extremes the censuses compare against
_TARGET_WIDTH = Fraction(1, 10**12)
# default enclosure width of each growth rate the average and the dump report
_WIDTH = Fraction(1, 10**9)
# the monoid census counts normal forms of the words up to this length
_MONOID_LENGTH = 8


class CensusResult(_Record):
    """One census at n: what it tallied, and its violations (empty when the claim holds)."""

    name: str
    n: int
    tallies: dict
    violations: list


def _labelled_graphs(n: int):
    """Every labelled graph on n vertices at weight 1, in edge-mask order."""
    slots = edge_slots(n)
    return ((adj_from_edge_mask(n, mask, slots), 1) for mask in range(1 << len(slots)))


def run(name: str, n: int, width: Fraction = _WIDTH) -> CensusResult:
    """Run the census ``name`` of :data:`CENSUSES` on every graph with n vertices.

    ``width`` is the enclosure width of each growth rate that the average and
    the dump report; every other census decides exactly and ignores it.
    """
    census = CENSUSES[name]
    if not 1 <= n <= census.max_n:
        raise ValueError(f"{name} census supported for 1 <= n <= {census.max_n}")
    events = Counter()
    for source, visit, decide in census.passes:
        verdict = cache(partial(decide, **census.context(n, width))) if decide else None
        # graph_classes is looked up here, not held by the table, so a test can swap it
        graphs = graph_classes(n) if source == "classes" else _labelled_graphs(n)
        for adj, weight in graphs:
            visit(adj, verdict, events, weight)
    return CensusResult(name, n, census.summary(events, n, width), census.violations(events))


def _tagged(events, tag: str = "violation") -> list:
    """The events whose first item is ``tag``, without it."""
    return [e[1:] for e in events if e[0] == tag]


def _census(max_n, passes, context=lambda n, width: {}, summary=lambda events, n, width: {},
            violations=list,
            show=lambda res: {"n": res.n, **res.tallies, "violations": res.violations}):
    """A row of :data:`CENSUSES`: ``passes`` lists ``(source, visit, decide)``.

    The source is ``"classes"`` or ``"labelled"``, and ``context(n, width)``
    gives the keywords bound to each decide.  ``show(result)`` gives the
    printed form: a payload for ``--format``, or text printed as it is.
    """
    return SimpleNamespace(**locals())


def _g6(adj) -> str:
    return to_graph6(Graph(len(adj), adj))


def _visit_profile(adj, verdict, events, weight):
    events[tuple(clique_counts(adj, len(adj)))] += weight


def _edges(counts) -> int:
    return counts[2] if len(counts) > 2 else 0


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
# profile censuses: non-real roots and the average growth rate


class CensusRow(_Record):
    n: int
    graphs_total: int
    polys_with_nonreal: int
    roots_total: int
    roots_nonreal: int


def _sum_nonreal(events, n, width) -> dict:
    """Graphs and recurrence roots in all, and those with non-real roots, exact integers."""
    polys = roots_total = roots_nonreal = 0
    for counts, graphs in events.items():
        roots_total += graphs * (len(counts) - 1)
        nonreal = count_nonreal_roots(pc_poly_from_counts(counts))
        if nonreal:
            polys += graphs
            roots_nonreal += graphs * nonreal
    return {"graphs_total": 1 << (n * (n - 1) // 2), "polys_with_nonreal": polys,
            "roots_total": roots_total, "roots_nonreal": roots_nonreal}


def survey_nonreal(n: int, threads: int | None = None) -> CensusRow:
    """Census of recurrence polynomials with non-real roots, exact integers."""
    return CensusRow(n, **run("nonreal", n).tallies)


def _decide_beta(counts, width):
    return dominant_real_root(pc_poly_from_counts(counts), width)


def _sum_average(events, n, width) -> dict:
    """Interval for the mean growth rate over all labelled graphs."""
    lo = hi = Fraction(0)
    for counts, graphs in events.items():
        enc = _decide_beta(counts, width)
        lo += graphs * enc.lo
        hi += graphs * enc.hi
    total = 1 << (n * (n - 1) // 2)
    return {"average": (lo / total, hi / total)}


def _show_average(res) -> dict:
    lo, hi = res.tallies["average"]
    return {"average_lo": str(lo), "average_hi": str(hi), "approx": float((lo + hi) / 2)}


def average_beta(n: int, width: Fraction = _WIDTH):
    """Interval for the mean growth rate over all labelled graphs on n vertices."""
    return run("average", n, width).tallies["average"]


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


def _sum_bounds(events, n, width) -> dict:
    """The extremes of the edge-density envelope over the graphs with an edge."""
    envelopes = [e[1] for e in events if e[0] == "envelope"]
    return {"density_envelope": (
        (min(e[0] for e in envelopes), max(e[1] for e in envelopes)) if envelopes else None
    )}


def _show_bounds(res) -> dict:
    envelope = res.tallies["density_envelope"]
    return {"n": res.n, "violations": res.violations,
            "density_envelope": [str(x) for x in envelope] if envelope else None}


def survey_bounds(n: int) -> dict:
    """Exhaustively check the closed-form growth-rate bounds; expect no violations."""
    res = run("bounds", n)
    return {"n": n, "violations": res.violations, **res.tallies}


# ---------------------------------------------------------------------------
# extremal census (maximum and minimum per edge count)


@cache
def _prepare_extremal_targets(n: int):
    """Per-k data needed to classify every graph against both extremes.

    Built once per process and n, on first use; the censuses share it and
    only read it.  A comparison may narrow a target's isolating interval,
    which leaves the number it isolates unchanged (DECISIONS.md, D9).
    """
    targets = {}
    for k in range(n * (n - 1) // 2 + 1):
        pc_star = max_beta_pc(n, k)
        res = min_beta_graph(n, k)
        targets[k] = {
            "max_pc": pc_star,
            "max": AlgebraicReal.dominant_root(pc_star, _TARGET_WIDTH),
            "min": _target(res.predicted_beta),
            "conditional": res.conditional,
        }
    return targets


def _decide_extremal(counts, targets) -> tuple[int, int]:
    """Exact signs of beta minus the maximum and minus the minimum at its k."""
    tgt = targets[_edges(counts)]
    pc = pc_poly_from_counts(counts)
    root = DominantRoot(pc)
    # equal polynomials have equal largest roots
    to_max = 0 if pc == tgt["max_pc"] else root.sign(tgt["max"], -1)
    if len(counts) <= 3:
        return to_max, 0  # triangle-free: the growth rate is the quadratic value exactly
    return to_max, root.sign(tgt["min"], 1)


def _max_shape(adj, counts) -> bool:
    """Whether the graph has the shape of the maximiser family at its k edges.

    With k = C(d,2) + e and 0 <= e < d: some d-set C is a clique, and either
    e <= 1 (the other e edges may then lie anywhere) or some v outside C has
    degree e and N(v) inside C.  ``counts`` are the graph's clique counts.
    The shape is an isomorphism invariant, and its labelled graphs are
    ``max_beta_equality_family(n, k)``.
    """
    k = _edges(counts)
    if k == 0:
        return True
    d, e = _split_edges(k)
    if len(counts) <= d:  # no d-clique
        return False
    if e <= 1:
        return True
    n = len(adj)
    for v in range(n):
        if adj[v].bit_count() == e:
            # G - v has C(d,2) edges, so it is K_d plus isolated vertices iff
            # exactly d vertices keep an edge
            rest = 0
            for u in range(n):
                if u != v:
                    rest |= adj[u]
            rest &= ~(1 << v)
            if rest.bit_count() == d and not adj[v] & ~rest:
                return True
    return False


def _visit_extremal(adj, verdict, events, weight):
    n = len(adj)
    counts = tuple(clique_counts(adj, n))
    k = _edges(counts)
    to_max, to_min = verdict(counts)
    if to_max > 0:
        events["max_violation", k, _g6(adj)] += weight
    if (to_max == 0) != _max_shape(adj, counts):
        events["max_family_mismatch", k, None] += weight
    if to_min < 0:
        events["min_violation", k, _g6(adj)] += weight
    elif to_min == 0:
        # below the Mantel bound only triangle-free graphs may attain
        events["min_equal", k, len(counts) > 3 and 4 * k <= n * n] += weight


def _sum_extremal(events, n, width) -> dict:
    """Per k: both extremes' violations, the maximiser family check, the minimum's equalities."""
    targets = _prepare_extremal_targets(n)
    min_equal_counts: dict[int, int] = {}
    min_equal_nontf: dict[int, int] = {}
    for (tag, k, detail), count in events.items():
        if tag == "min_equal":
            min_equal_counts[k] = min_equal_counts.get(k, 0) + count
            if detail:
                min_equal_nontf[k] = min_equal_nontf.get(k, 0) + count
    return {
        "max_violations": _tagged(events, "max_violation"),
        "min_violations": _tagged(events, "min_violation"),
        "max_family_exact": {k: ("max_family_mismatch", k, None) not in events
                             for k in targets},
        "min_equal_counts": min_equal_counts,
        "min_equal_nontriangle_free": min_equal_nontf,
        "conditional_ks": [k for k, t in targets.items() if t["conditional"]],
    }


def _show_extremal(res) -> dict:
    keys = ("max_violations", "min_violations", "max_family_exact", "conditional_ks")
    return {"n": res.n, **{key: res.tallies[key] for key in keys}}


def census_extremal_check(n: int, threads: int | None = None) -> dict:
    """Both extremal constructions against the full census; see :func:`_sum_extremal`."""
    return {"n": n, **run("extremal", n).tallies}


# ---------------------------------------------------------------------------
# matching (real-rootedness and degree bounds) and local-lemma censuses


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
    t2 = DominantRoot(g)
    ok = t2.sign(Fraction(4 * counts[1] - n, n), 1) >= 0 and (
        delta <= 1 or t2.within(Fraction(delta), Fraction(4 * (delta - 1)))
    )
    return None if ok else "bound"


def _visit_matching(adj, verdict, events, weight):
    counts = tuple(matching_counts_from_adj(adj, len(adj)))
    if len(counts) > 1:
        failed = verdict(counts, max(row.bit_count() for row in adj))
        if failed:
            events[failed, _g6(adj)] += weight


def _decide_lll(d, comp_counts) -> bool:
    """True when beta(complement) exceeds d^d/(d-1)^(d-1) for max degree d."""
    # threshold >= (d-1)^(d-1)/d^d  <=>  beta(complement) <= d^d/(d-1)^(d-1)
    bound = Fraction(d**d, (d - 1) ** (d - 1))
    return DominantRoot(pc_poly_from_counts(comp_counts)).sign(bound, -1) > 0


def _visit_lll(adj, verdict, events, weight):
    d = max(row.bit_count() for row in adj)
    if d >= 2 and verdict(d, tuple(clique_counts(complement_adj(adj), len(adj)))):
        events[_g6(adj)] += weight


# ---------------------------------------------------------------------------
# identity, monoid, adjoint, planar, per-graph dump and decycling censuses


def _identities_hold(n: int, adj) -> bool:
    """Vertex-deletion, edge-deletion and derivative identities of D(G)."""

    def dependence(rows, mask):  # D of the subgraph of ``rows`` induced on ``mask``
        return dependence_poly_from_counts(clique_counts(rows, n, mask))

    full = (1 << n) - 1
    dg = dependence(adj, full)
    total = ()  # sum over v of D(G[N(v)]), which is -D'(G)
    for v in range(n):
        inner = dependence(adj, adj[v])
        if trim(sub(dependence(adj, full ^ (1 << v)), (0,) + inner)) != dg:
            return False
        total = add(total, inner)
    for u, v in edge_list(adj):
        cut = list(adj)
        cut[u] ^= 1 << v
        cut[v] ^= 1 << u
        inner = dependence(adj, adj[u] & adj[v])
        if trim(add(dependence(cut, full), (0, 0) + inner)) != dg:
            return False
    return trim(derivative(dg)) == trim(neg(total))


def _visit_identities(adj, verdict, events, weight):
    if not _identities_hold(len(adj), adj):
        events[_g6(adj)] += weight


def _visit_monoid(adj, verdict, events, weight):
    """Recurrence counts versus direct normal-form enumeration."""
    g = Graph(len(adj), adj)
    if m_sequence(g, _MONOID_LENGTH) != normal_form_counts(g, maxlen=_MONOID_LENGTH):
        events[to_graph6(g)] += weight


def _decide_adjoint(counts, adjoint) -> bool:
    """True when gamma, the largest root of the adjoint polynomial, exceeds t^2."""
    t2 = AlgebraicReal.dominant_root(pc_poly_from_counts(counts), COMPARE_WIDTH)
    return DominantRoot(adjoint).sign(t2, -1) > 0


def _visit_hat(adj, verdict, events, weight):
    """The partition-count identity, which depends on the vertex order, on adjacency rows."""
    if not hat_identity_holds(adj, clique_partition_counts(adj), hat_rows(adj)):
        events["identity", _g6(adj)] += weight


def _visit_gamma(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    if g.edge_count and verdict(tuple(matching_counts(g)), adjoint_polynomial(g)):
        events["gamma", to_graph6(g)] += weight


@cache
def _prepare_planar_targets(n: int):
    """Per-k planar minimum and maximum, built and shared like the extremal targets."""
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
    root = DominantRoot(pc_poly_from_counts(counts))
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


def _sum_planar(events, n, width) -> dict:
    """Per k, the planar graphs attaining the minimum and the maximum; the ks with targets."""
    attained: dict = {}
    for (tag, k, equal_min, equal_max), count in events.items():
        if tag == "planar":
            att = attained.setdefault(k, [0, 0])
            att[0] += count * equal_min
            att[1] += count * equal_max
    return {"attained": attained, "ks": sorted(_prepare_planar_targets(n))}


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


def _sum_dump(events, n, width) -> dict:
    return {"csv": "n,k,graph6,beta_lo,beta_hi,flags\n" + "\n".join(events) + "\n"}


def _visit_decycling(adj, verdict, events, weight):
    g = Graph(len(adj), adj)
    value, phi = independence_at_minus_one(g)
    if abs(value) > 2 ** phi:
        events[to_graph6(g)] += weight


# ---------------------------------------------------------------------------
# the census table; ``pcpoly survey`` offers its names in this order

CENSUSES = {
    "nonreal": _census(7, [("classes", _visit_profile, None)], summary=_sum_nonreal,
                       violations=lambda events: [], show=lambda res: {"n": res.n, **res.tallies}),
    "bounds": _census(7, [("classes", _visit_bounds, _decide_bounds)],
                      context=lambda n, width: {"n": n}, summary=_sum_bounds,
                      violations=_tagged, show=_show_bounds),
    "extremal": _census(7, [("classes", _visit_extremal, _decide_extremal)],
                        context=lambda n, width: {"targets": _prepare_extremal_targets(n)},
                        summary=_sum_extremal, show=_show_extremal,
                        # a maximum passed, a minimum undercut, a maximiser outside the family
                        violations=lambda events: [e for e in events if e[0] != "min_equal"]),
    "average": _census(7, [("classes", _visit_profile, None)], summary=_sum_average,
                       violations=lambda events: [], show=_show_average),
    "dump": _census(6, [("labelled", _visit_dump, _decide_beta)],
                    context=lambda n, width: {"width": width}, summary=_sum_dump,
                    violations=lambda events: [], show=lambda res: res.tallies["csv"]),
    # the bitset planarity test is exact only up to six vertices
    "planar": _census(6, [("classes", _visit_planar, _decide_planar)],
                      context=lambda n, width: {"targets": _prepare_planar_targets(n)},
                      summary=_sum_planar, violations=_tagged),
    "lll": _census(7, [("classes", _visit_lll, _decide_lll)]),
    "matching": _census(7, [("classes", _visit_matching, _decide_matching)],
                        context=lambda n, width: {"n": n}),
    "identity": _census(7, [("classes", _visit_identities, None)]),
    "monoid": _census(7, [("classes", _visit_monoid, None)]),
    "adjoint": _census(7, [("labelled", _visit_hat, None),
                           ("classes", _visit_gamma, _decide_adjoint)]),
    "decycling": _census(7, [("classes", _visit_decycling, None)]),
}
