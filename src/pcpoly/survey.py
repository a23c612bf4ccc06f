"""Exhaustive graph censuses through two drivers.

Every census checks a claim on all graphs with n vertices.  A driver hands
each graph's adjacency rows to the census's
``visit(n, adj, verdicts, events, weight)``:

* ``verdicts`` is a memo (``_KeyMemo``) of the census's pure ``decide(key)``,
  which runs the exact algebra (Sturm counts, root refinement, certified
  comparison) once per invariant key.  The growth rate and every root fact
  the censuses check depend only on the clique profile (c_0..c_omega); for
  the local-lemma census on (max degree, clique counts of the complement),
  and for the adjoint census on (matching counts, adjoint polynomial).
* ``events`` is a ``Counter`` to which the visit adds ``weight`` per
  hashable event: a violator's graph6, an equality, a CSV row.  The
  non-real and average censuses only count the profile and decide once per
  profile afterwards.

The class driver :func:`_census` serves the ten censuses whose checks are
isomorphism invariants: non-real roots, bounds, average, extremal, matching,
local lemma, identities, monoid, planar and decycling.  It visits, in
process, one canonical representative per class from
:func:`graphs.graph_classes` (156 classes for the 2^15 labelled graphs on six
vertices, 1 044 for the 2^21 on seven), with weight n!/|Aut G|, the number of
labelled graphs in the class.  Every tally therefore equals the one over all
labelled graphs, and a violator is reported as the graph6 of its class's
canonical representative.  Their ``threads`` argument is accepted and unused.

The labelled driver :func:`_labelled_census` serves the two censuses that
depend on vertex names: ``graph_census_csv`` writes one row per labelled
graph, and ``census_adjoint_check`` checks the hat graph, which depends on
the vertex order.  It walks all 2^C(n,2) edge masks with weight 1, split into
``threads * 4`` contiguous chunks on a process pool, each chunk with its own
memo.  The chunk Counters are summed in mask order, so every count and the
first-seen order of every event are the same at any thread count.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from multiprocessing import Pool

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
    squarefree_part,
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
    edge_slots,
    graph_classes,
    line_graph,
    relabel,
    to_graph6,
)
from .matching import (
    adjoint_identity_holds,
    adjoint_polynomial,
    hat_graph,
    matching_counts_from_adj,
)
from .monoid import m_sequence, normal_form_counts
from .transforms import threshold_vector_of

# starting enclosure width of beta before a certified comparison refines it
_COMPARE_WIDTH = Fraction(1, 2**20)


def resolve_threads(threads: int | None = None) -> int:
    if threads is not None and threads > 0:
        return threads
    env = os.environ.get("PCPOLY_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(f"PCPOLY_THREADS must be a positive integer, got {env!r}")
        return value
    return max(1, os.cpu_count() or 1)


def _check_size(n: int) -> None:
    """Reject census sizes out of range before any work starts."""
    if not 1 <= n <= 7:
        raise ValueError("census supported for 1 <= n <= 7")


class _KeyMemo(dict):
    """Memo of a pure ``decide(key)``: one per class census, one per labelled job."""

    def __init__(self, decide):
        super().__init__()
        self.decide = decide

    def __missing__(self, key):
        value = self[key] = self.decide(key)
        return value


def _census(n: int, visit, decide=None) -> Counter:
    """Sum of the events ``visit`` counts over the classes on n vertices.

    Each class counts with its weight, the number of labelled graphs in it.
    """
    verdicts = _KeyMemo(decide)
    events = Counter()
    for adj, weight in graph_classes(n):
        visit(n, adj, verdicts, events, weight)
    return events


def _census_job(job) -> Counter:
    n, start, end, visit, decide = job
    slots = edge_slots(n)
    verdicts = _KeyMemo(decide)
    events = Counter()
    for mask in range(start, end):
        visit(n, adj_from_edge_mask(n, mask, slots), verdicts, events, 1)
    return events


def _labelled_census(n: int, threads: int | None, visit, decide=None) -> Counter:
    """Sum of the events ``visit`` counts over every labelled graph on n vertices.

    The masks are split into ``threads * 4`` contiguous chunks and the job
    Counters summed in mask order.
    """
    total = 1 << (n * (n - 1) // 2)
    threads = min(resolve_threads(threads), total)
    step = -(-total // (threads * 4))
    jobs = [(n, a, min(a + step, total), visit, decide) for a in range(0, total, step)]
    if threads == 1:
        parts = map(_census_job, jobs)
    else:
        with Pool(threads) as pool:
            parts = pool.map(_census_job, jobs)
    events = Counter()
    for part in parts:
        events.update(part)
    return events


def _visit_profile(n, adj, verdicts, events, weight):
    events[tuple(clique_counts(adj, n))] += weight


def _edges(counts) -> int:
    return counts[2] if len(counts) > 2 else 0


def _compare_target(b: AlgebraicReal, poly, lo, hi) -> int:
    """Exact sign of b minus the algebraic target (poly, lo, hi)."""
    return b.compare_fraction(lo) if lo == hi else b.compare(AlgebraicReal(poly, lo, hi))


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
    for counts, graphs in _census(n, _visit_profile).items():
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
    enc = dominant_real_root(pc, Fraction(1, 10**9))
    b = AlgebraicReal.from_enclosure(pc, enc)
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
    envelope = None
    # edge density envelope e(G) = (n - beta)/k
    if k:
        envelope = ((n - enc.hi) / k, (n - enc.lo) / k)
        if envelope[0] > Fraction(2, n):
            names.append("edge_density_upper")
    return cmp_fisher == 0 and k > 0, tuple(names), envelope


def _visit_bounds(n, adj, verdicts, events, weight):
    counts = tuple(clique_counts(adj, n))
    first = counts not in verdicts
    fisher_equal, names, envelope = verdicts[counts]
    if first and envelope:
        events["envelope", envelope] += weight  # only the extremes count
    if fisher_equal or names:
        g = Graph(n, adj)
        if fisher_equal and not is_complete_multipartite_equal_parts(g):
            names = ("fisher_equality_characterization",) + names
        g6 = to_graph6(g)
        for name in names:
            events["violation", g6, name] += weight


def survey_bounds(n: int, threads: int | None = None) -> dict:
    """Exhaustively check the closed-form growth-rate bounds; expect no violations."""
    _check_size(n)
    events = _census(n, _visit_bounds, partial(_decide_bounds, n=n))
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


def average_beta(n: int, width: Fraction = Fraction(1, 10**9), threads: int | None = None):
    """Interval for the mean growth rate over all labelled graphs on n vertices."""
    if not 1 <= n <= 6:
        raise ValueError("average supported for 1 <= n <= 6")
    lo = hi = Fraction(0)
    for counts, graphs in _census(n, _visit_profile).items():
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
        enc_star = dominant_real_root(pc_star, Fraction(1, 10**12))
        family = max_beta_equality_family(n, k)
        if 4 * k <= n * n:
            min_pred = QuadSurd.make(n, n * n - 4 * k, 2) if k else Fraction(n)
            conditional = None
        else:
            res = min_beta_graph(n, k)
            min_pred = res.predicted_beta
            conditional = res.conditional
        if isinstance(min_pred, Fraction):
            min_alg = AlgebraicReal.from_rational(min_pred)
        else:
            min_alg = min_pred.to_algebraic()
        min_alg.refine(Fraction(1, 10**12))
        targets[k] = {
            "star_poly": squarefree_part(pc_star),
            "star_lo": enc_star.lo,
            "star_hi": enc_star.hi,
            "family": family,
            "min_lo": min_alg.lo,
            "min_hi": min_alg.hi,
            "min_poly": min_alg.poly,
            "conditional": conditional,
        }
    return targets


def _decide_extremal(counts, targets) -> tuple[int, int]:
    """Exact signs of beta minus the maximum and minus the minimum at its k."""
    tgt = targets[_edges(counts)]
    pc = pc_poly_from_counts(counts)
    b = None
    to_max = -1  # no root at or above star_lo: strictly below the maximum
    if not descartes_no_root_above(pc, tgt["star_lo"]):
        b = AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH)
        to_max = _compare_target(b, tgt["star_poly"], tgt["star_lo"], tgt["star_hi"])
    if len(counts) <= 3:
        return to_max, 0  # triangle-free: the growth rate is the quadratic value exactly
    if _sign_at(pc, tgt["min_hi"]) < 0:
        return to_max, 1  # a root above min_hi: strictly above the minimum
    if b is None:
        b = AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH)
    return to_max, _compare_target(b, tgt["min_poly"], tgt["min_lo"], tgt["min_hi"])


def _visit_extremal(n, adj, verdicts, events, weight):
    counts = tuple(clique_counts(adj, n))
    k = _edges(counts)
    to_max, to_min = verdicts[counts]
    if to_max > 0:
        events["max_violation", k, to_graph6(Graph(n, adj))] += weight
    elif to_max == 0:
        events["max_equal", k, adj] += weight
    if to_min < 0:
        events["min_violation", k, to_graph6(Graph(n, adj))] += weight
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
    events = _census(n, _visit_extremal, partial(_decide_extremal, targets=targets))
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


def _even_part_real_rooted(even_rev) -> bool:
    """Real-rootedness of the monic degree <= 3 even part, by discriminant."""
    nu = len(even_rev) - 1
    if nu <= 1:
        return True
    if nu == 2:
        c, b, _ = even_rev
        return b * b - 4 * c >= 0
    if nu == 3:
        d, c, b, _ = even_rev
        disc = 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d
        return disc >= 0
    return count_nonreal_roots(even_rev) == 0


def _visit_matching(n, adj, verdicts, events, weight):
    counts = matching_counts_from_adj(adj, n)
    nu = len(counts) - 1
    if nu == 0:
        return
    # mu = x^sigma g(x^2); the alternating coefficients of g rule out
    # negative roots outright, so mu real-rooted iff g real-rooted
    even_rev = tuple((-1) ** (nu - j) * counts[nu - j] for j in range(nu + 1))
    if not _even_part_real_rooted(even_rev):
        events["nonreal", to_graph6(Graph(n, adj))] += weight
        return
    delta = max(row.bit_count() for row in adj)
    k = counts[1]
    ok = True
    # largest root vs 4k/n - 1 and Delta: g(q) <= 0 certifies root >= q
    if _sign_at(even_rev, Fraction(4 * k - n, n)) > 0:
        ok &= AlgebraicReal.dominant_root(even_rev).compare_fraction(
            Fraction(4 * k - n, n)
        ) >= 0
    if ok and delta > 1:
        if _sign_at(even_rev, delta) > 0:
            ok &= AlgebraicReal.dominant_root(even_rev).compare_fraction(
                Fraction(delta)
            ) >= 0
        upper = 4 * (delta - 1)
        if ok and not descartes_no_root_above(even_rev, Fraction(upper)):
            ok &= AlgebraicReal.dominant_root(even_rev).compare_fraction(
                Fraction(upper)
            ) <= 0
    if not ok:
        events["bound", to_graph6(Graph(n, adj))] += weight


def census_matching_check(n: int, threads: int | None = None) -> dict:
    _check_size(n)
    events = _census(n, _visit_matching)
    return {
        "nonreal": [g6 for tag, g6 in events if tag == "nonreal"],
        "bound_violations": [g6 for tag, g6 in events if tag == "bound"],
    }


# ---------------------------------------------------------------------------
# local-lemma threshold census


def _decide_lll(key) -> bool:
    """True when beta(complement) exceeds d^d/(d-1)^(d-1) for max degree d."""
    d, comp_counts = key
    pc = pc_poly_from_counts(comp_counts)
    bound = Fraction(d**d, (d - 1) ** (d - 1))
    # threshold >= (d-1)^(d-1)/d^d  <=>  beta(complement) <= d^d/(d-1)^(d-1)
    if descartes_no_root_above(pc, bound):
        return False
    return AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH).compare_fraction(bound) > 0


def _visit_lll(n, adj, verdicts, events, weight):
    d = max(row.bit_count() for row in adj)
    if d >= 2 and verdicts[d, tuple(clique_counts(complement_adj(adj), n))]:
        events[to_graph6(Graph(n, adj))] += weight


def census_lll_check(n: int, threads: int | None = None) -> list:
    _check_size(n)
    return list(_census(n, _visit_lll, _decide_lll))


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


def _visit_identities(n, adj, verdicts, events, weight):
    if not _identities_hold(n, adj):
        events[to_graph6(Graph(n, adj))] += weight


def census_identity_check(n: int, threads: int | None = None) -> list:
    """Vertex-deletion, edge-deletion, and derivative identities, every graph."""
    _check_size(n)
    return list(_census(n, _visit_identities))


def _visit_monoid(n, adj, verdicts, events, weight, maxlen):
    g = Graph(n, adj)
    if m_sequence(g, maxlen) != normal_form_counts(g, maxlen=maxlen, mode="direct"):
        events[to_graph6(g)] += weight


def census_monoid_check(n: int, maxlen: int = 8, threads: int | None = None) -> list:
    """Recurrence counts versus direct normal-form enumeration, every graph."""
    _check_size(n)
    return list(_census(n, partial(_visit_monoid, maxlen=maxlen)))


def _decide_adjoint(key) -> bool:
    """True when gamma, the largest root of the adjoint polynomial, exceeds t^2."""
    counts, adjoint = key
    nu = len(counts) - 1
    even_rev = tuple((-1) ** (nu - j) * counts[nu - j] for j in range(nu + 1))
    t2 = dominant_real_root(even_rev, Fraction(1, 2**22))
    gamma = dominant_real_root(adjoint, Fraction(1, 2**22))
    if gamma.hi < t2.lo:
        return False
    if gamma.lo > t2.hi:
        return True
    a = AlgebraicReal.from_enclosure(adjoint, gamma)
    return a.compare(AlgebraicReal.from_enclosure(even_rev, t2)) > 0


def _visit_adjoint(n, adj, verdicts, events, weight):
    g = Graph(n, adj)
    if not adjoint_identity_holds(g):
        events["identity", to_graph6(g)] += weight
        return
    if g.edge_count == 0:
        return
    hg = hat_graph(g)
    lg = line_graph(g)
    if any(hg.adj[i] & ~lg.adj[i] for i in range(hg.n)):
        events["subgraph", to_graph6(g)] += weight
    if verdicts[tuple(matching_counts_from_adj(adj, n)), adjoint_polynomial(g)]:
        events["gamma", to_graph6(g)] += weight


def census_adjoint_check(n: int, threads: int | None = None) -> dict:
    """Partition-count identity, conflict-graph containment, gamma <= t^2."""
    _check_size(n)
    events = _labelled_census(n, threads, _visit_adjoint, _decide_adjoint)
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
        lam = {}
        for side, pred in (("minus", res.lambda_minus), ("plus", res.lambda_plus)):
            if isinstance(pred, Fraction):
                alg = AlgebraicReal.from_rational(pred)
            elif isinstance(pred, QuadSurd):
                alg = pred.to_algebraic()
            else:
                alg = AlgebraicReal.from_enclosure(apollonian_pc(n, k), pred)
            alg.refine(Fraction(1, 10**12))
            lam[side] = (alg.poly, alg.lo, alg.hi)
        targets[k] = lam
    return targets


def _decide_planar(counts, targets) -> tuple[int, int]:
    """Exact signs of beta minus the planar minimum and minus the maximum at its k."""
    tgt = targets[_edges(counts)]
    poly_m, lo_m, hi_m = tgt["minus"]
    poly_p, lo_p, hi_p = tgt["plus"]
    pc = pc_poly_from_counts(counts)
    b = None
    to_min = 1  # a negative value at hi certifies beta strictly above
    if _sign_at(pc, hi_m) >= 0:
        b = AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH)
        to_min = _compare_target(b, poly_m, lo_m, hi_m)
    to_max = -1  # no root at or above lo: strictly below the maximum
    if not descartes_no_root_above(pc, lo_p):
        if b is None:
            b = AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH)
        to_max = _compare_target(b, poly_p, lo_p, hi_p)
    return to_min, to_max


def _visit_planar(n, adj, verdicts, events, weight):
    g = Graph(n, adj)
    if not is_planar_small(g):
        return
    k = g.edge_count
    to_min, to_max = verdicts[tuple(clique_counts(adj, n))]
    if to_min < 0:
        events["violation", k, to_graph6(g), "below_min"] += weight
    if to_max > 0:
        events["violation", k, to_graph6(g), "above_max"] += weight
    events["planar", k, to_min == 0, to_max == 0] += weight


def census_planar_check(n: int, threads: int | None = None) -> dict:
    """Verify the planar extremes over the full planar census at tiny n."""
    _check_size(n)
    targets = _prepare_planar_targets(n)
    events = _census(n, _visit_planar, partial(_decide_planar, targets=targets))
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


def _visit_dump(n, adj, verdicts, events, weight):
    g = Graph(n, adj)
    counts = tuple(clique_counts(adj, n))
    enc = verdicts[counts]
    flags = []
    if len(counts) <= 3:
        flags.append("triangle-free")
    if threshold_vector_of(g) is not None:
        flags.append("threshold")
    if is_planar_small(g):
        flags.append("planar")
    events[f"{n},{g.edge_count},{to_graph6(g)},{enc.lo},{enc.hi},{'|'.join(flags)}"] += weight


def graph_census_csv(n: int, width: Fraction = Fraction(1, 10**9),
                     threads: int | None = None) -> str:
    """Per-graph census rows: n, k, graph6, beta_lo, beta_hi, flags.

    Mask-ordered, so the bytes are identical at any thread count.
    """
    if not 1 <= n <= 6:
        raise ValueError("per-graph dump supported for 1 <= n <= 6")
    rows = _labelled_census(n, threads, _visit_dump, partial(_decide_beta, width=width))
    return "n,k,graph6,beta_lo,beta_hi,flags\n" + "\n".join(rows) + "\n"


def _visit_decycling(n, adj, verdicts, events, weight):
    g = Graph(n, adj)
    if abs(eval_at(independence_polynomial(g), -1)) > 2 ** decycling_number(g):
        events[to_graph6(g)] += weight


def census_decycling_check(n: int, threads: int | None = None) -> list:
    _check_size(n)
    return list(_census(n, _visit_decycling))
