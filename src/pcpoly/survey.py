"""Exhaustive labelled-graph censuses with a parallel worker pool.

Graphs stream as edge-slot bitmasks; workers return exact integer tallies
merged associatively, so results are identical at any thread count.

The growth rate and every root fact the censuses check depend only on the
clique profile (c_0..c_omega), and only a few profiles occur (54 among the
2^15 graphs on six vertices).  So each census whose verdict is a function of
a cheap invariant is split in two:

* per graph, only cheap work: mask -> adjacency, the invariant key (clique
  counts; (max degree, clique counts of the complement) for the local-lemma
  census) and whatever a check needs of the labelled graph itself (graph6 of
  violators, equality-family adjacencies, the Fisher-equality structure
  test, dump flags, the planarity filter);
* once per key, the exact algebra (Sturm counts, root refinement, certified
  comparison) in a pure ``_decide_*(key, targets)``.  Workers that need the
  labelled graph keep a per-job memo of it (``_KeyMemo``); censuses that need
  no labelled graph only tally graphs per profile, and the parent runs the
  algebra once per profile.

Because every decision is a pure function of its key, chunking cannot change
a result.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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
    count_nonreal_roots,
    descartes_no_root_above,
    dominant_real_root,
    eval_at,
)
from .extremal import max_beta_equality_family, max_beta_pc, min_beta_graph
from .graphs import Graph, adj_from_edge_mask, edge_slots, graph_from_edge_mask, to_graph6

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


def _chunks(total: int, pieces: int):
    step = (total + pieces - 1) // pieces
    start = 0
    while start < total:
        yield start, min(start + step, total)
        start += step


def _run_chunked(worker, n: int, threads: int, extra=()):
    slots = edge_slots(n)
    total = 1 << len(slots)
    threads = min(threads, total)
    jobs = [(n, a, b, *extra) for a, b in _chunks(total, threads * 4)]
    if threads == 1:
        return [worker(job) for job in jobs]
    with Pool(threads) as pool:
        return pool.map(worker, jobs)


class _KeyMemo(dict):
    """Per-job memo of a pure ``decide(key, targets)``."""

    def __init__(self, decide, targets=None):
        super().__init__()
        self.decide = decide
        self.targets = targets

    def __missing__(self, key):
        value = self[key] = self.decide(key, self.targets)
        return value


def _worker_profiles(job):
    n, start, end = job
    slots = edge_slots(n)
    tally = Counter()
    for mask in range(start, end):
        tally[tuple(clique_counts(adj_from_edge_mask(n, mask, slots), n))] += 1
    return tally


def _profile_tally(n: int, threads: int) -> Counter:
    """Labelled graphs on n vertices per clique profile."""
    tally = Counter()
    for part in _run_chunked(_worker_profiles, n, threads):
        tally.update(part)
    return tally


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
    if not 1 <= n <= 7:
        raise ValueError("census supported for 1 <= n <= 7")
    threads = resolve_threads(threads)
    polys = roots_total = roots_nonreal = 0
    for counts, graphs in _profile_tally(n, threads).items():
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


def _worker_bounds(job):
    n, start, end = job
    slots = edge_slots(n)
    verdicts = _KeyMemo(_decide_bounds, n)
    violations = []
    for mask in range(start, end):
        adj = adj_from_edge_mask(n, mask, slots)
        fisher_equal, names, _ = verdicts[tuple(clique_counts(adj, n))]
        if fisher_equal or names:
            g = Graph(n, adj)
            if fisher_equal and not is_complete_multipartite_equal_parts(g):
                names = ("fisher_equality_characterization",) + names
            violations.extend((to_graph6(g), name) for name in names)
    return violations, [v[2] for v in verdicts.values() if v[2]]


def survey_bounds(n: int, threads: int | None = None) -> dict:
    """Exhaustively check the closed-form growth-rate bounds; expect no violations."""
    if not 1 <= n <= 7:
        raise ValueError("bounds survey supported for 1 <= n <= 7")
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_bounds, n, threads)
    violations = [v for p in parts for v in p[0]]
    envelopes = [e for p in parts for e in p[1]]
    return {
        "n": n,
        "violations": violations,
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
    threads = resolve_threads(threads)
    lo = hi = Fraction(0)
    for counts, graphs in _profile_tally(n, threads).items():
        enc = _decide_beta(counts, width)
        lo += graphs * enc.lo
        hi += graphs * enc.hi
    total = 1 << (n * (n - 1) // 2)
    return lo / total, hi / total


# ---------------------------------------------------------------------------
# extremal census (maximum and minimum per edge count)


def _prepare_extremal_targets(n: int):
    """Per-k data needed to classify every graph against both extremes."""
    from .exactpoly import squarefree_part

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


def _worker_extremal(job):
    n, start, end, targets = job
    slots = edge_slots(n)
    verdicts = _KeyMemo(_decide_extremal, targets)
    max_viol = []
    min_viol = []
    max_equal: dict[int, list] = {}
    min_equal_counts: dict[int, int] = {}
    min_equal_nontf: dict[int, int] = {}
    for mask in range(start, end):
        adj = adj_from_edge_mask(n, mask, slots)
        counts = tuple(clique_counts(adj, n))
        k = _edges(counts)
        to_max, to_min = verdicts[counts]
        if to_max > 0:
            max_viol.append((k, to_graph6(Graph(n, adj))))
        elif to_max == 0:
            max_equal.setdefault(k, []).append(adj)
        if to_min < 0:
            min_viol.append((k, to_graph6(Graph(n, adj))))
        elif to_min == 0:
            min_equal_counts[k] = min_equal_counts.get(k, 0) + 1
            if len(counts) > 3 and 4 * k <= n * n:
                # below the Mantel bound only triangle-free graphs may attain
                min_equal_nontf[k] = min_equal_nontf.get(k, 0) + 1
    return max_viol, min_viol, max_equal, min_equal_counts, min_equal_nontf


def census_extremal_check(n: int, threads: int | None = None) -> dict:
    """Verify both extremal constructions against the full census.

    Returns per-k results: maximum attained exactly by the construction
    family, minimum never undercut, plus equality tallies for the minimum
    side (triangle-free counts below the Mantel bound, conditional-regime
    matches above it).
    """
    threads = resolve_threads(threads)
    targets = _prepare_extremal_targets(n)
    parts = _run_chunked(_worker_extremal, n, threads, extra=(targets,))
    max_viol = [v for p in parts for v in p[0]]
    min_viol = [v for p in parts for v in p[1]]
    max_equal: dict[int, set] = {}
    min_equal_counts: dict[int, int] = {}
    min_equal_nontf: dict[int, int] = {}
    for _, _, me, mc, mn in parts:
        for k, adjs in me.items():
            max_equal.setdefault(k, set()).update(adjs)
        for k, c in mc.items():
            min_equal_counts[k] = min_equal_counts.get(k, 0) + c
        for k, c in mn.items():
            min_equal_nontf[k] = min_equal_nontf.get(k, 0) + c
    family_ok = {}
    for k in targets:
        family_ok[k] = max_equal.get(k, set()) == targets[k]["family"]
    return {
        "n": n,
        "max_violations": max_viol,
        "min_violations": min_viol,
        "max_family_exact": family_ok,
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


def _worker_matching(job):
    from .matching import matching_counts_from_adj

    n, start, end = job
    slots = edge_slots(n)
    bad_rooted = []
    bad_bounds = []
    for mask in range(start, end):
        adj = adj_from_edge_mask(n, mask, slots)
        counts = matching_counts_from_adj(adj, n)
        nu = len(counts) - 1
        if nu == 0:
            continue
        # mu = x^sigma g(x^2); the alternating coefficients of g rule out
        # negative roots outright, so mu real-rooted iff g real-rooted
        even_rev = tuple((-1) ** (nu - j) * counts[nu - j] for j in range(nu + 1))
        if not _even_part_real_rooted(even_rev):
            bad_rooted.append(to_graph6(Graph(n, adj)))
            continue
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
            bad_bounds.append(to_graph6(Graph(n, adj)))
    return bad_rooted, bad_bounds


def census_matching_check(n: int, threads: int | None = None) -> dict:
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_matching, n, threads)
    return {
        "nonreal": [v for p in parts for v in p[0]],
        "bound_violations": [v for p in parts for v in p[1]],
    }


# ---------------------------------------------------------------------------
# local-lemma threshold census


def _decide_lll(key, targets=None) -> bool:
    """True when beta(complement) exceeds d^d/(d-1)^(d-1) for max degree d."""
    d, comp_counts = key
    pc = pc_poly_from_counts(comp_counts)
    bound = Fraction(d**d, (d - 1) ** (d - 1))
    # threshold >= (d-1)^(d-1)/d^d  <=>  beta(complement) <= d^d/(d-1)^(d-1)
    if descartes_no_root_above(pc, bound):
        return False
    return AlgebraicReal.dominant_root(pc, _COMPARE_WIDTH).compare_fraction(bound) > 0


def _worker_lll(job):
    n, start, end = job
    slots = edge_slots(n)
    verdicts = _KeyMemo(_decide_lll)
    viol = []
    for mask in range(start, end):
        adj = adj_from_edge_mask(n, mask, slots)
        d = max(row.bit_count() for row in adj)
        if d < 2:
            continue
        if verdicts[d, tuple(clique_counts(_complement_adj(adj, n), n))]:
            viol.append(to_graph6(Graph(n, adj)))
    return (viol,)


def _complement_adj(adj, n: int):
    full = (1 << n) - 1
    return tuple((full ^ row ^ (1 << i)) & full for i, row in enumerate(adj))


def census_lll_check(n: int, threads: int | None = None) -> list:
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_lll, n, threads)
    return [v for p in parts for v in p[0]]


# ---------------------------------------------------------------------------
# alternating independent-set census


def _dependence_from_mask(adj, mask: int) -> tuple:
    """Dependence polynomial of the induced subgraph on a vertex mask."""
    verts = []
    m = mask
    while m:
        b = m & -m
        verts.append(b.bit_length() - 1)
        m ^= b
    index = {v: i for i, v in enumerate(verts)}
    sub = [0] * len(verts)
    for v in verts:
        mm = adj[v] & mask
        while mm:
            b = mm & -mm
            sub[index[v]] |= 1 << index[b.bit_length() - 1]
            mm ^= b
    counts = clique_counts(tuple(sub), len(verts))
    return tuple((-1) ** k * c for k, c in enumerate(counts))


def _worker_identities(job):
    from .exactpoly import add, derivative, neg, sub, trim

    n, start, end = job
    slots = edge_slots(n)
    bad = []
    full = (1 << n) - 1
    for mask in range(start, end):
        adj = adj_from_edge_mask(n, mask, slots)
        dg = _dependence_from_mask(adj, full)
        ok = True
        for v in range(n):
            left = _dependence_from_mask(adj, full ^ (1 << v)) if n > 1 else (1,)
            inner = _dependence_from_mask(adj, adj[v]) if adj[v] else (1,)
            rhs = sub(left, (0,) + inner)
            if trim(rhs) != trim(dg):
                ok = False
                break
        if ok:
            for u in range(n):
                mm = adj[u] & ~((1 << (u + 1)) - 1)
                while mm:
                    b = mm & -mm
                    v = b.bit_length() - 1
                    mm ^= b
                    common = adj[u] & adj[v]
                    inner = _dependence_from_mask(adj, common) if common else (1,)
                    cut = list(adj)
                    cut[u] ^= 1 << v
                    cut[v] ^= 1 << u
                    left = _dependence_from_mask(tuple(cut), full)
                    if trim(add(left, (0, 0) + inner)) != trim(dg):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            total = ()
            for v in range(n):
                inner = _dependence_from_mask(adj, adj[v]) if adj[v] else (1,)
                total = add(total, inner)
            if trim(derivative(dg)) != trim(neg(total)):
                ok = False
        if not ok:
            bad.append(to_graph6(Graph(n, adj)))
    return (bad,)


def census_identity_check(n: int, threads: int | None = None) -> list:
    """Vertex-deletion, edge-deletion, and derivative identities, every graph."""
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_identities, n, threads)
    return [v for p in parts for v in p[0]]


def _worker_monoid(job):
    from .monoid import m_sequence, normal_form_counts

    n, start, end, maxlen = job
    slots = edge_slots(n)
    bad = []
    for mask in range(start, end):
        g = graph_from_edge_mask(n, mask, slots)
        if m_sequence(g, maxlen) != normal_form_counts(g, maxlen=maxlen, mode="direct"):
            bad.append(to_graph6(g))
    return (bad,)


def census_monoid_check(n: int, maxlen: int = 8, threads: int | None = None) -> list:
    """Recurrence counts versus direct normal-form enumeration, every graph."""
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_monoid, n, threads, extra=(maxlen,))
    return [v for p in parts for v in p[0]]


def _worker_adjoint(job):
    from .matching import (
        adjoint_identity_holds,
        adjoint_polynomial,
        hat_graph,
        matching_counts_from_adj,
    )
    from .graphs import line_graph

    n, start, end = job
    slots = edge_slots(n)
    identity_bad = []
    gamma_bad = []
    subgraph_bad = []
    for mask in range(start, end):
        g = graph_from_edge_mask(n, mask, slots)
        if not adjoint_identity_holds(g):
            identity_bad.append(to_graph6(g))
            continue
        if g.edge_count == 0:
            continue
        hg = hat_graph(g)
        lg = line_graph(g)
        if any(hg.adj[i] & ~lg.adj[i] for i in range(hg.n)):
            subgraph_bad.append(to_graph6(g))
        counts = matching_counts_from_adj(g.adj, n)
        nu = len(counts) - 1
        even_rev = tuple((-1) ** (nu - j) * counts[nu - j] for j in range(nu + 1))
        t2 = dominant_real_root(even_rev, Fraction(1, 2**22))
        gamma = dominant_real_root(adjoint_polynomial(g), Fraction(1, 2**22))
        if gamma.hi < t2.lo:
            continue
        if gamma.lo > t2.hi:
            gamma_bad.append(to_graph6(g))
            continue
        a = AlgebraicReal.from_enclosure(adjoint_polynomial(g), gamma)
        b = AlgebraicReal.from_enclosure(even_rev, t2)
        if a.compare(b) > 0:
            gamma_bad.append(to_graph6(g))
    return identity_bad, gamma_bad, subgraph_bad


def census_adjoint_check(n: int, threads: int | None = None) -> dict:
    """Partition-count identity, conflict-graph containment, gamma <= t^2."""
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_adjoint, n, threads)
    return {
        "identity": [v for p in parts for v in p[0]],
        "gamma": [v for p in parts for v in p[1]],
        "subgraph": [v for p in parts for v in p[2]],
    }


def _prepare_planar_targets(n: int):
    from .extremal import planar_extremes

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
                from .extremal import apollonian_pc

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


def _worker_planar(job):
    from .extremal import is_planar_small

    n, start, end, targets = job
    slots = edge_slots(n)
    verdicts = _KeyMemo(_decide_planar, targets)
    viol = []
    attained: dict = {}
    for mask in range(start, end):
        g = graph_from_edge_mask(n, mask, slots)
        if not is_planar_small(g):
            continue
        k = g.edge_count
        att = attained.setdefault(k, [0, 0])
        to_min, to_max = verdicts[tuple(clique_counts(g.adj, n))]
        if to_min < 0:
            viol.append((k, to_graph6(g), "below_min"))
        elif to_min == 0:
            att[0] += 1
        if to_max > 0:
            viol.append((k, to_graph6(g), "above_max"))
        elif to_max == 0:
            att[1] += 1
    return viol, attained


def census_planar_check(n: int, threads: int | None = None) -> dict:
    """Verify the planar extremes over the full planar census at tiny n."""
    threads = resolve_threads(threads)
    targets = _prepare_planar_targets(n)
    parts = _run_chunked(_worker_planar, n, threads, extra=(targets,))
    viol = [v for p in parts for v in p[0]]
    attained: dict = {}
    for _, att in parts:
        for k, (lo, hi) in att.items():
            cur = attained.setdefault(k, [0, 0])
            cur[0] += lo
            cur[1] += hi
    return {"violations": viol, "attained": attained, "ks": sorted(targets)}


def _worker_dump(job):
    from .extremal import is_planar_small
    from .transforms import threshold_vector_of

    n, start, end, width = job
    slots = edge_slots(n)
    enclosures = _KeyMemo(_decide_beta, width)
    rows = []
    for mask in range(start, end):
        g = graph_from_edge_mask(n, mask, slots)
        counts = tuple(clique_counts(g.adj, n))
        enc = enclosures[counts]
        flags = []
        if len(counts) <= 3:
            flags.append("triangle-free")
        if threshold_vector_of(g) is not None:
            flags.append("threshold")
        if is_planar_small(g):
            flags.append("planar")
        rows.append(f"{n},{g.edge_count},{to_graph6(g)},{enc.lo},{enc.hi},{'|'.join(flags)}")
    return "\n".join(rows)


def graph_census_csv(n: int, width: Fraction = Fraction(1, 10**9),
                     threads: int | None = None) -> str:
    """Per-graph census rows: n, k, graph6, beta_lo, beta_hi, flags.

    Mask-ordered, so the bytes are identical at any thread count.
    """
    if not 1 <= n <= 6:
        raise ValueError("per-graph dump supported for 1 <= n <= 6")
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_dump, n, threads, extra=(width,))
    return "n,k,graph6,beta_lo,beta_hi,flags\n" + "\n".join(parts) + "\n"


def _worker_decycling(job):
    n, start, end = job
    slots = edge_slots(n)
    viol = []
    for mask in range(start, end):
        g = graph_from_edge_mask(n, mask, slots)
        value = eval_at(independence_polynomial(g), -1)
        phi = decycling_number(g)
        if abs(value) > 2**phi:
            viol.append(to_graph6(g))
    return (viol,)


def census_decycling_check(n: int, threads: int | None = None) -> list:
    threads = resolve_threads(threads)
    parts = _run_chunked(_worker_decycling, n, threads)
    return [v for p in parts for v in p[0]]
