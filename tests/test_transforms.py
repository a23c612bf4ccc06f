"""Kelmans and isolating transformations, threshold recognition and reduction."""

import json
import random

import pytest

from pcpoly.cliquepoly import beta_algebraic, clique_profile
from pcpoly.graphs import (
    GraphError,
    complement,
    connected_components,
    edge_slots,
    from_edges,
    graph_from_edge_mask,
    parse_graph,
)
from pcpoly.transforms import (
    ThresholdVector,
    is_nontrivial_kelmans,
    is_threshold,
    isolating,
    kelmans,
    reduce_to_threshold,
    steps_to_json,
    threshold_vector_of,
)

from oracles import iter_all_graphs, replay_steps


def _random_graph(rng, n):
    slots = edge_slots(n)
    return graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots)


def test_kelmans_noop_when_dominated():
    g = parse_graph("star3", "named")  # center 0
    # N(leaf) subseteq N(center) + center: nothing moves
    assert kelmans(g, 0, 1).adj == g.adj


def test_kelmans_p4_example():
    p4 = parse_graph("P4", "named")
    out = kelmans(p4, 1, 2)
    assert out.edge_count == 3
    assert sorted(out.edges()) == [(0, 1), (1, 2), (1, 3)]


def test_kelmans_errors():
    with pytest.raises(GraphError):
        kelmans(parse_graph("K3", "named"), 1, 1)


@pytest.mark.parametrize("u, v, bad", [(3, 0, 3), (0, 3, 3), (-1, 2, -1), (1, -2, -2)])
def test_kelmans_vertex_out_of_range(u, v, bad):
    g = parse_graph("K3", "named")
    for move in (kelmans, is_nontrivial_kelmans):
        with pytest.raises(GraphError, match=f"vertex {bad} out of range for 3 vertices"):
            move(g, u, v)


def test_kelmans_clique_counts_monotone():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(2, 7)
        g = _random_graph(rng, n)
        u, v = rng.sample(range(n), 2)
        before = clique_profile(g)
        after = clique_profile(kelmans(g, u, v))
        for k in range(len(before.counts)):
            assert after[k] >= before[k]


def test_nontrivial_examples():
    kbar = parse_graph("Kbar5", "named")
    assert not any(
        is_nontrivial_kelmans(kbar, u, v) for u in range(5) for v in range(5) if u != v
    )
    c4 = parse_graph("C4", "named")
    assert not is_nontrivial_kelmans(c4, 0, 2)  # opposite vertices
    c5 = parse_graph("C5", "named")
    assert is_nontrivial_kelmans(c5, 0, 2)


def test_nontrivial_matches_count_diff():
    for g in iter_all_graphs(5):
        total = clique_profile(g).total()
        for u in range(5):
            for v in range(5):
                if u == v:
                    continue
                predicted = is_nontrivial_kelmans(g, u, v)
                actual = clique_profile(kelmans(g, u, v)).total() > total
                assert predicted == actual


def test_kelmans_complement_commutation():
    # complementing swaps the roles of the two vertices
    rng = random.Random(123)
    graphs = list(iter_all_graphs(4)) + [_random_graph(rng, 6) for _ in range(50)]
    for g in graphs:
        for _ in range(3):
            u, v = rng.sample(range(g.n), 2)
            lhs = complement(kelmans(g, u, v))
            rhs = kelmans(complement(g), v, u)
            assert lhs.adj == rhs.adj


def test_lemma_nontrivial_strictly_increases():
    for g in iter_all_graphs(5):
        if len(connected_components(complement(g))) != 1:
            continue
        b = None
        for u in range(5):
            for v in range(5):
                if u == v or not is_nontrivial_kelmans(g, u, v):
                    continue
                if b is None:
                    b = beta_algebraic(g)
                after = beta_algebraic(kelmans(g, u, v))
                assert after.compare(b) > 0


def test_lemma_edge_move_strictly_decreases():
    # move an edge out of a triangle onto a distance->=3 pair
    rng = random.Random(321)
    checked = 0
    for g in iter_all_graphs(6):
        if checked >= 40:
            break
        if len(connected_components(complement(g))) != 1:
            continue
        prof = clique_profile(g)
        if prof.clique_number < 3:
            continue
        triangle_edges = [
            (u, v)
            for u, v in g.edges()
            if any(g.has_edge(u, w) and g.has_edge(v, w) for w in range(6))
        ]
        pairs = [
            (a, b)
            for a in range(6)
            for b in range(a + 1, 6)
            if not g.has_edge(a, b) and not (g.adj[a] & g.adj[b])
        ]
        if not triangle_edges or not pairs:
            continue
        (u, v), (a, b) = triangle_edges[0], pairs[0]
        moved = from_edges(6, [e for e in g.edges() if e != (u, v)] + [(a, b)])
        assert beta_algebraic(moved).compare(beta_algebraic(g)) < 0
        checked += 1
    assert checked >= 10


def test_isolating_basic():
    # part1 = {0 (hanging), 1, 2} with the single edge (0,1): rewires to (1,2)
    g = from_edges(3, [(0, 1)])
    out = isolating(g, 0, [0, 1, 2])
    assert sorted(out.edges()) == [(1, 2)]


def test_isolating_proof_step_vector():
    # the reduction-proof step: thr(1,0,0,1) -> thr(0,1,1,0)
    h = parse_graph("thr1001", "named")
    out = isolating(h, 3, [0, 1, 2, 3, 4])
    assert out.edge_count == h.edge_count
    vec = threshold_vector_of(out)
    assert vec is not None and vec.bits == (0, 1, 1, 0)


def test_isolating_preconditions():
    g = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        isolating(g, 0, [0, 1])  # part1 minus u is a single vertex: complete
    g2 = from_edges(4, [(0, 1), (0, 2)])
    with pytest.raises(GraphError):
        isolating(g2, 0, [0, 1, 2, 3])  # u has two neighbours inside part1
    g3 = from_edges(4, [(0, 1), (3, 1)])
    with pytest.raises(GraphError):
        isolating(g3, 0, [0, 1, 2])  # vertex 3 sees part1 partially


def test_isolating_beta_never_decreases():
    rng = random.Random(777)
    done = 0
    while done < 200:
        n = rng.randint(4, 7)
        size1 = rng.randint(3, n)
        part1 = list(range(size1))
        u = 0
        inside = part1[1:]
        # random non-complete graph on part1 minus u, plus the hanging edge
        edges = [
            (a, b)
            for i, a in enumerate(inside)
            for b in inside[i + 1:]
            if rng.random() < 0.5
        ]
        if len(edges) == len(inside) * (len(inside) - 1) // 2:
            continue
        w = rng.choice(inside)
        edges.append((u, w))
        # part2 edges arbitrary, cross edges all-or-nothing
        for a in range(size1, n):
            for b in range(a + 1, n):
                if rng.random() < 0.5:
                    edges.append((a, b))
            if rng.random() < 0.5:
                edges.extend((a, t) for t in part1)
        candidate = from_edges(n, edges)
        out = isolating(candidate, u, part1)
        assert out.edge_count == candidate.edge_count
        assert beta_algebraic(out).compare(beta_algebraic(candidate)) >= 0
        done += 1


def test_threshold_recognition():
    for name in ("thr1", "thr0", "thr101", "thr0011", "K5", "Kbar6", "star4"):
        assert is_threshold(parse_graph(name, "named"))
    for name in ("C4", "C5", "P4", "C6"):
        assert not is_threshold(parse_graph(name, "named"))
    # both characterizations agree everywhere
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            is_threshold(g)  # internal assertion compares the two tests


def test_threshold_vector_roundtrip():
    rng = random.Random(14)
    for _ in range(50):
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 7)))
        g = ThresholdVector(bits).decode()
        assert threshold_vector_of(g).bits == bits


def test_reduce_threshold_input_noop():
    g = parse_graph("thr1011", "named")
    vec, steps = reduce_to_threshold(g)
    assert steps == [] and vec.bits == (1, 0, 1, 1)


def test_reduce_c4():
    c4 = parse_graph("C4", "named")
    vec, steps = reduce_to_threshold(c4)
    decoded = vec.decode()
    assert decoded.edge_count == 4 and is_threshold(decoded)
    replayed = replay_steps(c4, steps)
    assert threshold_vector_of(replayed).bits == vec.bits
    assert [(e["u"], e["v"]) for e in json.loads(steps_to_json(steps))] == steps


def test_reduce_all_small_graphs():
    for n in range(2, 6):
        for g in iter_all_graphs(n):
            vec, steps = reduce_to_threshold(g)
            out = replay_steps(g, steps)
            assert threshold_vector_of(out) is not None
            assert out.edge_count == g.edge_count
            if steps:
                assert beta_algebraic(out).compare(beta_algebraic(g)) >= 0
