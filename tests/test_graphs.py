"""Graph representation, parsing, and structural operations."""

import math
import random

import pytest

from pcpoly.graphs import (
    Graph,
    GraphError,
    canonical_form,
    complement,
    complete_multipartite,
    edge_slots,
    from_edges,
    graph_classes,
    graph_from_edge_mask,
    graph_join_union,
    induced_subgraph,
    is_claw_free,
    iter_all_graphs,
    line_graph,
    parse_graph,
    parse_graph6,
    relabel,
    to_edge_list,
    to_graph6,
)


def test_named_families():
    k3 = parse_graph("K3", "named")
    assert k3.n == 3 and k3.edge_count == 3
    kbar4 = parse_graph("Kbar4", "named")
    assert kbar4.edge_count == 0
    k23 = parse_graph("K2,3", "named")
    assert k23.n == 5 and k23.edge_count == 6
    p4 = parse_graph("P4", "named")
    assert p4.edge_count == 3
    c5 = parse_graph("C5", "named")
    assert c5.edge_count == 5
    star4 = parse_graph("star4", "named")
    assert star4.n == 5 and star4.edge_count == 4
    thr = parse_graph("thr101", "named")
    assert thr.n == 4 and sorted(thr.edges()) == [(0, 1), (0, 3), (1, 3), (2, 3)]


def test_named_errors():
    for bad in ("Q5", "K", "thr2", "K0", "C2"):
        with pytest.raises(GraphError):
            parse_graph(bad, "named")


def test_graph6_decode_example():
    g = parse_graph("D?{", "graph6")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_graph6_header_and_errors():
    g = parse_graph(">>graph6<<D?{", "graph6")
    assert g.n == 5
    with pytest.raises(GraphError):
        parse_graph6("D?")  # truncated body
    with pytest.raises(GraphError):
        parse_graph6("")


def test_graph6_roundtrip_small():
    for n in range(1, 7):
        for g in iter_all_graphs(n):
            assert parse_graph6(to_graph6(g)).adj == g.adj
    rng = random.Random(5)
    slots = edge_slots(7)
    for _ in range(2000):
        g = graph_from_edge_mask(7, rng.randrange(1 << len(slots)), slots)
        assert parse_graph6(to_graph6(g)).adj == g.adj


def test_edge_list_roundtrip():
    g = parse_graph("5; 0 1; 1 2; 3 4", "edge-list")
    assert g.edge_count == 3
    assert to_edge_list(g) == "5; 0 1; 1 2; 3 4"
    assert parse_graph(to_edge_list(g), "edge-list").adj == g.adj
    with pytest.raises(GraphError):
        parse_graph("3; 0 0", "edge-list")
    with pytest.raises(GraphError):
        parse_graph("3; 0 1; 1 0", "edge-list")
    with pytest.raises(GraphError):
        parse_graph("65; 0 1", "edge-list")


def test_validation():
    with pytest.raises(GraphError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph(1, (1,))  # loop
    with pytest.raises(GraphError):
        Graph(0, ())


def test_complement():
    k3 = parse_graph("K3", "named")
    assert complement(k3).edge_count == 0
    c5 = parse_graph("C5", "named")
    cc = complement(c5)
    assert cc.edge_count == 5 and all(cc.degree(v) == 2 for v in range(5))
    rng = random.Random(11)
    slots = edge_slots(7)
    for _ in range(100):
        g = graph_from_edge_mask(7, rng.randrange(1 << len(slots)), slots)
        assert complement(complement(g)).adj == g.adj


def test_induced():
    k4 = parse_graph("K4", "named")
    assert induced_subgraph(k4, [0, 1, 2]).adj == parse_graph("K3", "named").adj
    c5 = parse_graph("C5", "named")
    assert induced_subgraph(c5, [0, 1, 2]).edge_count == 2  # a path
    g = parse_graph("thr1011", "named")
    assert induced_subgraph(g, range(g.n)).adj == g.adj
    with pytest.raises(GraphError):
        induced_subgraph(k4, [])


def test_line_graph():
    assert line_graph(parse_graph("P3", "named")).adj == parse_graph("K2", "named").adj
    assert line_graph(parse_graph("K3", "named")).adj == parse_graph("K3", "named").adj
    assert line_graph(parse_graph("star4", "named")).adj == parse_graph("K4", "named").adj


def test_join_union():
    k2 = parse_graph("K2", "named")
    u = graph_join_union(k2, k2, "union")
    assert u.n == 4 and u.edge_count == 2
    j = graph_join_union(parse_graph("Kbar2", "named"), parse_graph("Kbar3", "named"), "join")
    assert j.adj == complete_multipartite([2, 3]).adj
    st = graph_join_union(parse_graph("K1", "named"), parse_graph("Kbar4", "named"), "join")
    assert sorted(st.degree(v) for v in range(5)) == [1, 1, 1, 1, 4]
    rng = random.Random(2)
    slots = edge_slots(5)
    for _ in range(50):
        g1 = graph_from_edge_mask(5, rng.randrange(1 << len(slots)), slots)
        g2 = graph_from_edge_mask(5, rng.randrange(1 << len(slots)), slots)
        jj = graph_join_union(g1, g2, "join")
        assert jj.edge_count == g1.edge_count + g2.edge_count + 25


def test_claw_free():
    assert is_claw_free(parse_graph("K4", "named"))
    assert is_claw_free(parse_graph("C5", "named"))
    assert not is_claw_free(parse_graph("star3", "named"))
    assert not is_claw_free(parse_graph("star4", "named"))


def _nx_adj(g):
    """Adjacency rows of a networkx graph on the nodes 0..n-1."""
    adj = [0] * g.number_of_nodes()
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def test_graph_classes_match_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    atlas: dict = {}
    for g in nx.graph_atlas_g()[1:]:  # every graph on 1..7 vertices, one per class
        atlas.setdefault(g.number_of_nodes(), []).append(g)
    for n in range(1, 8):
        classes = dict(graph_classes(n))
        assert len(classes) == len(atlas[n]) == len(graph_classes(n)), n
        assert sum(classes.values()) == 2 ** (n * (n - 1) // 2), n
        seen = set()
        for g in atlas[n]:
            rows, _ = canonical_form(_nx_adj(g))
            aut = sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())
            assert classes[rows] * aut == math.factorial(n), (n, rows)
            seen.add(rows)
        assert seen == set(classes), n
    assert graph_classes(7) is graph_classes(7)  # one cached tuple per n


def test_canonical_form_ignores_vertex_names():
    rng = random.Random(8)
    for n in (1, 2, 5, 8):
        slots = edge_slots(n)
        for _ in range(20):
            adj = graph_from_edge_mask(n, rng.randrange(1 << len(slots)), slots).adj
            rows, aut = canonical_form(adj)
            order = list(range(n))
            rng.shuffle(order)
            assert canonical_form(relabel(adj, order)) == (rows, aut)
            assert sorted(row.bit_count() for row in rows) == sorted(
                row.bit_count() for row in adj
            )
            assert math.factorial(n) % aut == 0
    with pytest.raises(ValueError):
        graph_classes(0)
