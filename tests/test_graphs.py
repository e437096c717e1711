from itertools import combinations

import pytest

from sparsekit import (
    Graph,
    ParseError,
    SizeLimitError,
    ValidationError,
    bfs_distances,
    bounded_degree_graph,
    chromatic_number,
    clique_number,
    connected_components,
    degeneracy,
    degeneracy_orientation,
    girth,
    induced_subgraph,
    ltd_coloring,
    named,
    parse_edge_list,
    random_tree,
    serialize_edge_list,
    subdivide,
    triangulation,
)
from sparsekit.graphs import (
    INFINITY,
    Orientation,
    catalog_names,
    colorset_components,
    connected_subsets,
    is_connected_mask,
    mask_of,
    smallest_last_order,
    subset_components,
)

from sparsekit.rng import Xoshiro256

from conftest import (
    clique_number_oracle,
    colorset_components_oracle,
    degeneracy_oracle,
    degeneracy_peel_oracle,
    random_graph,
    smallest_last_order_oracle,
)


def test_parse_basic_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_parse_duplicate_collapse():
    g = parse_edge_list("a b\nb a")
    assert g.n == 2 and g.m == 1


def test_parse_self_loop_rejected():
    with pytest.raises(ValidationError):
        parse_edge_list("x x")


def test_parse_malformed_line_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("0 1\n0 1 2")
    assert exc.value.line == 2


def test_parse_comments_and_blanks():
    g = parse_edge_list("# top\n\n0 1\n  \n# tail\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_roundtrip_catalog():
    for name in catalog_names():
        g = named(name)
        text = serialize_edge_list(g)
        again = parse_edge_list(text)
        assert again == g, name
        assert serialize_edge_list(again) == text, name


def test_roundtrip_labels():
    g = parse_edge_list("u v\nv w")
    assert g.labels == ("u", "v", "w")
    assert parse_edge_list(serialize_edge_list(g)).labels == g.labels


def test_named_k4():
    g = named("K_4")
    assert g.n == 4 and g.m == 6


def test_named_clebsch():
    g = named("Clebsch")
    assert g.n == 16 and g.m == 40
    assert all(g.degree(v) == 5 for v in range(16))
    # exhaustive triangle scan
    triangles = [
        (u, v, w)
        for u in range(16)
        for v in range(u + 1, 16)
        for w in range(v + 1, 16)
        if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
    ]
    assert triangles == []
    assert girth(g) == 4


def test_named_petersen():
    g = named("Petersen")
    assert g.n == 10 and g.m == 15
    assert girth(g) == 5


def test_named_unknown():
    with pytest.raises(ValidationError):
        named("Z_9")


def test_subdivide_identity():
    g = named("K_3")
    assert subdivide(g, 0).edges == g.edges


def test_subdivide_k3_once_is_c6():
    g = subdivide(named("K_3"), 1)
    assert g.n == 6 and g.m == 6
    assert girth(g) == 6
    assert all(g.degree(v) == 2 for v in range(6))


def test_subdivide_count_formula():
    assert subdivide(named("K_4"), 2).n == 4 + 2 * 6


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_subdivide_size_invariant_whole_catalog(p):
    for name in catalog_names():
        g = named(name)
        s = subdivide(g, p)
        assert s.n == g.n + p * g.m, name
        assert s.m == (p + 1) * g.m, name


def test_induced_subgraph_triangle():
    sub, back = induced_subgraph(named("K_4"), [0, 1, 2])
    assert sub.n == 3 and sub.m == 3
    assert back == [0, 1, 2]


def test_induced_subgraph_isolated_pair():
    sub, _ = induced_subgraph(named("C_5"), [0, 2])
    assert sub.n == 2 and sub.m == 0


def test_induced_subgraph_outer_cycle_of_petersen():
    sub, _ = induced_subgraph(named("Petersen"), [0, 1, 2, 3, 4])
    assert sub.n == 5 and sub.m == 5
    assert all(sub.degree(v) == 2 for v in range(5))


def test_induced_subgraph_identity():
    g = named("Petersen")
    sub, back = induced_subgraph(g, range(g.n))
    assert sub.edges == g.edges and back == list(range(10))


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValidationError):
        induced_subgraph(named("K_3"), [0, 5])


def test_bfs_path_end():
    assert bfs_distances(named("P_3"), 0) == [0, 1, 2]


def test_bfs_unreachable():
    g = Graph(3, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, INFINITY]


def test_bfs_petersen_eccentricity():
    g = named("Petersen")
    for v in range(10):
        dist = bfs_distances(g, v)
        assert max(dist) == 2


def test_components():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert connected_components(g) == [[0, 1, 2], [3, 4]]
    assert len(connected_components(Graph(4, []))) == 4
    assert len(connected_components(named("C_6"))) == 1


def test_subset_components_match_induced_subgraph(small_graph_sample):
    for g in small_graph_sample:
        for keep in (range(g.n), range(0, g.n, 2), range(1, g.n, 3)):
            vertices = list(keep)
            sub, back = induced_subgraph(g, vertices)
            want = [tuple(back[v] for v in comp) for comp in connected_components(sub)]
            assert subset_components(g, vertices) == want
    # components come in the order of their first member in the input
    g = Graph(5, [(0, 4), (1, 2)])
    assert subset_components(g, [2, 4, 1, 0]) == [(1, 2), (0, 4)]


def test_connected_subsets_yield_each_connected_set_once(small_graph_sample):
    for g in small_graph_sample:
        for size in (1, 2, 4):
            got = list(connected_subsets(g.adj, range(g.n), size))
            want = {frozenset(s) for k in range(1, size + 1)
                    for s in combinations(range(g.n), k)
                    if is_connected_mask(g.adj_mask, mask_of(s))}
            assert len(got) == len(want) and set(got) == want


def test_colorset_components_match_oracle(peel_sample):
    # the same (colour set, sorted component) multiset as the per-set
    # breadth-first search, each pair once, on proper colourings from
    # ltd_coloring and random improper ones, with colour values shifted to
    # leave gaps or to reach 10^9; p = 1 yields nothing
    graphs = [(g, 5 if g.n <= 8 else 3) for g in peel_sample]
    for seed in (1, 2):
        for n in (40, 90):
            for g in (random_tree(n, seed), triangulation(n, seed),
                      bounded_degree_graph(n, 4, seed)):
                graphs.append((g, 4))
    rng = Xoshiro256(20)
    cases = 0
    for g, top in graphs:
        colorings = [ltd_coloring(g, p).coloring.assignment for p in (2, 3)]
        colorings.append(tuple(rng.randrange(4) for _ in range(g.n)))
        shifted = []
        for colors in colorings:
            shifted.append(tuple(3 * c + 5 for c in colors))
            shifted.append(tuple(10**9 - 7 * c for c in colors))
        for colors in colorings + shifted:
            for p in range(1, top + 1):
                got = [(s, tuple(sorted(comp)))
                       for s, comp in colorset_components(g, colors, p)]
                want = [(s, tuple(sorted(comp)))
                        for s, comps in colorset_components_oracle(g, colors, p)
                        for comp in comps]
                assert len(got) == len(set(got))
                assert sorted(got) == sorted(want)
                assert p > 1 or not got
                cases += 1
    assert cases >= 1800, cases


def test_degeneracy_orientation_triangle():
    o = degeneracy_orientation(named("K_3"))
    indeg = sorted(o.in_degrees())
    assert indeg == [0, 1, 2]


def test_degeneracy_orientation_tree():
    o = degeneracy_orientation(named("P_7"))
    assert max(o.in_degrees()) == 1


def test_degeneracy_orientation_petersen():
    o = degeneracy_orientation(named("Petersen"))
    assert max(o.in_degrees()) == 3
    assert degeneracy(named("Petersen")) == 3


def test_degeneracy_matches_peeling_oracle():
    for seed in range(40):
        n = 2 + seed % 9
        g = random_graph(n, 20 + (seed * 17) % 70, seed=seed)
        o = degeneracy_orientation(g)
        assert max(o.in_degrees(), default=0) == degeneracy_oracle(g), g.edges


def test_smallest_last_order_matches_full_scan_peel(peel_sample):
    for g in peel_sample:
        assert smallest_last_order(g) == smallest_last_order_oracle(g), g
        assert degeneracy(g) == degeneracy_peel_oracle(g), g
        for subset in (range(0, g.n, 2), [v for v in reversed(range(g.n)) if v % 3]):
            assert smallest_last_order(g, subset) == smallest_last_order_oracle(g, subset), g


def test_smallest_last_order_ties_go_to_smallest_id():
    # path 0-3-1-2: peel 0 (degree 1, before 2), then 2 (degree 1, before 3),
    # then 1 and 3; the order is the peel reversed
    g = Graph(4, [(0, 3), (3, 1), (1, 2)])
    assert smallest_last_order(g) == [3, 1, 2, 0]
    assert degeneracy(g) == 1
    assert smallest_last_order(Graph(0, [])) == []
    assert degeneracy(Graph(0, [])) == 0


def test_orientation_is_acyclic():
    g = random_graph(9, 50, seed=5)
    o = degeneracy_orientation(g)
    out = o.out_neighbors()
    state = [0] * g.n

    def has_cycle(v):
        state[v] = 1
        for w in out[v]:
            if state[w] == 1 or (state[w] == 0 and has_cycle(w)):
                return True
        state[v] = 2
        return False

    assert not any(state[v] == 0 and has_cycle(v) for v in range(g.n))


def _original(arcs):
    return {a: "original" for a in arcs}, {a: 0 for a in arcs}


@pytest.mark.parametrize("arcs", [[(0, 9)], [(-1, 2)], [(0, 1), (4, 3)]])
def test_orientation_rejects_out_of_range_arcs(arcs):
    with pytest.raises(ValidationError, match="out of range"):
        Orientation(named("P_4"), arcs, *_original(arcs))


def test_orientation_rejects_arcs_without_kind_or_round():
    arcs = [(0, 1), (1, 2)]
    kind, rnd = _original(arcs)
    del kind[(1, 2)]
    with pytest.raises(ValidationError, match="kind or a round"):
        Orientation(named("P_4"), arcs, kind, rnd)
    kind, rnd = _original(arcs)
    del rnd[(0, 1)]
    with pytest.raises(ValidationError, match="kind or a round"):
        Orientation(named("P_4"), arcs, kind, rnd)


def test_adj_mask_built_on_first_use():
    g = named("C_5")
    assert g._adj_mask is None
    assert g.has_edge(0, 4) and not g.has_edge(0, 2) and not g.has_edge(3, 3)
    assert g.adj_mask == tuple(1 << (v + 1) % 5 | 1 << (v - 1) % 5 for v in range(5))
    assert g.adj_mask is g.adj_mask


def test_clique_chromatic_k4():
    g = named("K_4")
    assert clique_number(g) == 4
    assert chromatic_number(g) == 4


def test_clique_chromatic_c5():
    g = named("C_5")
    assert clique_number(g) == 2
    assert chromatic_number(g) == 3


def test_clique_chromatic_petersen():
    g = named("Petersen")
    assert clique_number(g) == 2
    assert chromatic_number(g) == 3


def test_clique_number_matches_exhaustive_oracle(small_graph_sample):
    dense = [random_graph(20, pct, seed=900 + pct) for pct in (20, 40, 60, 75)]
    for g in list(small_graph_sample) + dense:
        assert clique_number(g) == clique_number_oracle(g), g.edges


def test_exact_limits_refuse():
    with pytest.raises(SizeLimitError):
        clique_number(named("Clebsch"), exact_limit=10)
    with pytest.raises(SizeLimitError):
        chromatic_number(named("Clebsch"))
