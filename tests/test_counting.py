import pytest

from sparsekit import (
    BudgetExceededError,
    Coloring,
    CountQuery,
    Graph,
    LtdDecomposition,
    SizeLimitError,
    Sunflower,
    ValidationError,
    count_bruteforce,
    count_ltd,
    ltd_coloring,
    named,
    verify_sunflower,
)
from sparsekit import counting
from sparsekit.counting import (
    anchor_tree_bound,
    automorphism_count,
    count_embeddings,
    find_embedding,
    is_isomorphic,
)
from sparsekit.graphs import catalog_names, colorset_components, is_connected_mask

import conftest
from conftest import (
    count_connected_pattern_oracle,
    count_embeddings_oracle,
    count_exact_colorset_oracle,
    count_general_pattern_oracle,
    counting_gate_hosts,
    random_graph,
)

PATTERNS = ["P_3", "P_4", "K_3", "C_4", "K_1,3"]


def test_mode_validation():
    with pytest.raises(ValidationError):
        CountQuery(named("K_2"), named("K_3"), "weird")


def test_pattern_limit():
    assert counting.PATTERN_LIMIT == 16
    CountQuery(named("P_16"), named("K_2"))
    with pytest.raises(SizeLimitError):
        CountQuery(named("P_17"), named("K_2"))


def test_automorphism_counts():
    assert automorphism_count(named("P_3")) == 2
    assert automorphism_count(named("K_3")) == 6
    assert automorphism_count(named("C_4")) == 8
    assert automorphism_count(named("K_1,3")) == 6
    assert automorphism_count(named("C_5")) == 10


def test_anchor_tree_bound_caps_embeddings(small_graph_sample):
    patterns = [named(p) for p in PATTERNS + ["P_5", "K_2,3", "K_4"]]
    patterns.append(Graph(4, [(0, 1), (2, 3)]))
    for g in small_graph_sample:
        for h in patterns:
            assert anchor_tree_bound(h, g) >= count_embeddings(h, g), (h.edges, g.edges)


def test_anchor_tree_bound_values():
    # only a vertex of degree >= 2 can take the middle of P_3
    assert anchor_tree_bound(named("P_3"), named("star_6")) == 36
    assert anchor_tree_bound(named("K_1,3"), named("K_2,5")) == 2 * 5 ** 3
    assert anchor_tree_bound(named("P_4"), named("star_6")) == 0
    # the components of a disconnected pattern multiply
    assert anchor_tree_bound(Graph(4, [(0, 1), (2, 3)]), named("C_5")) == 10 * 10


def test_edge_count_is_m():
    for name in ("K_4", "Petersen", "grid_3x3"):
        g = named(name)
        assert count_bruteforce(CountQuery(named("K_2"), g)) == g.m
        assert count_ltd(CountQuery(named("K_2"), g)) == g.m


def test_triangles_in_k4():
    assert count_bruteforce(CountQuery(named("K_3"), named("K_4"))) == 4


def test_p3_in_k4():
    # 4 centers x C(3,2) neighbor pairs
    assert count_bruteforce(CountQuery(named("P_3"), named("K_4"))) == 12


def test_petersen_triangle_free():
    q = CountQuery(named("K_3"), named("Petersen"))
    assert count_bruteforce(q) == 0
    assert count_ltd(q) == 0


def test_size_guards():
    with pytest.raises(SizeLimitError):
        count_bruteforce(CountQuery(named("C_6"), named("K_4")))
    with pytest.raises(SizeLimitError):
        count_bruteforce(CountQuery(named("K_2"), named("grid_8x8")))


def test_too_big_pattern_counts_zero():
    assert count_bruteforce(CountQuery(named("K_5"), named("K_4"))) == 0
    assert count_ltd(CountQuery(named("C_6"), named("C_4"))) == 0
    # pattern with more edges than the host
    assert count_bruteforce(CountQuery(named("K_3"), named("P_3"))) == 0
    assert count_ltd(CountQuery(named("K_3"), named("P_3"))) == 0


def test_induced_at_most_subgraph():
    for seed in range(8):
        g = random_graph(12, 40, seed=seed + 600)
        for name in PATTERNS:
            pattern = named(name)
            sub = count_bruteforce(CountQuery(pattern, g, "subgraph"))
            ind = count_bruteforce(CountQuery(pattern, g, "induced"))
            assert ind <= sub


def test_oracle_equivalence_mixed_hosts():
    hosts = [random_graph(9 + seed, 25 + seed * 5, seed=seed + 50)
             for seed in range(6)]
    hosts.append(named("grid_3x4"))
    hosts.append(named("Petersen"))
    for g in hosts:
        dec = ltd_coloring(g, 4)
        for name in PATTERNS:
            pattern = named(name)
            for mode in ("subgraph", "induced"):
                q = CountQuery(pattern, g, mode)
                assert count_bruteforce(q) == count_ltd(q, decomposition=dec), (
                    name, mode, g.edges)


# connected, disconnected and one-vertex patterns: each kind of piece
PIECE_PATTERNS = [named(p) for p in ("P_3", "P_4", "K_3", "C_4", "K_1,3", "K_1")] + [
    Graph(4, [(0, 1), (2, 3)]),          # 2K_2
    Graph(3, [(0, 1)]),                  # K_2 + K_1
    Graph(4, [(0, 1), (1, 2)]),          # P_3 + K_1
]


def test_count_pieces_match_oracle():
    # the smallest gate hosts (n = 8 to 10, each kind) and two hubs, whose
    # forests put many leaves under one vertex
    hosts = [g for g in counting_gate_hosts() if g.n <= 10]
    hosts += [named("star_14"), named("K_2,12")]
    checked = 0
    for g in hosts:
        dec = ltd_coloring(g, 4)
        colors = dec.coloring.assignment
        for h in PIECE_PATTERNS:
            if is_connected_mask(h.adj_mask, (1 << h.n) - 1):
                pieces = colorset_components(g, colors, h.n)
                oracle = count_connected_pattern_oracle
            else:
                pieces = counting._colorset_unions(colors, h.n)
                oracle = count_general_pattern_oracle
            pieces = [(s, v) for s, v in pieces if len(v) >= h.n]
            checked += len(pieces)
            for induced in (False, True):
                for subset, vertices in pieces:
                    args = (g, h, vertices, subset, colors, induced)
                    assert counting._count_exact_colorset(*args) == \
                        count_exact_colorset_oracle(*args), (h.edges, g.edges, subset)
                mode = "induced" if induced else "subgraph"
                labeled = count_ltd(CountQuery(h, g, mode), decomposition=dec)
                labeled *= automorphism_count(h)
                assert labeled == oracle(g, h, colors, induced), (h.edges, g.edges, mode)
    assert checked > 1000, checked


def test_count_ltd_rejects_decomposition_of_another_graph():
    # a coloring shorter than the host, and one longer
    for h, g, other in (("P_3", "C_6", "P_4"), ("P_3", "P_3", "C_6")):
        dec = ltd_coloring(named(other), 3)
        with pytest.raises(ValidationError):
            count_ltd(CountQuery(named(h), named(g)), decomposition=dec)


def test_count_ltd_rejects_one_color_decomposition():
    # one color on P_4: its class induces td 3, so every pattern's count
    # reaches a piece that breaks the decomposition, one-color pieces too
    dec = LtdDecomposition(Coloring([0, 0, 0, 0]), 4, 0, False)
    for h in (named("K_2"), named("P_3"), named("K_1"), Graph(3, [(0, 1)])):
        with pytest.raises(ValidationError):
            count_ltd(CountQuery(h, named("P_4")), decomposition=dec)


def test_labeled_over_automorphisms_consistency():
    # embeddings / |Aut| equals the subgraph-copy count
    g = named("grid_3x3")
    for name in PATTERNS:
        pattern = named(name)
        labeled = count_embeddings(pattern, g)
        aut = automorphism_count(pattern)
        assert labeled % aut == 0
        assert labeled // aut == count_bruteforce(CountQuery(pattern, g))


def test_disconnected_pattern():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    q = CountQuery(two_edges, named("K_4"))
    assert count_bruteforce(q) == 3
    assert count_ltd(q) == 3
    q = CountQuery(two_edges, named("C_5"))
    assert count_bruteforce(q) == count_ltd(q) == 5


def test_single_vertex_pattern():
    q = CountQuery(named("K_1"), named("Petersen"))
    assert count_bruteforce(q) == count_ltd(q) == 10


def test_isomorphism_helper():
    assert is_isomorphic(named("C_4"), named("K_2,2"))
    assert not is_isomorphic(named("C_6"), named("K_3,3"))
    assert not is_isomorphic(named("P_4"), named("K_1,3"))


# patterns for the enumerator against its oracle: connected, disconnected
# and edgeless ones, of 1 to 5 vertices
EMBED_PATTERNS = [named(p) for p in ("K_1", "K_2", "P_3", "P_4", "P_5", "K_3",
                                     "C_4", "C_5", "K_1,3", "K_4")] + [
    Graph(4, [(0, 1), (2, 3)]),                  # 2K_2
    Graph(5, [(0, 1), (1, 2), (3, 4)]),          # P_3 + K_2
    Graph(3, []),                                # three isolated vertices
    Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # paw
]


def test_embeddings_match_oracle():
    hosts = [named(nm) for nm in catalog_names(max_n=12)]
    hosts += [random_graph(5 + seed % 11, 10 + (seed * 23) % 50, seed=seed + 900)
              for seed in range(33)]
    for g in hosts:
        for h in EMBED_PATTERNS:
            for induced in (False, True):
                assert count_embeddings(h, g, induced) == count_embeddings_oracle(
                    h, g, induced, find=False), (h.edges, g.edges, induced)
                assert find_embedding(h, g, induced) == count_embeddings_oracle(
                    h, g, induced, find=True), (h.edges, g.edges, induced)


def test_embedding_count_limit(monkeypatch):
    # the count is checked after each add, so a limit one below the true
    # count refuses and the true count itself passes, as in the oracle
    g = named("Petersen")
    cases = [(h, count_embeddings(h, g)) for h in (named("P_3"), Graph(3, []))]
    for h, exact in cases:
        for module in (counting, conftest):
            monkeypatch.setattr(module, "_COUNT_LIMIT", exact)
        assert count_embeddings(h, g) == exact
        assert count_embeddings_oracle(h, g, False, find=False) == exact
        for module in (counting, conftest):
            monkeypatch.setattr(module, "_COUNT_LIMIT", exact - 1)
        with pytest.raises(SizeLimitError):
            count_embeddings(h, g)
        with pytest.raises(SizeLimitError):
            count_embeddings_oracle(h, g, False, find=False)


def test_empty_pattern():
    empty = Graph(0, [])
    for g in (empty, named("K_1"), named("Petersen")):
        for induced in (False, True):
            assert count_embeddings(empty, g, induced) == 1
            assert find_embedding(empty, g, induced) == {}
    assert is_isomorphic(empty, empty)
    assert not is_isomorphic(empty, named("K_1"))
    assert automorphism_count(empty) == 1
    # an empty core compares two empty graphs
    g = Graph(4, [(0, 1), (2, 3)])
    s = Sunflower(core=[], families=[[[0, 1], [2, 3]]],
                  core_part=[], petal_parts=[[0, 1]])
    ok, reason = verify_sunflower(g, named("K_2"), 1, s)
    assert ok, reason


def test_long_pattern_embedding():
    # the search holds its candidates in lists, not in one frame per
    # pattern vertex, so a pattern far above the recursion limit works
    p = named("P_1200")
    assert find_embedding(p, p) == {v: v for v in range(p.n)}
    assert is_isomorphic(p, p)


# ---------------------------------------------------------------------------
# sunflowers

def test_sunflower_star_edges():
    # F = K_2 split as core {a} + petal part {b}; host star: every
    # center+leaf pair induces K_2
    g = named("K_1,3")
    f = named("K_2")
    s = Sunflower(core=[0], families=[[[1], [2], [3]]],
                  core_part=[0], petal_parts=[[1]])
    ok, reason = verify_sunflower(g, f, 1, s)
    assert ok, reason


def test_sunflower_triangle_completion():
    g = named("K_5")
    f = named("K_3")
    # core = an edge; petals = every other vertex completes a triangle
    s = Sunflower(core=[0, 1], families=[[[2], [3], [4]]],
                  core_part=[0, 1], petal_parts=[[2]])
    ok, reason = verify_sunflower(g, f, 1, s)
    assert ok, reason


def test_sunflower_planted_violation():
    # one petal not adjacent to the core where the pattern demands an edge
    g = Graph(4, [(0, 1), (0, 2)])
    f = named("K_2")
    s = Sunflower(core=[0], families=[[[1], [2], [3]]],
                  core_part=[0], petal_parts=[[1]])
    ok, reason = verify_sunflower(g, f, 1, s)
    assert not ok
    assert "tuple" in reason


def test_sunflower_overlap_rejected():
    g = named("K_1,3")
    f = named("K_2")
    s = Sunflower(core=[0], families=[[[0], [1]]],
                  core_part=[0], petal_parts=[[1]])
    ok, reason = verify_sunflower(g, f, 1, s)
    assert not ok and "disjoint" in reason


def test_sunflower_cross_part_edges_rejected():
    g = named("P_3")
    f = named("P_3")  # edges (0,1),(1,2): parts {0} vs {2} are fine, {0},{1} not
    s = Sunflower(core=[1], families=[[[0]], [[2]]],
                  core_part=[1], petal_parts=[[0], [2]])
    ok, reason = verify_sunflower(g, f, 2, s)
    assert ok, reason
    bad = Sunflower(core=[0], families=[[[1]], [[2]]],
                    core_part=[0], petal_parts=[[1], [2]])
    ok, reason = verify_sunflower(g, f, 2, bad)
    assert not ok and "petal parts" in reason


def test_sunflower_budget(monkeypatch):
    monkeypatch.setattr(counting, "SUNFLOWER_PRODUCT_BUDGET", 2)
    g = named("K_1,3")
    f = named("K_2")
    s = Sunflower(core=[0], families=[[[1], [2], [3]]],
                  core_part=[0], petal_parts=[[1]])
    with pytest.raises(BudgetExceededError):
        verify_sunflower(g, f, 1, s)
