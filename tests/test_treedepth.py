import math

import pytest

from sparsekit import (
    Coloring,
    EliminationForest,
    Graph,
    SizeLimitError,
    ValidationError,
    centered_coloring_from_forest,
    dfs_height_bounds,
    ltd_coloring,
    minimum_centered_palette,
    minimum_ranking_palette,
    named,
    treedepth_at_most,
    treedepth_exact,
    verify_centered_coloring,
    verify_elimination_forest,
    verify_vertex_ranking,
)
from sparsekit.graphs import colorset_components, induced_subgraph, subset_components
from sparsekit.treedepth import NO_PARENT, ranking_from_forest

from conftest import random_graph, treedepth_oracle


def test_k1():
    td, forest = treedepth_exact(named("K_1"))
    assert td == 1 and forest.height == 1


def test_disconnected_max_of_components():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])  # K_3 + K_2
    td, forest = treedepth_exact(g)
    assert td == 3
    assert verify_elimination_forest(g, forest)


def test_p4():
    td, forest = treedepth_exact(named("P_4"))
    assert td == 3 == treedepth_oracle(named("P_4"))
    assert forest.height == 3


def test_k5():
    td, _ = treedepth_exact(named("K_5"))
    assert td == 5


@pytest.mark.parametrize("n", range(1, 19))
def test_path_formula(n):
    # td(P_n) = ceil(log2(n+1)); the formula is the oracle target here
    td, forest = treedepth_exact(named(f"P_{n}"))
    assert td == math.ceil(math.log2(n + 1))
    assert verify_elimination_forest(named(f"P_{n}"), forest)
    assert forest.height == td


def test_exact_limit_refusal():
    with pytest.raises(SizeLimitError):
        treedepth_exact(named("K_4"), exact_limit=3)


def test_oracle_equivalence_sample(small_graph_sample):
    for g in small_graph_sample[:80]:
        td, forest = treedepth_exact(g)
        assert td == treedepth_oracle(g), g.edges
        assert verify_elimination_forest(g, forest)
        assert forest.height == td


def test_monotone_under_deletion():
    for seed in range(30):
        n = 2 + seed % 6
        g = random_graph(n, 40 + seed % 50, seed=seed + 77)
        td, _ = treedepth_exact(g)
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            sub_edges = [
                (keep.index(a), keep.index(b))
                for a, b in g.edges
                if a != v and b != v
            ]
            td_sub, _ = treedepth_exact(Graph(n - 1, sub_edges))
            assert td_sub <= td
        for i in range(g.m):
            edges = list(g.edges[:i]) + list(g.edges[i + 1:])
            td_sub, _ = treedepth_exact(Graph(n, edges))
            assert td_sub <= td


def test_verify_forest_middle_rooted_path():
    g = named("P_3")
    forest = EliminationForest([1, -1, 1])
    assert verify_elimination_forest(g, forest)


def test_verify_forest_rejects_flat_triangle():
    g = named("K_3")
    forest = EliminationForest([-1, 0, 0])  # height 2 cannot host K_3
    assert not verify_elimination_forest(g, forest)


def test_forest_height_validation():
    with pytest.raises(ValidationError):
        EliminationForest.from_json({"parent": [-1, 0], "roots": [0], "height": 7})


def test_forest_cycle_detection():
    with pytest.raises(ValidationError, match="cycle"):
        EliminationForest([1, 0])
    with pytest.raises(ValidationError, match="cycle"):
        EliminationForest([-1, 2, 3, 1])
    with pytest.raises(ValidationError, match="cycle"):
        EliminationForest([0])


def test_forest_parent_out_of_range():
    with pytest.raises(ValidationError, match="parent 5 out of range"):
        EliminationForest([-1, 0, 5])
    with pytest.raises(ValidationError, match="parent -2 out of range"):
        EliminationForest([1, -2])


def test_forest_long_chain_listed_leaf_first():
    # vertex i hangs below i + 1, so resolving vertex 0 climbs all 3000 levels
    n = 3000
    forest = EliminationForest([i + 1 for i in range(n - 1)] + [-1])
    assert forest.height == n
    assert forest.roots == (n - 1,)
    assert forest.depth_of(0) == n and forest.depth_of(n - 1) == 1


def test_centered_coloring_from_witness():
    g = named("P_4")
    td, forest = treedepth_exact(g)
    coloring = centered_coloring_from_forest(forest)
    assert coloring.palette == td == 3
    assert verify_centered_coloring(g, coloring)


def test_centered_single_root():
    forest = EliminationForest([-1])
    assert centered_coloring_from_forest(forest).palette == 1


def test_centered_chain_all_distinct():
    n = 5
    td, forest = treedepth_exact(named(f"K_{n}"))
    coloring = centered_coloring_from_forest(forest)
    assert sorted(coloring.assignment) == list(range(n))


def test_verify_centered_examples():
    p3 = named("P_3")
    assert verify_centered_coloring(p3, Coloring([1, 2, 1]))
    assert not verify_centered_coloring(p3, Coloring([1, 2, 2]))


def test_c4_has_no_centered_2_coloring():
    c4 = named("C_4")
    assert minimum_centered_palette(c4) == 3


def test_verify_ranking_examples():
    p3 = named("P_3")
    assert verify_vertex_ranking(p3, Coloring([1, 2, 1]))
    assert not verify_vertex_ranking(named("K_2"), Coloring([1, 1]))


def test_ranking_from_witness_is_valid():
    for name in ("P_4", "C_5", "K_4", "grid_2x3"):
        g = named(name)
        _, forest = treedepth_exact(g)
        assert verify_vertex_ranking(g, ranking_from_forest(forest))


def test_td2_td3_equalities_small():
    # minimum centered palette = minimum ranking palette = exact tree-depth
    for seed in range(25):
        n = 2 + seed % 5
        g = random_graph(n, 30 + (seed * 11) % 60, seed=seed + 300)
        td, _ = treedepth_exact(g)
        assert minimum_centered_palette(g) == td, g.edges
        assert minimum_ranking_palette(g) == td, g.edges


def test_dfs_bounds_path_from_end():
    lo, hi, forest = dfs_height_bounds(named("P_7"))
    assert hi == 7  # DFS from an end walks the whole path
    assert lo == math.ceil(math.log2(7 + 1)) == 3
    td, _ = treedepth_exact(named("P_7"))
    assert lo <= td == 3 <= hi


def test_dfs_bounds_k1():
    lo, hi, _ = dfs_height_bounds(named("K_1"))
    assert hi == 1
    td, _ = treedepth_exact(named("K_1"))
    assert td <= hi


def test_dfs_bounds_complete():
    for n in (2, 4, 6):
        _, hi, forest = dfs_height_bounds(named(f"K_{n}"))
        assert hi == n
        td, _ = treedepth_exact(named(f"K_{n}"))
        assert td == n == hi
        assert verify_elimination_forest(named(f"K_{n}"), forest)


def test_dfs_bounds_disconnected_with_isolated_vertices():
    # components {0}, {1, 3, 5, 6} (smallest id 1) and {2, 4}
    g = Graph(7, [(5, 1), (1, 3), (3, 6), (2, 4)])
    lo, hi, forest = dfs_height_bounds(g)
    assert (lo, hi) == (2, 3)
    assert forest.parent == (NO_PARENT, NO_PARENT, NO_PARENT, 1, 2, 1, 3)


def test_dfs_bounds_long_path():
    lo, hi, forest = dfs_height_bounds(named("P_3000"))
    assert (lo, hi) == (12, 3000)
    assert forest.parent == (NO_PARENT,) + tuple(range(2999))


def test_dfs_upper_bound_holds_on_sample(small_graph_sample):
    for g in small_graph_sample[:60]:
        lo, hi, forest = dfs_height_bounds(g)
        assert verify_elimination_forest(g, forest)
        td, _ = treedepth_exact(g)
        assert lo <= td <= hi


def test_treedepth_at_most_agrees_with_exact(small_graph_sample):
    for g in small_graph_sample[:60]:
        td, _ = treedepth_exact(g)
        for k in range(0, td + 2):
            parent = treedepth_at_most(g, k)
            if k >= td:
                assert parent is not None
                forest = EliminationForest(parent)
                assert forest.height <= k
                assert verify_elimination_forest(g, forest)
            else:
                assert parent is None


def test_treedepth_at_most_huge_star():
    assert treedepth_at_most(named("star_80"), 2) is not None
    assert treedepth_at_most(named("star_80"), 1) is None


def _check_on_vertex_set(g, vertices, k):
    """treedepth_at_most on a vertex set of g against the induced copy."""
    sub, back = induced_subgraph(g, vertices)
    parent = treedepth_at_most(g, k, vertices)
    assert (parent is not None) == (treedepth_at_most(sub, k) is not None)
    if parent is None:
        return False
    inside = set(back)
    assert all(parent[v] == NO_PARENT for v in range(g.n) if v not in inside)
    pos = {v: i for i, v in enumerate(back)}
    forest = EliminationForest(
        pos[parent[v]] if parent[v] != NO_PARENT else NO_PARENT for v in back)
    assert forest.height <= k
    assert verify_elimination_forest(sub, forest)
    return True


def test_treedepth_at_most_on_vertex_sets(peel_sample):
    # every component of G[I], |I| <= p, of the decompositions ltd_coloring
    # builds: the color classes' components and the full-spectrum ones of
    # the connected color sets; plus G[I] for the p smallest colors, which
    # is usually disconnected
    verdicts = {True: 0, False: 0}
    disconnected = 0
    for g in peel_sample:
        for p in (2, 3):
            colors = ltd_coloring(g, p).coloring.assignment
            sets = [((c,), comp) for c in sorted(set(colors))
                    for comp in subset_components(g, [v for v in range(g.n) if colors[v] == c])]
            sets += colorset_components(g, colors, p)
            for subset, comp in sets:
                for k in (len(subset) - 1, len(subset)):
                    verdicts[_check_on_vertex_set(g, comp, k)] += 1
            union = [v for v in range(g.n) if colors[v] < p]
            disconnected += len(subset_components(g, union)) > 1
            assert _check_on_vertex_set(g, union, p)
    assert verdicts[True] >= 20000 and verdicts[False] >= 10000, verdicts
    assert disconnected >= 100, disconnected


def test_treedepth_at_most_rejects_out_of_range_vertices():
    g = named("P_4")
    for vertices in ([0, 4], [-1, 2]):
        with pytest.raises(ValidationError):
            treedepth_at_most(g, 3, vertices)
