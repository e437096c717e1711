import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from sparsekit import (
    Graph,
    SizeLimitError,
    ValidationError,
    bounded_degree_graph,
    chromatic_number,
    dn_coloring,
    exact_distance_graph,
    girth,
    girth5_graph,
    induced_pattern_scan,
    is_k_choosable,
    max_odd_distance_set,
    nabla0,
    named,
    neighborhood_cover,
    triangulation,
    verify_cover,
    verify_dn_coloring,
)
from sparsekit.applications import Cover, ball
from sparsekit.graphs import bfs_distances, catalog_names, induced_subgraph

from conftest import clique_number_oracle, verify_cover_oracle


# ---------------------------------------------------------------------------
# distance colorings

def test_distance_graph_c6_antipodal():
    aux = exact_distance_graph(named("C_6"), 3)
    assert aux.edges == ((0, 3), (1, 4), (2, 5))


def test_distance_one_is_identity():
    for name in ("P_5", "Petersen", "K_2,3"):
        g = named(name)
        assert exact_distance_graph(g, 1).edges == g.edges


def test_distance_beyond_diameter_is_edgeless():
    assert exact_distance_graph(named("P_3"), 3).m == 0


def test_dn_k3_needs_three():
    coloring = dn_coloring(named("K_3"), 1)
    assert coloring.palette == 3


def test_dn_c6_two_colors():
    coloring = dn_coloring(named("C_6"), 3)
    assert coloring.palette == 2
    assert verify_dn_coloring(named("C_6"), 3, coloring)


def test_dn_p7_valid():
    assert verify_dn_coloring(named("P_7"), 3, dn_coloring(named("P_7"), 3))


def test_dn_rejects_even_n():
    with pytest.raises(ValidationError):
        dn_coloring(named("C_6"), 2)


def test_dn_valid_across_sample(small_graph_sample):
    for g in small_graph_sample[:30]:
        for n in (1, 3, 5):
            assert verify_dn_coloring(g, n, dn_coloring(g, n))


# ---------------------------------------------------------------------------
# odd-distance sets

def test_oddset_star():
    assert len(max_odd_distance_set(named("K_1,3"))) == 2


def test_oddset_complete():
    assert len(max_odd_distance_set(named("K_4"))) == 4


def test_oddset_even_cycle():
    assert len(max_odd_distance_set(named("C_6"))) == 2


def test_oddset_is_maximum_on_catalog():
    for name in catalog_names(max_n=16):
        g = named(name)
        # hop distances by Floyd-Warshall, apart from the library's BFS
        far = g.n + 1
        d = [[0 if u == v else 1 if g.has_edge(u, v) else far
              for v in range(g.n)] for u in range(g.n)]
        for k in range(g.n):
            for u in range(g.n):
                for v in range(g.n):
                    d[u][v] = min(d[u][v], d[u][k] + d[k][v])
        odd = Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2)
                          if d[u][v] < far and d[u][v] % 2 == 1])
        found = max_odd_distance_set(g)
        assert len(set(found)) == len(found), name
        assert all(odd.has_edge(u, v) for u, v in combinations(found, 2)), name
        assert len(found) == clique_number_oracle(odd), name


def test_oddset_limit():
    with pytest.raises(SizeLimitError):
        max_odd_distance_set(Graph(31, []))


def test_oddset_is_clique_in_distance_graphs():
    # palette of a dn coloring is at least the size of any set pairwise at
    # distance exactly n; on C_9 the vertices 0,3,6 are such a set for n=3
    g = named("C_9")
    aux = exact_distance_graph(g, 3)
    coloring = dn_coloring(g, 3)
    assert aux.has_edge(0, 3) and aux.has_edge(3, 6) and aux.has_edge(0, 6)
    assert coloring.palette >= 3


# ---------------------------------------------------------------------------
# covers

def test_star_cover_single_cluster():
    g = named("star_5")
    cov = neighborhood_cover(g, 1)
    assert len(cov.clusters) == 1
    assert cov.max_membership(g.n) == 1
    ok, _ = verify_cover(g, cov)
    assert ok


def test_p9_cover_valid():
    g = named("P_9")
    cov = neighborhood_cover(g, 1)
    ok, witness = verify_cover(g, cov)
    assert ok, witness
    for v in range(g.n):
        nr = set(ball(g, v, 1))
        assert any(nr <= set(vs) for vs, _, _ in cov.clusters)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cover_valid_across_graphs(r):
    for name in ("Petersen", "grid_4x4", "C_9", "K_2,3", "P_9"):
        g = named(name)
        cov = neighborhood_cover(g, r)
        ok, witness = verify_cover(g, cov)
        assert ok, (name, r, witness)
        for vs, center, radius in cov.clusters:
            # the center's eccentricity inside the induced cluster
            sub, back = induced_subgraph(g, vs)
            assert radius == max(bfs_distances(sub, back.index(center))), (name, r)


def test_petersen_cover_meets_lemma_bound():
    g = named("Petersen")
    cov = neighborhood_cover(g, 1)
    value, _ = nabla0(g)
    assert Fraction(cov.max_membership(g.n)) >= value == Fraction(3, 2)


def test_cover_planted_shrunk_cluster():
    g = named("P_9")
    cov = neighborhood_cover(g, 1)
    shrunk = [(vs[:-1] if len(vs) > 1 else vs, c, r) for vs, c, r in cov.clusters]
    bad = Cover(shrunk, 1)
    ok, witness = verify_cover(g, bad)
    assert not ok
    assert witness[0] in ("uncovered-neighborhood", "disconnected-cluster")


def test_cover_planted_radius_violation():
    g = named("P_9")
    cov = neighborhood_cover(g, 1)
    cheat = list(cov.clusters) + [(tuple(range(9)), 0, 8)]
    bad = Cover(cheat, 1)
    ok, witness = verify_cover(g, bad)
    assert not ok and witness[0] == "radius-exceeded"


def test_cover_vertices_out_of_range_are_refused():
    g = named("P_4")
    for vs in ((0, 4), (-1, 0)):
        with pytest.raises(ValidationError):
            verify_cover(g, Cover([(vs, 0, 1)], 1))
    for center in (-1, 4):
        with pytest.raises(ValidationError):
            ball(g, center, 1)

def _planted_covers(g, cover):
    """Bad covers built from a good one: its largest cluster minus its last
    vertex, an extra empty cluster, an extra two-vertex cluster with no edge
    (when g has a non-adjacent pair), and an extra cluster of everything
    within g.n hops of vertex 0, whose radius may pass 2r."""
    clusters = list(cover.clusters)
    widest = max(range(len(clusters)), key=lambda i: len(clusters[i][0]))
    vs, center, radius = clusters[widest]
    planted = [clusters[:widest] + [(vs[:-1], center, radius)] + clusters[widest + 1:],
               clusters + [((), 0, 0)]]
    apart = next(((u, v) for u, v in combinations(range(g.n), 2)
                  if not g.has_edge(u, v)), None)
    if apart is not None:
        planted.append(clusters + [(apart, apart[0], 1)])
    planted.append(clusters + [(ball(g, 0, g.n), 0, g.n)])
    return [Cover(c, cover.r) for c in planted]


def test_distance_layer_outputs_pinned():
    # covers at r = 1..3 with verify_cover's verdict on each and on planted
    # bad covers, distance-n colourings and graphs, and maximum odd-distance
    # sets, pinned by digest over the catalog, long paths, large stars,
    # grids, seeded triangulations and max-degree-3 graphs: every routine
    # here rests on hop distances, so a BFS cut one level short shows
    hosts = [named(name) for name in catalog_names()]
    hosts += [named(name) for name in ("P_300", "star_300", "grid_20x20")]
    hosts += [Graph(7, [(0, 1), (1, 2), (4, 5)])]  # isolated vertices
    for seed in (1, 2, 3):
        hosts.append(triangulation(40 + 30 * seed, seed))
        hosts.append(bounded_degree_graph(60 + 50 * seed, 3, seed))
    rows = []
    for g in hosts:
        row = {"n": g.n, "m": g.m}
        for r in (1, 2, 3):
            cover = neighborhood_cover(g, r)
            row[f"cover_{r}"] = [cover.to_json(), verify_cover(g, cover)]
            row[f"planted_{r}"] = [verify_cover(g, bad) for bad in _planted_covers(g, cover)]
        for n in (1, 3, 5):
            coloring = dn_coloring(g, n)
            row[f"dn_{n}"] = [coloring.to_json(), verify_dn_coloring(g, n, coloring)]
        row["exact"] = [exact_distance_graph(g, n).edges for n in (1, 2, 3, 4, 5)]
        if g.n <= 30:
            row["oddset"] = max_odd_distance_set(g)
        rows.append(row)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "66c3d1414ff8c411caa6886bd6255616a4598977e9b743a2c8e3b9ce5fd17ad7"


def test_verify_cover_matches_full_scan():
    # verdicts and witnesses against the scan of every cluster for every
    # vertex, on covers and on tampered covers: the planted ones, one with a
    # cluster dropped (its vertices' balls may fit nowhere else), one with
    # a cluster's vertex swapped for a neighbour outside it, and the
    # clusters in reverse order
    hosts = [named(name) for name in catalog_names()]
    hosts += [named(name) for name in ("P_120", "star_40", "grid_9x9")]
    hosts += [Graph(7, [(0, 1), (1, 2), (4, 5)])]  # isolated vertices
    for seed in (1, 2):
        hosts.append(triangulation(50, seed))
        hosts.append(bounded_degree_graph(70, 3, seed))
    verdicts = {True: 0, False: 0}
    for g in hosts:
        for r in (1, 2, 3):
            cover = neighborhood_cover(g, r)
            clusters = list(cover.clusters)
            tampered = [cover, *_planted_covers(g, cover), Cover(clusters[::-1], r)]
            for i in {0, len(clusters) // 2, len(clusters) - 1}:
                tampered.append(Cover(clusters[:i] + clusters[i + 1:], r))
                vs, center, radius = clusters[i]
                outside = [w for v in vs for w in g.adj[v] if w not in vs]
                if outside:
                    moved = (vs[:-1] + (outside[0],), center, radius)
                    tampered.append(Cover(clusters[:i] + [moved] + clusters[i + 1:], r))
            for c in tampered:
                got = verify_cover(g, c)
                assert got == verify_cover_oracle(g, c), (g, r, c.clusters)
                verdicts[got[0]] += 1
    assert verdicts[True] >= 600 and verdicts[False] >= 700, verdicts


def test_girth5_generator_really_has_girth5():
    for seed in (1, 2, 3):
        g = girth5_graph(20, seed)
        assert girth(g) >= 5


# ---------------------------------------------------------------------------
# induced pattern scan

def test_scan_c7_long_path():
    report = induced_pattern_scan(named("C_7"), 5, 3, 2)
    assert report["path"]["present"] is True
    w = report["path"]["witness"]
    g = named("C_7")
    assert len(w) == 5 and len(set(w)) == 5
    for a, b in zip(w, w[1:]):
        assert g.has_edge(a, b)


def test_scan_k5_clique():
    report = induced_pattern_scan(named("K_5"), 5, 5, 2)
    assert report["clique"]["present"] is True


def test_scan_petersen_no_c4():
    report = induced_pattern_scan(named("Petersen"), 5, 3, 2)
    assert report["biclique"]["present"] is False  # girth 5: no K_2,2
    assert report["clique"]["present"] is False


def test_scan_limit():
    with pytest.raises(SizeLimitError):
        induced_pattern_scan(named("K_4"), 9, 3, 2)


# ---------------------------------------------------------------------------
# choosability

def test_choosable_k2():
    assert is_k_choosable(named("K_2"), 2)


def test_choosable_c4():
    assert is_k_choosable(named("C_4"), 2)


def test_not_choosable_k24():
    assert not is_k_choosable(named("K_2,4"), 2)


def test_choosable_k1_one_color():
    assert is_k_choosable(named("K_1"), 1)
    assert not is_k_choosable(named("K_2"), 1)


def test_choosable_limits():
    with pytest.raises(SizeLimitError):
        is_k_choosable(named("C_8"), 2)
    with pytest.raises(SizeLimitError):
        is_k_choosable(named("K_3"), 3)


def test_choosable_implies_colorable():
    for name, k in [("K_2", 2), ("C_4", 2), ("P_4", 2), ("C_6", 2),
                    ("K_1,3", 2), ("K_1", 1)]:
        if is_k_choosable(named(name), k):
            assert chromatic_number(named(name)) <= k
