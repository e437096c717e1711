import hashlib
import json
import time
import tracemalloc

import pytest

from sparsekit import (
    Coloring,
    Graph,
    bounded_degree_graph,
    chi_p_bruteforce,
    cluster_cover,
    degeneracy_orientation,
    ltd_coloring,
    named,
    random_tree,
    tf_augment,
    treedepth_exact,
    triangulation,
    verify_cluster_cover,
    verify_ltd,
)
from sparsekit import decomposition
from sparsekit.decomposition import (
    ClusterCover,
    LtdVerificationError,
    _orient_smallest_last,
)
from sparsekit.errors import SizeLimitError, ValidationError
from sparsekit.graphs import ARC_FRATERNAL, ARC_TRANSITIVE, Orientation, catalog_names
from sparsekit.rng import Xoshiro256
from sparsekit.treedepth import greedy_smallest_last_coloring

from conftest import (
    orient_smallest_last_oracle,
    random_graph,
    tf_augment_oracle,
    treedepth_oracle,
    verify_ltd_oracle,
)


# ---------------------------------------------------------------------------
# tf_augment

def _orientation(n, edges, arcs):
    g = Graph(n, edges)
    kind = {a: "original" for a in arcs}
    rnd = {a: 0 for a in arcs}
    return Orientation(g, arcs, kind, rnd)


def test_fraternal_star():
    # leaves -> center: every leaf pair shares the head
    o = _orientation(4, [(0, 1), (0, 2), (0, 3)], [(1, 0), (2, 0), (3, 0)])
    out = tf_augment(o, 1)
    fraternal = [a for a in out.arcs if out.arc_kind[a] == ARC_FRATERNAL]
    assert len(fraternal) == 3
    assert {frozenset(a) for a in fraternal} == {
        frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3))}
    assert all(out.arc_round[a] == 1 for a in fraternal)


def test_transitive_path():
    o = _orientation(3, [(0, 1), (1, 2)], [(0, 1), (1, 2)])
    out = tf_augment(o, 1)
    added = [a for a in out.arcs if out.arc_kind[a] == ARC_TRANSITIVE]
    assert added == [(0, 2)]


def test_fixpoint_is_identity():
    o = _orientation(3, [(0, 1), (0, 2), (1, 2)], [(0, 1), (0, 2), (1, 2)])
    once = tf_augment(o, 1)
    assert set(once.arcs) == set(o.arcs)
    more = tf_augment(once, 3)
    assert set(more.arcs) == set(once.arcs)


def test_augment_monotone_and_rounds(small_graph_sample):
    for g in small_graph_sample[:25]:
        o = degeneracy_orientation(g)
        prev = set(o.arcs)
        cur = o
        for r in (1, 2):
            cur = tf_augment(cur, 1)
            assert prev <= set(cur.arcs)
            prev = set(cur.arcs)
            for a in cur.arcs:
                assert cur.arc_round[a] <= r


def test_orient_smallest_last_matches_full_scan_peel(peel_sample):
    for g in peel_sample:
        # scatter the ids, as the endpoints of a round's fraternal edges are
        edges = [(u * 37 % 1009, v * 37 % 1009) for u, v in g.edges]
        assert sorted(_orient_smallest_last(edges)) == sorted(
            orient_smallest_last_oracle(edges)), g


def test_round_cap():
    o = degeneracy_orientation(named("C_6"))
    with pytest.raises(SizeLimitError):
        tf_augment(o, 99)


def _same_orientation(a, b):
    return (a.arcs, a.arc_kind, a.arc_round) == (b.arcs, b.arc_kind, b.arc_round)


def test_tf_augment_matches_oracle(peel_sample):
    # 1, 2 and 3 rounds at once, and chained calls, which continue the round
    # numbers from the input's last round
    graphs = list(peel_sample)
    for s in (1, 2, 3):
        graphs += [bounded_degree_graph(150, 4, s), triangulation(120, s)]
    for g in graphs:
        o = degeneracy_orientation(g)
        once = tf_augment(o, 1)
        assert _same_orientation(once, tf_augment_oracle(o, 1)), g
        for rounds in (2, 3):
            assert _same_orientation(tf_augment(o, rounds),
                                     tf_augment_oracle(o, rounds)), (g, rounds)
        for rounds in (1, 2):
            assert _same_orientation(tf_augment(once, rounds),
                                     tf_augment_oracle(once, rounds)), (g, rounds)


# ---------------------------------------------------------------------------
# ltd_coloring / verify_ltd

def test_p1_is_proper_coloring(small_graph_sample):
    for g in small_graph_sample[:30]:
        d = ltd_coloring(g, 1)
        assert d.verified
        colors = d.coloring.assignment
        assert all(colors[u] != colors[v] for u, v in g.edges)


def test_tree_p2_three_colors():
    # star chromatic number of trees is at most 3
    for seed in (1, 7, 23):
        tree = random_tree(40, seed)
        d = ltd_coloring(tree, 2)
        assert d.verified
        assert d.coloring.palette <= 3


def test_ltd_coloring_at_ten_thousand_vertices():
    for g in (random_tree(10000, 1), triangulation(10000, 1)):
        d = ltd_coloring(g, 2)
        assert d.verified
        assert verify_ltd(g, 2, d.coloring).ok


def test_ltd_coloring_peak_memory():
    # the bound sits between the 1.44 MB traced at the peak here and the
    # 3.52 MB of rounds on neighbour sets with sorted integer pair keys
    g = triangulation(1600, 1)
    tracemalloc.start()
    try:
        ltd_coloring(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_ltd_coloring_output_pinned():
    # palettes, colors and rounds used on three sparse families, four
    # catalog graphs and one run allowed more rounds than tf_augment's cap,
    # pinned by digest
    rows = []
    for n in (40, 150, 600):
        for s in (1, 2):
            for name, g in ((f"random_tree({n},{s})", random_tree(n, s)),
                            (f"triangulation({n},{s})", triangulation(n, s)),
                            (f"bounded_degree_graph({n},4,{s})",
                             bounded_degree_graph(n, 4, s))):
                for p in ((1, 2, 3) if n < 600 else (2,)):
                    rows.append([name, p, ltd_coloring(g, p).to_json()])
    for name in ("grid_4x4", "Petersen", "Clebsch", "K_8"):
        for p in (1, 2, 3):
            rows.append([name, p, ltd_coloring(named(name), p).to_json()])
    rows.append(["P_9", 2, ltd_coloring(named("P_9"), 2, max_rounds=20).to_json()])
    assert len(rows) == 55
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "af41ebc31b38da4d425721529b609692435f83b618046df81a6eca252e8bf873"


def test_c4_p3_needs_three_colors():
    d = ltd_coloring(named("C_4"), 3)
    assert d.verified
    assert d.coloring.palette >= 3
    assert chi_p_bruteforce(named("C_4"), 3) == 3


def test_verify_ltd_k3_rainbow():
    g = named("K_3")
    out = verify_ltd(g, 2, Coloring([0, 1, 2]))
    assert out.ok


def test_verify_ltd_p4_alternating_fails():
    g = named("P_4")
    out = verify_ltd(g, 3, Coloring([1, 2, 1, 2], palette=3))
    assert not out.ok
    assert out.counterexample == (1, 2)


def test_verify_ltd_proper_is_p1_valid(small_graph_sample):
    for g in small_graph_sample[:20]:
        d = ltd_coloring(g, 1)
        assert verify_ltd(g, 1, d.coloring).ok


def _tf_round_colorings(g):
    """The colorings ltd_coloring tries, after 0, 1, 2, ... augmentation
    rounds; each round is computed only when asked for."""
    orientation = degeneracy_orientation(g)
    while True:
        yield greedy_smallest_last_coloring(orientation.underlying_graph())
        orientation = tf_augment(orientation, 1)


def test_verify_ltd_matches_oracle_on_tf_rounds(peel_sample):
    # every coloring ltd_coloring tries for p = 1..4: rounds 0..2p-2, up to
    # the first that verifies
    outcomes = {True: 0, False: 0}
    for g in peel_sample:
        for p in range(1, 5):
            for r, coloring in zip(range(2 * p - 1), _tf_round_colorings(g)):
                out = verify_ltd(g, p, coloring)
                assert (out.ok, out.counterexample) == verify_ltd_oracle(g, p, coloring), \
                    (g, p, r)
                outcomes[out.ok] += 1
                if out.ok:
                    break
    assert outcomes[True] >= 600 and outcomes[False] >= 200, outcomes


def test_verify_ltd_matches_oracle_on_random_colorings():
    rng = Xoshiro256(5)
    outcomes = {True: 0, False: 0}
    for seed in range(2400):
        n = 1 + rng.randrange(14)
        g = random_graph(n, 10 + rng.randrange(60), seed=seed)
        k = 1 + rng.randrange(n)
        colors = []
        for v in range(n):
            # half of the colorings retry a color an earlier neighbour holds,
            # so that proper (and some valid) colorings occur too
            c = rng.randrange(k)
            for _ in range(3 * (seed % 2)):
                if all(colors[w] != c for w in g.adj[v] if w < v):
                    break
                c = rng.randrange(k)
            colors.append(c)
        p = 1 + rng.randrange(4)
        coloring = Coloring(colors)
        out = verify_ltd(g, p, coloring)
        assert (out.ok, out.counterexample) == verify_ltd_oracle(g, p, coloring), \
            (g.edges, colors, p)
        outcomes[out.ok] += 1
    assert outcomes[True] >= 800 and outcomes[False] >= 1400, outcomes


def _two_color_cases():
    """(graph, colors) built around two colors: stars (center first and
    last, so both edge orientations occur), double stars, K_2,t and even
    cycles colored by their sides, and random bipartite hosts with n up to
    60 colored by their sides, some vertices then moved to a third or
    fourth color that no neighbour has; also paths colored 4, 7, 9 in
    turn, which only the three colors can make fail."""
    cases = []
    for t in range(1, 7):
        cases.append((Graph(t + 1, [(0, i) for i in range(1, t + 1)]), [4] + [7] * t))
        cases.append((Graph(t + 1, [(i, t) for i in range(t)]), [7] * t + [4]))
        cases.append((Graph(t + 2, [(a, b) for a in (0, 1) for b in range(2, t + 2)]),
                      [4, 4] + [7] * t))
    for a in range(4):
        for b in range(4):
            # centers 0 and 1, a leaves on 0 and b leaves on 1
            edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
            cases.append((Graph(2 + a + b, edges), [4, 7] + [7] * a + [4] * b))
    for k in range(2, 8):
        cases.append((named(f"C_{2 * k}"), [4, 7] * k))
    for n in range(3, 17):
        # every pair induces a matching, so only the three colors can fail
        cases.append((named(f"P_{n}"), ([4, 7, 9] * n)[:n]))
    rng = Xoshiro256(18)
    for seed in range(150):
        n = 2 + rng.randrange(59)
        side = [rng.randrange(2) for _ in range(n)]
        percent = 1 + rng.randrange(1 + 400 // n)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if side[u] != side[v] and rng.randrange(100) < percent])
        colors = [4 + 3 * s for s in side]
        for v in range(n):
            if rng.randrange(8) == 0:
                free = [c for c in (0, 9) if all(colors[w] != c for w in g.adj[v])]
                if free:
                    colors[v] = free[0]
        cases.append((g, colors))
    return cases


def test_ltd_holds_two_color_rule_matches_oracle():
    # the two-color rule decides every pair of colors, for p = 2 alone and
    # beside the larger sets at p = 3; it is caught if it tests only one
    # end of the edge, or counts the edge's own endpoint as a second
    # neighbour of its color, and the unique-color shortcut if it skips a
    # set whose colors all repeat
    outcomes = {True: 0, False: 0}
    for g, colors in _two_color_cases():
        for p in (2, 3):
            ok = decomposition._ltd_holds(g, p, colors)
            assert ok == verify_ltd_oracle(g, p, Coloring(colors))[0], (g.edges, colors, p)
            outcomes[ok] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def test_verify_ltd_exact_test_on_component_without_unique_color():
    # {0,1,2} spans all of P_6 with every color twice: the exact test runs
    # and td(P_6) = 3 passes
    assert verify_ltd(named("P_6"), 3, Coloring([0, 1, 2, 0, 1, 2])).ok
    out = verify_ltd(named("C_4"), 2, Coloring([1, 2, 1, 2], palette=3))
    assert not out.ok
    assert out.counterexample == (1, 2)


def _paths(*paths):
    """Disjoint paths, each given by the colors along it; a one-color path
    is an isolated vertex."""
    edges, colors = [], []
    for path in paths:
        start = len(colors)
        edges += [(start + i, start + i + 1) for i in range(len(path) - 1)]
        colors += path
    return Graph(len(colors), edges), Coloring(colors)


@pytest.mark.parametrize("paths, p, expected", [
    # td(P_4) = 3 > 2, so the palette's smallest color joins the spectrum
    (([5] * 4, [0]), 3, (0, 5)),
    # td(P_8) = 4 would admit two more colors; p = 2 caps it at one
    (([5] * 8, [0], [1], [2]), 2, (0, 5)),
    # td(P_8) - 1 = 3 caps it at two more colors, although p = 4
    (([5] * 8, [0], [1], [2]), 4, (0, 1, 5)),
    # a color above max(J) would make the set larger: 9 stays out
    (([3, 4] * 4, [0], [9]), 3, (0, 3, 4)),
    # a color between those of J joins too, td(P_16) = 5
    (([2, 4] * 8, [0], [3], [9]), 4, (0, 2, 3, 4)),
    # the monochromatic edge gives (7,), the bicolored P_8 the smaller set
    (([7, 7], [3, 4] * 4, [0]), 3, (0, 3, 4)),
])
def test_verify_ltd_counterexample_grows_the_spectrum(paths, p, expected):
    g, coloring = _paths(*paths)
    out = verify_ltd(g, p, coloring)
    assert (out.ok, out.counterexample) == (False, expected)
    assert verify_ltd_oracle(g, p, coloring) == (False, expected)


def test_verify_ltd_counterexample_fast_with_one_bad_edge():
    # 144 colors and one monochromatic edge: the smallest violating set is
    # the edge's color alone, but scanning every set of at most 4 colors
    # lexicographically up to it takes over a minute
    g = bounded_degree_graph(150, 4, 1)
    augmented = tf_augment(degeneracy_orientation(g), 3).underlying_graph()
    colors = list(greedy_smallest_last_coloring(augmented).assignment)
    assert len(set(colors)) == 144
    u, v = next((u, v) for u, v in g.edges if 133 in (colors[u], colors[v]))
    colors[u] = colors[v] = 133
    coloring = Coloring(colors)
    start = time.monotonic()
    out = verify_ltd(g, 4, coloring)
    assert (out.ok, out.counterexample) == (False, (133,))
    assert time.monotonic() - start < 5
    out = verify_ltd(g, 2, coloring)
    assert (out.ok, out.counterexample) == verify_ltd_oracle(g, 2, coloring) == (False, (133,))


def test_verify_ltd_counterexample_ignores_unused_declared_colors():
    # the counterexample is built from the colours present, never from one
    # class per declared colour (a palette of 10^9 would need about 64 GB)
    for name, colors in (("P_3", [0, 0, 1]), ("P_4", [1, 2, 1, 2])):
        g = named(name)
        tight = verify_ltd(g, 2, Coloring(colors)).counterexample
        start = time.monotonic()
        out = verify_ltd(g, 2, Coloring(colors, palette=10**6))
        assert (out.ok, out.counterexample) == (False, tight)
        assert time.monotonic() - start < 0.5


def test_ltd_coloring_derives_a_counterexample_only_to_raise(monkeypatch):
    calls = []
    derive = decomposition._smallest_violation

    def counted(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(decomposition, "_smallest_violation", counted)
    # rounds 0 and 1 fail on C_6 at p = 3, round 2 verifies
    assert ltd_coloring(named("C_6"), 3).rounds_used == 2
    assert calls == []
    monkeypatch.setattr(decomposition, "CHI_P_LIMIT", 0)
    with pytest.raises(LtdVerificationError):
        ltd_coloring(named("C_6"), 3, max_rounds=1)
    assert len(calls) == 1


def test_ltd_failure_counterexample_is_lexicographically_smallest(small_graph_sample,
                                                                   monkeypatch):
    monkeypatch.setattr(decomposition, "CHI_P_LIMIT", 0)
    found = set()
    for g in small_graph_sample:
        for p in (2, 3, 4):
            try:
                ltd_coloring(g, p, max_rounds=0)
            except LtdVerificationError as exc:
                tried = next(_tf_round_colorings(g))
                assert verify_ltd_oracle(g, p, tried) == (False, exc.counterexample)
                found.add(exc.counterexample)
    assert len(found) >= 8, found


def test_ltd_soundness_reverified_exactly(small_graph_sample):
    # every verified decomposition, the exact fallback's included, really
    # satisfies the subset contract, re-checked by the bare td oracle on
    # each color set's induced subgraph
    from itertools import combinations

    for g in small_graph_sample[:30]:
        if g.n > 8:
            continue
        for p in (1, 2, 3):
            d = ltd_coloring(g, p)
            assert d.verified
            colors = d.coloring.assignment
            for size in range(1, p + 1):
                for subset in combinations(sorted(set(colors)), size):
                    keep = [v for v in range(g.n) if colors[v] in subset]
                    pos = {v: i for i, v in enumerate(keep)}
                    sub = Graph(len(keep), [(pos[u], pos[v]) for u, v in g.edges
                                            if u in pos and v in pos])
                    assert treedepth_oracle(sub) <= size


def test_chi_1_is_chromatic_number(small_graph_sample):
    from sparsekit import chromatic_number

    for g in small_graph_sample[:20]:
        if g.n > 8 or g.n == 0:
            continue
        assert chi_p_bruteforce(g, 1) == chromatic_number(g)


def test_chi_p_values():
    assert chi_p_bruteforce(named("K_3"), 1) == 3
    assert chi_p_bruteforce(named("P_4"), 2) == 3  # star chromatic number
    c4 = named("C_4")
    td, _ = treedepth_exact(c4)
    assert max(chi_p_bruteforce(c4, p) for p in range(1, 5)) == 3 == td


def test_chi_p_search_output_pinned():
    # the fewest colors and the first such coloring up to renaming, which
    # ltd_coloring falls back to on small graphs, pinned by digest
    rows = []
    for name in catalog_names(max_n=8):
        for p in range(1, 5):
            k, coloring = decomposition._chi_p_search(named(name), p)
            rows.append([name, p, k, coloring.assignment])
    assert sum(row[2] for row in rows) == 481
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "2d94ccdc793f8c15193c7a8828029971ca8c905a1e32ead5cb61966b4dc4ed7b"


def test_chi_p_bruteforce_rejects_p_below_one():
    # p = 0 and p = -1 used to return the chromatic number (3 on C_5)
    for p in (0, -1):
        with pytest.raises(ValidationError, match="p must be >= 1"):
            chi_p_bruteforce(named("C_5"), p)


def test_chi_p_chain_and_td(small_graph_sample):
    for g in small_graph_sample[:20]:
        if not (1 <= g.n <= 6):
            continue
        values = [chi_p_bruteforce(g, p) for p in range(1, g.n + 1)]
        assert values == sorted(values)
        td, _ = treedepth_exact(g)
        assert values[-1] == td == max(values)


def test_ltd_coloring_rejects_negative_max_rounds():
    # a negative round count used to skip the loop and fail on a missing
    # outcome; the Petersen graph is too large for the exact fallback
    with pytest.raises(ValidationError):
        ltd_coloring(named("Petersen"), 2, max_rounds=-1)


def test_ltd_failure_reports_counterexample(monkeypatch):
    # with zero rounds P_4 only gets its 2-coloring, whose union is all of P_4
    monkeypatch.setattr(decomposition, "CHI_P_LIMIT", 0)
    g = named("P_4")
    with pytest.raises(LtdVerificationError) as exc:
        ltd_coloring(g, 2, max_rounds=0)
    assert len(exc.value.counterexample) == 2


# ---------------------------------------------------------------------------
# cluster covers

def test_cluster_cover_output_pinned():
    # clusters, palettes and membership bounds of cluster_cover at t = 2, 3
    # on three sparse families and two catalog graphs, pinned by digest
    rows = []
    for n in (30, 80, 200):
        for s in (1, 2):
            for name, g in ((f"random_tree({n},{s})", random_tree(n, s)),
                            (f"triangulation({n},{s})", triangulation(n, s)),
                            (f"bounded_degree_graph({n},4,{s})",
                             bounded_degree_graph(n, 4, s))):
                for t in (2, 3):
                    rows.append([name, t, cluster_cover(g, t).to_json()])
    for name in ("grid_4x4", "Petersen"):
        for t in (2, 3):
            rows.append([name, t, cluster_cover(named(name), t).to_json()])
    assert len(rows) == 40
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "81ef7f0cef185b9894a79c8eaeb3d3607cc3c79cee68c479e9e5e5eb126c225d"


def test_cluster_cover_k2():
    cov = cluster_cover(named("K_2"), 2)
    assert cov.clusters == ((0, 1),)


def test_cluster_cover_p3_edges_covered():
    g = named("P_3")
    cov = cluster_cover(g, 2)
    for edge in g.edges:
        assert any(set(edge) <= set(c) for c in cov.clusters)


def test_cluster_cover_random_tree_verifies():
    g = random_tree(30, 5)
    cov = cluster_cover(g, 3)
    ok, witness = verify_cluster_cover(g, cov)
    assert ok, witness


def test_cluster_cover_membership_bound():
    for seed in (2, 9):
        g = random_tree(25, seed)
        for t in (2, 3):
            cov = cluster_cover(g, t)
            assert cov.max_membership(g.n) <= cov.membership_bound


def test_verify_cluster_cover_missing_cluster():
    g = named("P_4")
    cov = cluster_cover(g, 2)
    broken = ClusterCover([c for c in cov.clusters if set(c) != {1, 2}],
                          2, palette=cov.palette,
                          membership_bound=cov.membership_bound)
    ok, witness = verify_cluster_cover(g, broken)
    assert not ok and witness[0] == "uncovered"


def test_verify_cluster_cover_bad_clusters():
    g = named("P_3")
    with pytest.raises(ValidationError):
        verify_cluster_cover(g, ClusterCover([[5]], 1))
    for cluster in ([], [0, 2]):  # empty, disconnected
        ok, witness = verify_cluster_cover(g, ClusterCover([cluster], 2))
        assert not ok and witness == ("cluster-td", cluster)


def test_verify_cluster_cover_deep_cluster():
    g = named("P_7")  # td(P_7) = 3 > 2
    cov = ClusterCover([range(7)], 2, palette=3, membership_bound=3)
    ok, witness = verify_cluster_cover(g, cov)
    assert not ok and witness[0] == "cluster-td"
