"""Acceptance gate: one test per criterion, each printing a PASS line.

Exact desk-scale oracles throughout; tolerances are exact equality unless a
criterion states a runtime budget, which is asserted with time.monotonic.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

import sparsekit as sk
from sparsekit import (
    CountQuery,
    chi_p_bruteforce,
    count_bruteforce,
    count_ltd,
    dfs_height_bounds,
    dn_coloring,
    dual_check,
    girth,
    grad,
    hom_exists,
    imm_grad,
    is_k_choosable,
    ltd_coloring,
    minimum_centered_palette,
    minimum_ranking_palette,
    nabla0,
    nabla0_bruteforce,
    named,
    neighborhood_cover,
    treedepth_exact,
    verify_cover,
    verify_dn_coloring,
    verify_elimination_forest,
    verify_ltd,
)
from sparsekit.applications import Cover
from sparsekit.counting import is_isomorphic
from sparsekit.density import top_grad
from sparsekit.graphs import catalog_names, chromatic_number
from sparsekit.homomorphism import core

from conftest import (
    all_graphs_up_to_iso,
    cli_env,
    counting_gate_hosts,
    random_graph,
    treedepth_oracle,
)


def _report(number, title):
    print(f"\n[acceptance] criterion {number} ({title}): PASS")


# ---------------------------------------------------------------------------

def test_criterion_01_treedepth_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    for seed in range(500):
        n = 1 + seed % 8
        g = random_graph(n, 10 + (seed * 37) % 85, seed=seed + 9000)
        td, forest = treedepth_exact(g)
        assert td == treedepth_oracle(g), g.edges
        assert verify_elimination_forest(g, forest)
        assert forest.height == td
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 500
    assert elapsed < 60.0, f"oracle gate took {elapsed:.1f}s"
    _report(1, "tree-depth oracle equivalence")


def test_criterion_02_td2_td3_equalities():
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            td, _ = treedepth_exact(g)
            assert minimum_centered_palette(g) == td, g.edges
            assert minimum_ranking_palette(g) == td, g.edges
    for seed in range(100):
        g = random_graph(6, 20 + (seed * 29) % 70, seed=seed + 500)
        td, _ = treedepth_exact(g)
        assert minimum_centered_palette(g) == td, g.edges
        assert minimum_ranking_palette(g) == td, g.edges
    _report(2, "centered = ranking = tree-depth")


def test_criterion_03_dfs_sandwich():
    corpus = [named(nm) for nm in catalog_names(max_n=18)]
    corpus += [random_graph(1 + s % 8, 10 + (s * 37) % 85, seed=s + 9000)
               for s in range(200)]
    for g in corpus:
        lower, upper, forest = dfs_height_bounds(g)
        assert verify_elimination_forest(g, forest)
        td, _ = treedepth_exact(g)
        assert lower <= td <= upper
    _report(3, "ceil(log2(h+1)) <= tree-depth <= DFS height h, zero violations")


def _ltd_corpus():
    graphs = []
    for i, n in enumerate((30, 60, 90, 120, 150, 170, 190, 200, 45, 75,
                           105, 135, 165, 80, 200)):
        graphs.append(("tree", sk.random_tree(n, seed=i + 1)))
    for a, b in ((3, 4), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (10, 10),
                 (12, 12), (14, 14), (9, 13)):
        graphs.append(("grid", named(f"grid_{a}x{b}")))
    for i, n in enumerate((20, 35, 50, 65, 80, 95, 110, 130, 150, 60, 90, 40,
                           75)):
        graphs.append(("triangulation", sk.triangulation(n, seed=i + 3)))
    for i, n in enumerate((40, 70, 100, 130, 160, 190, 200, 55, 85, 115, 145,
                           175)):
        graphs.append(("bounded-degree-4", sk.bounded_degree_graph(n, 4, seed=i + 7)))
    return graphs


def test_criterion_04_ltd_soundness_and_chi_chain():
    started = time.monotonic()
    corpus = _ltd_corpus()
    assert len(corpus) == 50
    for family, g in corpus:
        assert g.n <= 200, family
        for p in (2, 3, 4):
            result = ltd_coloring(g, p)
            assert result.verified, (family, g.n, p)
            assert verify_ltd(g, p, result.coloring).ok, (family, g.n, p)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"LTD gate took {elapsed:.1f}s"
    for name in catalog_names(max_n=6):
        g = named(name)
        values = [chi_p_bruteforce(g, p) for p in range(1, g.n + 1)]
        assert values == sorted(values), name
        td, _ = treedepth_exact(g)
        assert max(values) == td == values[-1], name
    _report(4, "LTD soundness + chi_p chain")


def test_criterion_05_counting_oracle_gate():
    patterns = [named(x) for x in ("P_3", "P_4", "K_3", "C_4", "K_1,3")]
    hosts = counting_gate_hosts()
    assert len(hosts) == 100 and all(g.n <= 40 for g in hosts)
    for g in hosts:
        decomposition = ltd_coloring(g, 4)
        for pattern in patterns:
            for mode in ("subgraph", "induced"):
                query = CountQuery(pattern, g, mode)
                assert count_bruteforce(query) == count_ltd(
                    query, decomposition=decomposition), (g.edges, pattern.n, mode)
    petersen = CountQuery(named("K_3"), named("Petersen"))
    assert count_bruteforce(petersen) == count_ltd(petersen) == 0
    _report(5, "count_ltd == count_bruteforce, zero tolerance")


def test_criterion_06_density_exactness():
    corpus = [named(nm) for nm in catalog_names(max_n=16)]
    corpus += [random_graph(3 + s % 10, 20 + (s * 23) % 70, seed=s + 800)
               for s in range(30)]
    for g in corpus:
        value, model = grad(g, 0)
        flow, _ = nabla0(g)
        assert value == flow
        assert model.validate(g)
        if g.n <= 16:
            brute, _ = nabla0_bruteforce(g)
            assert flow == brute
    value, model = grad(named("Petersen"), 1)
    assert value == Fraction(2)
    assert model.order() == 5 and model.size() == 10  # a K_5 model
    assert model.validate(named("Petersen"))
    for name in ("K_4", "C_5", "C_6", "K_2,3", "star_4", "grid_2x3"):
        g = named(name)
        grads = [grad(g, r)[0] for r in (0, 1, 2)]
        tops = [top_grad(g, r)[0] for r in (0, 1, 2)]
        imms = [imm_grad(g, r)[0] for r in (0, 1, 2)]
        assert grads == sorted(grads), name
        assert tops == sorted(tops), name
        assert imms == sorted(imms), name
        for r in (0, 1, 2):
            tv, tm = top_grad(g, r)
            gv, gm = grad(g, r)
            assert tv <= gv, (name, r)
            assert tm.validate(g) and gm.validate(g)
            iv, im = imm_grad(g, r)
            assert im.validate(g)
            if r >= 1:
                assert iv >= tv, (name, r)
    _report(6, "density exactness, K_5 in Petersen, sandwiches")


def test_criterion_07_lemma_tau1_vs_nabla0():
    corpus = [named("Petersen")]
    for seed in range(1, 21):
        g = sk.girth5_graph(18 + seed % 13, seed)
        assert girth(g) >= 5
        corpus.append(g)
    assert len(corpus) == 21
    for g in corpus:
        cover = neighborhood_cover(g, 1)
        ok, witness = verify_cover(g, cover)
        assert ok, witness
        bound, _ = nabla0(g)
        assert Fraction(cover.max_membership(g.n)) >= bound, g.edges
    _report(7, "1-cover membership >= nabla0 on girth-5 corpus")


def test_criterion_08_cover_validity_and_planted_rejection():
    corpus = ["Petersen", "grid_4x4", "C_9", "K_2,3", "P_9", "star_5",
              "grid_3x4", "K_5"]
    for name in corpus:
        g = named(name)
        for r in (1, 2, 3):
            cover = neighborhood_cover(g, r)
            ok, witness = verify_cover(g, cover)
            assert ok, (name, r, witness)
    g = named("P_9")
    cover = neighborhood_cover(g, 1)
    shrunk = Cover([(vs[:-1] if len(vs) > 1 else vs, c, rad)
                    for vs, c, rad in cover.clusters], 1)
    ok, witness = verify_cover(g, shrunk)
    assert not ok and witness[0] in ("uncovered-neighborhood",
                                     "disconnected-cluster")
    oversized = Cover(list(cover.clusters) + [(tuple(range(9)), 0, 8)], 1)
    ok, witness = verify_cover(g, oversized)
    assert not ok and witness[0] == "radius-exceeded"
    _report(8, "cover validity + planted violations rejected")


def test_criterion_09_dn_coloring_validity():
    corpus = ["P_7", "C_6", "C_9", "Petersen", "grid_3x4", "K_2,3", "star_5"]
    graphs = [named(nm) for nm in corpus]
    graphs += [random_graph(9, 30, seed=s + 40) for s in range(10)]
    for g in graphs:
        for n in (1, 3, 5):
            coloring = dn_coloring(g, n)
            assert verify_dn_coloring(g, n, coloring)
    assert dn_coloring(named("C_6"), 3).palette == 2
    _report(9, "distance colorings proper; C_6 at distance 3 uses 2 colors")


def test_criterion_10_homomorphism_and_duality():
    assert hom_exists(named("K_3"), named("Clebsch")) is None
    family = [named(x) for x in ("C_5", "C_7", "Q_3", "K_4")]
    report = dual_check(named("K_3"), named("Clebsch"), family)
    assert report["pattern_maps_to_dual"] is False
    assert report["violations"] == []
    assert report["indeterminate"] == []
    corpus = [named(nm) for nm in catalog_names(max_n=10)]
    corpus += [random_graph(4 + s % 7, 25 + (s * 31) % 60, seed=s + 2500)
               for s in range(20)]
    for g in corpus:
        c = core(g)
        assert is_isomorphic(core(c), c)
    _report(10, "no K_3 -> Clebsch; duality family clean; cores idempotent")


def test_criterion_11_choosability():
    assert is_k_choosable(named("C_4"), 2) is True
    assert is_k_choosable(named("K_2,4"), 2) is False
    for name, k in [("K_1", 1), ("K_2", 2), ("P_4", 2), ("C_4", 2),
                    ("C_6", 2), ("K_1,3", 2), ("P_6", 2)]:
        if is_k_choosable(named(name), k):
            assert chromatic_number(named(name)) <= k, name
    _report(11, "choosability decisions and chromatic implication")


DETERMINISM_INVOCATIONS = [
    ["td", "named:P_4"],
    ["decompose", "-p", "2", "named:grid_3x3"],
    ["count", "--pattern", "named:K_3", "named:Petersen"],
    ["count", "--pattern", "named:P_4", "--mode", "induced", "--method", "ltd",
     "named:grid_3x4"],
    ["density", "--measure", "grad", "-r", "1", "named:Petersen"],
    ["density", "--measure", "immgrad", "-r", "1", "named:C_6"],
    ["density-profile", "--family", "subdivided_cliques(1)", "-r", "1",
     "--sizes", "3,4,5", "--format", "csv"],
    ["dncolor", "-n", "3", "named:C_6"],
    ["cover", "-r", "2", "named:Petersen"],
    ["oddset", "named:C_6"],
    ["hom", "named:C_5", "named:K_3"],
    ["core", "named:C_4"],
    ["dual-check", "--pattern", "named:K_3", "--dual", "named:Clebsch",
     "named:C_5", "named:K_4"],
    ["choosable", "-k", "2", "named:C_4"],
    ["scan", "--s", "5", "--t", "3", "--q", "2", "named:Petersen"],
    ["gen", "girth5(20,1)"],
    ["gen", "random_tree(10,7)"],
]


def _invoke(args, hashseed, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "sparsekit", *args, "--threads", threads],
        capture_output=True, env=cli_env(PYTHONHASHSEED=hashseed),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_12_cli_determinism():
    for args in DETERMINISM_INVOCATIONS:
        runs = [
            _invoke(args, hashseed, threads)
            for hashseed, threads in (("1", "1"), ("2", "1"), ("3", "4"))
        ]
        assert runs[0] == runs[1] == runs[2], args
        assert runs[0][0] == 0, (args, runs[0][2])
    _report(12, "byte-identical CLI output across runs and thread counts")
