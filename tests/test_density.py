import hashlib
import json
from fractions import Fraction

import pytest

from sparsekit import (
    SizeLimitError,
    ValidationError,
    density_profile,
    grad,
    imm_grad,
    nabla0,
    nabla0_bruteforce,
    named,
    random_tree,
    subdivide,
)
from sparsekit.density import _pack_paths, top_grad
from sparsekit.graphs import catalog_names
from sparsekit.rng import Xoshiro256

from conftest import pack_paths_oracle, random_graph


def test_nabla0_complete():
    value, witness = nabla0(named("K_4"))
    assert value == Fraction(3, 2)
    assert sorted(witness) == [0, 1, 2, 3]


def test_nabla0_tree_is_whole_tree():
    tree = random_tree(17, 3)
    value, witness = nabla0(tree)
    assert value == Fraction(16, 17)
    assert len(witness) == 17


def test_nabla0_petersen():
    value, witness = nabla0(named("Petersen"))
    assert value == Fraction(3, 2)
    assert len(witness) == 10


def test_nabla0_long_path():
    # augmenting paths thousands of edges long need no recursion
    value, witness = nabla0(named("P_3000"))
    assert value == Fraction(2999, 3000)
    assert witness == list(range(3000))


def test_nabla0_flow_matches_bruteforce():
    for seed in range(50):
        n = 2 + seed % 10
        g = random_graph(n, 15 + (seed * 19) % 75, seed=seed + 4000)
        flow_value, flow_witness = nabla0(g)
        brute_value, _ = nabla0_bruteforce(g)
        assert flow_value == brute_value, g.edges
        eset = set(flow_witness)
        inside = sum(1 for u, v in g.edges if u in eset and v in eset)
        assert Fraction(inside, len(flow_witness)) == flow_value


def test_nabla0_dense_planted():
    # K_5 planted in a sparse fringe must be found exactly
    from sparsekit import Graph

    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(4, 5), (5, 6), (6, 7)]
    value, witness = nabla0(Graph(8, edges))
    assert value == Fraction(10, 5)
    assert sorted(witness) == [0, 1, 2, 3, 4]


def test_grad_depth0_equals_nabla0():
    for name in ("K_4", "C_5", "Petersen", "grid_3x3", "K_2,3"):
        g = named(name)
        value, model = grad(g, 0)
        assert value == nabla0(g)[0]
        assert model.validate(g)


def test_grad_petersen_depth1_is_k5():
    g = named("Petersen")
    value, model = grad(g, 1)
    assert value == Fraction(2)
    assert model.order() == 5 and model.size() == 10
    assert model.validate(g)


def test_grad_tree_below_one():
    for r in (0, 1, 2, 3):
        tree = random_tree(14, 9)
        value, model = grad(tree, r)
        assert value < 1
        assert model.validate(tree)


def test_grad_limit_refusal():
    with pytest.raises(SizeLimitError):
        grad(named("Clebsch"), 1)


def test_one_subdivision_recovers_original_density():
    # the original graph reappears as a depth-1 topological minor of its
    # 1-subdivision, so the density survives
    for name in ("K_4", "C_5", "P_4", "K_1,3", "K_2,2"):
        g = named(name)
        sub = subdivide(g, 1)
        value, model = top_grad(sub, 1)
        assert value >= Fraction(g.m, g.n), name
        assert model.validate(sub)


def test_top_grad_recovers_subdivided_clique():
    g = subdivide(named("K_4"), 2)
    value, model = top_grad(g, 1, exact_limit=16)
    assert value >= Fraction(3, 2)
    assert model.validate(g)


def test_top_grad_at_most_grad():
    for name in ("K_4", "C_5", "C_6", "K_2,3"):
        g = named(name)
        for r in (0, 1, 2):
            tv, tm = top_grad(g, r)
            gv, gm = grad(g, r)
            assert tv <= gv, (name, r)
            assert tm.validate(g) and gm.validate(g)


def test_top_grad_cycles_stay_thin():
    for r in (0, 1, 2, 3):
        value, _ = top_grad(named("C_9"), r)
        assert value <= 1


def test_imm_at_least_top():
    for name in ("K_4", "C_6", "K_2,3", "C_5"):
        g = named(name)
        for r in (1, 2):
            iv, im = imm_grad(g, r)
            tv, _ = top_grad(g, r)
            assert iv >= tv, (name, r)
            assert im.validate(g)


def test_imm_k4_depth0():
    value, model = imm_grad(named("K_4"), 0)
    assert value == Fraction(3, 2)
    assert model.validate(named("K_4"))


def test_imm_subdivided_k4():
    g = subdivide(named("K_4"), 1)
    value, model = imm_grad(g, 1)
    assert value >= Fraction(3, 2)
    assert model.validate(g)


def test_monotone_in_depth():
    for name in ("K_4", "C_6", "K_2,3"):
        g = named(name)
        gs = [grad(g, r)[0] for r in (0, 1, 2)]
        ts = [top_grad(g, r)[0] for r in (0, 1, 2)]
        assert gs == sorted(gs), name
        assert ts == sorted(ts), name
    g = named("C_5")
    ims = [imm_grad(g, r)[0] for r in (0, 1, 2)]
    assert ims == sorted(ims)


def test_path_packing_witnesses_pinned():
    # The values and witness models of both path-packing searches on every
    # catalog graph of at most 9 vertices, pinned by digest; Petersen (10
    # vertices) would add over a minute of imm_grad.
    rows = []
    for name in catalog_names(max_n=9):
        g = named(name)
        for r in (1, 2):
            for fn in (top_grad, imm_grad):
                value, model = fn(g, r)
                rows.append([name, r, fn.__name__, str(value), model.to_json()])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "d07130cfa840bf0487e6fee8fa6b76344925285645dfc081ded4ecf3f5376e3a"


def test_pack_paths_matches_oracle():
    # random candidate lists, some empty, whose edge masks and interiors
    # overlap often, at interior caps 1 to 3: the same first best packing
    rng = Xoshiro256(8)
    full = 0
    for _ in range(600):
        n = 4 + rng.randrange(5)
        cap = 1 + rng.randrange(3)
        pairs = []
        for p in range(2 + rng.randrange(5)):
            cands = []
            for i in range(rng.randrange(4)):
                em = 0
                for _ in range(1 + rng.randrange(3)):
                    em |= 1 << rng.randrange(8)
                interior = sorted({rng.randrange(n) for _ in range(rng.randrange(3))})
                cands.append(((p, i), em, tuple(interior)))
            pairs.append(cands)
        got = _pack_paths(pairs, cap, n)
        assert got == pack_paths_oracle(pairs, cap, n), (pairs, cap)
        full += len(got) == len(pairs)
    assert full >= 50, full


def test_models_reject_planted_violations():
    from sparsekit.density import ImmersionModel, MinorModel, TopoModel

    invalid = [
        # MinorModel
        ("C_6", MinorModel([[0, 1], [1, 2]], 1, [(0, 1)])),  # overlapping sets
        ("C_6", MinorModel([[0], [3]], 1, [(0, 1)])),  # non-adjacent sets
        ("C_6", MinorModel([[0, 1, 2, 3, 4]], 1, [])),  # radius too large
        ("K_2", MinorModel([[0], [1]], 0, [(0, 1), (0, 1)])),  # repeated pair
        ("K_3", MinorModel([[0], [1], [2]], 0,  # five edges, density 5/3
                           [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0)])),
        ("K_2", MinorModel([[0, 1]], 1, [(0, 0)])),  # loop
        ("K_2", MinorModel([[0], [1]], 0, [(0, 2)])),  # no such branch set
        # TopoModel
        ("K_2", TopoModel([0, 1], [(0, 1), (1, 0)], 0)),  # repeated pair
        ("C_4", TopoModel([0, 2], [(0, 1, 2), (0, 3, 2)], 1)),  # pair twice
        ("K_3", TopoModel([0], [(0, 1, 2, 0)], 1)),  # loop
        ("C_6", TopoModel([0, 3], [(0, 3)], 1)),  # non-adjacent ends
        ("C_6", TopoModel([0, 3], [(0, 1, 2, 3)], 0)),  # over-long path
        ("C_6", TopoModel([0, 2, 1], [(0, 1, 2)], 1)),  # through a principal
        # shared interior: both paths run through the hub
        ("star_4", TopoModel([1, 2, 3, 4], [(1, 0, 2), (3, 0, 4)], 2)),
        # ImmersionModel
        ("C_6", ImmersionModel([0, 1], [(0, 1), (1, 0)], 1)),  # repeated edge
        ("C_4", ImmersionModel([0, 2], [(0, 1, 2), (0, 3, 2)], 1)),  # pair twice
        ("K_3", ImmersionModel([0], [(0, 1, 2, 0)], 1)),  # loop
        ("C_6", ImmersionModel([0, 3], [(0, 3)], 1)),  # non-adjacent ends
        ("C_6", ImmersionModel([0, 3], [(0, 1, 2, 3)], 0)),  # over-long path
        ("K_3", ImmersionModel([0, 1, 2], [(0, 1), (0, 1, 2)], 1)),  # shared edge
        # overloaded interior: both paths run through the hub at depth 1
        ("star_4", ImmersionModel([1, 2, 3, 4], [(1, 0, 2), (3, 0, 4)], 1)),
    ]
    for name, model in invalid:
        assert not model.validate(named(name)), (name, model.to_json())
    valid = [
        ("K_2", MinorModel([[0], [1]], 0, [(0, 1)])),
        ("C_4", TopoModel([0, 2], [(0, 1, 2)], 1)),
        ("star_4", ImmersionModel([1, 2, 3, 4], [(1, 0, 2), (3, 0, 4)], 2)),
    ]
    for name, model in valid:
        assert model.validate(named(name)), (name, model.to_json())


def test_profile_subdivided_cliques_trend():
    rows = density_profile("subdivided_cliques(1)", 1, [3, 4, 5, 6, 7, 8])
    logs = [row["log_density"] for row in rows]
    assert all(b >= a for a, b in zip(logs, logs[1:]))
    assert logs[-1] > 1.5  # heading for 2
    assert rows[0]["exact"] is True  # sub_1(K_3) = C_6 is small enough


def test_profile_trees_below_one():
    rows = density_profile("trees", 1, [10, 40, 120])
    for row in rows:
        assert row["exact"] is True  # forests are exact at any size
        assert row["density_float"] < 1
        assert row["log_density"] is None or row["log_density"] < 1


def test_profile_grids_approach_one():
    rows = density_profile("grids", 1, [3, 6, 10])
    logs = [row["log_density"] for row in rows]
    # tiny exact grids contract into dense little minors; the trajectory
    # settles toward 1 as the side grows
    assert all(b <= a for a, b in zip(logs, logs[1:]))
    assert 0.95 < logs[-1] < 1.2


def test_profile_rejects_negative_depth():
    # sub_1(K_8) would take the planted-witness branch at r >= 1 and the
    # 5x5 grid the densest-subgraph branch; grid_2x2 is exact
    for family, size in (("subdivided_cliques(1)", 8), ("grids", 5), ("grids", 2)):
        with pytest.raises(ValidationError, match="depth must be >= 0"):
            density_profile(family, -1, [size])


def test_profile_bounded_degree():
    rows = density_profile("bounded_degree_random(3)", 1, [8, 24])
    assert rows[0]["n"] == 8 and rows[1]["n"] == 24
    for row in rows:
        assert Fraction(row["density"].split("/")[0]) >= 0
