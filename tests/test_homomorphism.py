import hashlib
import json

import pytest

from conftest import all_graphs_up_to_iso, hom_oracle
from sparsekit import (
    BudgetExceededError,
    Graph,
    SizeLimitError,
    core,
    dual_check,
    hom_exists,
    named,
    t_approximation_check,
)
from sparsekit.counting import is_isomorphic
from sparsekit.graphs import catalog_names
from sparsekit.homomorphism import is_homomorphism


def _check_witness(g, h, mapping):
    assert is_homomorphism(g, h, mapping)


def test_no_triangle_into_clebsch():
    assert hom_exists(named("K_3"), named("Clebsch")) is None


def test_bipartite_to_k2():
    for name in ("C_6", "P_5", "K_2,3", "grid_3x3", "Q_3"):
        g = named(name)
        w = hom_exists(g, named("K_2"))
        assert w is not None
        _check_witness(g, named("K_2"), w)


def test_c5_to_k3():
    w = hom_exists(named("C_5"), named("K_3"))
    assert w is not None
    _check_witness(named("C_5"), named("K_3"), w)


def test_odd_cycle_winding():
    w = hom_exists(named("C_7"), named("C_5"))
    assert w is not None
    _check_witness(named("C_7"), named("C_5"), w)
    assert hom_exists(named("C_5"), named("C_7")) is None


def test_composition_is_homomorphism():
    g, h, k = named("C_7"), named("C_5"), named("K_3")
    f1 = hom_exists(g, h)
    f2 = hom_exists(h, k)
    composed = {v: f2[f1[v]] for v in range(g.n)}
    _check_witness(g, k, composed)


def test_hom_exists_matches_oracle():
    # existence on every ordered pair of graphs with at most 5 vertices, up
    # to isomorphism and the empty graph included, against trying every
    # vertex map; 977 of the 2,809 pairs have no homomorphism
    graphs = [g for n in range(6) for g in all_graphs_up_to_iso(n)]
    assert len(graphs) == 53
    found = 0
    for g in graphs:
        for h in graphs:
            w = hom_exists(g, h)
            assert (w is not None) == hom_oracle(g, h), (g.edges, h.n, h.edges)
            if w is not None:
                _check_witness(g, h, w)
                found += 1
    assert found == 1832


def _hom_row(g, h, **budget):
    try:
        w = hom_exists(g, h, **budget)
    except BudgetExceededError:
        return "indeterminate"
    return None if w is None else [w[v] for v in range(g.n)]


def test_hom_exists_witnesses_pinned():
    # witness, None or "indeterminate" on every ordered pair of catalog
    # graphs with at most 10 vertices, at the default budget, at 20 nodes
    # and at g.n + 1 nodes (just enough for a search that never backtracks),
    # pinned by digest: the search order and its node count decide them,
    # and the CLI's --budget exit codes rest on the node count
    graphs = [named(nm) for nm in catalog_names(max_n=10)]
    rows = [[_hom_row(g, h), _hom_row(g, h, budget=20), _hom_row(g, h, budget=g.n + 1)]
            for g in graphs for h in graphs]
    assert len(rows) == 46 * 46
    assert sum(row[1] == "indeterminate" for row in rows) == 128
    assert sum(row[2] == "indeterminate" for row in rows) == 295
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "997e1557b61265cda3d3ad94670c621c2f6d6d13411703964035a307cafba751"


def test_budget_indeterminate():
    with pytest.raises(BudgetExceededError):
        hom_exists(named("grid_4x4"), named("C_5"), budget=3)


def test_size_guard():
    with pytest.raises(SizeLimitError):
        hom_exists(named("K_3"), Graph(40, []))


def test_core_c4():
    result = core(named("C_4"))
    assert result.n == 2 and result.m == 1


def test_core_complete():
    for n in (2, 3, 4):
        result = core(named(f"K_{n}"))
        assert result.n == n and result.m == n * (n - 1) // 2


def test_core_odd_cycle():
    result = core(named("C_5"))
    assert is_isomorphic(result, named("C_5"))


def test_core_retraction_pair(small_graph_sample):
    for g in small_graph_sample[:25]:
        c = core(g)
        forward = hom_exists(g, c)
        backward = hom_exists(c, g)
        assert forward is not None and backward is not None
        _check_witness(g, c, forward)
        _check_witness(c, g, backward)


def test_core_idempotent(small_graph_sample):
    for g in small_graph_sample[:25]:
        c = core(g)
        assert is_isomorphic(core(c), c)


def test_t_approximation_identity():
    for name in ("C_5", "K_4", "grid_2x3"):
        assert t_approximation_check(named(name), named(name), 3)


def test_t_approximation_c5_k3():
    assert t_approximation_check(named("C_5"), named("K_3"), 2)
    assert not t_approximation_check(named("C_5"), named("K_3"), 3)


def test_t_approximation_monotone_in_t():
    g, h = named("C_5"), named("K_3")
    values = [t_approximation_check(g, h, t) for t in range(1, 4)]
    # once it fails it stays failed for larger t
    assert values == sorted(values, reverse=True)


def test_dual_check_clebsch():
    family = [named(x) for x in ("C_5", "C_7", "Q_3", "K_4")]
    report = dual_check(named("K_3"), named("Clebsch"), family)
    assert report["pattern_maps_to_dual"] is False
    assert report["violations"] == []
    assert report["indeterminate"] == []
    statuses = [r["status"] for r in report["instances"]]
    assert statuses == ["consistent"] * 4


def test_dual_check_k1_for_k2():
    # G has no edge <=> G -> K_1
    family = [Graph(3, []), Graph(1, []), named("P_3")]
    report = dual_check(named("K_2"), named("K_1"), family)
    assert report["violations"] == []


def test_dual_check_detects_violation():
    report = dual_check(named("K_3"), named("K_2"), [named("C_5")])
    assert report["violations"] == [0]
