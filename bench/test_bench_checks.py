"""Fast self-tests of the benchmark's independent checks on hand-computed
cases. They take well under a second; run with
``python3 -m pytest -q bench/test_bench_checks.py``."""

import checks
import workloads


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


PETERSEN = workloads.petersen()


def test_subgraph_closed_forms():
    assert checks.subgraph_counts(*cycle(5))["P_4"] == 5
    k4 = checks.subgraph_counts(*complete(4))
    assert k4 == {"P_3": 12, "K_1,3": 4, "K_3": 4, "C_4": 3, "P_4": 12}
    assert checks.subgraph_counts(*PETERSEN)["K_3"] == 0
    assert checks.subgraph_counts(*workloads.star(5, workloads.rng_for("t", 0)))["K_1,3"] == 10


def test_induced_enumeration():
    assert checks.induced_counts(*complete(3))["P_3"] == 0
    assert checks.induced_counts(*complete(3))["K_3"] == 1
    c4 = checks.induced_counts(*cycle(4))
    assert (c4["C_4"], c4["P_4"], c4["P_3"]) == (1, 0, 4)
    assert checks.induced_counts(*workloads.path(5))["P_4"] == 2
    assert checks.induced_counts(*workloads.k2b(3, workloads.rng_for("t", 1)))["K_1,3"] == 2


def test_treedepth_decider():
    assert checks.treedepth(*complete(4)) == 4
    assert [checks.treedepth(*workloads.path(n)) for n in (1, 2, 3, 4, 7, 8)] == [1, 2, 2, 3, 3, 4]
    assert checks.treedepth(*cycle(5)) == 4
    assert checks.treedepth(*PETERSEN) == 6


def test_ltd_property():
    n, edges = workloads.path(8)
    assert checks.ltd_violation(n, edges, [0, 1] * 4, 2) == [0, 1]
    assert checks.ltd_violation(n, edges, [0, 0, 1, 2, 3, 4, 5, 6], 2) == [0]
    assert checks.ltd_violation(n, edges, workloads.ruler_coloring(8), 3) is None
    assert checks.ltd_violation(n, edges, list(range(8)), 4) is None


def test_cli_payload_checks():
    n, edges = workloads.path(3)
    td = {"treedepth": 2, "witness": {"parent": [1, -1, 1], "height": 2},
          "dfs_bounds": {"log_lower": 3, "dfs_height": 3}}
    assert "bracket" in checks.check_td(n, edges, td, 2)
    td["dfs_bounds"]["log_lower"] = 2
    assert checks.check_td(n, edges, td, 2) is None
    assert checks.check_hom(cycle(5)[1], complete(3)[1], [0, 1, 0, 1, 2]) is None
    assert checks.check_hom(cycle(5)[1], complete(3)[1], [0, 1, 0, 1, 0]) is not None
    assert checks.check_error(2, "", '{"error": "ParseError", "message": "x"}\n') is None
    assert checks.check_error(1, "", "Traceback\n  ...\n") is not None
    assert checks.is_tree(*checks.parse_edge_list("# vertex 0\n0 1\n1 2\n"))
