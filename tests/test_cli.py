import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from sparsekit import named, serialize_edge_list

from conftest import cli_env


def run_cli(*args, env_extra=None):
    env = cli_env()
    env.setdefault("PYTHONHASHSEED", "0")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "sparsekit", *args],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_schema(name):
    ref = resources.files("sparsekit") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def check(name, payload):
    jsonschema.validate(payload, load_schema(name))


JSON_INVOCATIONS = [
    ("td", ["td", "named:P_4"]),
    ("decompose", ["decompose", "-p", "2", "named:grid_3x3"]),
    ("count", ["count", "--pattern", "named:K_3", "named:Petersen"]),
    ("density", ["density", "--measure", "grad", "-r", "1", "named:Petersen"]),
    ("density-profile", ["density-profile", "--family", "trees", "-r", "1",
                         "--sizes", "4,8"]),
    ("dncolor", ["dncolor", "-n", "3", "named:C_6"]),
    ("cover", ["cover", "-r", "1", "named:Petersen"]),
    ("oddset", ["oddset", "named:C_6"]),
    ("hom", ["hom", "named:C_5", "named:K_3"]),
    ("core", ["core", "named:C_4"]),
    ("dual-check", ["dual-check", "--pattern", "named:K_3",
                    "--dual", "named:Clebsch", "named:C_5", "named:K_4"]),
    ("choosable", ["choosable", "-k", "2", "named:C_4"]),
    ("scan", ["scan", "--s", "5", "--t", "3", "--q", "2", "named:Petersen"]),
]


@pytest.mark.parametrize("schema_name,args", JSON_INVOCATIONS,
                         ids=[x[0] for x in JSON_INVOCATIONS])
def test_json_output_validates(schema_name, args):
    code, out, err = run_cli(*args)
    assert code == 0, err
    check(schema_name, json.loads(out))


def test_td_p4_payload():
    code, out, _ = run_cli("td", "named:P_4")
    assert code == 0
    payload = json.loads(out)
    assert payload["treedepth"] == 3


def test_count_petersen_triangles():
    code, out, _ = run_cli("count", "--pattern", "named:K_3", "named:Petersen")
    assert code == 0
    assert json.loads(out)["count"] == 0


# (host spec, pattern, mode, route `count --method auto` takes)
AUTO_ROUTES = [
    # bounded degree above the oracle's 60-vertex limit: enumeration
    ("random_tree(100,1)", "P_4", "subgraph", "bruteforce"),
    ("random_tree(100,1)", "K_1,3", "induced", "bruteforce"),
    ("bounded_degree(80,4,2)", "C_4", "subgraph", "bruteforce"),
    # hubs: the copies of K_1,3 explode, the decomposition stays small
    ("named:star_60", "K_1,3", "subgraph", "ltd"),
    ("named:K_2,60", "K_1,3", "induced", "ltd"),
    ("named:K_2,60", "P_4", "subgraph", "bruteforce"),
    # hosts of at most 20 vertices enumerate whatever the bound
    ("named:Petersen", "K_3", "subgraph", "bruteforce"),
    ("named:K_8", "K_1,3", "induced", "bruteforce"),
    ("named:K_3,16", "K_1,3", "subgraph", "bruteforce"),
    ("named:grid_3x4", "P_4", "induced", "bruteforce"),
    # patterns above the oracle's 5 vertices always decompose; P_6 is the
    # largest pattern the tests count
    ("named:C_12", "P_6", "subgraph", "ltd"),
]


@pytest.mark.parametrize("host_spec,pattern,mode,route", AUTO_ROUTES,
                         ids=[f"{h}-{p}-{m}" for h, p, m, _ in AUTO_ROUTES])
def test_count_auto_route(host_spec, pattern, mode, route):
    from sparsekit import CountQuery, count_ltd, ltd_coloring
    from sparsekit.cli import load_graph

    code, out, err = run_cli("count", "--pattern", "named:" + pattern,
                             "--mode", mode, host_spec)
    assert code == 0, err
    host, h = load_graph(host_spec), named(pattern)
    palette = ltd_coloring(host, h.n).coloring.palette if route == "ltd" else None
    assert json.loads(out) == {
        "count": count_ltd(CountQuery(h, host, mode)),
        "method": route,
        "palette": palette,
        "mode": mode,
        "pattern": "named:" + pattern,
    }


def test_main_in_process_matches_fresh_calls(capsys, monkeypatch):
    # main reuses one parser for the whole process, so no default or state
    # may leak from a call into the next: each in-process call prints what a
    # fresh process prints. COLUMNS pins the help width on both sides.
    from sparsekit import cli

    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["count", "--mode", "induced", "--pattern", "named:P_3", "named:C_5"],
        ["count", "--pattern", "named:P_3", "named:C_5"],
        ["--help"],
        ["count", "--mode", "weird", "--pattern", "named:P_3", "named:C_5"],
    ]
    fresh = [run_cli(*args, env_extra={"COLUMNS": "80"}) for args in calls]
    assert json.loads(fresh[1][1])["mode"] == "subgraph"
    assert fresh[3][0] == 2 and fresh[3][1] == ""
    for _ in range(2):
        for args, expected in zip(calls, fresh):
            code = cli.main(list(args))
            out, err = capsys.readouterr()
            assert (code, out, err) == expected, args


def test_count_bruteforce_keeps_host_limit():
    code, out, err = run_cli("count", "--method", "bruteforce", "--pattern",
                             "named:P_3", "random_tree(61,1)")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "SizeLimitError"


def test_density_nabla0_long_path():
    code, out, err = run_cli("density", "--measure", "nabla0", "named:P_1500")
    assert code == 0, err
    assert out.count("\n") == 1
    assert json.loads(out)["value"] == "1499/1500"


def test_refusal_exit_code():
    # a limit of 0 is a limit, not the default
    for args in (["td", "--exact-limit", "5", "named:K_8"],
                 ["td", "--exact-limit", "0", "named:P_3"],
                 ["density", "-r", "1", "--exact-limit", "0", "named:C_5"],
                 ["core", "--exact-limit", "3", "named:C_4"],
                 # above the pattern limit, refused before any decomposition
                 ["count", "--pattern", "named:star_1199", "named:star_1199"],
                 ["count", "--pattern", "named:star_40", "named:star_40"]):
        code, out, err = run_cli(*args)
        assert code == 3 and out == "", args
        payload = json.loads(err)
        check("error", payload)
        assert payload["error"] == "SizeLimitError"


def test_density_profile_exact_limit():
    # grid_3x3 has 9 vertices: inside the default limit, above a limit of 8
    args = ["density-profile", "--family", "grids", "-r", "1", "--sizes", "3"]
    exact = {}
    for extra in ([], ["--exact-limit", "8"]):
        code, out, err = run_cli(*args, *extra)
        assert code == 0, err
        (row,) = json.loads(out)["rows"]
        exact[bool(extra)] = row["exact"]
    assert exact == {False: True, True: False}


def test_usage_exit_code():
    code, _, err = run_cli("td")
    assert code == 2
    check("error", json.loads(err))
    code, _, err = run_cli("frobnicate", "named:K_2")
    assert code == 2


def test_indeterminate_exit_code():
    # a budget of 0 is a budget, not the default
    for args in (["hom", "--budget", "3", "named:grid_4x4", "named:C_5"],
                 ["hom", "--budget", "0", "named:C_5", "named:K_3"]):
        code, _, err = run_cli(*args)
        assert code == 4, args
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceededError"


def test_verification_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"colors": [1, 2, 1, 2], "palette": 3}))
    code, out, _ = run_cli("verify-ltd", "-p", "3", "--coloring", str(bad),
                           "named:P_4")
    assert code == 1
    payload = json.loads(out)
    check("verify-ltd", payload)
    assert payload["ok"] is False
    assert payload["counterexample"] == [1, 2]


def test_verify_ltd_roundtrip(tmp_path):
    code, out, _ = run_cli("decompose", "-p", "2", "named:grid_3x3")
    assert code == 0
    check("decompose", json.loads(out))
    coloring = tmp_path / "coloring.json"
    coloring.write_text(out)
    code, out, _ = run_cli("verify-ltd", "-p", "2", "--coloring", str(coloring),
                           "named:grid_3x3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_gen_catalog_clebsch():
    code, out, _ = run_cli("gen", "named:Clebsch")
    assert code == 0
    edge_lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(edge_lines) == 40
    from sparsekit import parse_edge_list

    assert parse_edge_list(out) == named("Clebsch")


def test_gen_reproducible():
    _, first, _ = run_cli("gen", "random_tree(10,7)")
    _, second, _ = run_cli("gen", "random_tree(10,7)")
    assert first == second and first


def test_gen_girth5_verified():
    code, out, _ = run_cli("gen", "girth5(20,1)")
    assert code == 0
    from sparsekit import girth, parse_edge_list

    assert girth(parse_edge_list(out)) >= 5


def test_file_input(tmp_path):
    path = tmp_path / "graph.el"
    path.write_text(serialize_edge_list(named("P_4")))
    code, out, _ = run_cli("td", str(path))
    assert code == 0
    assert json.loads(out)["treedepth"] == 3


def test_dual_check_directory_input(tmp_path):
    for name in ("C_5", "C_7"):
        (tmp_path / f"{name}.el").write_text(serialize_edge_list(named(name)))
    code, out, _ = run_cli("dual-check", "--pattern", "named:K_3",
                           "--dual", "named:Clebsch", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["instances"]) == 2
    assert payload["violations"] == []


def test_dual_check_violation_exit():
    code, out, _ = run_cli("dual-check", "--pattern", "named:K_3",
                           "--dual", "named:K_2", "named:C_5")
    assert code == 1
    assert json.loads(out)["violations"] == [0]


def test_csv_only_for_profile():
    code, _, err = run_cli("td", "--format", "csv", "named:P_4")
    assert code == 2
    code, out, _ = run_cli("density-profile", "--family", "grids", "-r", "1",
                           "--sizes", "3,4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,m,r,density")
    assert len(lines) == 3


def test_text_format():
    code, out, _ = run_cli("oddset", "--format", "text", "named:C_6")
    assert code == 0
    assert out.splitlines()[0] == "size=2"


def test_missing_file_usage_error():
    code, _, err = run_cli("td", "/nonexistent/graph.el")
    assert code == 2


# Bad inputs as (file contents written to bad.*, arguments); "{dir}" is a
# directory and "{file}" the written file. Each must leave as one JSON
# error line on stderr with exit 2 and nothing on stdout.
BAD_INPUTS = [
    ("coloring-truncated-json", b'{"colors": [0, 1\n',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-not-json", b"0 1 0 1\n",
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-missing-colors", b'{"palette": 2}',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-top-level-list", b"[0, 1, 0, 1]",
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-colors-string", b'{"colors": "0101"}',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-colors-mixed", b'{"colors": [0, "1", 0, null]}',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-palette-string", b'{"colors": [0, 1, 0, 1], "palette": "3"}',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-deep-nesting", b"[" * 100000,
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-not-utf8", b'{"colors": [0, 1, 0, 1]}\xff',
     ["verify-ltd", "-p", "2", "--coloring", "{file}", "named:P_4"]),
    ("coloring-directory", b"",
     ["verify-ltd", "-p", "2", "--coloring", "{dir}", "named:P_4"]),
    ("graph-not-utf8", b"0 1\n1 \xff\xfe\n", ["td", "{file}"]),
    ("graph-directory", b"", ["td", "{dir}"]),
    ("graph-missing", b"", ["td", "{dir}/no_such_graph.el"]),
    ("profile-sizes-not-integers", b"",
     ["density-profile", "--family", "grids", "--sizes", "a,b"]),
]


@pytest.mark.parametrize("contents,args", [x[1:] for x in BAD_INPUTS],
                         ids=[x[0] for x in BAD_INPUTS])
def test_bad_input_is_one_json_error_line(tmp_path, contents, args):
    bad = tmp_path / "bad.input"
    bad.write_bytes(contents)
    args = [a.format(file=bad, dir=tmp_path) for a in args]
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    check("error", json.loads(lines[0]))


def test_nested_subdivision_names(capsys):
    # sub_p(...) nested 3,000 deep is K_2 again: no RecursionError
    from sparsekit import cli

    name = "named:" + "sub_0(" * 3000 + "K_2" + ")" * 3000
    for args in (["td"], ["gen"]):
        assert cli.main(args + [name]) == 0
        deep = capsys.readouterr()
        assert cli.main(args + ["named:K_2"]) == 0
        assert deep == capsys.readouterr() and deep.err == "", args


def test_td_exact_witness_on_a_deep_clique(capsys):
    # K_1200's witness forest is one path 1,200 deep: built without recursion
    from sparsekit import cli

    assert cli.main(["td", "--exact-limit", "2000", "named:K_1200"]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["treedepth"] == 1200 and out.err == ""


def test_td_exact_on_a_near_clique(tmp_path, capsys):
    # K_400 minus the edge between its two largest ids, read from a file:
    # the exact search deletes 399 vertices deep
    from sparsekit import Graph, cli

    n = 400
    path = tmp_path / "near_clique.el"
    path.write_text(serialize_edge_list(Graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (n - 2, n - 1)])))
    assert cli.main(["td", "--exact-limit", "500", str(path)]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["treedepth"] == n - 1 and out.err == ""


def test_verify_ltd_at_a_large_p(tmp_path, capsys):
    # p = 350 on P_700 coloured i mod 350: the whole path is one colour set,
    # decided by a search 350 budget levels deep
    from sparsekit import cli

    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"colors": [i % 350 for i in range(700)], "palette": 350}))
    assert cli.main(["verify-ltd", "-p", "350", "--coloring", str(ring), "named:P_700"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    check("verify-ltd", payload)
    assert payload["ok"] is True and out.err == ""


@pytest.mark.parametrize("args,digest", [
    (["cover", "-r", "2"], "f6cc8674d0861234213d9c2bffc5fcb55b6def4127b37ba91bf513fe03feb6c4"),
    (["dncolor", "-n", "3"], "6ba211eb471fce03082b52e4eaa266564365d2fc1ff244fcf46f4dd00d887e6f"),
], ids=["cover", "dncolor"])
def test_distance_commands_on_a_long_path(tmp_path, capsys, args, digest):
    # P_3000 read from a file: each r-ball and each distance-3 pair comes
    # from a BFS cut at that depth, not from a whole-graph BFS per vertex,
    # so either call takes well under the 3-s bound
    from sparsekit import cli

    path = tmp_path / "path.el"
    path.write_text(serialize_edge_list(named("P_3000")))
    start = time.perf_counter()
    code = cli.main(args + [str(path)])
    wall = time.perf_counter() - start
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    assert wall < 3.0, wall


def test_bench_tracer_names_resolve():
    # bench/tracer.py rebinds these by name; a renamed one breaks --trace runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TRACED.items():
        namespace = importlib.import_module(f"sparsekit.{module}")
        for name in names:
            assert inspect.isfunction(getattr(namespace, name, None)), (module, name)
