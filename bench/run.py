"""sparsekit benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload {ltd-large,ltd-corpus,count,cli-cold}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of stdout carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separate
traced run, whose full layer table is also written to
``bench/out/trace-<workload>-<seed>.json``. See bench/README.md.

Each run is single-threaded with at most one child process alive: fresh
worker processes time set-up, one more runs the closed loop (for cli-cold
this process starts one ``python -m sparsekit`` at a time instead), and the
outputs are checked afterwards against ``checks``, outside every timing.
"""

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import closed_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
SETUP_PROBES = 12  # fresh processes per run whose median set-up is reported
LAUNCH_PROBES = 5  # fresh interpreters per traced run for cli.*_ms


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ltd-large", "ltd-corpus", "count", "cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "sparsekit" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'sparsekit'} is missing\n")
        return 2
    # The first import after a checkout would compile bytecode inside the
    # measured set-up; compile it now so every run starts from the same state.
    if not compileall.compile_dir(str(SRC / "sparsekit"), quiet=1):
        sys.stderr.write("compiling sparsekit failed\n")
        return 2

    plan = workloads.plan(args.workload, args.seed)
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(plan, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(plan, args, work):
    for name, text in plan["files"].items():
        (work / name).write_text(text, encoding="utf-8")
    worker_plan = {
        "kind": plan["kind"], "ops": plan["ops"], "seconds": args.seconds,
        "min_rounds": plan["min_rounds"], "src": str(SRC), "workdir": str(work),
        "texts": {name: workloads.edge_list_text(*g)
                  for name, g in plan["graphs"].items()},
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(worker_plan), encoding="utf-8")

    if args.trace:
        run, _ = run_worker("trace", plan_path, work)
        bad = verdicts(plan, run["outputs"], run["differs"])
        layers = layer_metrics(plan, run)
        report = {k: v for k, v in run.items() if k not in ("latencies_ns", "outputs")}
        report.update(metrics=layers, failed_checks=bad,
                      ops_per_s=len(run["latencies_ns"]) / (run["elapsed_ns"] / 1e9))
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return summary(plan, run, bad, layers)

    # Set-up: the median of fresh processes, half of them before and half
    # after the timed phase so that they see the machine at two moments.
    def setup_probes(count):
        return [run_worker("setup", plan_path, work)[0]["setup_s"] for _ in range(count)]

    setups = setup_probes(SETUP_PROBES // 2 + 1)[1:]  # the first one warms caches
    if plan["kind"] == "cli":
        run, peak_kb = cli_loop(plan, args.seconds, work)
    else:
        run, peak_kb = run_worker("run", plan_path, work)
    setups += setup_probes(SETUP_PROBES // 2)
    bad = verdicts(plan, run["outputs"], run["differs"])
    lat = sorted(run["latencies_ns"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / (run["elapsed_ns"] / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail(lat, plan["tail_pct"]) / 1e6, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return summary(plan, run, bad, metrics)


def summary(plan, run, bad, metrics):
    """The result line; ``metrics`` maps name -> (value, unit). Failures
    repeat in every round, so failed is a fixed share of attempted."""
    unexpected = [name for name in bad if name not in workloads.KNOWN_FAULTS]
    for name in bad:
        sys.stderr.write(f"operation {name} failed its check: {bad[name]}\n")
    return {"correct": not unexpected, "attempted": len(run["latencies_ns"]),
            "failed": run["rounds"] * len(bad),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def tail(sorted_values, pct):
    """Nearest-rank percentile; the plan guarantees ten samples beyond it."""
    rank = math.ceil(pct / 100 * len(sorted_values))
    if len(sorted_values) - rank < 10:
        raise RuntimeError(f"p{pct} of {len(sorted_values)} samples has fewer than ten beyond it")
    return sorted_values[rank - 1]


def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd, stdout, stderr):
    """Run one child to its end; returns (exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=stdout, stderr=stderr,
                            env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def run_worker(mode, plan_path, work):
    out_path = work / f"{mode}.json"
    rc, peak_kb = spawn([sys.executable, str(BENCH / "worker.py"), mode,
                         str(plan_path), str(out_path)],
                        work, subprocess.DEVNULL, None)
    if rc != 0:
        raise SystemExit(f"worker {mode} exited with {rc}")
    return json.loads(out_path.read_text(encoding="utf-8")), peak_kb


def cli_loop(plan, seconds, work):
    """Closed loop over fresh ``python -m sparsekit`` processes."""
    out_path, err_path = work / "stdout", work / "stderr"
    peak_kb = 0

    def call(op):
        nonlocal peak_kb
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            rc, peak = spawn([sys.executable, "-m", "sparsekit", *op["argv"]],
                             work, out, err)
        peak_kb = max(peak_kb, peak)
        return [rc, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8")]

    call(plan["ops"][0])  # warm-up, as in the worker
    run = closed_loop(call, plan["ops"], seconds, plan["min_rounds"])
    return run, peak_kb


# ---------------------------------------------------------------------------
# checks

def verdicts(plan, outputs, differs):
    """Map operation name -> reason, for every operation whose output is
    wrong or not repeated byte for byte in later rounds."""
    bad = {}
    expected = {}
    for i, (op, out) in enumerate(zip(plan["ops"], outputs)):
        name = op.get("name") or f"op{i}:{op.get('graph') or op['host']}"
        if i in differs:
            bad[name] = "output differs between rounds"
            continue
        try:
            reason = check_op(plan, op, out, expected)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            bad[name] = reason
    return bad


def check_op(plan, op, out, expected):
    graphs = plan["graphs"]
    if plan["kind"] == "ltd":
        n, edges = graphs[op["graph"]]
        violation = checks.ltd_violation(n, edges, out, op["p"])
        return violation and f"colour set {violation} breaks p={op['p']}"
    rc, stdout, stderr = out
    if plan["kind"] == "count":
        if op["host"] not in expected:
            g = graphs[op["host"]]
            expected[op["host"]] = {"subgraph": checks.subgraph_counts(*g),
                                    "induced": checks.induced_counts(*g)}
        got = checks.payload(stdout)
        want = expected[op["host"]][op["mode"]][op["pattern"]]
        if rc != 0 or got["count"] != want or got["mode"] != op["mode"]:
            return f"exit {rc}, count {got['count']} != {want}"
        return None
    return check_cli(plan, op["name"], rc, stdout, stderr)


def check_cli(plan, name, rc, stdout, stderr):
    g = plan["graphs"]
    if name in ("verify-ltd-malformed", "missing-input"):
        return checks.check_error(rc, stdout, stderr)
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[-200:]}"
    if name == "gen":
        n, edges = checks.parse_edge_list(stdout)
        ok = n == plan["gen_n"] and checks.is_tree(n, edges)
        return None if ok else "gen output is not a tree of the asked order"
    out = checks.payload(stdout)
    if name in ("td-path", "td-P7"):
        n, edges = g["path"] if name == "td-path" else workloads.path(7)
        return checks.check_td(n, edges, out, math.ceil(math.log2(n + 1)))
    if name == "decompose":
        violation = checks.ltd_violation(*g["dec"], out["colors"], 2)
        return violation and f"colour set {violation} breaks p=2"
    if name == "verify-ltd":
        ok = out == {"ok": True, "counterexample": None, "indeterminate": []}
        return None if ok else f"centred colouring rejected: {out}"
    if name == "count-K3-Petersen":
        return None if out["count"] == 0 else f"count {out['count']} != 0"
    if name == "count-P4":
        want = checks.subgraph_counts(*g["small"])["P_4"]
        return None if out["count"] == want else f"count {out['count']} != {want}"
    if name == "grad-Petersen":
        return checks.check_minor_density(*g["petersen"], out, 1, 2)
    if name == "hom-K3-Petersen":
        none = checks.subgraph_counts(*g["petersen"])["K_3"] == 0
        return None if out["exists"] is not none else f"exists={out['exists']}"
    if name.startswith("hom-"):
        src = g["c5"] if name == "hom-C5-K3" else g["bip"]
        target = [(0, 1), (0, 2), (1, 2)] if name == "hom-C5-K3" else [(0, 1)]
        return checks.check_hom(src[1], target, out["witness"]) if out["exists"] else "no witness"
    if name == "cover":
        return checks.check_cover(*g["cover"], out)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# traced run

def launch_ms(code):
    """Median wall time of fresh interpreters running ``code``, and of the
    time they report for it."""
    walls, inner = [], []
    for _ in range(LAUNCH_PROBES):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=child_env(), cwd=ROOT, check=True, text=True)
        walls.append((time.perf_counter() - t) * 1e3)
        if proc.stdout.strip():
            inner.append(float(proc.stdout) * 1e3)
    return statistics.median(walls), statistics.median(inner) if inner else None


def layer_metrics(plan, run):
    """Per-round layer figures of a traced run, as (value, unit)."""
    table, setup = run["layers"], run["setup_layers"]
    round_ms = run["elapsed_ns"] / 1e6 / run["rounds"]
    m = {}
    for name in ("graphs.smallest_last_order", "graphs.degeneracy_orientation",
                 "treedepth.greedy_smallest_last_coloring",
                 "treedepth.treedepth_at_most", "decomposition.tf_augment",
                 "decomposition._orient_smallest_last",
                 "decomposition.verify_ltd", "decomposition.ltd_coloring"):
        m[name + ".self_ms"] = (table[name]["self_ms"], "ms")
    m["graphs.parse_edge_list.self_ms"] = (setup["graphs.parse_edge_list"]["self_ms"], "ms")
    # Layers some workload never calls: their self time as a share of the
    # traced round, since a time of exactly 0 would repeat on every run.
    for name in ("graphs.induced_subgraph", "counting.count_ltd",
                 "counting.count_bruteforce", "counting.automorphism_count",
                 "cli.main", "density.grad", "homomorphism.hom_exists",
                 "applications.neighborhood_cover"):
        m[name + ".self_pct"] = (100 * table[name]["self_ms"] / round_ms, "%")
    for name in ("graphs.smallest_last_order", "graphs.induced_subgraph",
                 "treedepth.treedepth_at_most", "decomposition.tf_augment",
                 "decomposition.verify_ltd", "counting.count_ltd",
                 "counting.count_bruteforce", "cli.main"):
        m[name + ".calls"] = (table[name]["calls"], "count")
    verify_calls = table["decomposition.verify_ltd"]["calls"]
    m["decomposition.verify_ltd.ok_ratio"] = (
        run["verify_ok"] / verify_calls if verify_calls else 0.0, "ratio")
    colorings = table["decomposition.ltd_coloring"]["calls"]
    tried = sum(c for p, n, c in run["parents"]
                if (p, n) == ("decomposition.ltd_coloring", "decomposition.verify_ltd"))
    m["decomposition.ltd_coloring.rounds_tried"] = (tried / colorings, "count")
    m["decomposition.ltd_coloring.palette_mean"] = (statistics.mean(run["palettes"]), "count")
    routes = {"ltd": 0, "bruteforce": 0}
    if plan["kind"] != "ltd":
        for op, (rc, stdout, _) in zip(plan["ops"], run["outputs"]):
            if op["argv"][0] == "count" and rc == 0:
                routes[checks.payload(stdout)["method"]] += 1
    m["cli.count.route_ltd"] = (routes["ltd"], "count")
    m["cli.count.route_bruteforce"] = (routes["bruteforce"], "count")
    interpreter, _ = launch_ms("pass")
    _, import_ms = launch_ms("import time; t = time.perf_counter(); import sparsekit.cli; "
                             "print(time.perf_counter() - t)")
    m["cli.interpreter_ms"] = (interpreter, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
