"""One fresh process of the benchmark: sets the program up and, unless asked
for set-up only, drives a workload's operations in a closed loop.

    python3 bench/worker.py {setup|run|trace} PLAN.json OUT.json

Set-up is timed from just before ``import sparsekit`` to just after the last
input has been turned into a graph by ``parse_edge_list``; reading the plan
is the benchmark's own work and is not timed. The timed phase repeats whole
rounds of the plan's operations until ``seconds`` have passed and at least
``min_rounds`` rounds have run; one operation starts only after the previous
one returned.
"""

import contextlib
import io
import json
import os
import sys
import time


def main(mode, plan_path, out_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    os.chdir(plan["workdir"])  # the CLI operations name their input files relatively

    started = time.perf_counter()
    import sparsekit
    if plan["kind"] != "ltd" or mode == "trace":
        import sparsekit.cli
    if mode == "trace":
        import tracer
        trace = tracer.Tracer()
        if plan["kind"] == "cli":
            # The timed cli-cold loop starts a process per call, so the
            # tracing overhead is taken against this in-process loop instead.
            call = _operation("cli", None, sparsekit)
            call(plan["ops"][0])
            untraced = closed_loop(call, plan["ops"], 0, plan["min_rounds"])
        trace.install()
    graphs = {name: sparsekit.parse_edge_list(text) for name, text in plan["texts"].items()}
    setup_s = time.perf_counter() - started

    if not os.path.samefile(os.path.dirname(sparsekit.__file__),
                            os.path.join(plan["src"], "sparsekit")):
        raise SystemExit(f"imported sparsekit from {sparsekit.__file__}")
    result = {"setup_s": setup_s}
    if mode != "setup":
        call = _operation(plan["kind"], graphs, sparsekit)
        if mode == "trace":
            result["setup_layers"] = trace.table(1)
        call(plan["ops"][0])  # warm-up: lazy imports and first-call costs stay untimed
        if mode == "trace":
            trace.reset()
        result.update(closed_loop(call, plan["ops"], plan["seconds"],
                                   plan["min_rounds"]))
        if mode == "trace":
            rounds = result["rounds"]
            result["layers"] = trace.table(rounds)
            result["parents"] = [[p, n, c / rounds] for (p, n), c in sorted(
                trace.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
            result["verify_ok"] = trace.verify_ok / rounds
            result["palettes"] = trace.palettes
            if plan["kind"] == "cli":
                result["untraced_ops_per_s"] = (len(untraced["latencies_ns"])
                                                / (untraced["elapsed_ns"] / 1e9))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _operation(kind, graphs, sparsekit):
    """The call one operation makes, returning a JSON-able output."""
    if kind == "ltd":
        def call(op):
            return list(sparsekit.ltd_coloring(graphs[op["graph"]], op["p"])
                        .coloring.assignment)
        return call

    cli = sys.modules["sparsekit.cli"]

    def call(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(op["argv"]))
            except Exception as exc:  # an uncaught error is an output to check
                rc = "uncaught " + type(exc).__name__
        return [rc, out.getvalue(), err.getvalue()]
    return call


def closed_loop(call, ops, seconds, min_rounds):
    """Whole rounds of ``ops``, one call at a time: at least ``min_rounds``,
    then more while another round would end less than half a mean round past
    ``seconds``. Returns the latencies, the first round's outputs and the
    operations whose output ever differed."""
    clock = time.perf_counter_ns
    latencies, outputs = [], []
    rounds = 0
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    while True:
        for op in ops:
            t = clock()
            outputs.append(call(op))
            latencies.append(clock() - t)
        rounds += 1
        now = clock()
        if rounds >= min_rounds and now + (now - begin) / rounds / 2 >= deadline:
            break
    elapsed = clock() - begin
    first = outputs[:len(ops)]
    differs = sorted({i % len(ops) for i, out in enumerate(outputs)
                      if out != first[i % len(ops)]})
    return {"rounds": rounds, "elapsed_ns": elapsed, "latencies_ns": latencies,
            "outputs": first, "differs": differs}


if __name__ == "__main__":
    main(*sys.argv[1:4])
