"""Command-line front end.

Deterministic by construction: payloads are emitted with sorted keys, carry
no timestamps, and every random generator takes an explicit seed. Exit
codes: 0 success, 1 validation/verification failure (witness in payload),
2 usage error, 3 budget/size refusal, 4 indeterminate. Errors go to stderr
as single-line JSON.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import applications, counting, decomposition, density, generators
from . import homomorphism, treedepth
from .errors import (
    BudgetExceededError,
    ParseError,
    SizeLimitError,
    SparsekitError,
    ValidationError,
)
from .graphs import named, parse_edge_list, serialize_edge_list

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_INDETERMINATE = 4


def load_graph(spec):
    """Graph from 'named:TOKEN', a generator spec, or an edge-list path."""
    if spec.startswith("named:"):
        return named(spec[len("named:"):])
    if "(" in spec and not Path(spec).exists():
        return generators.generate(spec)
    if not Path(spec).exists():
        raise ParseError(f"no such input: {spec}")
    return parse_edge_list(read_text(spec))


def read_text(spec):
    """UTF-8 text of a file, or of stdin for '-'; a ParseError otherwise."""
    try:
        return sys.stdin.read() if spec == "-" else Path(spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input {spec} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ParseError(f"cannot read input {spec}: {exc.strerror}") from None


def load_coloring(spec):
    """Coloring from JSON with an integer list "colors" and optional "palette"."""
    try:
        obj = json.loads(read_text(spec))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"coloring {spec} is not valid JSON: {exc}") from None
    obj = obj if isinstance(obj, dict) else {}
    colors, palette = obj.get("colors"), obj.get("palette")
    if not (isinstance(colors, list) and all(type(c) is int for c in colors)
            and (palette is None or type(palette) is int)):
        raise ParseError(f'coloring {spec} needs an integer list "colors" '
                         'and at most an integer "palette"')
    return treedepth.Coloring(colors, palette=palette)


def int_list(text):
    """Comma-separated integers; a bad token is a usage error."""
    return [int(tok) for tok in text.split(",") if tok]


def given(args, name):
    """The option as a keyword if it was given; otherwise the library default."""
    value = getattr(args, name)
    return {} if value is None else {name: value}


def emit(payload, fmt):
    stream = sys.stdout
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    elif fmt == "text":
        for key in sorted(payload):
            stream.write(f"{key}={json.dumps(payload[key], sort_keys=True)}\n")
    else:
        raise ValidationError(f"format {fmt!r} not supported for this command")


def emit_csv(rows, columns):
    stream = sys.stdout
    stream.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            cells.append("" if value is None else str(value))
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (exit_code, payload) or uses csv itself)

def cmd_td(args):
    g = load_graph(args.graph)
    value, forest = treedepth.treedepth_exact(g, **given(args, "exact_limit"))
    lower, upper, _ = treedepth.dfs_height_bounds(g)
    return EXIT_OK, {
        "treedepth": value,
        "witness": forest.to_json(),
        "dfs_bounds": {"log_lower": lower, "dfs_height": upper},
    }


def cmd_decompose(args):
    g = load_graph(args.graph)
    result = decomposition.ltd_coloring(g, args.p)
    return EXIT_OK, result.to_json()


def cmd_verify_ltd(args):
    g = load_graph(args.graph)
    coloring = load_coloring(args.coloring)
    outcome = decomposition.verify_ltd(g, args.p, coloring)
    payload = {
        "ok": outcome.ok,
        "counterexample": list(outcome.counterexample) if outcome.counterexample else None,
        "indeterminate": [],
    }
    return (EXIT_OK if outcome.ok else EXIT_FAILED), payload


# `count --method auto` enumerates when the anchor-tree bound on the maps the
# enumeration can reach is at most this many per host vertex. The value was
# calibrated (CHANGES.md) for an enumerator that took 1-2 us a map; the bitmask
# enumerator is several times faster a map, so on hub hosts the crossover now
# lies above it. A new value changes "method" and "palette" in stdout, so it
# waits for the re-measured route rule of ROADMAP item 4.
ENUMERATION_MAPS_PER_VERTEX = 1000


def cmd_count(args):
    host = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    query = counting.CountQuery(pattern, host, args.mode)
    method = args.method
    if method == "auto":
        cheap = host.n <= 20 or (counting.anchor_tree_bound(pattern, host)
                                 <= ENUMERATION_MAPS_PER_VERTEX * host.n)
        fits = pattern.n <= counting.BRUTEFORCE_PATTERN_LIMIT
        method = "bruteforce" if cheap and fits else "ltd"
    if method == "ltd":
        dec = decomposition.ltd_coloring(host, pattern.n)
        value = counting.count_ltd(query, decomposition=dec)
        palette = dec.coloring.palette
    else:
        # the host limit belongs to the oracle role; auto has bounded the work
        limits = {"host_limit": host.n} if args.method == "auto" else {}
        value = counting.count_bruteforce(query, **limits)
        palette = None
    return EXIT_OK, {
        "count": value,
        "method": method,
        "palette": palette,
        "mode": args.mode,
        "pattern": args.pattern,
    }


def cmd_density(args):
    g = load_graph(args.graph)
    measures = {"grad": density.grad, "topgrad": density.top_grad,
                "immgrad": density.imm_grad}
    if args.measure in measures:
        value, model = measures[args.measure](g, args.r, **given(args, "exact_limit"))
    else:  # nabla0
        value, witness = density.nabla0(g)
        return EXIT_OK, {
            "measure": "nabla0",
            "r": 0,
            "value": f"{value.numerator}/{value.denominator}",
            "witness": {"kind": "subgraph", "vertices": list(witness)},
        }
    return EXIT_OK, {
        "measure": args.measure,
        "r": args.r,
        "value": f"{value.numerator}/{value.denominator}",
        "witness": model.to_json(),
    }


PROFILE_COLUMNS = ["family", "n", "m", "r", "density", "density_float",
                   "exact", "witness_order", "witness_size", "log_density"]


def cmd_density_profile(args):
    rows = density.density_profile(args.family, args.r, args.sizes,
                                   **given(args, "exact_limit"))
    if args.format == "csv":
        emit_csv(rows, PROFILE_COLUMNS)
        return EXIT_OK, None
    return EXIT_OK, {"rows": rows}


def cmd_dncolor(args):
    g = load_graph(args.graph)
    coloring = applications.dn_coloring(g, args.n)
    valid = applications.verify_dn_coloring(g, args.n, coloring)
    return (EXIT_OK if valid else EXIT_FAILED), {
        "n": args.n,
        "palette": coloring.palette,
        "colors": list(coloring.assignment),
        "valid": valid,
    }


def cmd_cover(args):
    g = load_graph(args.graph)
    cover = applications.neighborhood_cover(g, args.r)
    valid, witness = applications.verify_cover(g, cover)
    payload = cover.to_json()
    payload["max_membership"] = cover.max_membership(g.n)
    payload["valid"] = valid
    payload["violation"] = list(witness) if witness else None
    return (EXIT_OK if valid else EXIT_FAILED), payload


def cmd_oddset(args):
    g = load_graph(args.graph)
    vertices = applications.max_odd_distance_set(g)
    return EXIT_OK, {"size": len(vertices), "vertices": list(vertices)}


def cmd_hom(args):
    g = load_graph(args.source)
    h = load_graph(args.target)
    witness = homomorphism.hom_exists(g, h, **given(args, "budget"))
    return EXIT_OK, {
        "exists": witness is not None,
        "witness": [witness[v] for v in range(g.n)] if witness is not None else None,
    }


def cmd_core(args):
    g = load_graph(args.graph)
    result = homomorphism.core(g, **given(args, "exact_limit"))
    return EXIT_OK, {
        "order": result.n,
        "size": result.m,
        "edges": [list(e) for e in result.edges],
    }


def cmd_dual_check(args):
    pattern = load_graph(args.pattern)
    dual = load_graph(args.dual)
    specs = []
    for token in args.family:
        path = Path(token)
        if path.is_dir():
            specs.extend(str(p) for p in sorted(path.glob("*.el")))
        else:
            specs.append(token)
    family = [load_graph(s) for s in specs]
    report = homomorphism.dual_check(pattern, dual, family, **given(args, "budget"))
    report["family"] = specs
    if report["violations"] or report["pattern_maps_to_dual"]:
        return EXIT_FAILED, report
    if report["indeterminate"]:
        return EXIT_INDETERMINATE, report
    return EXIT_OK, report


def cmd_choosable(args):
    g = load_graph(args.graph)
    answer = applications.is_k_choosable(g, args.k)
    return EXIT_OK, {"k": args.k, "choosable": answer}


def cmd_scan(args):
    g = load_graph(args.graph)
    report = applications.induced_pattern_scan(g, args.s, args.t, args.q)
    return EXIT_OK, report


def cmd_gen(args):
    spec = args.spec
    if spec.startswith("named:"):
        spec = spec[len("named:"):]
    g = generators.generate(spec)
    sys.stdout.write(serialize_edge_list(g))
    return EXIT_OK, None


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so usage errors can
    be reported as single-line JSON with exit code 2."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser():
    """The one parser of the process, built on first use: parsing keeps no
    state in it, so every call of main starts from the same defaults."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
    common.add_argument("--exact-limit", type=int, default=None,
                        help="override the exact-computation size limit")
    common.add_argument("--budget", type=int, default=None,
                        help="search-node budget for homomorphism queries")
    common.add_argument("--threads", type=int, default=1,
                        help="worker hint; results are identical for any value")

    parser = _Parser(
        prog="sparsekit",
        description="structural sparse-graph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("td", parents=[common], help="exact tree-depth with witness")
    p.add_argument("graph")
    p.set_defaults(func=cmd_td)

    p = sub.add_parser("decompose", parents=[common],
                       help="low tree-depth decomposition")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-ltd", parents=[common],
                       help="verify a decomposition JSON against a graph")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--coloring", required=True,
                   help="decomposition JSON path, or - for stdin")
    p.add_argument("graph")
    p.set_defaults(func=cmd_verify_ltd)

    p = sub.add_parser("count", parents=[common], help="count pattern occurrences")
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=["subgraph", "induced"], default="subgraph")
    p.add_argument("--method", choices=["auto", "ltd", "bruteforce"], default="auto")
    p.add_argument("graph")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("density", parents=[common], help="shallow density measures")
    p.add_argument("--measure", choices=["nabla0", "grad", "topgrad", "immgrad"],
                   default="grad")
    p.add_argument("-r", type=int, default=0)
    p.add_argument("graph")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("density-profile", parents=[common],
                       help="logarithmic-density trajectory of a family")
    p.add_argument("--family", required=True)
    p.add_argument("-r", type=int, default=1)
    p.add_argument("--sizes", required=True, type=int_list,
                   help="comma-separated sizes")
    p.set_defaults(func=cmd_density_profile)

    p = sub.add_parser("dncolor", parents=[common], help="exact-distance coloring")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_dncolor)

    p = sub.add_parser("cover", parents=[common], help="r-neighborhood cover")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("oddset", parents=[common],
                       help="maximum pairwise-odd-distance set")
    p.add_argument("graph")
    p.set_defaults(func=cmd_oddset)

    p = sub.add_parser("hom", parents=[common], help="homomorphism existence")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("core", parents=[common], help="homomorphism core")
    p.add_argument("graph")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("dual-check", parents=[common],
                       help="restricted-duality check over a family")
    p.add_argument("--pattern", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument("family", nargs="+",
                   help="graph specs or a directory of .el files")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("choosable", parents=[common],
                       help="brute-force k-choosability")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_choosable)

    p = sub.add_parser("scan", parents=[common],
                       help="induced P_s / K_t / K_{q,q} scan")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("gen", parents=[common],
                       help="emit a catalog or generated graph as an edge list")
    p.add_argument("spec")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command != "density-profile":
            raise ParseError("csv output is only available for density-profile")
        code, payload = args.func(args)
        if payload is not None:
            emit(payload, args.format)
        return code
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except ParseError as exc:
        return _fail(exc, EXIT_USAGE)
    except SizeLimitError as exc:
        return _fail(exc, EXIT_REFUSED)
    except BudgetExceededError as exc:
        return _fail(exc, EXIT_INDETERMINATE)
    except decomposition.LtdVerificationError as exc:
        _error_json(exc, extra={"counterexample": list(exc.counterexample)})
        return EXIT_FAILED
    except ValidationError as exc:
        return _fail(exc, EXIT_FAILED)
    except SparsekitError as exc:
        return _fail(exc, EXIT_FAILED)
    except FileNotFoundError as exc:
        return _fail(exc, EXIT_USAGE)


def _fail(exc, code):
    _error_json(exc)
    return code


def _error_json(exc, extra=None):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if extra:
        payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
