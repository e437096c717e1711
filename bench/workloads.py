"""The benchmark's own seeded input generator and the four workload plans.

Everything here uses only the standard library (``random`` seeded from the
command line), so a change to ``sparsekit.generators`` cannot change what the
benchmark runs. Graphs are plain ``(n, edges)`` pairs on vertices 0..n-1 and
reach the program only as edge-list text.

A plan lists one *round*: a fixed sequence of operations. A run repeats whole
rounds until its time is up (and at least ``min_rounds`` times), so every run
attempts the same operations in the same proportions whatever its length.
"""

import heapq
import json
import random

PATTERNS = ("P_3", "P_4", "K_3", "C_4", "K_1,3")
MODES = ("subgraph", "induced")

# Fixed make-up of each workload; the seed only changes the random structure
# and the vertex numbering of the graphs, never their families or sizes.
LTD_LARGE_SIZES = {
    "tree": (500, 600, 700, 900, 1200, 2000),
    "triangulation": (500, 600, 700, 900, 1200, 1600),
    "maxdeg4": (500, 550, 600, 700, 800, 1000),
}
LTD_CORPUS = (
    [("tree", n) for n in (30, 45, 60, 75, 80, 90, 105, 120, 135, 150, 165,
                           170, 190, 200, 200)]
    + [("grid", rc) for rc in ((3, 4), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8),
                               (9, 13), (10, 10), (12, 12), (14, 14))]
    + [("triangulation", n) for n in (20, 35, 40, 50, 60, 65, 75, 80, 90, 95,
                                      110, 130, 150)]
    + [("maxdeg4", n) for n in (40, 55, 70, 85, 100, 115, 130, 145, 160, 175,
                                190, 200)]
)
# Two hosts each of the families whose DP cost varies most with the random
# structure, so that one unlucky host does not set a run's figures.
COUNT_HOSTS = (
    ("tree", 100), ("grid", (6, 8)), ("triangulation", 36), ("triangulation", 40),
    ("maxdeg4", 40), ("maxdeg4", 50), ("star", 60), ("k2b", 60), ("star", 14),
    ("k2b", 12),
)


def rng_for(workload, seed, *labels):
    """An independent, reproducible stream per (workload, seed, labels)."""
    return random.Random(":".join(str(x) for x in (workload, seed) + labels))


# ---------------------------------------------------------------------------
# graph families

def relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def tree(n, rng):
    """Uniform random labelled tree, decoded from a random Pruefer word."""
    if n == 1:
        return 1, []
    if n == 2:
        return 2, [(0, 1)]
    word = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in word:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in word:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return n, sorted(edges)


def triangulation(n, rng):
    """Random stacked planar triangulation: each new vertex goes into a
    uniformly chosen face and is joined to its three corners."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges += [(a, v), (b, v), (c, v)]
        faces[i] = (a, b, v)
        faces += [(a, c, v), (b, c, v)]
    return relabel(n, edges, rng)


def maxdeg4(n, rng):
    """Random graph of maximum degree 4: uniform pairs are accepted while both
    ends have spare degree, until 90% of the 2n edge slots are used or the
    attempts run out."""
    target = (9 * 2 * n) // 10
    degree = [0] * n
    edges = set()
    for _ in range(40 * target):
        if len(edges) == target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u == v or e in edges or degree[u] == 4 or degree[v] == 4:
            continue
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
    return n, sorted(edges)


def grid(rows, cols, rng):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return relabel(rows * cols, edges, rng)


def star(leaves, rng):
    return relabel(leaves + 1, [(0, i) for i in range(1, leaves + 1)], rng)


def k2b(b, rng):
    """Complete bipartite K_{2,b}: two hubs joined to b independent vertices."""
    return relabel(b + 2, [(h, 2 + i) for h in (0, 1) for i in range(b)], rng)


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def petersen():
    return 10, ([(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def make(family, size, rng):
    if family == "grid":
        return grid(size[0], size[1], rng)
    return {"tree": tree, "triangulation": triangulation, "maxdeg4": maxdeg4,
            "star": star, "k2b": k2b}[family](size, rng)


def edge_list_text(n, edges):
    """Edge-list text whose '# vertex' header pins ids 0..n-1, so the
    program numbers the vertices exactly as the benchmark does."""
    lines = [f"# vertex {v}" for v in range(n)]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# plans

def plan(workload, seed):
    """The inputs and one round of operations of a workload.

    Returns a dict with ``graphs`` (name -> (n, edges)), ``files`` (file
    name -> text written next to the run), ``ops``, ``tail_pct``,
    ``min_rounds`` and ``kind`` ('ltd', 'count' or 'cli').
    """
    builders = {"ltd-large": _ltd_large, "ltd-corpus": _ltd_corpus,
                "count": _count, "cli-cold": _cli_cold}
    return builders[workload](seed)


def _ltd_large(seed):
    graphs, ops = {}, []
    for family, sizes in LTD_LARGE_SIZES.items():
        for n in sizes:
            name = f"{family}_{n}"
            graphs[name] = make(family, n, rng_for("ltd-large", seed, name))
            ops.append({"graph": name, "p": 2})
    # 18 operations a round; three rounds leave 13 beyond p75.
    return {"kind": "ltd", "graphs": graphs, "files": {}, "ops": ops,
            "tail_pct": 75, "min_rounds": 3}


def _ltd_corpus(seed):
    graphs, ops = {}, []
    for i, (family, size) in enumerate(LTD_CORPUS):
        name = f"{i:02d}_{family}"
        graphs[name] = make(family, size, rng_for("ltd-corpus", seed, name))
        ops += [{"graph": name, "p": p} for p in (2, 3, 4)]
    # 150 operations a round; two rounds leave 15 beyond p95.
    return {"kind": "ltd", "graphs": graphs, "files": {}, "ops": ops,
            "tail_pct": 95, "min_rounds": 2}


def _count(seed):
    graphs, files, ops = {}, {}, []
    for i, (family, size) in enumerate(COUNT_HOSTS):
        name = f"host{i}_{family}"
        graphs[name] = make(family, size, rng_for("count", seed, name))
        files[name + ".el"] = edge_list_text(*graphs[name])
        for pattern in PATTERNS:
            for mode in MODES:
                ops.append({"host": name, "pattern": pattern, "mode": mode,
                            "argv": ["count", "--pattern", "named:" + pattern,
                                     "--mode", mode, "--method", "auto",
                                     name + ".el"]})
    # 100 operations a round; two rounds leave 10 beyond p95.
    return {"kind": "count", "graphs": graphs, "files": files, "ops": ops,
            "tail_pct": 95, "min_rounds": 2}


def ruler_coloring(n):
    """Colour vertex i of a path by the 2-adic valuation of i+1: a centred
    colouring, so any I colour classes induce tree-depth <= |I|."""
    return [((i + 1) & -(i + 1)).bit_length() - 1 for i in range(n)]


# Operations of cli-cold whose inputs do not depend on the seed and that fail
# every time because of program faults (see the README).
KNOWN_FAULTS = ("td-P7", "verify-ltd-malformed")


def _cli_cold(seed):
    rng = rng_for("cli-cold", seed)
    # n+1 is never a power of two here, so the td payload's log bound cannot
    # exceed ceil(log2(n+1)) whatever the DFS height.
    path_n = rng.choice((5, 6, 8, 9, 10, 11, 12, 13))
    ruler_n = rng.randrange(9, 17)
    graphs = {
        "path": path(path_n),
        "ruler_path": path(ruler_n),
        "dec": make("tree", rng.randrange(16, 25), rng_for("cli-cold", seed, "dec")),
        "small": make("maxdeg4", rng.randrange(12, 19), rng_for("cli-cold", seed, "small")),
        "cover": make("grid", (3, rng.randrange(3, 6)), rng_for("cli-cold", seed, "cover")),
        "bip": make("tree", rng.randrange(8, 15), rng_for("cli-cold", seed, "bip")),
        "petersen": petersen(),
        "c5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    }
    files = {name + ".el": edge_list_text(*g) for name, g in graphs.items()}
    colors = ruler_coloring(ruler_n)
    files["ruler.json"] = json.dumps({"colors": colors, "palette": max(colors) + 1})
    files["malformed.json"] = '{"colors": [0, 1\n'
    gen_n, gen_seed = rng.randrange(8, 30), rng.randrange(1000)
    ops = [
        ("td-path", ["td", "path.el"]),
        ("td-P7", ["td", "named:P_7"]),
        ("decompose", ["decompose", "-p", "2", "dec.el"]),
        ("verify-ltd", ["verify-ltd", "-p", "3", "--coloring", "ruler.json",
                        "ruler_path.el"]),
        ("verify-ltd-malformed", ["verify-ltd", "-p", "2", "--coloring",
                                  "malformed.json", "named:P_4"]),
        ("count-K3-Petersen", ["count", "--pattern", "named:K_3",
                               "named:Petersen"]),
        ("count-P4", ["count", "--pattern", "named:P_4", "small.el"]),
        ("grad-Petersen", ["density", "--measure", "grad", "-r", "1",
                           "petersen.el"]),
        ("hom-C5-K3", ["hom", "c5.el", "named:K_3"]),
        ("hom-tree-K2", ["hom", "bip.el", "named:K_2"]),
        ("hom-K3-Petersen", ["hom", "named:K_3", "named:Petersen"]),
        ("cover", ["cover", "-r", "1", "cover.el"]),
        ("gen", ["gen", f"random_tree({gen_n},{gen_seed})"]),
        ("missing-input", ["td", "no_such_input.el"]),
    ]
    ops = [{"name": name, "argv": argv} for name, argv in ops]
    # 14 operations a round; eight rounds leave 11 beyond p90.
    return {"kind": "cli", "graphs": graphs, "files": files, "ops": ops,
            "tail_pct": 90, "min_rounds": 8, "gen_n": gen_n}
