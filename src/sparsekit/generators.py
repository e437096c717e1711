"""Seeded random-graph generators for the test corpus and CLI `gen`.

Everything is driven by the pinned xoshiro256** generator, so a
(spec, seed) pair reproduces the same edge list byte-for-byte.
"""

import re

from .errors import ValidationError
from .graphs import Graph, named
from .rng import Xoshiro256


def random_tree(n, seed):
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    if n < 1:
        raise ValidationError("tree needs at least one vertex")
    rng = Xoshiro256(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


# Sampling attempts per target edge of bounded_degree_graph and per vertex
# of girth5_graph.
ATTEMPTS_PER_EDGE = 20
GIRTH5_ATTEMPTS_PER_VERTEX = 30


def bounded_degree_graph(n, d, seed):
    """Random simple graph with maximum degree <= d (edge-sampling with
    rejection; connectivity is not guaranteed)."""
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    rng = Xoshiro256(seed)
    target = n * d // 2
    deg = [0] * n
    edges = set()
    for _ in range(target * ATTEMPTS_PER_EDGE):
        if len(edges) == target:
            break
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges or deg[u] >= d or deg[v] >= d:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return Graph(n, sorted(edges))


def girth5_graph(n, seed):
    """Random graph of girth >= 5: an edge is added only when its endpoints
    are currently at distance >= 4, so every created cycle has length >= 5."""
    if n < 2:
        raise ValidationError("need n >= 2")
    rng = Xoshiro256(seed)
    edges = []
    adj = [[] for _ in range(n)]
    for _ in range(GIRTH5_ATTEMPTS_PER_VERTEX * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        dist = _dist_within(adj, u, v, 4)
        if dist < 4:
            continue
        edges.append((u, v) if u < v else (v, u))
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, sorted(set(edges)))


def _dist_within(adj, u, v, cap):
    """Hop distance from u to v, clamped to cap when larger/unreachable."""
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    for d in range(1, cap):
        nxt = []
        for x in frontier:
            for w in adj[x]:
                if w == v:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return cap


def triangulation(n, seed):
    """Random planar triangulation (Apollonian growth): start from a
    triangle and repeatedly place a new vertex inside a random face."""
    if n < 3:
        raise ValidationError("triangulation needs n >= 3")
    rng = Xoshiro256(seed)
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        edges.extend([(a, v), (b, v), (c, v)])
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return Graph(n, edges)


_GEN_RES = [
    ("random_tree", re.compile(r"^random_tree\((\d+),\s*(\d+)\)$")),
    ("bounded_degree", re.compile(r"^bounded_degree\((\d+),\s*(\d+),\s*(\d+)\)$")),
    ("girth5", re.compile(r"^girth5\((\d+),\s*(\d+)\)$")),
    ("triangulation", re.compile(r"^triangulation\((\d+),\s*(\d+)\)$")),
]


def generate(spec):
    """Build a graph from a generator spec or a catalog name.

    Grammar: random_tree(n,seed), bounded_degree(n,d,seed), girth5(n,seed),
    triangulation(n,seed), or any named-catalog token.
    """
    for kind, rx in _GEN_RES:
        mt = rx.match(spec)
        if not mt:
            continue
        args = [int(x) for x in mt.groups()]
        if kind == "random_tree":
            return random_tree(*args)
        if kind == "bounded_degree":
            return bounded_degree_graph(*args)
        if kind == "girth5":
            return girth5_graph(*args)
        if kind == "triangulation":
            return triangulation(*args)
    return named(spec)
