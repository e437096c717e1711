"""Immutable simple-graph core: construction, catalog, traversal, exact ω/χ.

Vertices are dense integer ids 0..n-1; an optional label tuple maps ids back
to external tokens. All algorithms work on ids, which keeps vertex subsets
representable as Python-int bitmasks (the workhorse of the exact solvers in
the treedepth and density modules).
"""

import math
import re
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import ParseError, SizeLimitError, ValidationError

INFINITY = math.inf


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    No self-loops, no parallel edges. Construction validates; afterwards the
    object is read-only and safe to share across threads.
    """

    __slots__ = ("n", "edges", "labels", "_adj", "_adj_mask")

    def __init__(self, n, edges, labels=None):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for u, v in edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) endpoint out of range [0,{n})")
            e = (u, v) if u < v else (v, u)
            if e not in seen:
                seen.add(e)
                norm.append(e)
        norm.sort()
        self.n = n
        self.edges = tuple(norm)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValidationError("label map must cover every vertex")
            if len(set(labels)) != n:
                raise ValidationError("labels must be distinct")
        self.labels = labels
        adj = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._adj_mask = None  # built on first use

    @property
    def m(self):
        return len(self.edges)

    @property
    def adj(self):
        return self._adj

    @property
    def adj_mask(self):
        if self._adj_mask is None:
            self._adj_mask = tuple(mask_of(a) for a in self._adj)
        return self._adj_mask

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return bool((self._adj_mask or self.adj_mask)[u] >> v & 1) if u != v else False

    def label_of(self, v):
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# bitmask helpers (shared by the exact solvers)

def component_masks(adj_mask, mask):
    """Yield the connected components of the graph induced on the vertex
    bitmask, as bitmasks, by smallest member."""
    rest = mask
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        while frontier:
            v = frontier & -frontier
            frontier ^= v
            nbrs = adj_mask[v.bit_length() - 1] & mask & ~comp
            comp |= nbrs
            frontier |= nbrs
        yield comp
        rest &= ~comp


def is_connected_mask(adj_mask, mask):
    """True iff the vertex bitmask induces a connected graph (or is empty):
    the first component component_masks yields is all of it."""
    return next(component_masks(adj_mask, mask), 0) == mask


def within_radius(adj_mask, mask, bound):
    """True iff the subgraph induced on the vertex bitmask has radius at
    most bound: a BFS inside the mask from one of its vertices, cut at
    depth bound, reaches all of it. False for the empty mask, a
    disconnected mask and a negative bound."""
    if bound < 0:
        return False
    for root in mask_vertices(mask):
        seen = frontier = 1 << root
        depth = 0
        while seen != mask and frontier and depth < bound:
            nxt = 0
            for v in mask_vertices(frontier):
                nxt |= adj_mask[v] & mask & ~seen
            seen |= nxt
            frontier = nxt
            depth += 1
        if seen == mask:
            return True
    return False


def mask_vertices(mask):
    out = []
    while mask:
        v = mask & -mask
        out.append(v.bit_length() - 1)
        mask ^= v
    return out


def mask_edges(adj_mask, mask):
    """Number of edges with both ends in the vertex bitmask."""
    return sum((adj_mask[v] & mask).bit_count() for v in mask_vertices(mask)) // 2


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# edge-list text format

def parse_edge_list(text):
    """Parse the edge-list text format into a Graph.

    One edge per line as two whitespace-separated tokens; '#' starts a
    comment, blank lines are ignored. The structured comment form
    '# vertex TOK' declares an isolated vertex (needed to round-trip
    edgeless graphs; foreign parsers see an ordinary comment).

    Ids are assigned in first-appearance order. Duplicate edges collapse
    silently; self-loops are rejected. If every token is the decimal string
    of its own dense id the label map is dropped.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    ids = {}
    order = []

    def intern(tok):
        if tok not in ids:
            ids[tok] = len(order)
            order.append(tok)
        return ids[tok]

    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "vertex":
                intern(parts[1])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {len(parts)}", line=ln)
        a, b = parts
        if a == b:
            raise ValidationError(f"line {ln}: self-loop on token {a!r}")
        edges.append((intern(a), intern(b)))
    n = len(order)
    labels = tuple(order)
    if labels == tuple(str(i) for i in range(n)):
        labels = None
    return Graph(n, edges, labels=labels)


def serialize_edge_list(g):
    """Inverse of parse_edge_list; emits dense ids unless labels are present.

    Ids are assigned by first appearance when parsing, so whenever the edge
    lines alone would not reproduce the vertex numbering (isolated vertices,
    or edges whose endpoints first appear out of order) a header of
    '# vertex TOK' declarations pins the order. parse(serialize(g)) == g.
    """
    tok = g.label_of
    appear = []
    seen = set()
    for u, v in g.edges:
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                appear.append(x)
    lines = []
    if appear != list(range(g.n)):
        lines.extend(f"# vertex {tok(v)}" for v in range(g.n))
    for u, v in g.edges:
        lines.append(f"{tok(u)} {tok(v)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# named catalog

_NAME_RES = [
    ("complete", re.compile(r"^K_(\d+)$")),
    ("path", re.compile(r"^P_(\d+)$")),
    ("cycle", re.compile(r"^C_(\d+)$")),
    ("biclique", re.compile(r"^K_(\d+),(\d+)$")),
    ("star", re.compile(r"^star_(\d+)$")),
    ("grid", re.compile(r"^grid_(\d+)x(\d+)$")),
    ("subdivision", re.compile(r"^sub_(\d+)\((.+)\)$")),
]


def named(name):
    """Build a catalog graph from its name token.

    Supported: K_n, P_n, C_n, K_a,b, star_k (= K_1,k), grid_RxC, Petersen,
    Clebsch, Q_3, and sub_p(NAME) for the p-th subdivision of another
    catalog graph. Constructions are deterministic, so a name reproduces
    the same graph bit-exactly.
    """
    if name == "Petersen":
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))          # outer pentagon
            edges.append((i, i + 5))                # spokes
            edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        return Graph(10, edges)
    if name == "Clebsch":
        # folded 5-cube: 4-bit vectors, adjacent iff XOR-weight is 1 or 4
        edges = []
        for u in range(16):
            for v in range(u + 1, 16):
                w = (u ^ v).bit_count()
                if w == 1 or w == 4:
                    edges.append((u, v))
        return Graph(16, edges)
    if name == "Q_3":
        edges = []
        for u in range(8):
            for b in range(3):
                v = u ^ (1 << b)
                if u < v:
                    edges.append((u, v))
        return Graph(8, edges)
    for kind, rx in _NAME_RES:
        mt = rx.match(name)
        if not mt:
            continue
        if kind == "complete":
            n = int(mt.group(1))
            _require(n >= 1, name)
            return Graph(n, combinations(range(n), 2))
        if kind == "path":
            n = int(mt.group(1))
            _require(n >= 1, name)
            return Graph(n, [(i, i + 1) for i in range(n - 1)])
        if kind == "cycle":
            n = int(mt.group(1))
            _require(n >= 3, name)
            return Graph(n, [(i, (i + 1) % n) for i in range(n)])
        if kind == "biclique":
            a, b = int(mt.group(1)), int(mt.group(2))
            _require(a >= 1 and b >= 1, name)
            return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if kind == "star":
            k = int(mt.group(1))
            _require(k >= 1, name)
            return Graph(k + 1, [(0, i) for i in range(1, k + 1)])
        if kind == "grid":
            r, c = int(mt.group(1)), int(mt.group(2))
            _require(r >= 1 and c >= 1, name)
            edges = []
            for i in range(r):
                for j in range(c):
                    v = i * c + j
                    if j + 1 < c:
                        edges.append((v, v + 1))
                    if i + 1 < r:
                        edges.append((v, v + c))
            return Graph(r * c, edges)
        if kind == "subdivision":  # peeled in a loop: names nest thousands deep
            counts = []
            while mt:
                counts.append(int(mt.group(1)))
                mt = rx.match(name := mt.group(2))
            return reduce(subdivide, reversed(counts), named(name))
    raise ValidationError(f"unknown graph name {name!r}")


def _require(cond, name):
    if not cond:
        raise ValidationError(f"parameters out of range in graph name {name!r}")


def catalog_names(max_n=None):
    """Names of the finite test catalog (parametric families at small sizes)."""
    names = ["Petersen", "Clebsch", "Q_3"]
    names += [f"K_{n}" for n in range(1, 9)]
    names += [f"P_{n}" for n in range(1, 11)]
    names += [f"C_{n}" for n in range(3, 11)]
    names += [f"K_{a},{b}" for a in range(1, 4) for b in range(a, 5)]
    names += [f"star_{k}" for k in range(1, 7)]
    names += ["grid_2x2", "grid_2x3", "grid_3x3", "grid_3x4", "grid_4x4"]
    if max_n is not None:
        names = [nm for nm in names if named(nm).n <= max_n]
    return names


# ---------------------------------------------------------------------------
# structural operations

def subdivide(g, p):
    """Replace every edge by a path with p internal vertices.

    Original vertices keep their ids; subdivision vertices are appended in
    edge order, so the construction is reproducible.
    """
    if p < 0:
        raise ValidationError("subdivision count must be >= 0")
    if p == 0:
        return Graph(g.n, g.edges)
    n = g.n
    edges = []
    for u, v in g.edges:
        chain = [u] + [n + i for i in range(p)] + [v]
        n += p
        edges.extend(zip(chain, chain[1:]))
    return Graph(n, edges)


def induced_subgraph(g, vertices):
    """Induced subgraph on the given vertex set, re-densified.

    Returns (subgraph, back_map) where back_map[i] is the original id of the
    new vertex i. Vertex order follows ascending original id.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise ValidationError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(vs)}
    adj = g.adj
    edges = [(i, pos[w]) for i, v in enumerate(vs) for w in adj[v]
             if v < w and w in pos]
    labels = tuple(g.labels[v] for v in vs) if g.labels is not None else None
    return Graph(len(vs), edges, labels=labels), vs


def distances_within(adj, source, radius):
    """{vertex: hop distance from source} for the vertices at most radius
    hops away, by a BFS over the neighbour lists adj that stops at that
    depth."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def bfs_distances(g, source):
    """Exact hop distances from source; unreachable vertices get INFINITY."""
    if not (0 <= source < g.n):
        raise ValidationError(f"source {source} out of range")
    dist = [INFINITY] * g.n
    for v, d in distances_within(g.adj, source, g.n).items():
        dist[v] = d
    return dist


def connected_components(g):
    """Partition of V into components, each sorted, ordered by smallest member."""
    return [mask_vertices(c) for c in component_masks(g.adj_mask, (1 << g.n) - 1)]


def anchored_order(g):
    """Vertices by descending degree (smallest id on ties), each component
    kept contiguous: after the first vertex of a component, every vertex
    has an already-placed neighbor (its anchor). Returns (order, anchor),
    anchor[i] being None for the first vertex of each component."""
    order = []
    anchor = []
    seen = set()
    for start in sorted(range(g.n), key=lambda v: (-g.degree(v), v)):
        if start in seen:
            continue
        seen.add(start)
        order.append(start)
        anchor.append(None)
        while True:
            fringe = [(w, u) for u in order for w in g.adj[u] if w not in seen]
            if not fringe:
                break
            w, u = min(fringe, key=lambda t: (-g.degree(t[0]), t[0]))
            seen.add(w)
            order.append(w)
            anchor.append(u)
    return order, anchor


def connected_subsets(adj, nodes, max_size):
    """Connected sets of 1..max_size vertices, each yielded once as a
    frozenset; adj[v] lists v's neighbours, nodes the vertices to use.
    ESU growth anchored at the smallest member: only vertices above the
    anchor join, and one adjacent to the set is never proposed again."""

    def grow(subset, ext, closed, anchor):
        yield subset
        if len(subset) == max_size:
            return
        for i, w in enumerate(ext):
            new = [u for u in adj[w] if u > anchor and u not in closed]
            yield from grow(subset | {w}, ext[i + 1:] + new,
                            closed | {w} | set(new), anchor)

    for v in nodes:
        ext = [w for w in adj[v] if w > v]
        yield from grow(frozenset((v,)), ext, {v} | set(ext), v)


def colorset_components(g, colors, max_size):
    """(color set as a sorted tuple, component as a vertex list) for each
    component of G[I], 1 <= |I| <= max_size, that uses every color of I (a
    full component), each yielded once.

    A single color's full components are its class's, from one
    breadth-first search inside the class. A larger set is reached only by
    extension: a full component C of I touched by a vertex of color c lies
    in one full component of I + c, which a search from C's neighbours of
    color c grows. Only colors above min(I) extend I, and that finds them
    all: a minimal connected subgraph of a full component D of J, |J| >= 2,
    that meets every color of J is a tree with two or more leaves, each the
    only vertex of its color in it, so some leaf's color c is not min(J);
    removing that leaf leaves a connected subgraph of colors J - c, so
    inside a full component of J - c that the leaf touches. One vertex set
    per color set, keyed by the ranks of its colors, holds the full
    components found and is the seen set of the searches that grow more,
    so a C whose first vertex it holds is not searched again: the cost
    follows the output. The vertex sets go before the components of each
    class are grown, as every set reached from a class has that class's
    color as its smallest. Found components wait on a stack, so growing
    many colors deep takes no recursion.
    """
    if max_size < 1:
        return
    adj = g.adj
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    rank_bit = {c: 1 << i for i, c in enumerate(sorted(classes))}
    vbit = [rank_bit[c] for c in colors]
    found = {}  # rank bitmask of a color set -> the vertices of its found components

    def spread(starts, seen, key):
        # the vertices of key's colors outside seen reached from starts
        grown = []
        for w in starts:
            if w not in seen:
                seen.add(w)
                grown.append(w)
        for u in grown:  # breadth-first: grown grows while it is scanned
            for w in adj[u]:
                if vbit[w] & key and w not in seen:
                    seen.add(w)
                    grown.append(w)
        return grown

    for c in sorted(classes):
        found.clear()  # every set reached from here on has smallest color c
        key, seen = rank_bit[c], set()
        stack = [((c,), key, comp) for s in classes[c] if (comp := spread((s,), seen, key))]
        while stack:
            spectrum, key, comp = stack.pop()
            yield spectrum, comp
            if len(spectrum) == max_size:
                continue
            low = key & -key  # the rank bit of min(spectrum)
            border = {}  # rank bit of a color above it, not in the set -> comp's neighbours of it
            for u in comp:
                for w in adj[u]:
                    b = vbit[w]
                    if b > low and not b & key:
                        border.setdefault(b, []).append(w)
            first = comp[0]
            for b, starts in border.items():
                wider = key | b
                covered = found.setdefault(wider, set())
                if first in covered:
                    continue
                covered.update(comp)  # the search meets no other component of wider
                grown = comp + spread(starts, covered, wider)
                stack.append((tuple(sorted((*spectrum, colors[starts[0]]))), wider, grown))


def girth(g):
    """Length of a shortest cycle, or INFINITY for forests."""
    best = INFINITY
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


# ---------------------------------------------------------------------------
# degeneracy and orientations

ARC_ORIGINAL = "original"
ARC_FRATERNAL = "fraternal"
ARC_TRANSITIVE = "transitive"


class Orientation:
    """Directed version of a graph with per-arc provenance and round index.

    Every undirected edge of the (possibly augmented) underlying graph
    carries exactly one arc. Original arcs have round 0; arcs and edges
    added by transitive-fraternal augmentation carry the round that
    produced them.
    """

    __slots__ = ("base", "arcs", "arc_kind", "arc_round")

    def __init__(self, base, arcs, arc_kind, arc_round):
        self.base = base
        self.arcs = tuple(sorted(arcs))
        self.arc_kind = dict(arc_kind)
        self.arc_round = dict(arc_round)
        pairs = set()
        for a in self.arcs:
            u, v = a
            if u == v:
                raise ValidationError("loop arc")
            if not (0 <= u < base.n and 0 <= v < base.n):
                raise ValidationError(f"arc {a} endpoint out of range [0,{base.n})")
            key = (u, v) if u < v else (v, u)
            if key in pairs:
                raise ValidationError(f"pair {key} oriented twice")
            pairs.add(key)
            if a not in self.arc_kind or a not in self.arc_round:
                raise ValidationError(f"arc {a} lacks a kind or a round")
            if self.arc_kind[a] == ARC_ORIGINAL and self.arc_round[a] != 0:
                raise ValidationError("original arcs must have round 0")

    @property
    def n(self):
        return self.base.n

    def underlying_graph(self):
        """Simple graph carrying one edge per arc (base plus augmentations)."""
        return Graph(self.base.n, [tuple(sorted(a)) for a in self.arcs])

    def in_degrees(self):
        indeg = [0] * self.base.n
        for _, v in self.arcs:
            indeg[v] += 1
        return indeg

    def out_neighbors(self):
        out = [[] for _ in range(self.base.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return [sorted(x) for x in out]


def peel_smallest_last(adj):
    """(vertex, live degree) pairs in smallest-last peeling order of the graph
    on 0..len(adj)-1, where adj[v] lists v's neighbours without repeats.

    The heap holds degree * n + id, so it pops the minimum live degree, then
    the smallest id (an int compares faster than a (degree, id) tuple). Each
    degree drop pushes a new key, which pops before the vertex's older
    ones, so those are skipped.
    """
    n = len(adj)
    deg = [len(nbrs) for nbrs in adj]
    alive = [True] * n
    heap = [d * n + v for v, d in enumerate(deg)]
    heapify(heap)
    peeled = []
    while heap:
        d, v = divmod(heappop(heap), n)
        if alive[v]:
            alive[v] = False
            peeled.append((v, d))
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    heappush(heap, deg[w] * n + w)
    return peeled


def smallest_last_order(g):
    """Smallest-last vertex order: repeatedly peel a minimum-degree vertex
    (smallest id on ties) and place it last; the peeling order is the
    reverse. O((n + m) log n) through peel_smallest_last."""
    return [v for v, _ in peel_smallest_last(g.adj)][::-1]


def degeneracy(g):
    """Max over subgraphs of minimum degree, via the peeling order."""
    return max((d for _, d in peel_smallest_last(g.adj)), default=0)


def orient_by_order(order, edges):
    """Each edge as an arc into its endpoint later in order, a smallest-last
    order of vertices 0..len(order)-1: when a vertex is peeled, its
    surviving neighbours point into it, so no in-degree exceeds the
    degeneracy and the orientation is acyclic."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return [(u, v) if pos[u] < pos[v] else (v, u) for u, v in edges]


def degeneracy_orientation(g):
    """Acyclic orientation of g's edges by orient_by_order on the
    smallest-last order, so max in-degree equals the degeneracy."""
    arcs = orient_by_order(smallest_last_order(g), g.edges)
    return Orientation(g, arcs, dict.fromkeys(arcs, ARC_ORIGINAL), dict.fromkeys(arcs, 0))


# ---------------------------------------------------------------------------
# exact clique and chromatic number (desk scale, hard refusal above limits)

# Largest graphs the exact ω and χ take.
CLIQUE_LIMIT = 20
CHROMATIC_LIMIT = 12


def clique_number(g):
    """Exact ω, the size of a maximum clique."""
    if g.n > CLIQUE_LIMIT:
        raise SizeLimitError(f"clique_number limited to {CLIQUE_LIMIT} vertices, got {g.n}")
    return len(max_clique(g))


def max_clique(g):
    """Exact maximum clique (branch and bound, greedy-coloring bound),
    returning the lexicographically first optimum found."""
    if g.n == 0:
        return []
    adj = g.adj_mask
    best = [[]]

    def color_bound(cand_list):
        # greedy coloring of the candidates: a vertex of color class i can
        # extend the current clique by at most i vertices
        classes = []
        for v in cand_list:
            for cls in classes:
                if not (adj[v] & cls[0]):
                    cls[0] |= 1 << v
                    cls[1].append(v)
                    break
            else:
                classes.append([1 << v, [v]])
        return [(v, i) for i, cls in enumerate(classes, start=1) for v in cls[1]]

    def expand(current, cand_mask):
        for v, bound in reversed(color_bound(mask_vertices(cand_mask))):
            if len(current) + bound <= len(best[0]):
                return
            current.append(v)
            new_cand = cand_mask & adj[v]
            if new_cand:
                expand(current, new_cand)
            elif len(current) > len(best[0]):
                best[0] = sorted(current)
            current.pop()
            cand_mask ^= 1 << v

    expand([], (1 << g.n) - 1)
    return best[0]


def chromatic_number(g):
    """Exact χ: the least k from ω upward for which _rgs_coloring finds a
    proper coloring with k colors."""
    from .treedepth import _rgs_coloring

    if g.n > CHROMATIC_LIMIT:
        raise SizeLimitError(f"chromatic_number limited to {CHROMATIC_LIMIT} vertices, got {g.n}")
    return next(k for k in range(len(max_clique(g)), g.n + 1)
                if _rgs_coloring(g, k, lambda c: True))
