"""Exact tree-depth with elimination-forest witnesses, plus the coloring
characterizations (centered colorings, vertex rankings) and DFS bounds.

The exact solver runs the delete-a-vertex recursion with memoization over
connected vertex subsets encoded as bitmasks, splitting into components
first. A separate bounded-depth decision procedure (`treedepth_at_most`)
handles larger graphs when only td <= k for small k is in question, which
is what the decomposition verifier needs. It decides an induced subgraph
G[S] on g's own ids from the vertex set S, without copying it.
"""

from .errors import SizeLimitError, ValidationError
from .graphs import (
    component_masks,
    is_connected_mask,
    mask_vertices,
    smallest_last_order,
    subset_components,
)

NO_PARENT = -1


class EliminationForest:
    """Rooted forest witnessing a tree-depth bound.

    parent[v] is the parent id or NO_PARENT for roots; height counts
    vertices on the longest root-to-leaf chain. Valid for a graph G when
    every edge of G joins an ancestor/descendant pair.
    """

    __slots__ = ("parent", "roots", "height", "_depth")

    def __init__(self, parent):
        parent = tuple(parent)
        n = len(parent)
        depth = [0] * n
        for v in range(n):
            # climb to a root or an already resolved ancestor, then number
            # the chain on the way back down
            chain = []
            trail = set()
            u = v
            while u != NO_PARENT and not depth[u]:
                if u in trail:
                    raise ValidationError("parent relation contains a cycle")
                trail.add(u)
                chain.append(u)
                u = parent[u]
                if u != NO_PARENT and not (0 <= u < n):
                    raise ValidationError(f"parent {u} out of range")
            d = depth[u] if u != NO_PARENT else 0
            for w in reversed(chain):
                d += 1
                depth[w] = d
        self.parent = parent
        self.roots = tuple(v for v in range(n) if parent[v] == NO_PARENT)
        self._depth = tuple(depth)
        self.height = max(depth) if depth else 0

    @property
    def n(self):
        return len(self.parent)

    def depth_of(self, v):
        """Depth of v counted in vertices (roots have depth 1)."""
        return self._depth[v]

    def is_ancestor(self, a, v):
        while v != NO_PARENT:
            if v == a:
                return True
            v = self.parent[v]
        return False

    def to_json(self):
        return {"parent": list(self.parent), "roots": list(self.roots),
                "height": self.height}

    @classmethod
    def from_json(cls, obj):
        forest = cls(obj["parent"])
        if obj.get("height") is not None and obj["height"] != forest.height:
            raise ValidationError("declared height does not match parent relation")
        return forest


class Coloring:
    """Total vertex -> color map with a declared palette size."""

    __slots__ = ("assignment", "palette")

    def __init__(self, assignment, palette=None):
        assignment = tuple(assignment)
        if any(c < 0 for c in assignment):
            raise ValidationError("colors must be nonnegative")
        least = (max(assignment) + 1) if assignment else 0
        if palette is None:
            palette = least
        if palette < least:
            raise ValidationError("palette smaller than max color + 1")
        self.assignment = assignment
        self.palette = palette

    @property
    def n(self):
        return len(self.assignment)

    def to_json(self):
        return {"colors": list(self.assignment), "palette": self.palette}


def verify_elimination_forest(g, forest):
    """True iff every edge of g joins an ancestor/descendant pair in forest."""
    if forest.n != g.n:
        raise ValidationError("forest and graph vertex counts differ")
    for u, v in g.edges:
        if not (forest.is_ancestor(u, v) or forest.is_ancestor(v, u)):
            return False
    return True


# ---------------------------------------------------------------------------
# exact tree-depth

def bitmask_td_solver(g):
    """Memoized td-of-vertex-bitmask evaluator for one graph (n <= ~18).

    Returns a function mask -> tree-depth of the induced subgraph. The memo
    is shared across calls, which makes it cheap to evaluate many subsets of
    the same graph (the chi_p brute force leans on this).
    """
    adj = g.adj_mask
    memo = {}

    def td_conn(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        pc = bin(mask).count("1")
        if pc == 1:
            memo[mask] = (1, mask.bit_length() - 1)
            return 1
        verts = mask_vertices(mask)
        if all(adj[v] & mask == mask ^ (1 << v) for v in verts):
            memo[mask] = (pc, verts[0])
            return pc
        best, root = pc, verts[0]
        for v in verts:
            sub = mask ^ (1 << v)
            val = 1 + max(td_conn(c) for c in component_masks(adj, sub))
            if val < best:
                best, root = val, v
                if best == 2:
                    break
        memo[mask] = (best, root)
        return best

    def td_of(mask):
        if mask == 0:
            return 0
        return max(td_conn(c) for c in component_masks(adj, mask))

    td_of.memo = memo
    td_of.td_conn = td_conn
    return td_of


def treedepth_exact(g, exact_limit=18):
    """Exact tree-depth with a witness forest of matching height.

    Delete-a-vertex recursion over connected bitmask subsets, components
    split first, memoized. Among minimizing deletion vertices the smallest
    id wins, so the witness is deterministic.
    """
    if g.n > exact_limit:
        raise SizeLimitError(f"treedepth_exact limited to {exact_limit} vertices, got {g.n}")
    if g.n == 0:
        return 0, EliminationForest([])
    adj = g.adj_mask
    td_of = bitmask_td_solver(g)
    memo = td_of.memo

    def build(mask, parent, out_parent):
        for comp in component_masks(adj, mask):
            td_of.td_conn(comp)
            root = memo[comp][1]
            out_parent[root] = parent
            rest = comp ^ (1 << root)
            if rest:
                build(rest, root, out_parent)

    full = (1 << g.n) - 1
    value = td_of(full)
    parent = [NO_PARENT] * g.n
    build(full, NO_PARENT, parent)
    forest = EliminationForest(parent)
    return value, forest


def treedepth_at_most(g, k, vertices=None):
    """Decide td(G[vertices]) <= k without a size limit on n (cost grows
    with k); `vertices` defaults to all of g.

    Used by the decomposition verifier, cluster covers and counting, where k
    is small (the number of color classes) but the vertex set may be large.
    The search runs on g's own ids, so the induced subgraph is never copied.
    Returns a witness forest as a parent list over g's ids, NO_PARENT for
    roots and for vertices outside the set, or None.
    """
    if vertices is None:
        vertices = range(g.n)
    else:
        vertices = sorted(set(vertices))
        for v in vertices:
            if not (0 <= v < g.n):
                raise ValidationError(f"vertex {v} out of range")
    if k < 0:
        return None
    parent = [NO_PARENT] * g.n
    memo = {}

    def solve(vertices, budget, par):
        # vertices: sorted tuple forming a connected induced subgraph
        if not vertices:
            return True
        if budget <= 0:
            return False
        if len(vertices) == 1:
            parent[vertices[0]] = par
            return True
        if budget == 1:
            return False  # connected with >= 2 vertices has an edge
        key = (vertices, budget)
        known = memo.get(key)
        if known is False:
            return False
        if known is not None and known is not True:
            root = known
            parent[root] = par
            rest = [v for v in vertices if v != root]
            return all(
                solve(comp, budget - 1, root)
                for comp in subset_components(g, rest)
            )
        vset = set(vertices)
        dfs_parent, depth = _dfs_tree(g, vertices, vset)
        if depth <= budget:
            # a DFS tree is a valid elimination forest (only back edges)
            root_v = vertices[0]
            parent[root_v] = par
            for v in vertices:
                if v != root_v:
                    parent[v] = dfs_parent[v]
            memo[key] = True
            return True
        if depth >= (1 << budget):
            return False  # the DFS root path alone forces td > budget
        # try high-degree-inside vertices first; hubs usually split best
        inside_deg = {v: sum(1 for w in g.adj[v] if w in vset) for v in vertices}
        for root in sorted(vertices, key=lambda v: (-inside_deg[v], v)):
            rest = [v for v in vertices if v != root]
            comps = subset_components(g, rest)
            if all(solve(comp, budget - 1, root) for comp in comps):
                parent[root] = par
                memo[key] = root
                return True
        memo[key] = False
        return False

    ok = all(
        solve(comp, k, NO_PARENT)
        for comp in subset_components(g, vertices)
    )
    return parent if ok else None


def _dfs_tree(g, vertices, vset):
    """DFS tree of a connected vertex subset from its smallest member:
    (parent map, height counted in vertices)."""
    root = vertices[0]
    par = {root: NO_PARENT}
    depth = {root: 1}
    height = 1
    stack = [(root, iter(g.adj[root]))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if w in vset and w not in par:
                par[w] = u
                depth[w] = depth[u] + 1
                if depth[w] > height:
                    height = depth[w]
                stack.append((w, iter(g.adj[w])))
                advanced = True
                break
        if not advanced:
            stack.pop()
    return par, height


# ---------------------------------------------------------------------------
# coloring characterizations

def greedy_smallest_last_coloring(g):
    """Proper coloring in smallest-last order; palette <= degeneracy + 1."""
    return _greedy_coloring(g.adj, smallest_last_order(g))


def _greedy_coloring(adj, order):
    """Give each vertex of `order`, in turn, the smallest color none of its
    already colored neighbours in adj carries; order lists every vertex."""
    colors = [-1] * len(order)
    for v in order:
        used = {colors[w] for w in adj[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return Coloring(colors)


def centered_coloring_from_forest(forest):
    """Color every vertex by its depth in the forest (palette = height).

    For any graph the forest validates against, the result is a centered
    coloring: in a connected subgraph the unique shallowest vertex (the
    common ancestor) carries a color appearing exactly once.
    """
    colors = [forest.depth_of(v) - 1 for v in range(forest.n)]
    return Coloring(colors, palette=forest.height)


def ranking_from_forest(forest):
    """Vertex ranking from a forest: color = height - depth, so roots carry
    the highest color. In any graph the forest validates against, the
    unique shallowest vertex of a connected subgraph outranks the rest."""
    colors = [forest.height - forest.depth_of(v) for v in range(forest.n)]
    return Coloring(colors, palette=forest.height)


def verify_centered_coloring(g, coloring, bruteforce_limit=14):
    """True iff every connected induced subgraph has a uniquely used color.

    Exhausts all connected vertex subsets, so the graph must be small.
    """
    if g.n > bruteforce_limit:
        raise SizeLimitError(f"verify_centered_coloring limited to {bruteforce_limit} vertices")
    if coloring.n != g.n:
        raise ValidationError("coloring does not cover the graph")
    adj = g.adj_mask
    colors = coloring.assignment
    for mask in range(1, 1 << g.n):
        if not is_connected_mask(adj, mask):
            continue
        counts = {}
        for v in mask_vertices(mask):
            counts[colors[v]] = counts.get(colors[v], 0) + 1
        if 1 not in counts.values():
            return False
    return True


def verify_vertex_ranking(g, coloring, limit=14):
    """Ranking check via the color-threshold component formulation:
    deleting all vertices of color > k must leave no component holding two
    vertices of color k.
    """
    if g.n > limit:
        raise SizeLimitError(f"verify_vertex_ranking limited to {limit} vertices")
    if coloring.n != g.n:
        raise ValidationError("coloring does not cover the graph")
    colors = coloring.assignment
    adj = g.adj_mask
    for k in sorted(set(colors)):
        mask = 0
        for v, c in enumerate(colors):
            if c <= k:
                mask |= 1 << v
        for comp in component_masks(adj, mask):
            if sum(1 for v in mask_vertices(comp) if colors[v] == k) >= 2:
                return False
    return True


def minimum_centered_palette(g, limit=6):
    """Brute-force minimum number of colors in a centered coloring.

    Enumerates colorings up to color renaming (restricted-growth strings).
    """
    if g.n > limit:
        raise SizeLimitError(f"minimum_centered_palette limited to {limit} vertices")
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _exists_rgs_coloring(g, k, lambda c: verify_centered_coloring(g, c)):
            return k
    return g.n


def minimum_ranking_palette(g, limit=6):
    """Brute-force minimum vertex-ranking palette (colors are ordered, so
    all assignments are enumerated, not just up to renaming)."""
    if g.n > limit:
        raise SizeLimitError(f"minimum_ranking_palette limited to {limit} vertices")
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _exists_any_coloring(g, k, lambda c: verify_vertex_ranking(g, c)):
            return k
    return g.n


def _exists_rgs_coloring(g, k, accept):
    colors = [0] * g.n

    def rec(i, used):
        if i == g.n:
            return used == k and accept(Coloring(colors, palette=k))
        if used + (g.n - i) < k:
            return False
        for c in range(min(used + 1, k)):
            colors[i] = c
            if rec(i + 1, max(used, c + 1)):
                return True
        return False

    return rec(0, 0)


def _exists_any_coloring(g, k, accept):
    colors = [0] * g.n

    def rec(i):
        if i == g.n:
            return accept(Coloring(colors, palette=k))
        for c in range(k):
            colors[i] = c
            if rec(i + 1):
                return True
        return False

    return rec(0)


# ---------------------------------------------------------------------------
# DFS bounds

def dfs_height_bounds(g):
    """(lower, upper, witness): upper is the height h of a DFS forest rooted
    at the smallest id of each component, lower is ceil(log2(h+1)).

    A DFS tree is a valid elimination forest because non-tree edges are back
    edges, so td <= upper. Its deepest root-to-leaf chain is a path on h
    vertices in the graph, and td(P_h) = ceil(log2(h+1)), so lower <= td.
    """
    parent = [NO_PARENT] * g.n
    for comp in subset_components(g, range(g.n)):
        dfs_parent, _ = _dfs_tree(g, comp, set(comp))
        for v, p in dfs_parent.items():
            parent[v] = p
    forest = EliminationForest(parent)
    h = forest.height
    return h.bit_length(), h, forest  # bit_length(h) == ceil(log2(h+1))
