"""Exact tree-depth with elimination-forest witnesses, plus the coloring
characterizations (centered colorings, vertex rankings) and DFS bounds.

Two searches decide tree-depth on vertex bitmasks, both run by one loop
over an explicit stack of generator steps (_run), so they work at any
depth. The exact solver (`treedepth_exact`) runs the delete-a-vertex
search, memoized over connected vertex subsets and splitting into
components first; an edge-count lower bound ends its scan over roots. The
bounded-depth decision (`treedepth_at_most`) handles larger graphs when
only td <= k for small k is in question, which is what the decomposition
verifier needs. It decides an induced subgraph G[S] on g's own ids from
the vertex set S as a bitmask, without copying it.

The brute-force palette oracles (the minimum centered and ranking palettes
here, chi_p in decomposition, chi in graphs) share one walk over the proper
colorings with k colors up to renaming, _rgs_coloring; each passes it its
own test.
"""

from itertools import permutations

from .errors import SizeLimitError, ValidationError
from .graphs import (
    component_masks,
    is_connected_mask,
    mask_of,
    mask_vertices,
    smallest_last_order,
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

def treedepth_exact(g, exact_limit=18):
    """Exact tree-depth with a witness forest of matching height.

    Delete-a-vertex search over connected bitmask subsets, components split
    first, memoized, and run by _run's loop, so it works at any depth. The
    scan over roots stops once it reaches the edge-count bound of
    _edge_bound. Among minimizing deletion vertices the smallest id wins,
    so the witness, read off the memo in a loop, is deterministic.
    """
    if g.n > exact_limit:
        raise SizeLimitError(f"treedepth_exact limited to {exact_limit} vertices, got {g.n}")
    if g.n == 0:
        return 0, EliminationForest([])
    adj = g.adj_mask
    memo = {}  # connected mask -> (td, smallest-id minimizing root)

    def td_conn(mask):
        # a search step for _run: td of a connected vertex set not in memo
        verts = mask_vertices(mask)
        best, root = len(verts), verts[0]
        floor = _edge_bound(best, sum((adj[v] & mask).bit_count() for v in verts) // 2)
        for v in verts:
            if best <= floor:
                break  # no root does better than the bound
            val = 1
            for comp in component_masks(adj, mask ^ (1 << v)):
                hit = memo.get(comp)
                sub = hit[0] if hit else (yield td_conn(comp))
                if sub >= val:
                    val = sub + 1
                    if val >= best:
                        break  # v is no better than root
            if val < best:
                best, root = val, v
        memo[mask] = (best, root)
        return best

    parent = [NO_PARENT] * g.n
    stack = [((1 << g.n) - 1, NO_PARENT)]  # a vertex set left to root, under its parent
    while stack:
        mask, above = stack.pop()
        for comp in component_masks(adj, mask):
            if comp not in memo:
                _run(td_conn(comp))
            root = memo[comp][1]
            parent[root] = above
            if comp != 1 << root:
                stack.append((comp ^ (1 << root), root))
    forest = EliminationForest(parent)
    return forest.height, forest


def _edge_bound(s, m):
    """The smallest k at which a graph on s vertices with td <= k can have m
    edges: a lower bound on its td. Each vertex at depth d in an elimination forest has
    d - 1 ancestors, so height k <= s allows at most (k - 1)s - k(k - 1)/2
    edges, and that count grows with k."""
    k = 1
    while (k - 1) * s - k * (k - 1) // 2 < m:
        k += 1
    return k


def _run(step):
    """Drive a search step to its result. A step is a generator: it yields
    the sub-steps it needs and is sent back each one's result. The steps
    wait on an explicit stack, so the search depth is not bounded by
    Python's recursion limit."""
    stack = [step]
    result = None
    while stack:
        try:
            sub = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(sub)
            result = None
    return result


def treedepth_at_most(g, k, vertices=None):
    """Decide td(G[vertices]) <= k without a size limit on n (cost grows
    with k); `vertices` defaults to all of g.

    Used by the decomposition verifier, cluster covers and counting, where k
    is small (the number of color classes) but the vertex set may be large.
    The search runs on g's own ids with vertex sets as bitmasks, so the
    induced subgraph is never copied, and it is a loop over an explicit
    stack, so it works at any budget. Returns a witness forest as a parent
    list over g's ids, NO_PARENT for roots and for vertices outside the
    set, or None.
    """
    if vertices is None:
        mask = (1 << g.n) - 1
    else:
        vertices = set(vertices)  # read once: it may be an iterator
        outside = [v for v in vertices if not (0 <= v < g.n)]
        if outside:
            raise ValidationError(f"vertex {min(outside)} out of range")
        mask = mask_of(vertices)
    if k < 0:
        return None
    adj = g.adj_mask
    parent = [NO_PARENT] * g.n
    memo = {}  # (mask, budget) -> False, or the root that worked

    # search steps for _run, sent back whether their sets were solved
    def solve_all(comps, budget, par):
        for comp in comps:
            if not (yield solve(comp, budget, par)):
                return False
        return True

    def solve(mask, budget, par):
        # mask: a nonempty connected vertex set
        if budget <= 0:
            return False
        if not mask & (mask - 1):
            parent[mask.bit_length() - 1] = par
            return True
        if budget == 1:
            return False  # connected with >= 2 vertices has an edge
        key = (mask, budget)
        known = memo.get(key)
        if known is False:
            return False
        if known is not None:
            parent[known] = par
            return (yield from solve_all(
                component_masks(adj, mask ^ (1 << known)), budget - 1, known))
        # a DFS tree is a valid elimination forest (only back edges)
        depth = _dfs_tree(adj, mask, parent, par)
        if depth <= budget:
            return True
        if depth >= (1 << budget):
            return False  # the DFS root path alone forces td > budget
        # try high-degree-inside vertices first; hubs usually split best
        for root in sorted(mask_vertices(mask),
                           key=lambda v: (-(adj[v] & mask).bit_count(), v)):
            # largest first: it is the likeliest to fail, which ends the try
            comps = sorted(component_masks(adj, mask ^ (1 << root)),
                           key=int.bit_count, reverse=True)
            if (yield from solve_all(comps, budget - 1, root)):
                parent[root] = par
                memo[key] = root
                return True
        memo[key] = False
        return False

    return parent if _run(solve_all(component_masks(adj, mask), k, NO_PARENT)) else None


def _dfs_tree(adj_mask, mask, parent, par):
    """Write a DFS tree of a connected vertex bitmask into parent, rooted at
    its smallest member under par, neighbours taken by ascending id; return
    its height counted in vertices."""
    bit = mask & -mask
    root = bit.bit_length() - 1
    parent[root] = par
    unseen = mask ^ bit
    path = [root]
    height = 1
    while path:
        nbrs = adj_mask[path[-1]] & unseen
        if nbrs:
            bit = nbrs & -nbrs
            unseen ^= bit
            w = bit.bit_length() - 1
            parent[w] = path[-1]
            path.append(w)
            if len(path) > height:
                height = len(path)
        else:
            path.pop()
    return height


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


# Largest graphs the exhaustive colouring checks take.
CENTERED_CHECK_LIMIT = 14
RANKING_CHECK_LIMIT = 14


def verify_centered_coloring(g, coloring):
    """True iff every connected induced subgraph has a uniquely used color.

    Exhausts all connected vertex subsets, so the graph must be small.
    """
    if g.n > CENTERED_CHECK_LIMIT:
        raise SizeLimitError(
            f"verify_centered_coloring limited to {CENTERED_CHECK_LIMIT} vertices")
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


def verify_vertex_ranking(g, coloring):
    """Ranking check via the color-threshold component formulation:
    deleting all vertices of color > k must leave no component holding two
    vertices of color k.
    """
    if g.n > RANKING_CHECK_LIMIT:
        raise SizeLimitError(
            f"verify_vertex_ranking limited to {RANKING_CHECK_LIMIT} vertices")
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


# Largest graphs the minimum-palette searches take.
CENTERED_PALETTE_LIMIT = 6
RANKING_PALETTE_LIMIT = 6


def minimum_centered_palette(g):
    """Brute-force minimum number of colors in a centered coloring. A
    centered coloring is proper (an edge is a connected set of two) and
    stays centered under renaming, so _rgs_coloring walks them all."""
    if g.n > CENTERED_PALETTE_LIMIT:
        raise SizeLimitError(
            f"minimum_centered_palette limited to {CENTERED_PALETTE_LIMIT} vertices")
    return next(k for k in range(g.n + 1)
                if _rgs_coloring(g, k, lambda c: verify_centered_coloring(g, c)))


def minimum_ranking_palette(g):
    """Brute-force minimum vertex-ranking palette. A ranking is proper and
    stays one when its colors are renamed in order, so each class
    partition _rgs_coloring walks is tried under every order of its
    classes."""
    if g.n > RANKING_PALETTE_LIMIT:
        raise SizeLimitError(
            f"minimum_ranking_palette limited to {RANKING_PALETTE_LIMIT} vertices")

    def ranks(coloring):
        return any(verify_vertex_ranking(g, Coloring([rank[c] for c in coloring.assignment]))
                   for rank in permutations(range(coloring.palette)))

    return next(k for k in range(g.n + 1) if _rgs_coloring(g, k, ranks))


def _rgs_coloring(g, k, accept):
    """The first proper coloring of g with exactly k colors, up to renaming,
    that accept takes, as a Coloring with palette k; None if it takes none.

    Vertices are colored by ascending id, each with the colors no earlier
    neighbour carries, ascending, up to one above the highest used so far
    (a restricted-growth string), and a branch ends once too few vertices
    are left to use all k colors.
    """
    n, adj = g.n, g.adj_mask
    colors = [0] * n
    members = [0] * k  # the vertices of each color so far, as a bitmask

    def walk(i, used):
        if used + (n - i) < k:
            return None
        if i == n:  # used == k here
            coloring = Coloring(colors, palette=k)
            return coloring if accept(coloring) else None
        for c in range(min(used + 1, k)):
            if members[c] & adj[i]:
                continue  # keep the coloring proper
            colors[i] = c
            members[c] |= 1 << i
            found = walk(i + 1, max(used, c + 1))
            members[c] ^= 1 << i
            if found:
                return found
        return None

    return walk(0, 0)


# ---------------------------------------------------------------------------
# DFS bounds

def dfs_height_bounds(g):
    """(lower, upper, witness): upper is the height h of a DFS forest rooted
    at the smallest id of each component, lower is ceil(log2(h+1)).

    A DFS tree is a valid elimination forest because non-tree edges are back
    edges, so td <= upper. Its deepest root-to-leaf chain is a path on h
    vertices in the graph, and td(P_h) = ceil(log2(h+1)), so lower <= td.
    """
    adj = g.adj_mask
    parent = [NO_PARENT] * g.n
    for comp in component_masks(adj, (1 << g.n) - 1):
        _dfs_tree(adj, comp, parent, NO_PARENT)
    forest = EliminationForest(parent)
    h = forest.height
    return h.bit_length(), h, forest  # bit_length(h) == ceil(log2(h+1))
