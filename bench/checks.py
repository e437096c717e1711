"""Independent output checks. Standard library only; shares no code with
sparsekit, so a fault in the program cannot hide itself in its own check.

Graphs are ``(n, edges)`` pairs on vertices 0..n-1.
"""

import json
import math
from itertools import combinations


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------------
# tree-depth of small budgets on vertex bitmasks

def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(masks, mask, seeds=None):
    """Components of the subgraph induced by ``mask`` (only those meeting
    ``seeds``, when given)."""
    out = []
    todo = mask if seeds is None else seeds & mask
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= masks[v]
            frontier = grown & mask & ~comp
            comp |= frontier
        out.append(comp)
        todo &= ~comp
    return out


def _dfs_height(masks, mask):
    """Vertices on the longest root-to-leaf path of a DFS tree of a connected
    mask. A DFS tree is an elimination forest, and its deepest path is a path
    of the graph, so td <= height and height >= 2**k refutes td <= k."""
    root = (mask & -mask).bit_length() - 1
    seen = 1 << root
    stack = [(root, masks[root] & mask)]
    height = 1
    while stack:
        v, todo = stack[-1]
        todo &= ~seen
        if not todo:
            stack.pop()
            continue
        w = (todo & -todo).bit_length() - 1
        stack[-1] = (v, todo ^ (1 << w))
        seen |= 1 << w
        stack.append((w, masks[w] & mask))
        height = max(height, len(stack))
    return height


def _conn_td_at_most(masks, mask, k, memo):
    """Whether the connected subgraph induced by ``mask`` has tree-depth <= k."""
    if mask.bit_count() <= k:
        return True
    if k <= 1:
        return False  # a connected graph on two or more vertices has an edge
    key = (mask, k)
    if key in memo:
        return memo[key]
    height = _dfs_height(masks, mask)
    if height <= k:
        ok = True
    elif height >= 1 << k:
        ok = False
    else:
        order = sorted(_bits(mask), key=lambda v: -(masks[v] & mask).bit_count())
        ok = any(
            all(_conn_td_at_most(masks, c, k - 1, memo)
                for c in _components(masks, mask ^ (1 << root)))
            for root in order)
    memo[key] = ok
    return ok


def treedepth(n, edges):
    """Exact tree-depth by trying every budget (small graphs only)."""
    masks, memo = _masks(n, edges), {}
    comps = _components(masks, (1 << n) - 1)
    k = 0
    while not all(_conn_td_at_most(masks, c, k, memo) for c in comps):
        k += 1
    return k


def _masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# low tree-depth colourings

def ltd_violation(n, edges, colors, p):
    """None when any <= p colour classes induce tree-depth <= their number,
    else the first offending colour set found.

    Only colour sets connected in the colour graph are visited, and in each
    only components that use every colour of the set (so they are grown from
    the set's smallest class): a component missing a colour is a component of
    a smaller set with a tighter budget.
    """
    if len(colors) != n or any(not isinstance(c, int) or c < 0 for c in colors):
        return "malformed"
    masks = _masks(n, edges)
    classes = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    near = {c: set() for c in classes}
    for u, v in edges:
        if colors[u] != colors[v]:
            near[colors[u]].add(colors[v])
            near[colors[v]].add(colors[u])
    memo = {}
    for subset in _connected_subsets(near, p):
        mask = 0
        for c in subset:
            mask |= classes[c]
        rarest = min((classes[c] for c in subset), key=int.bit_count)
        for comp in _components(masks, mask, rarest):
            if comp.bit_count() <= len(subset):
                continue
            if any(not comp & classes[c] for c in subset):
                continue
            if not _conn_td_at_most(masks, comp, len(subset), memo):
                return sorted(subset)
    return None


def _connected_subsets(near, limit):
    """Every nonempty set of at most ``limit`` nodes inducing a connected
    subgraph, each once (grown from its smallest node)."""
    for anchor in sorted(near):
        stack = [((anchor,), {w for w in near[anchor] if w > anchor}, {anchor} | near[anchor])]
        while stack:
            subset, ext, seen = stack.pop()
            yield subset
            if len(subset) == limit:
                continue
            ext = sorted(ext)
            for i, w in enumerate(ext):
                fresh = {x for x in near[w] if x > anchor and x not in seen}
                stack.append((subset + (w,), set(ext[i + 1:]) | fresh,
                              seen | fresh))


# ---------------------------------------------------------------------------
# subgraph counts

def subgraph_counts(n, edges):
    """Copies of P_3, P_4, K_3, C_4 and K_1,3 from closed forms in degrees
    and co-degrees."""
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    triangles = sum(len(adj[u] & adj[v]) for u, v in edges) // 3
    codeg = {}
    for w in range(n):
        for u, v in combinations(sorted(adj[w]), 2):
            codeg[u, v] = codeg.get((u, v), 0) + 1
    return {
        "P_3": sum(math.comb(d, 2) for d in deg),
        "K_1,3": sum(math.comb(d, 3) for d in deg),
        "K_3": triangles,
        "C_4": sum(math.comb(c, 2) for c in codeg.values()) // 2,
        "P_4": sum((deg[u] - 1) * (deg[v] - 1) for u, v in edges) - 3 * triangles,
    }


def induced_counts(n, edges):
    """Induced copies of P_3, K_3, P_4, C_4 and K_1,3, by enumerating every
    connected vertex set of order 3 and 4 and classifying what it induces."""
    adj = adjacency(n, edges)
    near = {v: adj[v] for v in range(n)}
    out = dict.fromkeys(("P_3", "K_3", "P_4", "C_4", "K_1,3"), 0)
    for subset in _connected_subsets(near, 4):
        if len(subset) < 3:
            continue
        degs = sorted(len(adj[v].intersection(subset)) for v in subset)
        m = sum(degs) // 2
        if len(subset) == 3:
            out["K_3" if m == 3 else "P_3"] += 1
        elif m == 3:
            out["K_1,3" if degs[-1] == 3 else "P_4"] += 1
        elif degs == [2, 2, 2, 2]:
            out["C_4"] += 1
    return out


# ---------------------------------------------------------------------------
# CLI payloads

def payload(stdout):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line of JSON, got {len(lines)}")
    return json.loads(lines[0])


def check_td(n, edges, out, expected):
    forest = out["witness"]["parent"]
    if out["treedepth"] != expected or len(forest) != n:
        return f"treedepth {out['treedepth']} != {expected}"
    depth = [0] * n
    for v in range(n):
        chain, u = set(), v
        while u != -1:
            if u in chain:
                return "witness has a cycle"
            chain.add(u)
            u = forest[u]
        depth[v] = len(chain)
    for u, v in edges:
        if not (_is_ancestor(forest, u, v) or _is_ancestor(forest, v, u)):
            return f"edge {u}-{v} joins unrelated witness vertices"
    if max(depth, default=0) != expected or out["witness"]["height"] != expected:
        return "witness height differs from treedepth"
    bounds = out["dfs_bounds"]
    if not bounds["log_lower"] <= expected <= bounds["dfs_height"]:
        return f"dfs_bounds {bounds} do not bracket treedepth {expected}"
    return None


def _is_ancestor(parent, a, v):
    while v != -1:
        if v == a:
            return True
        v = parent[v]
    return False


def check_minor_density(n, edges, out, r, expected):
    """A depth-r minor witness: disjoint branch sets of radius <= r, a host
    edge behind every minor edge, and edges/branch sets equal to the value."""
    adj = adjacency(n, edges)
    sets = [set(s) for s in out["witness"]["branch_sets"]]
    if sum(map(len, sets)) != len(set().union(*sets)):
        return "branch sets overlap"
    for s in sets:
        if not any(_ball(adj, c, r, s) == s for c in s):
            return f"branch set {sorted(s)} has radius > {r}"
    minor = out["witness"]["minor_edges"]
    for a, b in minor:
        if not any(adj[u] & sets[b] for u in sets[a]):
            return f"minor edge {a}-{b} has no host edge"
    num, den = (int(x) for x in out["value"].split("/"))
    if num * len(sets) != den * len(minor) or num != expected * den:
        return f"value {out['value']} != {len(minor)}/{len(sets)} or != {expected}"
    return None


def _ball(adj, center, r, inside=None):
    seen, frontier = {center}, [center]
    for _ in range(r):
        frontier = [w for u in frontier for w in adj[u]
                    if w not in seen and (inside is None or w in inside)]
        seen.update(frontier)
    return seen


def check_hom(src_edges, tgt_edges, witness):
    tgt = {frozenset(e) for e in tgt_edges}
    for u, v in src_edges:
        if frozenset((witness[u], witness[v])) not in tgt:
            return f"edge {u}-{v} maps to a non-edge"
    return None


def check_cover(n, edges, out):
    """Every r-ball lies in a cluster, every cluster lies within 2r of its
    centre, and max_membership counts the clusters at a vertex."""
    adj = adjacency(n, edges)
    r = out["r"]
    clusters = [set(c["vertices"]) for c in out["clusters"]]
    for c, spec in zip(clusters, out["clusters"]):
        if not c <= _ball(adj, spec["center"], 2 * r):
            return f"cluster at {spec['center']} exceeds radius {2 * r}"
    for v in range(n):
        if not any(_ball(adj, v, r) <= c for c in clusters):
            return f"ball around {v} is in no cluster"
    membership = max(sum(v in c for c in clusters) for v in range(n))
    if out["max_membership"] != membership or not out["valid"]:
        return "max_membership or valid is wrong"
    return None


def parse_edge_list(text):
    """Tokens numbered by first appearance, '# vertex TOK' included."""
    ids, edges = {}, []
    for line in text.splitlines():
        parts = line.split()
        if parts[:2] == ["#", "vertex"] and len(parts) == 3:
            ids.setdefault(parts[2], len(ids))
        elif parts and not parts[0].startswith("#"):
            u, v = (ids.setdefault(t, len(ids)) for t in parts)
            edges.append((u, v))
    return len(ids), edges


def is_tree(n, edges):
    if len(edges) != n - 1 or n < 1:
        return False
    adj = adjacency(n, edges)
    return len(_ball(adj, 0, n)) == n


def check_error(rc, stdout, stderr):
    """The documented failure form: exit 2, no stdout, one JSON line."""
    lines = stderr.splitlines()
    if rc != 2 or stdout or len(lines) != 1:
        return f"exit {rc}, {len(stdout)} bytes of stdout, {len(lines)} stderr lines"
    err = json.loads(lines[0])
    if not {"error", "message"} <= set(err):
        return "error JSON lacks error/message"
    return None
