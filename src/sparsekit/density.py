"""Exact desk-scale density measures with validating witness models: max
subgraph density (Goldberg's flow network under a Newton iteration, whose
witness is the set the flow's last level search reaches; a brute-force
oracle cross-checks it), the exhaustive shallow-minor density, and the
shallow topological-minor and shallow-immersion densities, which share one
search over principal sets that packs paths between them.

All densities are reduced rationals; equality assertions in tests are
exact. The exhaustive searches refuse instances above their size limits
instead of degrading to heuristics.
"""

import math
import re
from fractions import Fraction
from itertools import combinations

from .errors import SizeLimitError, ValidationError
from .graphs import (
    degeneracy,
    induced_subgraph,
    is_connected_mask,
    mask_edges,
    mask_of,
    mask_vertices,
    within_radius,
)


# ---------------------------------------------------------------------------
# witness models

class _Model:
    """A witness minor; its density is size / order."""

    __slots__ = ()

    def density(self):
        return Fraction(self.size(), self.order())


class MinorModel(_Model):
    """One or more disjoint sets of g's vertices, each inducing a connected
    subgraph of radius <= depth; every claimed minor edge joins two distinct
    branch sets, is listed once, and is witnessed by a base-graph edge
    between them."""

    __slots__ = ("branch_sets", "depth", "minor_edges")

    def __init__(self, branch_sets, depth, minor_edges):
        self.branch_sets = tuple(tuple(sorted(b)) for b in branch_sets)
        self.depth = depth
        self.minor_edges = tuple(sorted(tuple(sorted(e)) for e in minor_edges))

    def order(self):
        return len(self.branch_sets)

    def size(self):
        return len(self.minor_edges)

    def validate(self, g):
        if not self.branch_sets or not all(0 <= v < g.n for b in self.branch_sets for v in b):
            return False
        used = set()
        for b in self.branch_sets:
            if used & set(b):
                return False
            used |= set(b)
        for b in self.branch_sets:
            if not within_radius(g.adj_mask, mask_of(b), self.depth):
                return False
        if len(set(self.minor_edges)) != len(self.minor_edges):
            return False
        for i, j in self.minor_edges:  # stored with i <= j
            if not 0 <= i < j < len(self.branch_sets):
                return False
            ai = mask_of(self.branch_sets[i])
            aj = mask_of(self.branch_sets[j])
            if not any(g.adj_mask[v] & aj for v in mask_vertices(ai)):
                return False
        return True

    def to_json(self):
        return {
            "kind": "minor",
            "depth": self.depth,
            "branch_sets": [list(b) for b in self.branch_sets],
            "minor_edges": [list(e) for e in self.minor_edges],
        }


class _PathModel(_Model):
    """Principal vertices joined by paths of length <= 2*depth+1; the
    minor's edges are exactly the linked pairs."""

    __slots__ = ("principals", "paths", "depth")

    def __init__(self, principals, paths, depth):
        self.principals = tuple(sorted(principals))
        self.paths = tuple(tuple(p) for p in paths)
        self.depth = depth

    def order(self):
        return len(self.principals)

    def size(self):
        return len(self.paths)

    def _paths_valid(self, g):
        """The principals are distinct vertices of g, at least one, each
        path is a simple path of g of length 1..2*depth+1 between two
        principals, and no principal pair is linked twice."""
        pset = set(self.principals)
        if (not pset or len(pset) != len(self.principals)
                or not all(0 <= v < g.n for v in pset)):
            return False
        seen_pairs = set()
        for path in self.paths:
            if (len(path) < 2 or len(path) - 1 > 2 * self.depth + 1
                    or not all(0 <= v < g.n for v in path)):
                return False
            if len(set(path)) != len(path):
                return False
            if path[0] not in pset or path[-1] not in pset:
                return False
            if not all(g.has_edge(u, v) for u, v in zip(path, path[1:])):
                return False
            pair = frozenset((path[0], path[-1]))
            if pair in seen_pairs:
                return False
            seen_pairs.add(pair)
        return True

    def to_json(self):
        return {
            "kind": self.KIND,
            "depth": self.depth,
            "principals": list(self.principals),
            "paths": [list(p) for p in self.paths],
        }


class TopoModel(_PathModel):
    """Principal vertices joined by internally vertex-disjoint paths of
    length <= 2*depth+1; no principal is interior to any path; the minor's
    edges are exactly the linked pairs."""

    __slots__ = ()
    KIND = "topological"

    def validate(self, g):
        if not self._paths_valid(g):
            return False
        blocked = set(self.principals)
        for path in self.paths:
            inner = set(path[1:-1])
            if inner & blocked:
                return False
            blocked |= inner
        return True


class ImmersionModel(_PathModel):
    """Principal vertices joined by edge-disjoint paths of length
    <= 2*depth+1, with no vertex interior to more than depth paths."""

    __slots__ = ()
    KIND = "immersion"

    def validate(self, g):
        if not self._paths_valid(g):
            return False
        used_edges = set()
        interior_load = {}
        for path in self.paths:
            for u, v in zip(path, path[1:]):
                e = frozenset((u, v))
                if e in used_edges:
                    return False
                used_edges.add(e)
            for v in path[1:-1]:
                interior_load[v] = interior_load.get(v, 0) + 1
                if interior_load[v] > self.depth:
                    return False
        return True


# ---------------------------------------------------------------------------
# max subgraph density (nabla_0) via parametric max-flow

class _Dinic:
    def __init__(self, size):
        self.size = size
        self.to = []
        self.cap = []
        self.head = [[] for _ in range(size)]

    def add_edge(self, u, v, c):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def min_cut_side(self, s, t):
        """Push a maximum s-t flow by blocking flows along level graphs and
        return the source side of the minimal minimum cut, s first: the
        vertices the last level search reaches, which no longer include t."""
        while True:
            level = [-1] * self.size
            level[s] = 0
            queue = [s]
            for u in queue:
                for ei in self.head[u]:
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return queue
            self._blocking_flow(s, t, level)

    def _blocking_flow(self, s, t, level):
        """Augment along level-graph paths from s until none is left, one
        path at a time; each vertex resumes its edge scan where it stopped.
        The path is an explicit stack of edge ids, so depth costs no
        recursion."""
        head, to, cap = self.head, self.to, self.cap
        it = [0] * self.size
        path = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[ei] for ei in path)
                for ei in path:
                    cap[ei] -= pushed
                    cap[ei ^ 1] += pushed
                path.clear()
                u = s
                continue
            edges, i, nxt = head[u], it[u], level[u] + 1
            while i < len(edges) and not (cap[edges[i]] > 0 and level[to[edges[i]]] == nxt):
                i += 1
            it[u] = i
            if i < len(edges):
                path.append(edges[i])
                u = to[edges[i]]
            elif path:
                # dead end: the edge into u is spent for this phase
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return


def _denser_subgraph(g, density):
    """Vertex set with subgraph density strictly above the guess, or None.

    Goldberg's network: with guess a/b the cut for source side W equals
    n*m*b - 2*b*(||W|| - (a/b)*|W|), so the minimal min-cut side is
    nonempty exactly when a strictly denser subgraph exists.
    """
    n, m = g.n, g.m
    a, b = density.numerator, density.denominator
    s, t = n, n + 1
    net = _Dinic(n + 2)
    for v in range(n):
        net.add_edge(s, v, m * b)
        net.add_edge(v, t, m * b + 2 * a - b * g.degree(v))
    for u, v in g.edges:
        net.add_edge(u, v, b)
        net.add_edge(v, u, b)
    witness = sorted(net.min_cut_side(s, t)[1:])
    return witness or None


def nabla0(g):
    """Exact max subgraph density max_H ||H||/|H| with a witness vertex set.

    Discrete Newton iteration on the density guess: each flow round either
    produces a strictly denser witness or certifies the current one.
    """
    if g.n == 0:
        raise ValidationError("nabla0 needs at least one vertex")
    if g.m == 0:
        return Fraction(0), [0]
    witness = list(range(g.n))
    best = Fraction(g.m, g.n)
    while True:
        denser = _denser_subgraph(g, best)
        if denser is None:
            return best, witness
        density = Fraction(induced_subgraph(g, denser)[0].m, len(denser))
        if density <= best:
            return best, witness
        best, witness = density, denser


# Largest graph nabla0_bruteforce takes: it enumerates all 2^n vertex sets.
NABLA0_BRUTEFORCE_LIMIT = 16


def nabla0_bruteforce(g):
    """Subset-enumeration oracle for nabla0 (cross-check path)."""
    if g.n > NABLA0_BRUTEFORCE_LIMIT:
        raise SizeLimitError(
            f"nabla0_bruteforce limited to {NABLA0_BRUTEFORCE_LIMIT} vertices")
    if g.n == 0:
        raise ValidationError("nabla0 needs at least one vertex")
    best = Fraction(0)
    witness = [0]
    for mask in range(1, 1 << g.n):
        d = Fraction(mask_edges(g.adj_mask, mask), mask.bit_count())
        if d > best:
            best, witness = d, mask_vertices(mask)
    return best, witness


# ---------------------------------------------------------------------------
# shallow minors

def _densest_model(g, r, cls):
    """(nabla0, model): the densest subgraph as a depth-r model of class cls,
    its vertices as singleton branch sets or principals and its edges as
    minor edges or one-edge paths, so the model's density is nabla0.
    Shallow minors, topological minors and immersions of forests are
    forests, so for a forest this model is optimal at every depth."""
    value, witness = nabla0(g)
    sub, back = induced_subgraph(g, witness)
    if cls is MinorModel:
        return value, MinorModel([[v] for v in back], r, sub.edges)
    return value, cls(back, [(back[i], back[j]) for i, j in sub.edges], r)


def _is_forest(g):
    return degeneracy(g) <= 1


def _unless_search(g, r, cls, name, exact_limit):
    """The densest-subgraph model of class cls where it is optimal (r = 0 or
    a forest); otherwise None, once g is within the search's size limit."""
    if r < 0:
        raise ValidationError("depth must be >= 0")
    if g.n == 0:
        raise ValidationError(f"{name} needs at least one vertex")
    if r == 0 or _is_forest(g):
        return _densest_model(g, r, cls)
    if g.n > exact_limit:
        raise SizeLimitError(f"{name} limited to {exact_limit} vertices for r >= 1, got {g.n}")
    return None


def grad(g, r, exact_limit=12):
    """Exact max density over depth-r shallow minors, with a witness model.

    r = 0 delegates to the flow-based densest subgraph. For r >= 1 the
    search enumerates families of disjoint connected branch sets of radius
    <= r (growing from the smallest unassigned vertex, so each family is
    visited once) with an upper-bound cut on the achievable density.
    """
    found = _unless_search(g, r, MinorModel, "grad", exact_limit)
    if found:
        return found
    n, m = g.n, g.m
    adj = g.adj_mask
    by_lowest = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        # the component search rejects most masks faster than the BFS
        if is_connected_mask(adj, mask) and within_radius(adj, mask, r):
            nbr = 0
            for v in mask_vertices(mask):
                nbr |= adj[v]
            low = (mask & -mask).bit_length() - 1
            by_lowest[low].append((mask, nbr & ~mask, mask_edges(adj, mask)))
    for lst in by_lowest:
        # larger sets first reaches contracted structures early
        lst.sort(key=lambda c: (-c[0].bit_count(), c[0]))

    best = list(_densest_model(g, r, MinorModel))
    sets = []
    nbrs = []

    # densities compare by cross-multiplication: x / y > best[0] with y > 0
    # iff x * den > num * y
    def bound_allows(e, h, blocked, internal):
        free = n - blocked.bit_count()
        budget = m - internal - e
        num, den = best[0].numerator, best[0].denominator
        for a in range(free + 1):
            if h + a == 0:
                continue
            gain = min(a * h + a * (a - 1) // 2, budget)
            if (e + gain) * den > num * (h + a):
                return True
        return False

    def rec(v, blocked, e, internal):
        h = len(sets)
        if h and e * best[0].denominator > best[0].numerator * h:
            edges_h = [
                (i, j)
                for i, j in combinations(range(h), 2)
                if nbrs[i] & sets[j]
            ]
            best[0] = Fraction(len(edges_h), h)
            best[1] = MinorModel([mask_vertices(s) for s in sets], r, edges_h)
        while v < n and (blocked >> v) & 1:
            v += 1
        if v == n:
            return
        if not bound_allows(e, h, blocked, internal):
            return
        for mask, nbr, inner in by_lowest[v]:
            if mask & blocked:
                continue
            gained = sum(1 for s in sets if nbr & s)
            sets.append(mask)
            nbrs.append(nbr)
            rec(v + 1, blocked | mask, e + gained, internal + inner)
            sets.pop()
            nbrs.pop()
        rec(v + 1, blocked | (1 << v), e, internal)

    rec(0, 0, 0, 0)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# shallow topological minors and immersions

def _edge_bits(g):
    """Edge bit of each ordered vertex pair joined by an edge of g."""
    bit = {}
    for i, (u, v) in enumerate(g.edges):
        bit[u, v] = bit[v, u] = 1 << i
    return bit


def _paths_between(g, u, v, max_len, forbidden, edge_bit):
    """Simple u-v paths of length <= max_len with no interior vertex in the
    forbidden mask, one per interior vertex set, as (path, edge mask,
    interior) triples."""
    by_interior = {}
    path = [u]

    def walk(x, em):
        for w in g.adj[x]:
            if w == v:
                interior = tuple(path[1:])
                by_interior.setdefault(frozenset(interior),
                                       (tuple(path) + (v,), em | edge_bit[x, v], interior))
            elif not (w in path or forbidden >> w & 1 or len(path) >= max_len):
                path.append(w)
                walk(w, em | edge_bit[x, w])
                path.pop()

    walk(u, 0)
    return list(by_interior.values())


def _pack_paths(pairs, cap, n):
    """Most paths, at most one from each candidate list in pairs, that are
    pairwise edge-disjoint with no vertex interior to more than cap >= 1 of
    them (exhaustive branch and bound over the lists in order). A branch is
    cut when its paths plus the pairs left with a candidate that still fits
    cannot beat the best packing, and the search ends once every pair holds
    a path; both cuts keep the first best packing in search order.

    Candidates are numbered through all lists; a bitmask over those numbers
    holds the ones that still fit, and choosing a path clears the ones
    sharing an edge with it and those through a vertex it fills."""
    flat = [cand for cands in pairs for cand in cands]
    starts = [0]
    for cands in pairs:
        starts.append(starts[-1] + len(cands))
    pair_mask = [(1 << end) - (1 << start) for start, end in zip(starts, starts[1:])]
    on_edge = {}
    through = [0] * n
    for i, (_, em, interior) in enumerate(flat):
        for e in mask_vertices(em):
            on_edge[e] = on_edge.get(e, 0) | 1 << i
        for x in interior:
            through[x] |= 1 << i
    clash = []  # per candidate, the candidates sharing an edge with it
    for _, em, _ in flat:
        mask = 0
        for e in mask_vertices(em):
            mask |= on_edge[e]
        clash.append(mask)
    load = [0] * n
    chosen = []
    best = []

    def pack(idx, fit):
        # True once every pair holds a path
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) == len(pairs):
                return True
        slack = len(best) - len(chosen)
        if len(pairs) - idx <= slack:
            return False
        open_pairs = 0  # the pairs left that can still take a path, up to slack + 1
        for mask in pair_mask[idx:]:
            if mask & fit:
                open_pairs += 1
                if open_pairs > slack:
                    break
        else:
            return False
        for i in range(starts[idx], starts[idx + 1]):
            if not fit >> i & 1:
                continue
            path, _, interior = flat[i]
            rest = fit & ~clash[i]
            for x in interior:
                load[x] += 1
                if load[x] == cap:
                    rest &= ~through[x]
            chosen.append(path)
            if pack(idx + 1, rest):
                return True
            chosen.pop()
            for x in interior:
                load[x] -= 1
        return pack(idx + 1, fit)

    pack(0, (1 << len(flat)) - 1)
    return best


def _degree_bound(g, principals):
    """An upper bound on the density of a path model on these principals:
    each path or edge ending at a principal u leaves u on an edge of its
    own, and u is linked to at most k - 1 others, so u ends at most
    min(deg u, k - 1) of them."""
    k = len(principals)
    return Fraction(sum(min(g.degree(u), k - 1) for u in principals) // 2, k)


def top_grad(g, r, exact_limit=12):
    """Exact max density over depth-r shallow topological minors.

    Enumerates principal-vertex sets (filtered by an achievability bound
    and by _degree_bound), then packs internally vertex-disjoint paths of
    length <= 2r+1 between non-adjacent principal pairs by exhaustive
    search (every edge of such a path meets its interior, so interior load
    1 keeps them edge-disjoint).
    """
    return _path_grad(g, r, TopoModel, "top_grad", exact_limit)


def imm_grad(g, r, exact_limit=10):
    """Exact max density over depth-r shallow immersions: edge-disjoint
    paths of length <= 2r+1 with per-vertex interior load <= r, packed for
    each principal set that passes an edge-count bound and _degree_bound."""
    return _path_grad(g, r, ImmersionModel, "imm_grad", exact_limit)


def _path_grad(g, r, cls, name, exact_limit):
    """The principal-set search of top_grad (cls TopoModel) and imm_grad
    (cls ImmersionModel), over principal sets by falling achievability
    bound, then mask. A topological minor counts adjacent principals as
    edges, keeps principals out of path interiors, caps interior load at 1
    and bounds k principals with e0 adjacent pairs by e0 + (n - k) edges
    (each path needs an interior vertex of its own); an immersion packs a
    path for every pair, caps interior load at r and bounds by m."""
    found = _unless_search(g, r, cls, name, exact_limit)
    if found:
        return found
    topological = cls is TopoModel
    n, m = g.n, g.m
    edge_bit = _edge_bits(g)
    best = _densest_model(g, r, cls)

    subsets = []
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        reach = mask_edges(g.adj_mask, mask) + (n - k) if topological else m
        subsets.append((Fraction(min(k * (k - 1) // 2, reach), k), mask))
    subsets.sort(key=lambda s: (-s[0], s[1]))

    for ub, mask in subsets:
        if ub <= best[0]:
            continue
        principals = mask_vertices(mask)
        k = len(principals)
        if _degree_bound(g, principals) <= best[0]:
            continue
        edges, pairs = [], []
        for u, v in combinations(principals, 2):
            if topological and g.has_edge(u, v):
                edges.append((u, v))
                continue
            cands = _paths_between(g, u, v, 2 * r + 1, mask if topological else 0, edge_bit)
            if cands:
                pairs.append(cands)
        if not Fraction(len(edges) + len(pairs), k) > best[0]:
            continue
        packed = _pack_paths(pairs, 1 if topological else r, n)
        value = Fraction(len(edges) + len(packed), k)
        if value > best[0]:
            best = value, cls(principals, edges + packed, r)
    return best


# ---------------------------------------------------------------------------
# logarithmic-density profiles

def _profile_graph(family, size):
    from .generators import bounded_degree_graph, random_tree
    from .graphs import named

    mt = re.match(r"^subdivided_cliques\((\d+)\)$", family)
    if mt:
        p = int(mt.group(1))
        return named(f"sub_{p}(K_{size})"), ("clique", size, p)
    mt = re.match(r"^bounded_degree_random\((\d+)\)$", family)
    if mt:
        d = int(mt.group(1))
        return bounded_degree_graph(size, d, seed=size), None
    if family == "grids":
        return named(f"grid_{size}x{size}"), None
    if family == "trees":
        return random_tree(size, seed=size), None
    raise ValidationError(f"unknown profile family {family!r}")


def _planted_clique_model(t, p, r):
    """Witness recovering K_t from its p-th subdivision (requires p <= 2r):
    principals are the original ids, paths the subdivision chains."""
    paths = []
    for idx, (i, j) in enumerate(combinations(range(t), 2)):
        chain = [i] + [t + idx * p + x for x in range(p)] + [j]
        paths.append(tuple(chain))
    return TopoModel(list(range(t)), paths, r)


def density_profile(family, r, sizes, exact_limit=12):
    """Rows of the logarithmic-density trajectory for a graph family.

    Within the exact limit the shallow-topological-minor density is exact;
    beyond it the row carries a certified lower bound (a validated witness
    model: the planted clique for subdivided cliques, else the densest
    subgraph), flagged by the `exact` column. log_density is
    log(size)/log(order) of the witness minor.
    """
    if r < 0:
        raise ValidationError("depth must be >= 0")
    rows = []
    for size in sizes:
        g, planted = _profile_graph(family, size)
        if g.n <= exact_limit or _is_forest(g):
            value, model = top_grad(g, r, exact_limit=exact_limit)
            exact = True
        elif planted is not None and planted[2] <= 2 * r:
            t, p = planted[1], planted[2]
            model = _planted_clique_model(t, p, r)
            if not model.validate(g):
                raise ValidationError("planted witness failed validation")
            value = model.density()
            exact = False
        else:
            value, model = _densest_model(g, r, TopoModel)
            exact = False
        order, sz = model.order(), model.size()
        if order >= 2 and sz >= 1:
            log_density = math.log(sz) / math.log(order)
        else:
            log_density = None
        rows.append({
            "family": family,
            "n": g.n,
            "m": g.m,
            "r": r,
            "density": f"{value.numerator}/{value.denominator}",
            "density_float": float(value),
            "exact": exact,
            "witness_order": order,
            "witness_size": sz,
            "log_density": log_density,
        })
    return rows
