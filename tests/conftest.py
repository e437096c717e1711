"""Shared corpus builders and independent oracles for the test suite.

Oracles here deliberately re-derive values by the dumbest correct method
(plain recursion, exhaustive enumeration) so the fast library paths are
checked against something that cannot share their bugs.
"""

import os
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from sparsekit import Graph, bounded_degree_graph, random_tree, triangulation
from sparsekit.counting import _COUNT_LIMIT
from sparsekit.decomposition import ROUND_CAP, _orient_smallest_last
from sparsekit.errors import SizeLimitError, ValidationError
from sparsekit.graphs import (
    ARC_FRATERNAL,
    ARC_TRANSITIVE,
    Orientation,
    anchored_order,
    colorset_components,
    connected_subsets,
)
from sparsekit.rng import Xoshiro256
from sparsekit.treedepth import NO_PARENT, treedepth_at_most


def cli_env(**extra):
    """Environment for a child `python -m sparsekit`: this process's, with
    the package's source directory at the front of PYTHONPATH (pytest's
    pythonpath setting reaches only the test process), plus `extra`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(extra)
    return env


def random_graph(n, edge_percent, seed):
    """G(n, p) with p in percent, driven by the pinned generator."""
    rng = Xoshiro256(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(100) < edge_percent
    ]
    return Graph(n, edges)


def counting_gate_hosts():
    """The 100 hosts of the counting oracle gate (criterion 5): trees,
    max-degree-4 graphs, triangulations and G(n, 18%), n from 8 to 40."""
    hosts = []
    for i in range(100):
        n = 8 + (i * 7) % 33
        kind = i % 4
        if kind == 0:
            hosts.append(random_tree(n, seed=i))
        elif kind == 1:
            hosts.append(bounded_degree_graph(n, 4, seed=i))
        elif kind == 2:
            hosts.append(triangulation(max(n, 4), seed=i))
        else:
            hosts.append(random_graph(n, 18, seed=i))
    return hosts


# ---------------------------------------------------------------------------
# tree-depth oracle: the bare delete-a-vertex recursion, no memo, no pruning

def treedepth_oracle(g):
    def components(vertices):
        vset = set(vertices)
        seen = set()
        comps = []
        for s in vertices:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for w in g.adj[u]:
                    if w in vset and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def td(vertices):
        if not vertices:
            return 0
        comps = components(vertices)
        if len(comps) > 1:
            return max(td(c) for c in comps)
        if len(vertices) == 1:
            return 1
        return 1 + min(td([u for u in vertices if u != v]) for v in vertices)

    return td(list(range(g.n)))


# ---------------------------------------------------------------------------
# degeneracy oracle: max over subgraphs of min degree, by explicit peeling

def degeneracy_oracle(g):
    best = 0
    for subset_size in range(1, g.n + 1):
        for subset in combinations(range(g.n), subset_size):
            sset = set(subset)
            mindeg = min(sum(1 for w in g.adj[v] if w in sset) for v in subset)
            best = max(best, mindeg)
    return best


# ---------------------------------------------------------------------------
# smallest-last peel oracles: the full-scan min(alive, ...) peels, one per
# former caller, kept to check the shared heap peel against

def smallest_last_order_oracle(g):
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    order = []
    for _ in range(g.n):
        v = min(alive, key=lambda x: (deg[x], x))
        order.append(v)
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    order.reverse()
    return order


def degeneracy_peel_oracle(g):
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    best = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        best = max(best, deg[v])
        alive.remove(v)
        for w in g.adj[v]:
            if w in alive:
                deg[w] -= 1
    return best


def orient_smallest_last_oracle(edges):
    if not edges:
        return []
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    alive = set(adj)
    arcs = []
    while alive:
        v = min(alive, key=lambda x: (sum(1 for w in adj[x] if w in alive), x))
        for w in adj[v]:
            if w in alive:
                arcs.append((w, v))
        alive.remove(v)
    return arcs


# ---------------------------------------------------------------------------
# augmentation oracle: tf_augment as it was before its rounds ran in place on
# neighbour sets (arcs rebuilt into lists each round, adjacency as a set of
# frozensets); _orient_smallest_last is checked against the peel oracle above

def tf_augment_oracle(orientation, rounds):
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if rounds > ROUND_CAP:
        raise SizeLimitError(f"augmentation round cap {ROUND_CAP} exceeded")
    arcs = dict.fromkeys(orientation.arcs)
    kind = dict(orientation.arc_kind)
    rnd = dict(orientation.arc_round)
    adjacent = {frozenset(a) for a in arcs}
    base_round = max(rnd.values(), default=0)

    for step in range(1, rounds + 1):
        this_round = base_round + step
        out = {}
        inn = {}
        for u, v in arcs:
            out.setdefault(u, []).append(v)
            inn.setdefault(v, []).append(u)
        transitive = set()
        for v, heads in out.items():
            for u in inn.get(v, ()):
                for w in heads:
                    if u != w and frozenset((u, w)) not in adjacent:
                        transitive.add((u, w))
        fraternal = set()
        for v, tails in inn.items():
            for u, w in combinations(sorted(tails), 2):
                if frozenset((u, w)) not in adjacent:
                    fraternal.add((u, w))
        if not transitive and not fraternal:
            break
        for a in sorted(transitive):
            pair = frozenset(a)
            if pair in adjacent:
                continue  # opposite direction was added first
            adjacent.add(pair)
            arcs[a] = None
            kind[a] = ARC_TRANSITIVE
            rnd[a] = this_round
        fresh = [e for e in sorted(fraternal) if frozenset(e) not in adjacent]
        for a in _orient_smallest_last(fresh):
            adjacent.add(frozenset(a))
            arcs[a] = None
            kind[a] = ARC_FRATERNAL
            rnd[a] = this_round
    return Orientation(orientation.base, list(arcs), kind, rnd)


# ---------------------------------------------------------------------------
# embedding oracle: the enumerator as it was before it ran on host bitmasks
# (one has_edge call per mapped neighbour, a used set, a degree test per
# candidate); returns the labeled count, or with find=True the first
# embedding in ascending candidate order

def count_embeddings_oracle(pattern, host, induced, find):
    if pattern.n > host.n:
        return None if find else 0
    order, anchor = anchored_order(pattern)
    image = [-1] * pattern.n
    used = set()
    total = [0]
    found = [None]

    def ok(v, t):
        for w in pattern.adj[v]:
            iw = image[w]
            if iw >= 0 and not host.has_edge(t, iw):
                return False
        if induced:
            for w in range(pattern.n):
                iw = image[w]
                if iw >= 0 and w != v:
                    if host.has_edge(t, iw) and not pattern.has_edge(v, w):
                        return False
        return True

    def rec(i):
        if i == pattern.n:
            if find:
                found[0] = dict(enumerate(image))
                return True
            total[0] += 1
            if total[0] > _COUNT_LIMIT:
                raise SizeLimitError("embedding count exceeds 64-bit range")
            return False
        v = order[i]
        anc = anchor[i]
        if anc is None:
            candidates = range(host.n)
        else:
            candidates = host.adj[image[anc]]
        for t in candidates:
            if t in used or host.degree(t) < pattern.degree(v):
                continue
            if not ok(v, t):
                continue
            image[v] = t
            used.add(t)
            if rec(i + 1):
                return True
            used.remove(t)
            image[v] = -1
        return False

    rec(0)
    return found[0] if find else total[0]


# ---------------------------------------------------------------------------
# counting oracle: the decomposition-based count as it was before one loop ran
# over colour-set pieces and each forest vertex read its options as one
# pattern mask (a loop per pattern kind, a list of options per vertex, each
# pattern vertex tested against every assigned ancestor); returns the labeled
# count, which count_ltd divides by the automorphism count

def count_connected_pattern_oracle(g, h, colors, induced):
    total = 0
    for subset, comp in colorset_components(g, colors, h.n):
        if len(comp) < h.n:
            continue
        total += count_exact_colorset_oracle(g, h, comp, subset, colors, induced)
        if total > _COUNT_LIMIT:
            raise SizeLimitError("count exceeds 64-bit range")
    return total


def count_general_pattern_oracle(g, h, colors, induced):
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    present = sorted(classes)
    total = 0
    for size in range(1, min(h.n, len(present)) + 1):
        for subset in combinations(present, size):
            vertices = []
            for c in subset:
                vertices.extend(classes[c])
            vertices.sort()
            if len(vertices) < h.n:
                continue
            total += count_exact_colorset_oracle(g, h, vertices, subset, colors, induced)
            if total > _COUNT_LIMIT:
                raise SizeLimitError("count exceeds 64-bit range")
    return total


def count_exact_colorset_oracle(g, h, vertices, subset, colors, induced):
    """Labeled embeddings of h into G[vertices] whose color image is exactly
    the given color subset. The DP runs over an elimination forest of
    G[vertices] on g's own ids, without a copy."""
    parent = treedepth_at_most(g, len(subset), vertices)
    if parent is None:
        raise ValidationError(
            "decomposition invalid: a color subset induces tree-depth above its size")
    color_bit = {c: i for i, c in enumerate(subset)}
    vcolor = {v: color_bit[colors[v]] for v in vertices}
    children = {v: [] for v in vertices}
    roots = []
    # ascending ids fix the order in which the DP merges children and roots
    for v in sorted(vertices):
        p = parent[v]
        if p == NO_PARENT:
            roots.append(v)
        else:
            children[p].append(v)
    hn = h.n
    full_state = ((1 << len(subset)) - 1) << hn | ((1 << hn) - 1)
    hedge_mask = [0] * hn
    for a, b in h.edges:
        hedge_mask[a] |= 1 << b
        hedge_mask[b] |= 1 << a
    # union of pattern neighborhoods per used-subset, for O(1) merge checks
    nbr_union = [0] * (1 << hn)
    for u in range(1, 1 << hn):
        low = u & -u
        nbr_union[u] = nbr_union[u ^ low] | hedge_mask[low.bit_length() - 1]
    used_mask = (1 << hn) - 1
    adj_mask = g.adj_mask

    def merge(acc, vec):
        # state key packs (color_mask << hn) | used_mask
        if len(acc) == 1 and 0 in acc and acc[0] == 1:
            return vec
        if len(vec) < len(acc):
            acc, vec = vec, acc
        out = {}
        get = out.get
        for s1, n1 in acc.items():
            u1 = s1 & used_mask
            for s2, n2 in vec.items():
                u2 = s2 & used_mask
                # disjoint embeddings, and pattern edges cannot cross
                # incomparable forest parts
                if u1 & u2 or nbr_union[u2] & u1:
                    continue
                key = s1 | s2
                out[key] = get(key, 0) + n1 * n2
        return out

    def options_at(v, chain):
        opts = [None]
        adj_v = adj_mask[v]
        for hv in range(hn):
            hedges = hedge_mask[hv]
            fits = True
            for (av, ah) in chain:
                if ah == hv:
                    fits = False
                    break
                g_edge = adj_v >> av & 1
                h_edge = hedges >> ah & 1
                if h_edge and not g_edge:
                    fits = False
                    break
                if induced and g_edge and not h_edge:
                    fits = False
                    break
            if fits:
                opts.append(hv)
        return opts

    def subtree(v, chain):
        # chain: tuple of (host vertex, pattern vertex) assigned ancestors
        options = options_at(v, chain)
        kids = children[v]
        if not kids:
            result = {0: 1}
            base_color = 1 << (vcolor[v] + hn)
            for opt in options:
                if opt is not None:
                    key = base_color | (1 << opt)
                    result[key] = result.get(key, 0) + 1
            return result
        result = {}
        for opt in options:
            if opt is None:
                new_chain = chain
                base = 0
            else:
                new_chain = chain + ((v, opt),)
                base = (1 << (vcolor[v] + hn)) | (1 << opt)
            acc = {0: 1}
            for child in kids:
                acc = merge(acc, subtree(child, new_chain))
                if not acc:
                    break
            if opt is None:
                for s, cnt in acc.items():
                    result[s] = result.get(s, 0) + cnt
            else:
                bit = 1 << opt
                for s, cnt in acc.items():
                    if s & bit:
                        continue
                    key = s | base
                    result[key] = result.get(key, 0) + cnt
        return result

    acc = {0: 1}
    for root in roots:
        acc = merge(acc, subtree(root, ()))
        if not acc:
            break
    return acc.get(full_state, 0)


def components_oracle(g, vertices):
    """Components of G[vertices] as sorted tuples, by smallest member: one
    breadth-first search from each vertex not yet reached, in ascending
    order."""
    keep = set(vertices)
    seen = set()
    comps = []
    for s in sorted(keep):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for u in comp:
            for w in g.adj[u]:
                if w in keep and w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


# ---------------------------------------------------------------------------
# LTD verification oracle: the full lexicographic scan over every color set of
# size <= p, splitting each into components and testing every component
# larger than the budget; returns (ok, counterexample). It pins both halves of
# verify_ltd: the decision from the connected color sets and the
# counterexample from the superset rule

def verify_ltd_oracle(g, p, coloring):
    def color_subsets_lex(colors_present):
        def extend(prefix, start):
            for c in colors_present[start:]:
                subset = prefix + (c,)
                yield subset
                if len(subset) < p:
                    yield from extend(subset, colors_present.index(c) + 1)

        yield from extend((), 0)

    def induced(vertices):
        pos = {v: i for i, v in enumerate(vertices)}
        keep = set(vertices)
        edges = []
        for v in vertices:
            for w in g.adj[v]:
                if w in keep and v < w:
                    edges.append((pos[v], pos[w]))
        return Graph(len(vertices), edges)

    classes = {}
    for v, c in enumerate(coloring.assignment):
        classes.setdefault(c, []).append(v)
    memo = {}
    for subset in color_subsets_lex(sorted(classes)):
        vertices = []
        for c in subset:
            vertices.extend(classes[c])
        vertices.sort()
        budget = len(subset)
        for comp in components_oracle(g, vertices):
            if len(comp) <= budget:
                continue
            key = (comp, budget)
            if key not in memo:
                memo[key] = treedepth_at_most(induced(comp), budget) is not None
            if not memo[key]:
                return False, subset
    return True, None


# ---------------------------------------------------------------------------
# colour-set component oracle: the generator as it was before it grew larger
# colour sets from the full components of smaller ones (one breadth-first
# search per connected colour set, from the set's smallest colour class);
# yields (colour set, components) per set, in the colour graph's ESU order

def colorset_components_oracle(g, colors, max_size):
    """(color set as a sorted tuple, components) for each set of 2..max_size
    colors connected in the color graph (colors adjacent when an edge joins
    them) whose G[set] has components using every color of the set; those
    components, as vertex lists, are grown only from the set's smallest
    color class, which each of them meets."""
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    color_adj = {c: set() for c in classes}
    for u, v in g.edges:
        cu, cv = colors[u], colors[v]
        if cu != cv:
            color_adj[cu].add(cv)
            color_adj[cv].add(cu)
    color_adj = {c: sorted(nbrs) for c, nbrs in color_adj.items()}
    adj = g.adj
    for subset in connected_subsets(color_adj, sorted(classes), max_size):
        size = len(subset)
        if size < 2:
            continue
        seen = set()
        comps = []
        for s in classes[min(subset, key=lambda c: len(classes[c]))]:
            if s in seen:
                continue
            seen.add(s)
            comp = [s]
            for u in comp:  # breadth-first: comp grows while it is scanned
                for w in adj[u]:
                    if colors[w] in subset and w not in seen:
                        seen.add(w)
                        comp.append(w)
            if len(comp) >= size and len({colors[v] for v in comp}) == size:
                comps.append(comp)
        if comps:
            yield tuple(sorted(subset)), comps


# ---------------------------------------------------------------------------
# path-packing oracle: the packer as it was before it counted the pairs still
# able to take a path and stopped once every pair held one (its only cut is
# "chosen + pairs left <= best"); the same first best packing in search order

def pack_paths_oracle(pairs, cap, n):
    load = [0] * n
    chosen = []
    best = []

    def pack(idx, used_edges):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if idx == len(pairs):
            return
        if len(chosen) + (len(pairs) - idx) <= len(best):
            return
        for path, em, interior in pairs[idx]:
            if em & used_edges or any(load[x] >= cap for x in interior):
                continue
            for x in interior:
                load[x] += 1
            chosen.append(path)
            pack(idx + 1, used_edges | em)
            chosen.pop()
            for x in interior:
                load[x] -= 1
        pack(idx + 1, used_edges)

    pack(0, 0)
    return best


# ---------------------------------------------------------------------------
# path-density oracle: the depth-r shallow topological-minor (topological)
# or immersion density, the best over every principal set of the packing of
# every simple path of length <= 2r + 1 between its pairs; topological
# paths avoid the principals inside and adjacent principals count as edges

def path_density_oracle(g, r, topological):
    edge_bit = {}
    for i, (u, v) in enumerate(g.edges):
        edge_bit[u, v] = edge_bit[v, u] = 1 << i

    def paths(u, v, blocked):
        found = []

        def walk(path, em):
            x = path[-1]
            for w in g.adj[x]:
                if w == v:
                    found.append((path + (v,), em | edge_bit[x, v], path[1:]))
                elif w not in path and w not in blocked and len(path) <= 2 * r:
                    walk(path + (w,), em | edge_bit[x, w])

        walk((u,), 0)
        return found

    best = Fraction(0)
    for k in range(1, g.n + 1):
        for principals in combinations(range(g.n), k):
            edges = 0
            pairs = []
            for u, v in combinations(principals, 2):
                if not topological:
                    pairs.append(paths(u, v, ()))
                elif g.has_edge(u, v):
                    edges += 1
                else:
                    pairs.append(paths(u, v, principals))
            packed = pack_paths_oracle(pairs, 1 if topological else r, g.n)
            best = max(best, Fraction(edges + len(packed), k))
    return best


# ---------------------------------------------------------------------------
# maximum-clique oracle: the largest k for which some k-combination of the
# vertices is pairwise adjacent, trying k = 1, 2, ... until none is

def clique_number_oracle(g):
    edges = set(g.edges)
    best = 0
    for k in range(1, g.n + 1):
        if not any(all(e in edges for e in combinations(subset, 2))
                   for subset in combinations(range(g.n), k)):
            break
        best = k
    return best


# ---------------------------------------------------------------------------
# chromatic-number oracle: the least k for which some map of the vertices to
# k colours gives the ends of every edge different colours, trying all k ** n
# maps for k = 0, 1, 2, ...

def chromatic_oracle(g):
    return next(k for k in range(g.n + 1)
                if any(all(f[u] != f[v] for u, v in g.edges)
                       for f in product(range(k), repeat=g.n)))


# ---------------------------------------------------------------------------
# cover oracle: verify_cover as the plain scan it was before the clusters were
# indexed by vertex, each r-ball tested against every cluster in order; the
# balls, cluster connectivity and cluster radii come from a BFS of its own

def verify_cover_oracle(g, cover):
    def distances(source, keep):
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for w in g.adj[u]:
                if w in keep and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    r = cover.r
    sets = []
    for vs, _, _ in cover.clusters:
        cluster = set(vs)
        if cluster and len(distances(min(cluster), cluster)) < len(cluster):
            return False, ("disconnected-cluster", list(vs))
        if cluster and min(max(distances(c, cluster).values()) for c in cluster) > 2 * r:
            return False, ("radius-exceeded", list(vs))
        sets.append(cluster)
    everything = set(range(g.n))
    for v in range(g.n):
        ball = {w for w, d in distances(v, everything).items() if d <= r}
        if not any(ball <= cluster for cluster in sets):
            return False, ("uncovered-neighborhood", v)
    return True, None


# ---------------------------------------------------------------------------
# radius oracle: the least BFS eccentricity, inside the vertex set, over its
# vertices, on an adjacency built from the edge list; None for an empty or
# disconnected set

def radius_oracle(g, vertices):
    nbrs = {v: [] for v in vertices}
    for u, v in g.edges:
        if u in nbrs and v in nbrs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    eccentricities = []
    for source in vertices:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < len(nbrs):
            return None
        eccentricities.append(max(dist.values()))
    return min(eccentricities, default=None)


# ---------------------------------------------------------------------------
# homomorphism oracle: some map of g's vertices to h's sends every edge of g
# to an edge of h, trying all h.n ** g.n maps

def hom_oracle(g, h):
    arcs = set(h.edges) | {(b, a) for a, b in h.edges}
    return any(all((f[u], f[v]) in arcs for u, v in g.edges)
               for f in product(range(h.n), repeat=g.n))


# ---------------------------------------------------------------------------
# isomorphism-class enumeration for the exhaustive small-graph catalog

def all_graphs_up_to_iso(n):
    """One representative per isomorphism class of graphs on n vertices.

    Deleting vertex n - 1 leaves a graph on n - 1 vertices, so each class
    is found by joining a new vertex to every subset of a smaller class's
    representative; a class is keyed by its smallest relabelled edge list.
    """
    if n <= 1:
        return [Graph(n, [])]
    perms = list(permutations(range(n)))
    found = {}
    for smaller in all_graphs_up_to_iso(n - 1):
        for nbrs in range(1 << (n - 1)):
            edges = [*smaller.edges, *((v, n - 1) for v in range(n - 1) if nbrs >> v & 1)]
            canon = min(
                tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
                for perm in perms
            )
            if canon not in found:
                found[canon] = Graph(n, canon)
    return list(found.values())


@pytest.fixture(scope="session")
def small_graph_sample():
    """Mixed random graphs with n <= 8 for cross-check tests."""
    sample = []
    for seed in range(160):
        n = 1 + seed % 8
        density = 15 + (seed * 13) % 75
        sample.append(random_graph(n, density, seed=seed + 1000))
    return sample


@pytest.fixture(scope="session")
def peel_sample(small_graph_sample):
    """small_graph_sample plus seeded sparse graphs with n in the hundreds."""
    sample = list(small_graph_sample)
    for seed, n in enumerate((150, 300, 500), start=1):
        sample.append(random_tree(n, seed=seed))
        sample.append(triangulation(n, seed=seed))
        sample.append(bounded_degree_graph(n, 4, seed=seed))
    return sample
