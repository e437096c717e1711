"""Low tree-depth decompositions via transitive-fraternal augmentation,
independent verification, the brute-force chi_p oracle, and tree-depth
cluster covers.

The augmentation schedule starts at zero rounds and escalates until the
output verifies, so palettes stay as small as the graph allows; correctness
comes from the verifier, never from trusting the construction.

The verifier decides a coloring from the connected pieces that carry each
color set, not from every set. The coloring holds (every set I of at most p
colors induces td <= |I|) exactly when no edge is monochromatic (the sets
of size 1) and, for every I of 2..p colors connected in the color graph,
each component C of G[I] that uses all colors of I has td <= |I|. C needs
no test when |C| <= |I|, or when some color c occurs exactly once in C. By
induction on |I|, whatever order the sets are checked in: a component of
G[I] with a smaller spectrum J is a component of G[J], so td <= |J|; and
deleting the one vertex of color c from C leaves components of G[I - c],
each of td <= |I| - 1, so td(C) <= |I|. Only the components left need the
exact test.

A failing coloring's counterexample comes from the same components by the
superset rule. A component C of G[I] is a full-spectrum component of G[J]
for its spectrum J (a color class's component when |J| = 1), and such a C
lies in a component of G[I] of td >= td(C) for every I containing J. So the
smallest I that C makes violate adds to J the smallest colors absent from J
and below max(J), up to min(p, td(C) - 1) colors. That set with p colors
is a lower bound, so the components are tested in its order and the scan
stops once it reaches the best set found. These tests skip the shortcut,
whose induction assumes that the smaller sets hold.
"""

from collections import Counter
from itertools import chain, combinations
from math import comb

from .errors import SizeLimitError, SparsekitError, ValidationError
from .graphs import (
    ARC_FRATERNAL,
    ARC_TRANSITIVE,
    Orientation,
    colorset_components,
    connected_subsets,
    peel_smallest_last,
    smallest_last_order,
    subset_components,
)
from .treedepth import Coloring, _greedy_coloring, bitmask_td_solver, treedepth_at_most


class LtdVerificationError(SparsekitError):
    """Raised when no verified decomposition could be produced; carries the
    offending color subset of the last attempt."""

    def __init__(self, message, counterexample):
        super().__init__(message)
        self.counterexample = tuple(counterexample)


class LtdDecomposition:
    """A coloring claimed to be a low tree-depth decomposition for parameter p:
    any I of at most p colors induces a subgraph of tree-depth at most |I|."""

    __slots__ = ("coloring", "p", "rounds_used", "verified")

    def __init__(self, coloring, p, rounds_used, verified):
        self.coloring = coloring
        self.p = p
        self.rounds_used = rounds_used
        self.verified = verified

    def to_json(self):
        return {
            "palette": self.coloring.palette,
            "colors": list(self.coloring.assignment),
            "rounds_used": self.rounds_used,
            "verified": self.verified,
        }


class LtdVerification:
    """Verifier outcome: truthy iff every color subset passed.

    counterexample is the lexicographically smallest violating color set, or
    None; a failing outcome keeps only (g, p, coloring) and derives it on
    first read, by the superset rule.
    """

    __slots__ = ("ok", "_failed", "_counterexample")

    def __init__(self, ok, failed=None):
        self.ok = ok
        self._failed = failed  # (g, p, coloring) of a failing one
        self._counterexample = None

    @property
    def counterexample(self):
        if self._counterexample is None and self._failed:
            self._counterexample = _smallest_violation(*self._failed)
        return self._counterexample

    def __bool__(self):
        return self.ok


class ClusterCover:
    """Vertex clusters covering every connected subgraph of order <= t,
    each cluster inducing a connected subgraph of tree-depth <= t."""

    __slots__ = ("clusters", "t", "palette", "membership_bound")

    def __init__(self, clusters, t, palette=None, membership_bound=None):
        self.clusters = tuple(tuple(sorted(c)) for c in clusters)
        self.t = t
        self.palette = palette
        self.membership_bound = membership_bound

    def max_membership(self, n):
        counts = [0] * n
        for cluster in self.clusters:
            for v in cluster:
                counts[v] += 1
        return max(counts) if counts else 0

    def to_json(self):
        return {
            "t": self.t,
            "clusters": [list(c) for c in self.clusters],
            "palette": self.palette,
            "membership_bound": self.membership_bound,
        }


# ---------------------------------------------------------------------------
# transitive fraternal augmentation

# The most augmentation rounds tf_augment runs; it refuses more.
ROUND_CAP = 12


def tf_augment(orientation, rounds):
    """Apply `rounds` augmentation rounds to an orientation.

    Per round, computed from the arcs present at the start of the round:
      - transitive pair u->v->w (u != w, pair not yet adjacent): arc u->w;
      - fraternal pair u->v, w->v (u != w, pair not yet adjacent):
        undirected edge {u,w}.
    Transitive arcs are applied first in sorted order (first orientation of
    a pair wins); the round's new fraternal edges are then oriented by a
    smallest-last peeling of the graph they form, which greedily keeps
    in-degrees low. Stops early at a fixpoint. Each round is _tf_round on
    the orientation's neighbour sets.
    """
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if rounds > ROUND_CAP:
        raise SizeLimitError(f"augmentation round cap {ROUND_CAP} exceeded")
    out, inn = _neighbour_sets(orientation.n, orientation.arcs)
    arcs = list(orientation.arcs)
    kind = dict(orientation.arc_kind)
    rnd = dict(orientation.arc_round)
    base_round = max(rnd.values(), default=0)
    for step in range(1, rounds + 1):
        transitive, fraternal = _tf_round(out, inn)
        if not transitive and not fraternal:
            break
        for added, label in ((transitive, ARC_TRANSITIVE), (fraternal, ARC_FRATERNAL)):
            for a in added:
                kind[a] = label
                rnd[a] = base_round + step
            arcs += added
    return Orientation(orientation.base, arcs, kind, rnd)


def _neighbour_sets(n, arcs):
    """Per-vertex out- and in-neighbour sets of the arcs on 0..n-1."""
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]
    for u, v in arcs:
        out[u].add(v)
        inn[v].add(u)
    return out, inn


def _tf_round(out, inn):
    """One augmentation round, by tf_augment's rules, on the out- and
    in-neighbour sets out[v] and inn[v], updated in place. Returns the
    transitive and the fraternal arcs added, each in the order applied;
    both are empty at a fixpoint."""
    transitive = set()
    fraternal = set()
    for v, tails in enumerate(inn):
        heads = out[v]
        for u in tails:
            # u != w throughout: no pair carries two arcs
            transitive.update((u, w) for w in heads - out[u] - inn[u])
        for u, w in combinations(sorted(tails), 2):
            if w not in out[u] and w not in inn[u]:
                fraternal.add((u, w))
    added = []
    for u, w in sorted(transitive):
        if w not in inn[u]:  # else the opposite direction was added first
            out[u].add(w)
            inn[w].add(u)
            added.append((u, w))
    fresh = [(u, w) for u, w in sorted(fraternal) if w not in out[u] and w not in inn[u]]
    fresh = _orient_smallest_last(fresh)
    for u, w in fresh:
        out[u].add(w)
        inn[w].add(u)
    return added, fresh


def _orient_smallest_last(edges):
    """Orient an edge list by smallest-last peeling of the graph it forms;
    surviving neighbors point into the peeled vertex."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    pos = {v: i for i, (v, _) in enumerate(peel_smallest_last(adj, adj))}
    return [(u, v) if pos[u] > pos[v] else (v, u) for u, v in edges]


# ---------------------------------------------------------------------------
# verification

def verify_ltd(g, p, coloring):
    """Check that every set I of at most p colors induces td <= |I|.

    Returns an LtdVerification. The yes/no answer comes from the connected
    color sets alone (see the module docstring): a component of G[I] is
    tested exactly only when it uses every color of I, has more than |I|
    vertices and no color occurring once in it; treedepth_at_most decides
    it on g's own ids. The counterexample of a failing coloring, the
    lexicographically smallest violating color set, comes from the same
    sets by the superset rule, on first read.
    """
    if coloring.n != g.n:
        raise ValidationError("coloring does not cover the graph")
    if p < 1:
        raise ValidationError("p must be >= 1")
    if _ltd_holds(g, p, coloring.assignment):
        return LtdVerification(True)
    return LtdVerification(False, failed=(g, p, coloring))


def _ltd_holds(g, p, colors):
    if any(colors[u] == colors[v] for u, v in g.edges):
        return False
    for subset, comp in colorset_components(g, colors, p):
        budget = len(subset)
        if len(comp) <= budget or 1 in Counter(colors[v] for v in comp).values():
            continue
        if treedepth_at_most(g, budget, comp) is None:
            return False
    return True


def _smallest_violation(g, p, coloring):
    """The lexicographically smallest color set inducing td above its size,
    for a failing coloring, by the superset rule of the module docstring."""
    colors = coloring.assignment
    classes = {}  # only the colors present: the declared palette may be huge
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    palette = sorted(classes)

    def smallest_superset(spectrum, size):
        # every color below max(spectrum) makes the tuple smaller
        extra = [c for c in palette if c < spectrum[-1] and c not in spectrum]
        return tuple(sorted(spectrum + tuple(extra[:size - len(spectrum)])))

    singles = (((c,), comp) for c in palette for comp in subset_components(g, classes[c]))
    pieces = [(spectrum, comp)
              for spectrum, comp in chain(singles, colorset_components(g, colors, p))
              if len(comp) > len(spectrum)]
    # tested in the order of the smallest set each could make violate
    reach = {spectrum: smallest_superset(spectrum, p) for spectrum, _ in pieces}
    pieces.sort(key=lambda piece: reach[piece[0]])
    best = (palette[-1] + 1,)  # above every set of palette colors
    for spectrum, comp in pieces:
        if reach[spectrum] >= best:
            break
        k = len(spectrum) - 1  # td(comp) > k once a test has failed
        while k < p and treedepth_at_most(g, k + 1, comp) is None:
            k += 1
        if k >= len(spectrum):
            best = min(best, smallest_superset(spectrum, k))
    if best[0] > palette[-1]:
        raise AssertionError("failing coloring without a violating color set")
    return best


# ---------------------------------------------------------------------------
# construction

def ltd_coloring(g, p, max_rounds=None, exact_fallback_limit=8):
    """Low tree-depth decomposition with parameter p.

    Seeds a degeneracy orientation, augments it round by round (0 up to
    max_rounds, default 2p-2) in place with _tf_round, greedily colors the
    augmented graph smallest-last, and returns the first coloring that
    verifies. Starting from zero rounds keeps the palette small on easy
    inputs (a proper coloring already suffices for p = 1). If no round
    verifies, small graphs fall back to the exact brute-force optimum;
    otherwise the last counterexample is raised.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    if max_rounds is None:
        max_rounds = max(0, 2 * p - 2)
    if max_rounds < 0:
        raise ValidationError("max_rounds must be >= 0")
    order = smallest_last_order(g)
    pos = {v: i for i, v in enumerate(order)}
    out, inn = _neighbour_sets(g.n, ((u, v) if pos[u] < pos[v] else (v, u)
                                     for u, v in g.edges))
    adj = g.adj
    for r in range(max_rounds + 1):
        if r > 0:
            _tf_round(out, inn)
            adj = [heads | tails for heads, tails in zip(out, inn)]
            order = [v for v, _ in reversed(peel_smallest_last(adj, range(g.n)))]
        coloring = _greedy_coloring(adj, order)
        outcome = verify_ltd(g, p, coloring)
        if outcome:
            return LtdDecomposition(coloring, p, rounds_used=r, verified=True)
    if g.n <= exact_fallback_limit:
        _, coloring = _chi_p_search(g, p)
        return LtdDecomposition(coloring, p, rounds_used=max_rounds,
                                verified=True)
    raise LtdVerificationError(
        f"no verified decomposition for p={p} within {max_rounds} rounds",
        counterexample=outcome.counterexample,
    )


def chi_p_bruteforce(g, p, limit=8):
    """Exact chi_p by enumerating colorings up to color renaming."""
    if g.n > limit:
        raise SizeLimitError(f"chi_p_bruteforce limited to {limit} vertices, got {g.n}")
    if g.n == 0:
        return 0
    k, _ = _chi_p_search(g, p)
    return k


def _chi_p_search(g, p):
    td_of = bitmask_td_solver(g)
    class_masks = [0] * g.n
    colors = [0] * g.n

    def valid(k):
        for size in range(2, min(p, k) + 1):
            for subset in combinations(range(k), size):
                mask = 0
                for c in subset:
                    mask |= class_masks[c]
                if td_of(mask) > size:
                    return False
        return True

    def proper_ok(v, c):
        return not (class_masks[c] & g.adj_mask[v])

    def rec(i, used, k):
        if i == g.n:
            return used == k and valid(k)
        if used + (g.n - i) < k:
            return False
        for c in range(min(used + 1, k)):
            if not proper_ok(i, c):
                continue
            colors[i] = c
            class_masks[c] |= 1 << i
            if rec(i + 1, max(used, c + 1), k):
                return True
            class_masks[c] &= ~(1 << i)
        return False

    for k in range(1, g.n + 1):
        for c in range(g.n):
            class_masks[c] = 0
        if rec(0, 0, k):
            return k, Coloring(list(colors), palette=k)
    raise AssertionError("coloring with n colors always exists")


# ---------------------------------------------------------------------------
# cluster covers

def cluster_cover(g, t):
    """Tree-depth cluster cover from a verified decomposition: clusters are
    the components of every <= t-color-subset-induced subgraph, with
    clusters strictly inside another dropped. A component of G[I] is one of
    G[J] for its spectrum J, and the coloring is proper, so the components
    using all colors of connected color sets, and single vertices, are all
    of them."""
    colors = ltd_coloring(g, t).coloring.assignment
    found = {frozenset((v,)) for v in range(g.n)}
    found.update(frozenset(comp) for _, comp in colorset_components(g, colors, t))
    maximal = [c for c in found
               if not any(c < other for other in found)]
    maximal.sort(key=lambda c: tuple(sorted(c)))
    palette = len(set(colors))
    bound = comb(palette, min(t, palette))
    return ClusterCover(maximal, t, palette=palette, membership_bound=bound)


def verify_cluster_cover(g, cover, t_limit=4, order_limit=200):
    """Check the three cover conditions; returns (True, None) or
    (False, witness) with the first violation found.

    Violations: ("cluster-td", cluster) for a disconnected or too-deep
    cluster, ("uncovered", subgraph) for a connected <= t subgraph inside
    no cluster, ("membership", vertex) for a vertex in more clusters than
    the recorded bound.
    """
    t = cover.t
    if t > t_limit or g.n > order_limit:
        raise SizeLimitError("verify_cluster_cover enumeration budget exceeded")
    cluster_sets = [frozenset(c) for c in cover.clusters]
    for cluster in cover.clusters:
        if (len(subset_components(g, cluster)) != 1
                or treedepth_at_most(g, t, cluster) is None):
            return False, ("cluster-td", list(cluster))
    by_vertex = {}
    for i, cs in enumerate(cluster_sets):
        for v in cs:
            by_vertex.setdefault(v, []).append(i)
    for subset in connected_subsets(g.adj, range(g.n), t):
        candidates = by_vertex.get(min(subset), [])
        if not any(subset <= cluster_sets[i] for i in candidates):
            return False, ("uncovered", sorted(subset))
    if cover.membership_bound is not None:
        for v in range(g.n):
            if len(by_vertex.get(v, [])) > cover.membership_bound:
                return False, ("membership", v)
    return True, None
