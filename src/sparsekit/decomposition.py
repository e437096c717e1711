"""Low tree-depth decompositions via transitive-fraternal augmentation,
independent verification, the brute-force chi_p oracle, and tree-depth
cluster covers.

The augmentation schedule starts at zero rounds and escalates until the
output verifies, so palettes stay as small as the graph allows; correctness
comes from the verifier, never from trusting the construction.

The verifier decides a coloring from its pieces, not from every color set.
A piece is a set I of 1..p colors with a component C of G[I] that uses
every color of I; colorset_components yields them all. The coloring holds
(every set I of at most p colors induces td <= |I|) exactly when each
piece has td(C) <= |I|, and the one-color pieces hold exactly when no edge
is monochromatic.

The pairs are decided together, in one pass over the edges (the two-color
rule; at p = 2 it makes the coloring a star coloring). Under a proper
coloring, a connected two-colored graph has td <= 2 iff it is a star iff
it holds no path on four vertices, and an edge uv is the middle edge of a
two-colored P_4 exactly when u sees color(v) on two or more neighbours
and v sees color(u) on two or more. So the pairs hold iff no edge has both
ends seeing the other's color twice.

For |I| >= 3, C needs no test when |C| <= |I|, or when some color c occurs
exactly once in C, that is, when fewer than |I| colors repeat in C. By
induction on |I|, whatever order the sets are checked in: a component of
G[I] with a smaller spectrum J is a component of G[J], so td <= |J|; and
deleting the one vertex of color c from C leaves components of G[I - c],
each of td <= |I| - 1, so td(C) <= |I|. Only the components left need the
exact test.

A failing coloring's counterexample comes from the same pieces by the
superset rule. A component C of G[I] is a piece's component for its
spectrum J (a color class's component when |J| = 1), and such a C lies
in a component of G[I] of td >= td(C) for every I containing J. So the
smallest I that C makes violate adds to J the smallest colors absent from J
and below max(J), up to min(p, td(C) - 1) colors. That set with p colors
is a lower bound, so the components are tested in its order and the scan
stops once it reaches the best set found. These tests skip the shortcut,
whose induction assumes that the smaller sets hold.
"""

from math import comb

from .errors import SizeLimitError, SparsekitError, ValidationError
from .graphs import (
    ARC_FRATERNAL,
    ARC_TRANSITIVE,
    Orientation,
    colorset_components,
    connected_subsets,
    is_connected_mask,
    mask_of,
    orient_by_order,
    peel_smallest_last,
    smallest_last_order,
)
from .treedepth import _greedy_coloring, _rgs_coloring, treedepth_at_most


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

    counterexample is the lexicographically smallest violating color set,
    or None.
    """

    __slots__ = ("ok", "counterexample")

    def __init__(self, ok, counterexample):
        self.ok = ok
        self.counterexample = counterexample

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
    the orientation's neighbour lists; the arcs it appends past the
    round-start lengths are the round's, transitive unless among the
    fraternal arcs it returns.
    """
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    if rounds > ROUND_CAP:
        raise SizeLimitError(f"augmentation round cap {ROUND_CAP} exceeded")
    out, inn = _neighbour_lists(orientation.n, orientation.arcs)
    arcs = list(orientation.arcs)
    kind = dict(orientation.arc_kind)
    rnd = dict(orientation.arc_round)
    base_round = max(rnd.values(), default=0)
    for step in range(1, rounds + 1):
        start, fraternal = _tf_round(out, inn)
        added = [(u, w) for u, heads in enumerate(out) for w in heads[start[u]:]]
        if not added:
            break
        fraternal = set(fraternal)
        for a in added:
            kind[a] = ARC_FRATERNAL if a in fraternal else ARC_TRANSITIVE
            rnd[a] = base_round + step
        arcs += added
    return Orientation(orientation.base, arcs, kind, rnd)


def _neighbour_lists(n, arcs):
    """Per-vertex out- and in-neighbour lists of the arcs on 0..n-1."""
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
        inn[v].append(u)
    return out, inn


def _tf_round(out, inn):
    """One augmentation round, by tf_augment's rules, on the out- and
    in-neighbour lists out[v] and inn[v], which it extends in place.
    Returns the round-start lengths of the out lists and the fraternal
    arcs added; nothing is added at a fixpoint.

    Both passes go through the tails u in ascending order, with stamp[x] ==
    u marking the x already adjacent to u. The transitive pass adds u->w
    for each unmarked w two round-start arcs away, so a pair's smaller
    tail wins: when u comes, inn[u] already holds the w->u just added. The
    fraternal pass then pairs u with each unmarked w > u that shares a
    round-start head with it, and the pairs are oriented by
    _orient_smallest_last.
    """
    n = len(out)
    start = [len(heads) for heads in out]
    tails_start = [len(tails) for tails in inn]
    stamp = [-1] * n
    for u, heads in enumerate(out):
        for x in heads:
            stamp[x] = u
        for x in inn[u]:
            stamp[x] = u
        new = []
        for v in heads:
            for w in out[v][:start[v]]:
                if stamp[w] != u:
                    stamp[w] = u
                    new.append(w)
                    inn[w].append(u)
        heads += new
    stamp = [-1] * n
    fresh = []
    for u, heads in enumerate(out):
        for x in heads:
            stamp[x] = u
        for x in inn[u]:
            stamp[x] = u
        for v in heads[:start[u]]:
            for w in inn[v][:tails_start[v]]:
                if w > u and stamp[w] != u:
                    stamp[w] = u
                    fresh.append((u, w))
    fresh = _orient_smallest_last(fresh)
    for u, w in fresh:
        out[u].append(w)
        inn[w].append(u)
    return start, fresh


def _orient_smallest_last(edges):
    """Orient a list of distinct edges by orient_by_order on the smallest-last
    order of the graph they form on ids 0..max id."""
    adj = [[] for _ in range(1 + max(map(max, edges), default=-1))]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return orient_by_order([v for v, _ in peel_smallest_last(adj)][::-1], edges)


# ---------------------------------------------------------------------------
# verification

def verify_ltd(g, p, coloring):
    """Check that every set I of at most p colors induces td <= |I|.

    Returns an LtdVerification. The yes/no answer comes from the connected
    color sets alone (see the module docstring): the pairs by the two-color
    rule, and a component of G[I], |I| >= 3, tested exactly only when it
    uses every color of I, has more than |I| vertices and no color
    occurring once in it; treedepth_at_most decides it on g's own ids. The
    counterexample of a failing coloring, the lexicographically smallest
    violating color set, comes from the same sets by the superset rule.
    """
    if coloring.n != g.n:
        raise ValidationError("coloring does not cover the graph")
    if p < 1:
        raise ValidationError("p must be >= 1")
    if _ltd_holds(g, p, coloring.assignment):
        return LtdVerification(True, None)
    return LtdVerification(False, _smallest_violation(g, p, coloring))


def _ltd_holds(g, p, colors):
    if any(colors[u] == colors[v] for u, v in g.edges):
        return False
    if p == 1:
        return True
    # the two-color rule: a P_4 whose middle edge is uv
    twice = [_repeated_colors(colors, nbrs) for nbrs in g.adj]
    if any(colors[v] in twice[u] and colors[u] in twice[v] for u, v in g.edges):
        return False
    if p == 2:
        return True
    for subset, comp in colorset_components(g, colors, p):
        budget = len(subset)
        if (budget == 2 or len(comp) <= budget
                or len(_repeated_colors(colors, comp)) < budget):
            continue  # a pair was decided above; else a color occurs once
        if treedepth_at_most(g, budget, comp) is None:
            return False
    return True


def _repeated_colors(colors, vertices):
    """The colors that two or more of the vertices carry."""
    seen, twice = set(), set()
    for v in vertices:
        c = colors[v]
        if c in seen:
            twice.add(c)
        else:
            seen.add(c)
    return twice


def _smallest_violation(g, p, coloring):
    """The lexicographically smallest color set inducing td above its size,
    for a failing coloring, by the superset rule of the module docstring."""
    colors = coloring.assignment
    palette = sorted(set(colors))  # not the declared palette, which may be huge

    def smallest_superset(spectrum, size):
        # every color below max(spectrum) makes the tuple smaller
        extra = [c for c in palette if c < spectrum[-1] and c not in spectrum]
        return tuple(sorted(spectrum + tuple(extra[:size - len(spectrum)])))

    pieces = [(spectrum, comp) for spectrum, comp in colorset_components(g, colors, p)
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

# Largest graph chi_p_bruteforce takes, and the largest on which ltd_coloring
# falls back to the same exact search.
CHI_P_LIMIT = 8


def ltd_coloring(g, p, max_rounds=None):
    """Low tree-depth decomposition with parameter p.

    Seeds a degeneracy orientation, augments it round by round (0 up to
    max_rounds, default 2p-2) in place with _tf_round, greedily colors the
    augmented graph smallest-last, and returns the first coloring that
    verifies. Starting from zero rounds keeps the palette small on easy
    inputs (a proper coloring already suffices for p = 1). If no round
    verifies, graphs of at most CHI_P_LIMIT vertices fall back to the exact
    brute-force optimum; otherwise the last counterexample is raised.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    if max_rounds is None:
        max_rounds = max(0, 2 * p - 2)
    if max_rounds < 0:
        raise ValidationError("max_rounds must be >= 0")
    order = smallest_last_order(g)
    out, inn = _neighbour_lists(g.n, orient_by_order(order, g.edges))
    adj = g.adj
    for r in range(max_rounds + 1):
        if r > 0:
            _tf_round(out, inn)
            adj = [[*heads, *tails] for heads, tails in zip(out, inn)]
            order = [v for v, _ in peel_smallest_last(adj)][::-1]
        coloring = _greedy_coloring(adj, order)
        if _ltd_holds(g, p, coloring.assignment):
            return LtdDecomposition(coloring, p, rounds_used=r, verified=True)
    if g.n <= CHI_P_LIMIT:
        _, coloring = _chi_p_search(g, p)
        return LtdDecomposition(coloring, p, rounds_used=max_rounds,
                                verified=True)
    raise LtdVerificationError(
        f"no verified decomposition for p={p} within {max_rounds} rounds",
        counterexample=_smallest_violation(g, p, coloring),
    )


def chi_p_bruteforce(g, p):
    """Exact chi_p: the fewest colors of a proper coloring, walked up to
    color renaming, that verify_ltd's test accepts for p."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    if g.n > CHI_P_LIMIT:
        raise SizeLimitError(f"chi_p_bruteforce limited to {CHI_P_LIMIT} vertices, got {g.n}")
    k, _ = _chi_p_search(g, p)
    return k


def _chi_p_search(g, p):
    """(chi_p, the first coloring with that many colors that verify_ltd's
    test accepts), from _rgs_coloring's walk."""
    for k in range(g.n + 1):
        coloring = _rgs_coloring(g, k, lambda c: _ltd_holds(g, p, c.assignment))
        if coloring:
            return k, coloring


# ---------------------------------------------------------------------------
# cluster covers

def cluster_cover(g, t):
    """Tree-depth cluster cover from a verified decomposition: clusters are
    the components of every <= t-color-subset-induced subgraph, with
    clusters strictly inside another dropped. A component of G[I] is one of
    G[J] for its spectrum J, so the full components of 1..t colors are all
    of them."""
    colors = ltd_coloring(g, t).coloring.assignment
    found = {frozenset(comp) for _, comp in colorset_components(g, colors, t)}
    maximal = [c for c in found
               if not any(c < other for other in found)]
    maximal.sort(key=lambda c: tuple(sorted(c)))
    palette = len(set(colors))
    bound = comb(palette, min(t, palette))
    return ClusterCover(maximal, t, palette=palette, membership_bound=bound)


# Largest t and graph verify_cluster_cover takes.
CLUSTER_COVER_T_LIMIT = 4
CLUSTER_COVER_ORDER_LIMIT = 200


def verify_cluster_cover(g, cover):
    """Check the three cover conditions; returns (True, None) or
    (False, witness) with the first violation found.

    Violations: ("cluster-td", cluster) for a disconnected or too-deep
    cluster, ("uncovered", subgraph) for a connected <= t subgraph inside
    no cluster, ("membership", vertex) for a vertex in more clusters than
    the recorded bound.
    """
    t = cover.t
    if t > CLUSTER_COVER_T_LIMIT or g.n > CLUSTER_COVER_ORDER_LIMIT:
        raise SizeLimitError("verify_cluster_cover enumeration budget exceeded")
    cluster_sets = [frozenset(c) for c in cover.clusters]
    for cluster in cover.clusters:
        # the td search refuses a vertex outside g before the mask is built
        if (not cluster or treedepth_at_most(g, t, cluster) is None
                or not is_connected_mask(g.adj_mask, mask_of(cluster))):
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
