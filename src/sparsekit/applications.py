"""Distance colorings, odd-distance sets, r-neighborhood covers, induced
pattern scans, and the brute-force choosability decision.
"""

from itertools import combinations

from .errors import SizeLimitError, ValidationError
from .graphs import (
    Graph,
    distances_within,
    is_connected_mask,
    mask_of,
    max_clique,
    named,
    within_radius,
)
from .treedepth import greedy_smallest_last_coloring


# ---------------------------------------------------------------------------
# distance colorings

def _distance_graph(g, radius, keep):
    """Same vertex set; an edge joins u,v iff their hop distance d is at
    most radius and keep(d)."""
    return Graph(g.n, [(u, v) for u in range(g.n)
                       for v, d in distances_within(g.adj, u, radius).items()
                       if u < v and keep(d)])


def exact_distance_graph(g, n):
    """Same vertex set; an edge joins u,v iff their hop distance is exactly n."""
    if n < 1:
        raise ValidationError("distance must be >= 1")
    return _distance_graph(g, n, lambda d: d == n)


def dn_coloring(g, n):
    """Greedy proper coloring of the exact-distance-n graph (n odd).

    Always valid for the distance constraint; no constant palette is
    promised (the class-level bound is not constructive at this scale).
    """
    if n % 2 == 0:
        raise ValidationError("distance colorings are defined for odd n")
    aux = exact_distance_graph(g, n)
    return greedy_smallest_last_coloring(aux)


def verify_dn_coloring(g, n, coloring):
    """True iff no two vertices at distance exactly n share a color."""
    aux = exact_distance_graph(g, n)
    for u, v in aux.edges:
        if coloring.assignment[u] == coloring.assignment[v]:
            return False
    return True


# Largest graph max_odd_distance_set takes.
ODDSET_LIMIT = 30


def max_odd_distance_set(g):
    """A maximum vertex set pairwise at odd (finite) distance, via exact
    max-clique search on the odd-distance auxiliary graph."""
    if g.n > ODDSET_LIMIT:
        raise SizeLimitError(f"max_odd_distance_set limited to {ODDSET_LIMIT} vertices")
    return max_clique(_distance_graph(g, g.n, lambda d: d % 2 == 1))


# ---------------------------------------------------------------------------
# neighborhood covers

class Cover:
    """r-neighborhood cover: clusters of radius <= 2r such that every
    N_r(v) fits inside some cluster."""

    __slots__ = ("clusters", "r")

    def __init__(self, clusters, r):
        # clusters: list of (vertices, center, measured_radius)
        self.clusters = tuple(
            (tuple(sorted(vs)), center, radius) for vs, center, radius in clusters
        )
        self.r = r

    def max_membership(self, n):
        counts = [0] * n
        for vs, _, _ in self.clusters:
            for v in vs:
                counts[v] += 1
        return max(counts) if counts else 0

    def to_json(self):
        return {
            "r": self.r,
            "clusters": [
                {"vertices": list(vs), "center": c, "radius": rad}
                for vs, c, rad in self.clusters
            ],
        }


def ball(g, center, radius):
    if not (0 <= center < g.n):
        raise ValidationError(f"source {center} out of range")
    return sorted(distances_within(g.adj, center, radius))


def neighborhood_cover(g, r):
    """Greedy cover: repeatedly take the smallest-id vertex whose r-ball is
    not yet inside any cluster and add the r-ball around it (which contains
    that neighborhood by construction). Deterministic; the max membership
    degree upper-bounds the cover number tau_r.

    Radius-r clusters sit well inside the 2r validity bound and stay
    fine-grained even when the graph's own radius is at most 2r; a single
    whole-graph cluster would be a valid but vacuous cover there.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    balls_r = [distances_within(g.adj, v, r) for v in range(g.n)]
    clusters = []
    covered = [False] * g.n
    for pending in range(g.n):
        if covered[pending]:
            continue
        mset = balls_r[pending]
        # a shortest path from the center to a ball vertex stays in the
        # ball, so its eccentricity in the cluster is its largest distance
        clusters.append((sorted(mset), pending, max(mset.values())))
        # every ball holds its own center, so a ball inside mset is centred
        # at one of mset's vertices
        for v in mset:
            if not covered[v] and balls_r[v].keys() <= mset.keys():
                covered[v] = True
    return Cover(clusters, r)


def verify_cover(g, cover):
    """Check connectivity, radius <= 2r (best center), and N_r containment
    for every vertex; returns (True, None) or (False, witness). A cluster
    holding N_r(v) holds v, so v's ball is tested only against the
    clusters that contain v."""
    r = cover.r
    holding = [[] for _ in range(g.n)]  # holding[v]: the clusters with v
    for vs, _, _ in cover.clusters:
        if not all(0 <= v < g.n for v in vs):
            raise ValidationError("cluster vertex out of range")
        mask = mask_of(vs)
        if not is_connected_mask(g.adj_mask, mask):
            return False, ("disconnected-cluster", list(vs))
        if mask and not within_radius(g.adj_mask, mask, 2 * r):  # an empty cluster passes
            return False, ("radius-exceeded", list(vs))
        cluster = set(vs)
        for v in cluster:
            holding[v].append(cluster)
    for v in range(g.n):
        nr = distances_within(g.adj, v, r).keys()
        if not any(nr <= cs for cs in holding[v]):
            return False, ("uncovered-neighborhood", v)
    return True, None


# ---------------------------------------------------------------------------
# induced pattern scan

# Largest s, t and q induced_pattern_scan takes for P_s, K_t and K_{q,q}.
SCAN_PATH_LIMIT = 7
SCAN_CLIQUE_LIMIT = 6
SCAN_BICLIQUE_LIMIT = 4


def induced_pattern_scan(g, s, t, q):
    """Presence of P_s, K_t, and K_{q,q} as induced subgraphs, each with a
    witness vertex map when present."""
    from .counting import find_embedding

    if s > SCAN_PATH_LIMIT or t > SCAN_CLIQUE_LIMIT or q > SCAN_BICLIQUE_LIMIT:
        raise SizeLimitError("pattern size above the scan limits")
    report = {}
    for key, pattern_name in (("path", f"P_{s}"), ("clique", f"K_{t}"),
                              ("biclique", f"K_{q},{q}")):
        pattern = named(pattern_name)
        found = find_embedding(pattern, g, induced=True)
        report[key] = {
            "pattern": pattern_name,
            "present": found is not None,
            "witness": [found[i] for i in range(pattern.n)] if found is not None else None,
        }
    return report


# ---------------------------------------------------------------------------
# choosability

# Largest graph and list size is_k_choosable takes.
CHOOSABLE_ORDER_LIMIT = 7
CHOOSABLE_K_LIMIT = 2


def is_k_choosable(g, k):
    """True iff every assignment of k-color lists admits a proper list
    coloring.

    List assignments are enumerated up to color renaming (each vertex in id
    order draws its list from already-seen colors plus canonically-named
    fresh ones); a universe of k*n colors suffices because at most n
    distinct lists occur. A prefix of vertices whose induced subgraph is
    already uncolorable ends the search immediately.
    """
    if g.n > CHOOSABLE_ORDER_LIMIT or k > CHOOSABLE_K_LIMIT:
        raise SizeLimitError(f"is_k_choosable limited to {CHOOSABLE_ORDER_LIMIT} "
                             f"vertices and k <= {CHOOSABLE_K_LIMIT}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    lists = [None] * g.n

    def list_colorable(upto):
        """Proper coloring of g[0..upto] from the assigned lists?"""
        chosen = [None] * (upto + 1)

        def place(i):
            if i > upto:
                return True
            for c in lists[i]:
                if all(chosen[w] != c for w in g.adj[i] if w < i):
                    chosen[i] = c
                    if place(i + 1):
                        return True
                    chosen[i] = None
            return False

        return place(0)

    def assign(v, used):
        if v == g.n:
            return True  # every completed assignment was colorable
        # enumerate lists: j colors from the used pool, k - j fresh ones
        for j in range(k, -1, -1):
            for old in combinations(range(used), j):
                fresh = tuple(range(used, used + (k - j)))
                lists[v] = old + fresh
                if not list_colorable(v):
                    return False  # witness assignment: not k-choosable
                if not assign(v + 1, used + (k - j)):
                    return False
        lists[v] = None
        return True

    return assign(0, 0)
