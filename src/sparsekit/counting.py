"""Subgraph-occurrence counting: a brute-force embedding oracle, the
decomposition-based fast path (dynamic programming over elimination
forests, summed over exact color sets), and the sunflower verifier.

"Occurrence" means a subgraph copy (vertex set plus edge subset forming the
pattern), counted once per distinct copy; induced mode counts vertex sets
whose induced subgraph is isomorphic to the pattern. Both are computed as
labeled-embedding counts divided by the pattern's automorphism count.
"""

from itertools import combinations, product

from .decomposition import ltd_coloring
from .errors import BudgetExceededError, SizeLimitError, ValidationError
from .graphs import (
    anchored_order,
    colorset_components,
    induced_subgraph,
    is_connected_mask,
    mask_of,
)
from .treedepth import NO_PARENT, treedepth_at_most

MODE_SUBGRAPH = "subgraph"
MODE_INDUCED = "induced"

_COUNT_LIMIT = (1 << 63) - 1

# Largest pattern a CountQuery takes: the counting DP keeps a table of
# 2^|H| entries per piece.
PATTERN_LIMIT = 16


class CountQuery:
    """Count the copies of pattern in host, as subgraphs or induced."""

    __slots__ = ("pattern", "host", "mode")

    def __init__(self, pattern, host, mode=MODE_SUBGRAPH):
        if mode not in (MODE_SUBGRAPH, MODE_INDUCED):
            raise ValidationError(f"unknown counting mode {mode!r}")
        if pattern.n < 1:
            raise ValidationError("pattern must have at least one vertex")
        if pattern.n > PATTERN_LIMIT:
            raise SizeLimitError(
                f"pattern limited to {PATTERN_LIMIT} vertices, got {pattern.n}")
        self.pattern = pattern
        self.host = host
        self.mode = mode


# ---------------------------------------------------------------------------
# labeled-embedding engine

def anchor_tree_bound(pattern, host):
    """Upper bound on count_embeddings(pattern, host), computed without search.

    Counts the homomorphisms of the anchor forest (each pattern vertex joined
    to its anchor in anchored_order) into the host that send every pattern
    vertex to a host vertex of at least its degree. Each complete map the
    enumeration reaches is one of them: it keeps the anchor edges and applies
    the same degree filter. A tree DP over host adjacency, O(|H| * (n + m)).
    """
    order, anchor = anchored_order(pattern)
    adj = host.adj
    degree = [len(a) for a in adj]
    ways = [[int(d >= pattern.degree(v)) for d in degree] for v in range(pattern.n)]
    total = 1
    # children follow their anchor in the order, so a reverse sweep finishes
    # each vertex's table before folding it into its anchor's
    for v, a in zip(reversed(order), reversed(anchor)):
        below = ways[v]
        if a is None:
            total *= sum(below)
            continue
        up = ways[a]
        for t, nbrs in enumerate(adj):
            if up[t]:
                up[t] *= sum(map(below.__getitem__, nbrs))
    return total


def count_embeddings(pattern, host, induced=False):
    """Number of injective maps preserving pattern edges (and, in induced
    mode, reflecting host edges back)."""
    return _embed(pattern, host, induced, find=False)


def find_embedding(pattern, host, induced=False):
    """One embedding as a dict pattern-vertex -> host-vertex, or None."""
    return _embed(pattern, host, induced, find=True)


def _embed(pattern, host, induced, find):
    if pattern.n > host.n:
        return None if find else 0
    if pattern.n == 0:
        return {} if find else 1
    order, _ = anchored_order(pattern)
    adj = host.adj_mask
    degree = [len(a) for a in host.adj]
    # per position: the pattern vertex, the host vertices of at least its
    # degree, and its pattern neighbours (and, induced, non-neighbours)
    # placed earlier; a candidate set is one int, walked by ascending id
    steps = []
    for i, v in enumerate(order):
        need = pattern.degree(v)
        fits = mask_of(t for t, d in enumerate(degree) if d >= need)
        before = order[:i]
        nbrs = [w for w in before if pattern.has_edge(v, w)]
        non = [w for w in before if not pattern.has_edge(v, w)] if induced else []
        steps.append((v, fits, nbrs, non))
    last = len(steps) - 1
    image = [-1] * pattern.n
    left = [0] * last  # untried candidates at each position before the last
    taken = [0] * last  # host vertices the earlier positions hold
    total = 0
    i = used = 0
    while True:
        v, cand, nbrs, non = steps[i]
        cand &= ~used
        for w in nbrs:
            cand &= adj[image[w]]
        for w in non:
            cand &= ~adj[image[w]]
        if i < last:
            left[i], taken[i] = cand, used
        elif find and cand:
            image[v] = (cand & -cand).bit_length() - 1
            return dict(enumerate(image))
        else:
            total += cand.bit_count()
            if total > _COUNT_LIMIT:
                raise SizeLimitError("embedding count exceeds 64-bit range")
            i -= 1
        # the next candidate of the deepest position that has one
        while i >= 0 and not left[i]:
            i -= 1
        if i < 0:
            return None if find else total
        low = left[i] & -left[i]
        left[i] ^= low
        image[steps[i][0]] = low.bit_length() - 1
        used = taken[i] | low
        i += 1


def automorphism_count(pattern):
    """|Aut| by counting induced self-embeddings (brute force)."""
    return count_embeddings(pattern, pattern, induced=True)


def is_isomorphic(a, b):
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degree(v) for v in range(a.n)) != sorted(b.degree(v) for v in range(b.n)):
        return False
    return find_embedding(a, b, induced=True) is not None


# ---------------------------------------------------------------------------
# brute-force oracle

# Largest pattern count_bruteforce takes, and so `count --method auto`.
BRUTEFORCE_PATTERN_LIMIT = 5


def count_bruteforce(query, host_limit=60):
    """Exact occurrence count by exhaustive embedding enumeration."""
    h, g = query.pattern, query.host
    if h.n > BRUTEFORCE_PATTERN_LIMIT:
        raise SizeLimitError(
            f"pattern limited to {BRUTEFORCE_PATTERN_LIMIT} vertices, got {h.n}")
    if g.n > host_limit:
        raise SizeLimitError(f"host limited to {host_limit} vertices, got {g.n}")
    if h.n > g.n or h.m > g.m:
        return 0
    labeled = count_embeddings(h, g, induced=(query.mode == MODE_INDUCED))
    aut = automorphism_count(h)
    if labeled % aut:
        raise AssertionError("labeled count not divisible by automorphism count")
    return labeled // aut


# ---------------------------------------------------------------------------
# decomposition-based counting

def count_ltd(query, decomposition=None):
    """Occurrence count via a low tree-depth decomposition of the host.

    For every set I of at most |H| colors, copies whose color image is
    exactly I are counted by dynamic programming over an elimination forest
    of height <= |I|; exact-color-set counting makes the per-subset counts
    disjoint, so the grand total needs no inclusion-exclusion. The DP runs
    once per piece: a color set with the vertices that can hold such a copy.
    A connected pattern's copies each lie in one component of G[I] that uses
    every color of I, so its pieces are those components, from
    colorset_components (K_1's are the color classes' components); only a
    disconnected pattern's pieces are the unions of at most |H| color
    classes. Matches count_bruteforce on its whole domain.
    """
    h, g = query.pattern, query.host
    induced = query.mode == MODE_INDUCED
    if h.n > g.n or h.m > g.m:
        return 0
    if decomposition is None:
        decomposition = ltd_coloring(g, h.n)
    elif decomposition.p < h.n:
        raise ValidationError("decomposition parameter smaller than the pattern order")
    elif len(decomposition.coloring.assignment) != g.n:
        raise ValidationError(f"decomposition colors {len(decomposition.coloring.assignment)} "
                              f"vertices, the host has {g.n}")
    colors = decomposition.coloring.assignment
    aut = automorphism_count(h)
    if is_connected_mask(h.adj_mask, (1 << h.n) - 1):
        pieces = colorset_components(g, colors, h.n)
    else:
        pieces = _colorset_unions(colors, h.n)
    total = 0
    for subset, vertices in pieces:
        if len(vertices) < h.n:
            continue
        total += _count_exact_colorset(g, h, vertices, subset, colors, induced)
        if total > _COUNT_LIMIT:
            raise SizeLimitError("count exceeds 64-bit range")
    if total % aut:
        raise AssertionError("labeled count not divisible by automorphism count")
    return total // aut


def _colorset_unions(colors, max_size):
    """(color set as a sorted tuple, sorted vertices of its classes) for each
    set of 1 to max_size colors present."""
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    present = sorted(classes)
    for size in range(1, min(max_size, len(present)) + 1):
        for subset in combinations(present, size):
            yield subset, sorted(v for c in subset for v in classes[c])


def _count_exact_colorset(g, h, vertices, subset, colors, induced):
    """Labeled embeddings of h into G[vertices] whose color image is exactly
    the given color subset. The DP runs over an elimination forest of
    G[vertices] on g's own ids, without a copy."""
    parent = treedepth_at_most(g, len(subset), vertices)
    if parent is None:
        raise ValidationError(
            "decomposition invalid: a color subset induces tree-depth above its size")
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
    used_mask = (1 << hn) - 1
    # state key packs (color_mask << hn) | used_mask
    color_bit = {c: 1 << (i + hn) for i, c in enumerate(subset)}
    full_state = ((1 << len(subset)) - 1) << hn | used_mask
    hadj = h.adj_mask
    # the pattern vertices a descendant may take once an ancestor holds hv,
    # when the two host vertices are adjacent and when they are not
    if_edge = [hadj[hv] if induced else used_mask ^ (1 << hv) for hv in range(hn)]
    if_not = [used_mask & ~(1 << hv | hadj[hv]) for hv in range(hn)]
    # union of pattern neighborhoods per used-subset, for O(1) merge checks
    nbr_union = [0] * (1 << hn)
    for u in range(1, 1 << hn):
        low = u & -u
        nbr_union[u] = nbr_union[u ^ low] | hadj[low.bit_length() - 1]
    adj_mask = g.adj_mask

    def merge(acc, vec):
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

    def merged(vs, chain):
        acc = {0: 1}
        for v in vs:
            acc = merge(acc, subtree(v, chain))
            if not acc:
                break
        return acc

    def subtree(v, chain):
        # chain: tuple of (host vertex, pattern vertex) assigned ancestors;
        # options: the pattern vertices v may take, as a mask
        options = used_mask
        adj_v = adj_mask[v]
        for av, ah in chain:
            options &= if_edge[ah] if adj_v >> av & 1 else if_not[ah]
        color = color_bit[colors[v]]
        kids = children[v]
        if not kids:
            result = {0: 1}
            while options:
                low = options & -options
                result[color | low] = 1
                options ^= low
            return result
        # leaving v unassigned
        result = merged(kids, chain)
        get = result.get
        while options:
            low = options & -options
            options ^= low
            base = color | low
            for s, cnt in merged(kids, chain + ((v, low.bit_length() - 1),)).items():
                key = s | base
                result[key] = get(key, 0) + cnt
        return result

    return merged(roots, ()).get(full_state, 0)


# ---------------------------------------------------------------------------
# sunflowers

class Sunflower:
    """A (k, F)-sunflower candidate in a host graph: a core vertex set C,
    k families of petal vertex sets, and a partition (K, Y_1..Y_k) of the
    pattern's vertices."""

    __slots__ = ("core", "families", "core_part", "petal_parts")

    def __init__(self, core, families, core_part, petal_parts):
        self.core = tuple(sorted(core))
        self.families = tuple(tuple(tuple(sorted(x)) for x in fam) for fam in families)
        self.core_part = tuple(sorted(core_part))
        self.petal_parts = tuple(tuple(sorted(y)) for y in petal_parts)


# Largest pattern verify_sunflower takes, and the most petal tuples it
# checks.
SUNFLOWER_PATTERN_LIMIT = 8
SUNFLOWER_PRODUCT_BUDGET = 10_000


def verify_sunflower(g, f, k, sunflower):
    """Check the five sunflower conditions exhaustively.

    Returns (True, None) or (False, reason). Raises BudgetExceededError when
    the cross-product exceeds the budget (indeterminate, not a verdict).
    """
    if f.n > SUNFLOWER_PATTERN_LIMIT:
        raise SizeLimitError(f"pattern limited to {SUNFLOWER_PATTERN_LIMIT} vertices")
    if len(sunflower.families) != k or len(sunflower.petal_parts) != k:
        raise ValidationError("family/partition arity differs from k")
    parts = [sunflower.core_part] + list(sunflower.petal_parts)
    flat = [v for part in parts for v in part]
    if sorted(flat) != list(range(f.n)):
        return False, "partition does not cover the pattern exactly once"
    all_sets = [sunflower.core] + [x for fam in sunflower.families for x in fam]
    seen = set()
    for s in all_sets:
        if seen & set(s):
            return False, "sets are not pairwise disjoint"
        seen |= set(s)
    for i in range(k):
        for j in range(i + 1, k):
            yi, yj = set(sunflower.petal_parts[i]), set(sunflower.petal_parts[j])
            for a, b in f.edges:
                if (a in yi and b in yj) or (a in yj and b in yi):
                    return False, f"pattern edges run between petal parts {i} and {j}"
    core_graph, _ = induced_subgraph(g, sunflower.core)
    core_pattern, _ = induced_subgraph(f, sunflower.core_part)
    if not is_isomorphic(core_graph, core_pattern):
        return False, "core does not induce the pattern's core part"
    for i, fam in enumerate(sunflower.families):
        target, _ = induced_subgraph(f, sunflower.petal_parts[i])
        for x in fam:
            sub, _ = induced_subgraph(g, x)
            if not is_isomorphic(sub, target):
                return False, f"a petal of family {i} does not induce its part"
    size = 1
    for fam in sunflower.families:
        if not fam:
            return False, "empty petal family"
        size *= len(fam)
    if size > SUNFLOWER_PRODUCT_BUDGET:
        raise BudgetExceededError(
            f"cross-product size {size} exceeds budget {SUNFLOWER_PRODUCT_BUDGET}")
    for tup in product(*sunflower.families):
        union = list(sunflower.core)
        for x in tup:
            union.extend(x)
        sub, _ = induced_subgraph(g, union)
        if not is_isomorphic(sub, f):
            return False, "a cross-product tuple does not induce the pattern"
    return True, None
