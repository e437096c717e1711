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


class CountQuery:
    """Count the copies of pattern in host, as subgraphs or induced."""

    __slots__ = ("pattern", "host", "mode")

    def __init__(self, pattern, host, mode=MODE_SUBGRAPH):
        if mode not in (MODE_SUBGRAPH, MODE_INDUCED):
            raise ValidationError(f"unknown counting mode {mode!r}")
        if pattern.n < 1:
            raise ValidationError("pattern must have at least one vertex")
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
    total = 0

    def rec(i, used):
        nonlocal total
        v, cand, nbrs, non = steps[i]
        cand &= ~used
        for w in nbrs:
            cand &= adj[image[w]]
        for w in non:
            cand &= ~adj[image[w]]
        if i == last and not find:
            total += cand.bit_count()
            if total > _COUNT_LIMIT:
                raise SizeLimitError("embedding count exceeds 64-bit range")
            return None
        while cand:
            low = cand & -cand
            image[v] = low.bit_length() - 1
            if i == last:
                return dict(enumerate(image))
            found = rec(i + 1, used | low)
            if found is not None:
                return found
            cand ^= low
        return None

    found = rec(0, 0)
    return found if find else total


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

def count_bruteforce(query, pattern_limit=5, host_limit=60):
    """Exact occurrence count by exhaustive embedding enumeration."""
    h, g = query.pattern, query.host
    if h.n > pattern_limit:
        raise SizeLimitError(f"pattern limited to {pattern_limit} vertices, got {h.n}")
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
    disjoint, so the grand total needs no inclusion-exclusion. For a
    connected pattern only color sets that are connected in the color
    adjacency graph can host copies, and every copy lives inside a single
    component of G[I], so each component is processed exactly once (at the
    set equal to its own color spectrum). Matches count_bruteforce on its
    whole domain.
    """
    h, g = query.pattern, query.host
    induced = query.mode == MODE_INDUCED
    if h.n > g.n or h.m > g.m:
        return 0
    if decomposition is None:
        decomposition = ltd_coloring(g, h.n)
    elif decomposition.p < h.n:
        raise ValidationError("decomposition parameter smaller than the pattern order")
    colors = decomposition.coloring.assignment
    aut = automorphism_count(h)
    if h.n >= 2 and is_connected_mask(h.adj_mask, (1 << h.n) - 1):
        total = _count_connected_pattern(g, h, colors, induced)
    else:
        total = _count_general_pattern(g, h, colors, induced)
    if total % aut:
        raise AssertionError("labeled count not divisible by automorphism count")
    return total // aut


def _count_connected_pattern(g, h, colors, induced):
    total = 0
    for subset, comp in colorset_components(g, colors, h.n):
        if len(comp) < h.n:
            continue
        total += _count_exact_colorset(g, h, comp, subset, colors, induced)
        if total > _COUNT_LIMIT:
            raise SizeLimitError("count exceeds 64-bit range")
    return total


def _count_general_pattern(g, h, colors, induced):
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
            total += _count_exact_colorset(g, h, vertices, subset, colors, induced)
            if total > _COUNT_LIMIT:
                raise SizeLimitError("count exceeds 64-bit range")
    return total


def _count_exact_colorset(g, h, vertices, subset, colors, induced):
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


def verify_sunflower(g, f, k, sunflower, pattern_limit=8, product_budget=10_000):
    """Check the five sunflower conditions exhaustively.

    Returns (True, None) or (False, reason). Raises BudgetExceededError when
    the cross-product exceeds the budget (indeterminate, not a verdict).
    """
    if f.n > pattern_limit:
        raise SizeLimitError(f"pattern limited to {pattern_limit} vertices")
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
    if size > product_budget:
        raise BudgetExceededError(
            f"cross-product size {size} exceeds budget {product_budget}")
    for tup in product(*sunflower.families):
        union = list(sunflower.core)
        for x in tup:
            union.extend(x)
        sub, _ = induced_subgraph(g, union)
        if not is_isomorphic(sub, f):
            return False, "a cross-product tuple does not induce the pattern"
    return True, None
