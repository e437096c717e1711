"""Homomorphism existence, cores, t-approximations, and finite restricted
duality checks.

Search budgets never masquerade as mathematical negatives: a query that
runs out of budget raises BudgetExceededError ("indeterminate"), which the
report-producing checkers record per instance.
"""

from itertools import combinations

from .errors import BudgetExceededError, SizeLimitError, ValidationError
from .graphs import anchored_order, induced_subgraph

ANSWER_YES = "yes"
ANSWER_NO = "no"
ANSWER_INDETERMINATE = "indeterminate"


def is_homomorphism(g, h, mapping):
    """Check that mapping preserves adjacency edge by edge."""
    if len(mapping) != g.n:
        return False
    for u, v in g.edges:
        a, b = mapping[u], mapping[v]
        if a == b or not h.has_edge(a, b):
            return False
    return True


# Largest source and target graphs hom_exists takes, and its search-node
# budget.
HOM_SOURCE_LIMIT = 200
HOM_TARGET_LIMIT = 32
HOM_BUDGET = 2_000_000


def hom_exists(g, h, budget=HOM_BUDGET):
    """A homomorphism g -> h as a vertex map, or None when none exists.

    Backtracking over g's vertices in descending-degree order (connected
    pieces stay contiguous), with forward checking over candidate bitmasks:
    an assignment keeps only the images adjacent to it in each unassigned
    neighbour's domain. Raises BudgetExceededError if the node budget runs
    out.
    """
    if h.n > HOM_TARGET_LIMIT or g.n > HOM_SOURCE_LIMIT:
        raise SizeLimitError(
            f"hom_exists limited to |g| <= {HOM_SOURCE_LIMIT}, |h| <= {HOM_TARGET_LIMIT}")
    if g.n == 0:
        return {}
    if h.n == 0:
        return None
    if g.m > 0 and h.m == 0:
        return None
    full = (1 << h.n) - 1
    # candidate targets must have enough degree; every target with a
    # neighbour has a neighbour with a neighbour, so these domains are
    # already arc consistent
    nonisolated = sum(1 << t for t in range(h.n) if h.degree(t))
    domains = [nonisolated if g.degree(v) else full for v in range(g.n)]

    order, _ = anchored_order(g)
    nodes = [0]
    assignment = [-1] * g.n

    def assign(i, doms):
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceededError("homomorphism search budget exceeded")
        if i == g.n:
            return True
        v = order[i]
        dom = doms[v]
        while dom:
            bit = dom & -dom
            dom ^= bit
            # forward checking left only targets adjacent to the images of
            # v's assigned neighbours
            t = bit.bit_length() - 1
            assignment[v] = t
            new_doms = list(doms)
            new_doms[v] = bit
            feasible = True
            for w in g.adj[v]:
                if assignment[w] < 0:
                    new_doms[w] &= h.adj_mask[t]
                    if not new_doms[w]:
                        feasible = False
                        break
            if feasible and assign(i + 1, new_doms):
                return True
            assignment[v] = -1
        return False

    if assign(0, domains):
        result = dict(enumerate(assignment))
        if not is_homomorphism(g, h, result):
            raise AssertionError("search returned an invalid map")
        return result
    return None


def core(g, exact_limit=12):
    """The core: a minimal induced subgraph admitting a retraction from g.

    Greedy descent removing one vertex at a time (smallest removable id
    first); sound because a homomorphism onto a small retract composes with
    the inclusion into any single-vertex-removed superset.
    """
    if g.n > exact_limit:
        raise SizeLimitError(f"core limited to {exact_limit} vertices, got {g.n}")
    current = g
    while current.n > 1:
        shrunk = None
        for v in range(current.n):
            candidate, _ = induced_subgraph(
                current, [u for u in range(current.n) if u != v])
            if hom_exists(current, candidate) is not None:
                shrunk = candidate
                break
        if shrunk is None:
            return current
        current = shrunk
    return current


def t_approximation_check(g, h, t):
    """True iff g -> h and every subgraph of h of order <= t maps to g.

    Checking induced subgraphs suffices: a subgraph with fewer edges is
    easier to map, so the induced one is the binding constraint.
    """
    if t < 0:
        raise ValidationError("t must be >= 0")
    if hom_exists(g, h) is None:
        return False
    for size in range(1, min(t, h.n) + 1):
        for subset in combinations(range(h.n), size):
            sub, _ = induced_subgraph(h, subset)
            if hom_exists(sub, g) is None:
                return False
    return True


def dual_check(f, d, family, budget=HOM_BUDGET):
    """Check the restricted-duality biconditional f -/-> G <=> G -> d on a
    family, after verifying f -/-> d. Every query runs hom_exists with the
    same node budget. Returns a report; indeterminate queries are recorded,
    never coerced to yes/no."""
    answer = _answer(f, d, budget)
    report = {"pattern_maps_to_dual": {ANSWER_YES: True, ANSWER_NO: False}.get(answer),
              "instances": []}
    for idx, g in enumerate(family):
        left = _answer(f, g, budget)      # f -> G ?
        right = _answer(g, d, budget)     # G -> D ?
        if ANSWER_INDETERMINATE in (left, right):
            status = ANSWER_INDETERMINATE
        else:
            # duality: f -/-> G  <=>  G -> D
            holds = (left == ANSWER_NO) == (right == ANSWER_YES)
            status = "consistent" if holds else "violation"
        report["instances"].append({
            "index": idx,
            "pattern_to_instance": left,
            "instance_to_dual": right,
            "status": status,
        })
    report["violations"] = [r["index"] for r in report["instances"]
                            if r["status"] == "violation"]
    report["indeterminate"] = [r["index"] for r in report["instances"]
                               if r["status"] == ANSWER_INDETERMINATE]
    return report


def _answer(a, b, budget):
    try:
        return ANSWER_YES if hom_exists(a, b, budget) is not None else ANSWER_NO
    except BudgetExceededError:
        return ANSWER_INDETERMINATE
