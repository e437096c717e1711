"""Size limits: each exact solver refuses an input one above its limit
before it searches, and no public function grows a settable value
unnoticed."""

import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import pytest

import sparsekit
from sparsekit import (
    ClusterCover,
    CountQuery,
    SizeLimitError,
    applications,
    counting,
    decomposition,
    density,
    graphs,
    homomorphism,
    named,
    treedepth,
)


def sized(n):
    """A stand-in graph with n vertices and nothing else: a solver that
    reads more than the order before refusing fails with AttributeError."""
    return SimpleNamespace(n=n)


def cycle_without_masks(n):
    """C_n with the order, size and adjacency lists that the forest test
    of the shallow-density searches reads, and nothing else."""
    g = named(f"C_{n}")
    return SimpleNamespace(n=g.n, m=g.m, adj=g.adj)


def default(fn, name):
    return inspect.signature(fn).parameters[name].default


REFUSALS = {
    "count-query-pattern": lambda: CountQuery(sized(counting.PATTERN_LIMIT + 1), sized(1)),
    "count-bruteforce-pattern": lambda: counting.count_bruteforce(
        CountQuery(sized(counting.BRUTEFORCE_PATTERN_LIMIT + 1), sized(1))),
    "verify-sunflower": lambda: counting.verify_sunflower(
        sized(1), sized(counting.SUNFLOWER_PATTERN_LIMIT + 1), 1, None),
    "chi-p-bruteforce": lambda: decomposition.chi_p_bruteforce(
        sized(decomposition.CHI_P_LIMIT + 1), 2),
    "cluster-cover-t": lambda: decomposition.verify_cluster_cover(
        sized(1), ClusterCover([], decomposition.CLUSTER_COVER_T_LIMIT + 1)),
    "cluster-cover-order": lambda: decomposition.verify_cluster_cover(
        sized(decomposition.CLUSTER_COVER_ORDER_LIMIT + 1), ClusterCover([], 1)),
    "tf-augment-rounds": lambda: decomposition.tf_augment(None, decomposition.ROUND_CAP + 1),
    "nabla0-bruteforce": lambda: density.nabla0_bruteforce(
        sized(density.NABLA0_BRUTEFORCE_LIMIT + 1)),
    "grad": lambda: density.grad(
        cycle_without_masks(default(density.grad, "exact_limit") + 1), 1),
    "top-grad": lambda: density.top_grad(
        cycle_without_masks(default(density.top_grad, "exact_limit") + 1), 1),
    "imm-grad": lambda: density.imm_grad(
        cycle_without_masks(default(density.imm_grad, "exact_limit") + 1), 1),
    "hom-source": lambda: homomorphism.hom_exists(
        sized(homomorphism.HOM_SOURCE_LIMIT + 1), sized(2)),
    "hom-target": lambda: homomorphism.hom_exists(
        sized(1), sized(homomorphism.HOM_TARGET_LIMIT + 1)),
    "core": lambda: homomorphism.core(sized(default(homomorphism.core, "exact_limit") + 1)),
    "clique-number": lambda: graphs.clique_number(sized(graphs.CLIQUE_LIMIT + 1)),
    "chromatic-number": lambda: graphs.chromatic_number(sized(graphs.CHROMATIC_LIMIT + 1)),
    "verify-centered-coloring": lambda: treedepth.verify_centered_coloring(
        sized(treedepth.CENTERED_CHECK_LIMIT + 1), None),
    "verify-vertex-ranking": lambda: treedepth.verify_vertex_ranking(
        sized(treedepth.RANKING_CHECK_LIMIT + 1), None),
    "minimum-centered-palette": lambda: treedepth.minimum_centered_palette(
        sized(treedepth.CENTERED_PALETTE_LIMIT + 1)),
    "minimum-ranking-palette": lambda: treedepth.minimum_ranking_palette(
        sized(treedepth.RANKING_PALETTE_LIMIT + 1)),
    "odd-distance-set": lambda: applications.max_odd_distance_set(
        sized(applications.ODDSET_LIMIT + 1)),
    "scan-path": lambda: applications.induced_pattern_scan(
        sized(1), applications.SCAN_PATH_LIMIT + 1, 1, 1),
    "scan-clique": lambda: applications.induced_pattern_scan(
        sized(1), 1, applications.SCAN_CLIQUE_LIMIT + 1, 1),
    "scan-biclique": lambda: applications.induced_pattern_scan(
        sized(1), 1, 1, applications.SCAN_BICLIQUE_LIMIT + 1),
    "choosable-order": lambda: applications.is_k_choosable(
        sized(applications.CHOOSABLE_ORDER_LIMIT + 1), 1),
    "choosable-k": lambda: applications.is_k_choosable(
        sized(1), applications.CHOOSABLE_K_LIMIT + 1),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refuses_one_above_limit(case):
    with pytest.raises(SizeLimitError):
        REFUSALS[case]()


# Every parameter with a default on a public function or class constructor,
# as module.function.parameter. Size limits and search budgets are module
# constants; the only ones settable per call are listed here, each with the
# caller that sets it.
SETTABLE = {
    # the CLI's --exact-limit and --budget
    "treedepth.treedepth_exact.exact_limit",
    "density.grad.exact_limit",
    "density.top_grad.exact_limit",
    "density.imm_grad.exact_limit",
    "density.density_profile.exact_limit",
    "homomorphism.core.exact_limit",
    "homomorphism.hom_exists.budget",
    "homomorphism.dual_check.budget",
    # count --method auto lifts the oracle's host limit
    "counting.count_bruteforce.host_limit",
    # set only by the failure-path tests
    "decomposition.ltd_coloring.max_rounds",
    # optional inputs, not limits
    "cli.main.argv",
    "counting.CountQuery.mode",
    "counting.count_embeddings.induced",
    "counting.find_embedding.induced",
    "counting.count_ltd.decomposition",
    "decomposition.ClusterCover.palette",
    "decomposition.ClusterCover.membership_bound",
    "errors.ParseError.line",
    "graphs.Graph.labels",
    "graphs.catalog_names.max_n",
    "treedepth.Coloring.palette",
    "treedepth.treedepth_at_most.vertices",
}


def _settable():
    found = set()
    for info in pkgutil.iter_modules(sparsekit.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"sparsekit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            fn = obj.__init__ if inspect.isclass(obj) else obj
            if not inspect.isfunction(fn):
                continue
            found.update(f"{info.name}.{name}.{p.name}"
                         for p in inspect.signature(fn).parameters.values()
                         if p.default is not p.empty)
    return found


def test_settable_values_are_listed():
    assert _settable() == SETTABLE
