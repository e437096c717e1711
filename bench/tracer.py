"""Spans around calls into sparsekit's layers, installed from outside.

``install`` rebinds each traced function in every loaded sparsekit module
namespace that holds it (``graphs.smallest_last_order`` and
``treedepth.smallest_last_order`` are the same function looked up in two
places), so calls between modules are seen as well as calls from the
benchmark. Spans nest; a layer's self time is its span's duration minus the
durations of the spans it caused. Spans are aggregated in memory by
(parent, name) as they close.
"""

import sys
import time

TRACED = {
    "graphs": ("smallest_last_order", "degeneracy_orientation",
               "parse_edge_list", "induced_subgraph"),
    "treedepth": ("greedy_smallest_last_coloring", "treedepth_at_most"),
    "decomposition": ("tf_augment", "_orient_smallest_last", "verify_ltd",
                      "ltd_coloring"),
    "counting": ("count_ltd", "count_bruteforce", "automorphism_count"),
    "cli": ("main",),
    "density": ("grad",),
    "homomorphism": ("hom_exists",),
    "applications": ("neighborhood_cover",),
}


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start_ns, child_ns]
        self.reset()

    def reset(self):
        self.calls = {}
        self.self_ns = {}
        self.edges = {}  # (parent, name) -> calls
        self.verify_ok = 0
        self.palettes = []

    def install(self):
        """Rebind every traced function where sparsekit's modules hold it."""
        holders = [m for k, m in sys.modules.items()
                   if k == "sparsekit" or k.startswith("sparsekit.")]
        for mod_name, names in TRACED.items():
            module = sys.modules["sparsekit." + mod_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for holder in holders:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)

    def _wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[2]
                self.edges[parent, name] = self.edges.get((parent, name), 0) + 1
            if name == "decomposition.verify_ltd" and result.ok:
                self.verify_ok += 1
            elif name == "decomposition.ltd_coloring":
                self.palettes.append(result.coloring.palette)
            return result

        traced.__wrapped__ = fn
        return traced

    def table(self, rounds):
        """Per-round calls and self time of every traced function."""
        names = [f"{m}.{n}" for m, ns in TRACED.items() for n in ns]
        return {name: {"calls": self.calls.get(name, 0) / rounds,
                       "self_ms": self.self_ns.get(name, 0) / 1e6 / rounds}
                for name in names}
