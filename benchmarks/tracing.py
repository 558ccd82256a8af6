"""In-memory call spans for the benchmark's traced runs.

While a ``Tracer`` is installed, the public functions listed in ``TRACED``
are replaced, in every fawkit module that holds a reference to them, by
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Calls one module makes into another go through those
module attributes too, so a span's children are the cross-layer calls it
made and a layer's self time is what it spent outside them.

Spans are kept in memory and written out once, when the run ends. They are
recorded from the main thread only: the simulator's worker threads run
block code that is never patched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# Layer boundaries: the calls the modules make into each other. Scalar
# formula kernels (attacker_reward_formula, pot_payoffs_raw) are called
# hundreds of times per solve and are left out so that tracing stays cheap.
TRACED = {
    "scenarios": ("validate", "validate_single", "validate_multi", "validate_game"),
    "optimize": ("grid_golden_max",),
    "single_pool": ("optimal_tau", "reward_single"),
    "multi_pool": ("reward_npool", "reward_two_pools", "optimize_allocation"),
    "game": ("game_payoffs", "net_payoffs", "best_response", "unilateral_gain",
             "solve_equilibrium", "sweep_regions", "sweep_regions_assumed_c",
             "write_sweep_csv"),
    "simulator": ("simulate", "simulate_single", "simulate_multi", "simulate_game"),
    "cli": ("main", "build_parser", "load_fixture"),
}


class Tracer:
    """Collects spans as ``[name, start_ns, end_ns, parent_index]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Patch the TRACED functions of ``modules`` (layer name -> module).

        Every module attribute that is one of those functions is replaced,
        so references imported into other modules are traced as well; all
        of them are restored on exit.
        """
        wrappers = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(modules[layer], name)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        patched = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self, first: int) -> dict[str, float]:
        """Seconds of self time per layer over the spans from ``first`` on.

        A span's layer is its name up to the first dot; its self time is its
        duration minus the durations of its direct children.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        totals: dict[str, float] = {}
        for i in range(first, len(self.spans)):
            name, start, end, _ = self.spans[i]
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start - child_ns[i]) / 1e9
        return totals

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON; names are interned."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans]
        doc = dict(header, span_names=list(names),
                   span_columns=["name", "start_ns", "end_ns", "parent"], spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
