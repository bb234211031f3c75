"""Spans around rispla's public functions, recorded from outside the package.

`Tracer.install()` rebinds every public function of the six modules at each
module attribute that holds it. The modules import each other's functions by
name (`optim` imports `empirical_distribution`, `ris_pathloss` and
`pmd_pathloss`; `mc` imports `ris_pathloss` and `fspl`; `cli` imports
`load_scenario`, `ris_pathloss` and `fspl`), so wrapping only the defining
module would miss those calls. `uninstall()` puts the originals back, so an
untraced iteration runs the program exactly as shipped.

Spans stay in memory as (name, start_ns, end_ns, parent, run_id) and are
written out by `write_csv` when the benchmark ends. Worker processes of the
process pool are not traced: their time shows as the `mc` span that waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "optim", "mc", "channel", "auth", "specfun")


def _plan_counts(plan, n_trials: int) -> dict[str, int]:
    """Trials, element-trials and uniform bytes the engine computes for a plan.

    Per trial the engine draws a block of `stride` doubles: 4 for the pathloss
    feature, 4N+4 for a CIR feature with N decoded elements (N=1 without the
    panel). A CIR call also draws one enrollment block.
    """
    cir = plan.feature.value != "pathloss"
    elements = plan.scenario.n_elements if cir and plan.ris else 1
    stride = 4 * elements + 4 if cir else 4
    return {
        "trials": n_trials,
        "element_trials": n_trials * elements,
        "uniform_bytes": 8 * stride * (n_trials + (1 if cir else 0)),
    }


# Counts recorded at the boundary, from the call's arguments and result.
COUNTERS = {
    "mc.run_trials": lambda a, r: _plan_counts(a["plan"], a["plan"].n_trials),
    "mc.roc_sweep": lambda a, r: _plan_counts(a["plan"], a["plan"].n_trials),
    "mc.empirical_distribution": lambda a, r: _plan_counts(a["plan"], a["n_samples"]),
    "optim.optimize_gradient": lambda a, r: {"points": len(a["grid"])},
    "optim.optimize_phase_matrix": lambda a, r: {"evaluations": r.evaluations,
                                                  "rows": len(r.trace)},
}


def _public_functions(module) -> list:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [f for f in (getattr(module, n) for n in names)
            if inspect.isfunction(f) and f.__module__ == module.__name__]


class Tracer:
    """Records one span per call of a wrapped rispla function."""

    def __init__(self):
        # [name, layer, start_ns, end_ns, parent index or -1, run_id, counts]
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span[6] = counter(bound, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"rispla.{layer}") for layer in LAYERS]
        wrappers = {fn: self._wrap(layer, fn)
                    for layer, module in zip(LAYERS, modules)
                    for fn in _public_functions(module)}
        for module in (importlib.import_module("rispla"), *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_csv(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,run_id\n")
            for i, (name, _, start, end, parent, run_id, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{run_id}\n")

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer counts and times of one traced iteration.

        A layer's busy time is the total of its outermost spans (no ancestor in
        the same layer); its self time is the total over its spans of the span
        minus its direct child spans; `calls` counts the outermost spans.
        """
        spans = self.spans
        child_ns = {}
        outer = {}  # span index -> layers of its ancestors and itself
        busy = dict.fromkeys(LAYERS, 0)
        own = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        by_name: dict[str, list] = {}
        for i, (name, layer, start, end, parent, rid, counts) in enumerate(spans):
            if rid != run_id:
                continue
            above = outer.get(parent, frozenset())
            outer[i] = above | {layer}
            duration = end - start
            if layer not in above:
                busy[layer] += duration
                calls[layer] += 1
            if parent in outer:
                child_ns[parent] = child_ns.get(parent, 0) + duration
            by_name.setdefault(name, []).append((i, duration, counts))
        for i in outer:
            _, layer, start, end = spans[i][:4]
            own[layer] += end - start - child_ns.get(i, 0)

        def total(name: str, key=None) -> float:
            items = by_name.get(name, [])
            if key is None:
                return sum(d for _, d, _ in items) * 1e-9
            return sum(c[key] for _, _, c in items)

        def self_s(name: str) -> float:
            return sum(d - child_ns.get(i, 0) for i, d, _ in by_name.get(name, [])) * 1e-9

        mc_fns = ("mc.run_trials", "mc.roc_sweep", "mc.empirical_distribution")
        mc_trials = sum(total(n, "trials") for n in mc_fns)
        evaluations = total("optim.optimize_phase_matrix", "evaluations")
        rows = total("optim.optimize_phase_matrix", "rows")
        m = {
            "mc.calls": calls["mc"],
            "mc.busy_s": busy["mc"] * 1e-9,
            "mc.self_s": own["mc"] * 1e-9,
            "mc.run_trials.busy_s": total("mc.run_trials"),
            "mc.roc_sweep.busy_s": total("mc.roc_sweep"),
            "mc.empirical_distribution.busy_s": total("mc.empirical_distribution"),
            "mc.trials": mc_trials,
            "mc.element_trials": sum(total(n, "element_trials") for n in mc_fns),
            "mc.trials_per_busy_s": mc_trials / (busy["mc"] * 1e-9) if busy["mc"] else 0.0,
            "mc.uniform_bytes_computed": sum(total(n, "uniform_bytes") for n in mc_fns),
            "optim.gradient.busy_s": total("optim.optimize_gradient"),
            "optim.gradient.self_s": self_s("optim.optimize_gradient"),
            "optim.gradient.points": total("optim.optimize_gradient", "points"),
            "optim.phase.busy_s": total("optim.optimize_phase_matrix"),
            "optim.phase.self_s": self_s("optim.optimize_phase_matrix"),
            "optim.phase.evaluations": evaluations,
            "optim.phase.useful_ratio": evaluations / rows if rows else 0.0,
            "channel.ris_pathloss.calls": len(by_name.get("channel.ris_pathloss", [])),
            "channel.ris_pathloss.busy_s": total("channel.ris_pathloss"),
            "channel.load_scenario.busy_s": total("channel.load_scenario"),
        }
        for layer in ("auth", "specfun"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.busy_s"] = busy[layer] * 1e-9
        m["cli.calls"] = calls["cli"]
        m["cli.busy_s"] = busy["cli"] * 1e-9
        m["cli.self_s"] = own["cli"] * 1e-9
        return m


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Lower median of each metric over traced iterations, so counts stay whole."""
    return {k: statistics.median_low(r[k] for r in per_run) for k in per_run[0]}
