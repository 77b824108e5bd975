"""Span tracer for the traced run, attached to scfconv from outside.

``Tracer.install`` rebinds every public function of scfconv's computational
modules, wherever that function object is bound (its own module, modules
that imported it by name, the package namespace), to a wrapper that records
a span.  Calls therefore follow the CLI's real call path without any change
to the program.  ``Tracer.uninstall`` restores the originals.

A span is (name, start, end, parent index, case id).  Spans stay in memory
and are written out by the runner at the end.  Self time is a span's
duration minus the part of it that its child spans cover.

Metric names are ``<module>.<function>.<stat>``.  A function that no longer
exists is simply never called, so its stats read zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "scfconv"

# Modules whose public functions are all wrapped.
TRACED_MODULES = ("matops", "problems", "scf", "analysis")
# Single targets: the CLI entry point (its helpers count as its own glue) and
# the report serializer.
EXTRA_TARGETS = (("cli", "main"), ("analysis", "ConvergenceReport.to_dict"))
LAYERS = ("matops", "problems", "scf", "analysis", "cli")

# Per-function stats reported as per-layer metrics.
FUNCTION_STATS = (
    ("scf.locate_fixed_point", ("calls", "total_s", "self_s")),
    ("scf.scf_solve", ("calls",)),
    ("scf.scf_step", ("calls", "total_s")),
    ("matops.fermi_chemical_potential", ("calls", "total_s")),
    ("matops.spectral_filter_density", ("calls", "total_s")),
    ("problems.assemble_Lprime", ("calls", "total_s")),
    ("problems.load_problem", ("total_s",)),
    ("analysis.assemble_jacobian", ("calls", "total_s")),
    ("analysis.convergence_factor", ("total_s",)),
    ("analysis.bound_c2", ("total_s",)),
    ("analysis.bound_cyclic", ("calls", "total_s")),
    ("analysis.bound_rank_truncated", ("calls", "total_s")),
    ("analysis.bound_gap_all", ("total_s",)),
    ("analysis.bound_naive", ("total_s",)),
    ("analysis.gap_structure", ("total_s",)),
    ("analysis.jacobian_fd", ("total_s",)),
    ("analysis.realified_jacobian_fd", ("total_s",)),
    ("analysis.cyclic_spectral_radii", ("total_s",)),
    ("analysis.analyze_problem", ("self_s",)),
    ("analysis.ConvergenceReport.to_dict", ("total_s",)),
    ("cli.main", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def _observe_scf_solve(tracer, args, kwargs, bundle):
    opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
    tracer.count("scf.steps_taken", bundle.iterations)
    if opts is not None and opts.damping < 1.0:
        tracer.count("scf.fallback_runs")
    if not bundle.converged:
        tracer.count("scf.unconverged")


def _observe_locate(tracer, args, kwargs, result):
    tracer.count("scf.useful_steps", result[0].iterations)


def _observe_lprime(tracer, args, kwargs, l_prime):
    tracer.count("problems.lprime_bytes", l_prime.nbytes)


def _observe_jacobian(tracer, args, kwargs, jb):
    tracer.count("analysis.jacobian_bytes", jb.j_p.nbytes)


# Counts taken from arguments and results at the call boundary.  A later
# change of a return type makes the observer skip, never the call fail.
OBSERVERS = {
    "scf.scf_solve": _observe_scf_solve,
    "scf.locate_fixed_point": _observe_locate,
    "problems.assemble_Lprime": _observe_lprime,
    "analysis.assemble_jacobian": _observe_jacobian,
}


def find_targets(modules: dict) -> list:
    """(metric name, owner, attribute, function) of everything to wrap.

    ``modules`` maps a short module name to the loaded module; names that
    are absent there or in a module are skipped.
    """
    found = []
    for short in TRACED_MODULES:
        module = modules.get(short)
        if module is None:
            continue
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found.append((f"{short}.{attr}", module, attr, obj))
    for short, path in EXTRA_TARGETS:
        owner = modules.get(short)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is not None:
            found.append((f"{short}.{path}", owner, attr, fn))
    return found


class Tracer:
    """Records spans of wrapped calls; ``case`` labels the spans that follow."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.case = None
        self._stack = []
        self._patches = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.case]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        prefix = PACKAGE + "."
        loaded = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        ]
        modules = {m.__name__[len(prefix):]: m for m in loaded if m.__name__.startswith(prefix)}
        for name, owner, attr, fn in find_targets(modules):
            wrapper = self.wrap(name, fn)
            bindings = [(owner, attr)]
            if inspect.ismodule(owner):
                bindings = [
                    (module, key)
                    for module in loaded
                    for key, value in list(vars(module).items())
                    if value is fn
                ]
            for where, key in bindings:
                self._patches.append((where, key, fn))
                setattr(where, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            where, key, fn = self._patches.pop()
            setattr(where, key, fn)

    def function_stats(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self_times(self.spans)):
            entry = stats[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += self_s
        return stats


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics: ``{name: (value, unit)}``.

    ``extra`` carries what the runner measures itself (``cli.output_bytes``,
    ``trace.overhead_s``, ...) as (value, unit) pairs.
    """
    stats = tracer.function_stats()
    metrics = {}
    for name, wanted in FUNCTION_STATS:
        entry = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in wanted:
            metrics[f"{name}.{stat}"] = (entry[stat], STAT_UNITS[stat])
    counters = tracer.counters
    taken = counters.get("scf.steps_taken", 0)
    metrics["scf.fallback_runs"] = (int(counters.get("scf.fallback_runs", 0)), "count")
    metrics["scf.unconverged"] = (int(counters.get("scf.unconverged", 0)), "count")
    metrics["scf.useful_step_ratio"] = (
        counters.get("scf.useful_steps", 0) / taken if taken else 0.0,
        "ratio",
    )
    metrics["problems.lprime_bytes"] = (int(counters.get("problems.lprime_bytes", 0)), "bytes")
    metrics["analysis.jacobian_bytes"] = (int(counters.get("analysis.jacobian_bytes", 0)), "bytes")
    for layer in LAYERS:
        total = sum(e["self_s"] for n, e in stats.items() if n.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_s"] = (total, "s")
    metrics.update(extra)
    return metrics
