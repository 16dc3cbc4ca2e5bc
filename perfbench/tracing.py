"""Benchmark-side span tracing around the public functions of each layer.

:func:`install` replaces each target below with a wrapper that records a
span (name, start, end, parent span) or, for the validation helpers, only a
call count.  Module-level functions are replaced at *every* module of the
``repro`` package that binds them by name, so ``from x import f`` call sites
are traced too.  Spans stay in memory; :meth:`Recorder.layer_metrics`
reduces them once the run has ended.  :func:`uninstall` restores every
original and :func:`leftover_wrappers` proves nothing was left behind.

A span's self time is its duration minus the durations of its direct child
spans (children of one thread never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_MARK = "__perfbench_wrapped__"

#: (span name, defining module, attribute path).  An attribute path with a
#: dot is a method, patched on the class that defines it.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.engine_run", "repro.core.engine", "StagePipeline.run"),
    ("core.engine_run", "repro.core.engine", "DistributedStagePipeline.run"),
    ("core.engine_run", "repro.core.engine", "DistributedStagePipeline.run_on_dataset"),
    ("core.engine_run", "repro.core.streaming", "StreamingEngine.run"),
    ("core.engine_run", "repro.core.streaming", "StreamingEngine.run_streams"),
    ("core.engine_run", "repro.core.streaming", "StreamingEngine.run_on_dataset"),
    ("kmeans.bicriteria", "repro.kmeans.bicriteria", "bicriteria_approximation"),
    ("kmeans.d2_sampling", "repro.kmeans.seeding", "d2_sampling"),
    ("kmeans.lloyd_fit", "repro.kmeans.lloyd", "WeightedKMeans.fit"),
    ("cr.merge_coresets", "repro.cr.coreset", "merge_coresets"),
    ("dr.jl_transform", "repro.dr.jl", "JLProjection.transform"),
    ("dr.pca_fit", "repro.dr.pca", "PCAProjection.fit"),
    ("quantization.quantize", "repro.quantization.rounding", "RoundingQuantizer.quantize"),
    ("quantization.quantize", "repro.quantization.rounding", "IdentityQuantizer.quantize"),
    ("stages.dr", "repro.stages.dr", "JLStage.apply_at_source"),
    ("stages.dr", "repro.stages.dr", "PCAStage.apply_at_source"),
    ("stages.cr", "repro.stages.cr", "FSSStage.apply_at_source"),
    ("stages.cr", "repro.stages.cr", "SensitivityStage.apply_at_source"),
    ("stages.cr", "repro.stages.cr", "UniformStage.apply_at_source"),
    ("stages.qt", "repro.stages.qt", "QuantizeStage.apply_at_source"),
    ("streaming.compress", "repro.streaming.source", "StreamingSource.compress"),
    ("streaming.flush", "repro.streaming.source", "StreamingSource.flush"),
    ("streaming.tree_insert", "repro.streaming.tree", "CoresetTree.insert"),
    ("streaming.fold", "repro.streaming.server", "StreamingServer.fold"),
    ("streaming.query", "repro.streaming.server", "StreamingServer.query"),
    ("topology.agg_fold", "repro.topology.aggregator", "AggregatorNode.fold"),
    ("topology.agg_emit", "repro.topology.aggregator", "AggregatorNode.emit"),
    ("topology.deliver_step", "repro.topology.router", "TopologyRouter.deliver_step"),
    ("distributed.send_many", "repro.distributed.network", "SimulatedNetwork.send_many"),
    ("distributed.bklw_stage", "repro.stages.distributed", "BKLWStage.apply_to_cluster"),
    ("distributed.shared_jl", "repro.stages.distributed", "SharedJLStage.apply_to_cluster"),
)

#: Hot validation helpers: counted, not spanned, to keep the overhead low.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("validation.check_matrix", "repro.utils.validation", "check_matrix"),
    ("validation.check_weights", "repro.utils.validation", "check_weights"),
)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` list per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Last observed value of a gauge (e.g. live buckets at a query).
        self.gauges: Dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        """``fn`` recording one span per call; ``hook(recorder, args, call)``,
        when given, runs around the span to record counts."""

        def timed(args, kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is None:
                return timed(args, kwargs)
            return hook(self, args, lambda call_args: timed(call_args, kwargs))

        setattr(wrapper, _MARK, True)
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # ------------------------------------------------------------ results
    def covered_seconds(self) -> float:
        """Wall time inside root spans (spans with no traced parent)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self) -> Dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` per span name, plus the
        counters the hooks recorded, summed over every traced run."""
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_seconds):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - children
        out.update(self.counts)
        return dict(out)


def _merge_inputs(recorder: Recorder, args: tuple, call: Callable):
    """Coresets each merge folds.  The iterable is materialised once so the
    count does not consume what the merge needs."""
    coresets = list(args[0])
    recorder.counts["cr.merge_coresets.inputs"] += len(coresets)
    return call((coresets,) + tuple(args[1:]))


def _tree_merges(recorder: Recorder, args: tuple, call: Callable):
    """Merges of the cascade one tree insert triggers."""
    tree = args[0]
    before = tree.merges
    result = call(args)
    recorder.counts["streaming.tree_merges"] += tree.merges - before
    return result


def _fold_applied(recorder: Recorder, args: tuple, call: Callable):
    """Applied (not duplicate) server folds."""
    result = call(args)
    if getattr(result, "name", None) == "APPLIED":
        recorder.counts["streaming.fold.applied"] += 1
    return result


def _live_buckets(recorder: Recorder, args: tuple, call: Callable):
    """Server buckets merged by the latest query."""
    result = call(args)
    recorder.gauges["streaming.live_buckets"] = float(args[0].live_bucket_count)
    return result


_HOOKS = {
    "cr.merge_coresets": _merge_inputs,
    "streaming.tree_insert": _tree_merges,
    "streaming.fold": _fold_applied,
    "streaming.query": _live_buckets,
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, attr


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


Patches = List[Tuple[object, str, object]]


def install(recorder: Recorder) -> Patches:
    """Wrap every target; returns the ``(owner, attribute, original)``
    patches :func:`uninstall` undoes."""
    patches: Patches = []
    functions: Dict[int, Callable] = {}
    for name, module_name, path in SPAN_TARGETS + COUNT_TARGETS:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        if (name, module_name, path) in COUNT_TARGETS:
            wrapper = recorder.counted(name, original)
        else:
            wrapper = recorder.spanned(name, original, _HOOKS.get(name))
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            functions[id(original)] = wrapper
    # A module-level function is bound by name in every module that imported
    # it: replace each binding, not just the defining one.
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            wrapper = functions.get(id(value))
            if wrapper is not None:
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patches


def uninstall(patches: Patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def leftover_wrappers() -> List[str]:
    """Names of any tracing wrapper still bound in the ``repro`` package."""
    owners = [(module.__name__, module) for module in _repro_modules()]
    for _, module_name, path in SPAN_TARGETS + COUNT_TARGETS:
        owner, _ = _resolve(module_name, path)
        if isinstance(owner, type):
            owners.append((f"{module_name}.{owner.__qualname__}", owner))
    return sorted(
        f"{prefix}.{attr}"
        for prefix, owner in owners
        for attr, value in vars(owner).items()
        if getattr(value, _MARK, False)
    )
