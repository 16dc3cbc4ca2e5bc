"""The pipeline registry: named compositions → pipeline factories.

Every algorithm the package can run is registered here under a CLI-friendly
name, together with a factory that builds a fresh pipeline from the standard
keyword arguments (one set for single-source, one for multi-source — see
:data:`SINGLE_SOURCE_KWARGS` / :data:`MULTI_SOURCE_KWARGS`).  The CLI
(:mod:`repro.cli`) and the experiment harness
(:meth:`repro.metrics.experiment.ExperimentRunner.run_registered`) both
resolve algorithms through this registry, so registering a composition is all
it takes to make it runnable everywhere.

Beyond the paper's eight algorithms, the registry holds compositions the
monolithic seed implementations could not express — uniform-sampling
baselines, FSS recomposed from primitive ``PCA + SS`` stages, and explicit
quantization stages — demonstrating that the stage engine is a strict
generalization.  The ``stream-*`` entries run the same stage chains *online*
via the :class:`~repro.core.streaming.StreamingEngine`: batched arrivals,
merge-and-reduce coreset trees, incremental uplink, and continuous queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import DistributedStagePipeline, StagePipeline
from repro.core.streaming import StreamingEngine
from repro.distributed.conditions import (
    NETWORK_PRESETS,
    FaultPlan,
    NetworkCondition,
    resolve_condition,
)
from repro.stages.cr import FSSStage, SensitivityStage, UniformStage
from repro.stages.distributed import BKLWStage, RawGatherStage, SharedJLStage
from repro.stages.dr import JLStage, PCAStage
from repro.stages.qt import QuantizeStage

#: Network-simulation keyword arguments accepted by every factory kind
#: (condition preset / NetworkCondition, scripted faults, retry budget,
#: loss-seed override — see :mod:`repro.distributed.conditions`).
NETWORK_KWARGS = ("network", "fault_plan", "retries", "network_seed")

#: Keyword arguments every single-source factory accepts.  ``stage_cache``
#: (a :class:`~repro.core.cache.StageCache` or per-cell view) opts the
#: engine into content-addressed memoization of stage outputs; the
#: multi-source and streaming kinds execute uncached (their per-shard
#: network metering interleaves with stage execution).
SINGLE_SOURCE_KWARGS = (
    "k", "epsilon", "delta", "coreset_size", "pca_rank", "jl_dimension",
    "second_jl_dimension", "quantizer", "server_n_init",
    "server_max_iterations", "seed", "stage_cache",
) + NETWORK_KWARGS
#: Keyword arguments every multi-source factory accepts.
MULTI_SOURCE_KWARGS = (
    "k", "epsilon", "delta", "pca_rank", "total_samples", "jl_dimension",
    "quantizer", "server_n_init", "seed", "jobs",
) + NETWORK_KWARGS
#: Keyword arguments every streaming factory accepts (streaming compositions
#: consume per-source shards like multi-source ones, plus the stream shape).
STREAMING_KWARGS = (
    "k", "epsilon", "delta", "coreset_size", "pca_rank", "jl_dimension",
    "quantizer", "batch_size", "window", "query_every", "server_n_init",
    "server_max_iterations", "seed", "jobs", "topology", "fan_in",
) + NETWORK_KWARGS

#: Significant bits used by the registered +QT compositions when no explicit
#: quantizer is passed (a mid-sweep value from the paper's Figures 3–6).
DEFAULT_QT_BITS = 10


@dataclass(frozen=True)
class PipelineSpec:
    """One registry entry.

    Attributes
    ----------
    name:
        Registry / CLI name (e.g. ``"jl-fss-jl"``).
    factory:
        Callable building a fresh pipeline from the standard keyword
        arguments of its kind.
    multi_source:
        True when the pipeline consumes per-source shards.
    description:
        One-line description shown by ``repro --list-algorithms``.
    novel:
        True for compositions beyond the paper's eight algorithms.
    streaming:
        True for online compositions executed by the
        :class:`~repro.core.streaming.StreamingEngine` (these also consume
        per-source shards, so ``multi_source`` is True for them).
    """

    name: str
    factory: Callable[..., object]
    multi_source: bool
    description: str
    novel: bool = False
    streaming: bool = False


_REGISTRY: Dict[str, PipelineSpec] = {}


def register_pipeline(
    name: str,
    factory: Callable[..., object],
    *,
    multi_source: bool = False,
    description: str = "",
    novel: bool = False,
    streaming: bool = False,
    overwrite: bool = False,
) -> PipelineSpec:
    """Register a composition under ``name`` and return its spec."""
    key = str(name).lower()
    if not overwrite and key in _REGISTRY:
        raise ValueError(f"pipeline {key!r} is already registered")
    spec = PipelineSpec(
        name=key,
        factory=factory,
        multi_source=bool(multi_source) or bool(streaming),
        description=description,
        novel=bool(novel),
        streaming=bool(streaming),
    )
    _REGISTRY[key] = spec
    return spec


def get_spec(name: str) -> PipelineSpec:
    """Look up a registered composition (raises ``KeyError`` with the list of
    known names on a miss)."""
    key = str(name).lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown pipeline {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def factory_kind(name: str) -> str:
    """The keyword-argument kind of a registered composition:
    ``"streaming"``, ``"multi-source"``, or ``"single-source"``."""
    spec = get_spec(name)
    if spec.streaming:
        return "streaming"
    if spec.multi_source:
        return "multi-source"
    return "single-source"


def accepted_kwargs(name: str) -> Tuple[str, ...]:
    """The standard keyword-argument tuple of a composition's kind."""
    kind = factory_kind(name)
    if kind == "streaming":
        return STREAMING_KWARGS
    if kind == "multi-source":
        return MULTI_SOURCE_KWARGS
    return SINGLE_SOURCE_KWARGS


def create_pipeline(name: str, **kwargs):
    """Build a fresh pipeline instance for a registered composition.

    ``kwargs`` outside the standard set for the composition's kind (see
    :func:`accepted_kwargs`) are rejected with a ``TypeError`` — typos like
    ``jl_dim=20`` would otherwise silently run the wrong experiment.  Callers
    holding one merged configuration for mixed kinds pass each composition
    its :func:`accepted_kwargs` subset.  ``None`` values mean "use the
    default".
    """
    spec = get_spec(name)
    accepted = accepted_kwargs(name)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise TypeError(
            f"create_pipeline({name!r}) got unknown keyword arguments "
            f"{unknown}; {factory_kind(name)} pipelines accept "
            f"{sorted(accepted)}"
        )
    return spec.factory(**{k: v for k, v in kwargs.items() if v is not None})


def registered_names(
    multi_source: Optional[bool] = None, streaming: Optional[bool] = None
) -> List[str]:
    """Sorted names, optionally filtered by kind."""
    return sorted(
        spec.name
        for spec in _REGISTRY.values()
        if (multi_source is None or spec.multi_source == multi_source)
        and (streaming is None or spec.streaming == streaming)
    )


def registered_specs() -> List[PipelineSpec]:
    """All specs, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def is_multi_source(name: str) -> bool:
    """True when the named composition consumes per-source shards."""
    return get_spec(name).multi_source


def is_streaming(name: str) -> bool:
    """True when the named composition runs on the streaming engine."""
    return get_spec(name).streaming


#: Defaults shared by every stage-composition factory (values a caller gets
#: when it omits the argument — the engines' own documented defaults).
_FACTORY_DEFAULTS = {
    "epsilon": 0.2,
    "delta": 0.1,
    "server_n_init": 5,
    "server_max_iterations": 100,
    "batch_size": 512,
}
#: Keyword arguments consumed by the stage-list builder (summary geometry)
#: rather than by the engine constructor.
_STAGE_GEOMETRY_KWARGS = (
    "coreset_size", "pca_rank", "jl_dimension", "second_jl_dimension",
    "total_samples",
)


def _composition_factory(stages_builder, default_name, *, engine_cls, accepted,
                         defaults=None):
    """Wrap a stage-list builder into a registry factory.

    The engine keyword dict is assembled once from the ``accepted`` kwargs
    tuple of the kind — stage-geometry keys are routed to ``stages_builder``
    and everything else goes to ``engine_cls`` — instead of re-listing every
    parameter by hand in each factory kind.  ``defaults`` overlays
    per-composition defaults (e.g. the sliding-window span) on the shared
    :data:`_FACTORY_DEFAULTS`.
    """
    factory_defaults = dict(_FACTORY_DEFAULTS)
    if defaults:
        factory_defaults.update(defaults)

    def factory(k, **kwargs):
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise TypeError(
                f"{default_name} factory got unexpected keyword arguments "
                f"{unknown}; accepted: {sorted(accepted)}"
            )
        merged = {
            key: kwargs.get(key, factory_defaults.get(key))
            for key in accepted
            if key != "k"
        }
        stage_kwargs = {
            key: merged.pop(key)
            for key in _STAGE_GEOMETRY_KWARGS
            if key in merged
        }
        stages = stages_builder(**stage_kwargs)
        return engine_cls(stages, k=k, name=default_name, **merged)

    return factory


def _single(stages_builder, default_name):
    """Wrap a stage-list builder into a single-source pipeline factory."""
    return _composition_factory(
        stages_builder, default_name,
        engine_cls=StagePipeline, accepted=SINGLE_SOURCE_KWARGS,
    )


def _multi(stages_builder, default_name):
    """Wrap a stage-list builder into a multi-source pipeline factory (the
    BKLW analysis caps epsilon at 1/3, which is also its default)."""
    return _composition_factory(
        stages_builder, default_name,
        engine_cls=DistributedStagePipeline, accepted=MULTI_SOURCE_KWARGS,
        defaults={"epsilon": 1.0 / 3.0},
    )


# --------------------------------------------------------------------------
# The paper's eight algorithms.  Summary sizes default to values tuned so
# that all algorithms land in a comparable empirical error regime (the
# spirit of Section 7.1) rather than to the pessimistic theoretical
# constants; every size can be overridden.
# --------------------------------------------------------------------------
register_pipeline(
    "nr",
    _single(lambda **_: [], "NR"),
    description="no reduction: transmit the raw dataset (Section 7.2 baseline)",
)
register_pipeline(
    "fss",
    _single(
        lambda coreset_size, pca_rank, **_: [
            FSSStage(size=coreset_size, pca_rank=pca_rank),
        ],
        "FSS",
    ),
    description="FSS coreset: PCA + sensitivity sampling (Theorem 4.1)",
)
register_pipeline(
    "jl-fss",
    _single(
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension),
            FSSStage(size=coreset_size, pca_rank=pca_rank),
        ],
        "JL+FSS (Alg1)",
    ),
    description="Algorithm 1: JL projection, then FSS (Theorem 4.2)",
)
register_pipeline(
    "fss-jl",
    _single(
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            FSSStage(size=coreset_size, pca_rank=pca_rank),
            JLStage(jl_dimension),
        ],
        "FSS+JL (Alg2)",
    ),
    description="Algorithm 2: FSS, then JL projection of the coreset (Theorem 4.3)",
)
register_pipeline(
    "jl-fss-jl",
    _single(
        lambda coreset_size, pca_rank, jl_dimension, second_jl_dimension: [
            JLStage(jl_dimension),
            FSSStage(size=coreset_size, pca_rank=pca_rank),
            JLStage(second_jl_dimension),
        ],
        "JL+FSS+JL (Alg3)",
    ),
    description="Algorithm 3: JL, then FSS, then JL again (Theorem 4.4)",
)
register_pipeline(
    "nr-distributed",
    _multi(lambda **_: [RawGatherStage()], "NR (distributed)"),
    multi_source=True,
    description="distributed no-reduction baseline: every source ships its shard",
)
register_pipeline(
    "bklw",
    _multi(
        lambda pca_rank, total_samples, **_: [
            BKLWStage(pca_rank=pca_rank, total_samples=total_samples),
        ],
        "BKLW",
    ),
    multi_source=True,
    description="BKLW: disPCA + disSS (Theorem 5.3)",
)
register_pipeline(
    "jl-bklw",
    _multi(
        lambda pca_rank, total_samples, jl_dimension: [
            SharedJLStage(jl_dimension),
            BKLWStage(pca_rank=pca_rank, total_samples=total_samples),
        ],
        "JL+BKLW (Alg4)",
    ),
    multi_source=True,
    description="Algorithm 4: shared-seed JL, then BKLW (Theorem 5.4)",
)


# --------------------------------------------------------------------------
# Novel compositions the monolithic seed implementations could not express.
# --------------------------------------------------------------------------
register_pipeline(
    "uniform",
    _single(
        lambda coreset_size, **_: [UniformStage(coreset_size)],
        "Uniform",
    ),
    description="uniform-sampling coreset baseline (the Section 7.4 ablation, "
                "promoted to a first-class pipeline)",
    novel=True,
)
register_pipeline(
    "jl-uniform",
    _single(
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension), UniformStage(coreset_size),
        ],
        "JL+Uniform",
    ),
    description="shared-seed JL projection, then uniform sampling",
    novel=True,
)
register_pipeline(
    "jl-uniform-qt",
    _single(
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension),
            UniformStage(coreset_size),
            QuantizeStage(DEFAULT_QT_BITS),
        ],
        "JL+Uniform+QT",
    ),
    description=f"JL, uniform sampling, and an explicit {DEFAULT_QT_BITS}-bit "
                "quantization stage",
    novel=True,
)
register_pipeline(
    "pca-ss",
    _single(
        lambda coreset_size, pca_rank, **_: [
            PCAStage(pca_rank), SensitivityStage(coreset_size),
        ],
        "PCA+SS",
    ),
    description="FSS recomposed from primitive stages: in-place PCA, then "
                "sensitivity sampling",
    novel=True,
)
register_pipeline(
    "jl-ss",
    _single(
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension), SensitivityStage(coreset_size),
        ],
        "JL+SS",
    ),
    description="JL projection, then plain sensitivity sampling (Algorithm 1 "
                "without the intrinsic-dimension PCA step)",
    novel=True,
)
register_pipeline(
    "jl-fss-qt",
    _single(
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension),
            FSSStage(size=coreset_size, pca_rank=pca_rank),
            QuantizeStage(DEFAULT_QT_BITS),
        ],
        "JL+FSS+QT",
    ),
    description=f"Algorithm 1 with an explicit {DEFAULT_QT_BITS}-bit "
                "quantization stage (Section 6.2, single source)",
    novel=True,
)


# --------------------------------------------------------------------------
# Streaming compositions: the same stage chains, executed online by the
# StreamingEngine (merge-and-reduce coreset trees over batched arrivals).
# --------------------------------------------------------------------------
def _streaming(stages_builder, default_name, default_window=None):
    """Wrap a stage-list builder into a streaming pipeline factory."""
    return _composition_factory(
        stages_builder, default_name,
        engine_cls=StreamingEngine, accepted=STREAMING_KWARGS,
        defaults={"window": default_window} if default_window is not None else None,
    )


register_pipeline(
    "stream-fss",
    _streaming(
        lambda coreset_size, pca_rank, **_: [
            FSSStage(size=coreset_size, pca_rank=pca_rank),
        ],
        "Stream FSS",
    ),
    streaming=True,
    description="streaming FSS: per-batch FSS coresets in a merge-and-reduce "
                "tree, incremental uplink, k-means queries mid-stream",
    novel=True,
)
register_pipeline(
    "stream-jl-fss",
    _streaming(
        lambda coreset_size, pca_rank, jl_dimension, **_: [
            JLStage(jl_dimension),
            FSSStage(size=coreset_size, pca_rank=pca_rank),
        ],
        "Stream JL+FSS",
    ),
    streaming=True,
    description="streaming Algorithm 1: pinned shared-seed JL projection, "
                "then per-batch FSS coresets",
    novel=True,
)
register_pipeline(
    "stream-jl-ss",
    _streaming(
        lambda coreset_size, jl_dimension, **_: [
            JLStage(jl_dimension),
            SensitivityStage(coreset_size),
        ],
        "Stream JL+SS",
    ),
    streaming=True,
    description="streaming JL projection + sensitivity sampling",
    novel=True,
)
register_pipeline(
    "stream-uniform-qt",
    _streaming(
        lambda coreset_size, **_: [
            UniformStage(coreset_size),
            QuantizeStage(DEFAULT_QT_BITS),
        ],
        "Stream Uniform+QT",
    ),
    streaming=True,
    description=f"streaming uniform-sampling baseline with {DEFAULT_QT_BITS}-bit "
                "quantize-on-send",
    novel=True,
)
register_pipeline(
    "stream-fss-window",
    _streaming(
        lambda coreset_size, pca_rank, **_: [
            FSSStage(size=coreset_size, pca_rank=pca_rank),
        ],
        "Stream FSS (window)",
        default_window=8,
    ),
    streaming=True,
    description="sliding-window streaming FSS: expired batches leave the "
                "trees, the query cost, and the communication totals "
                "(default window: 8 batches)",
    novel=True,
)


def network_preset_names() -> List[str]:
    """Sorted names of the registered network-condition presets."""
    return sorted(NETWORK_PRESETS)


def network_preset(name: str) -> NetworkCondition:
    """Build a fresh :class:`NetworkCondition` from a registered preset."""
    return resolve_condition(name)


__all__ = [
    "PipelineSpec",
    "register_pipeline",
    "get_spec",
    "create_pipeline",
    "accepted_kwargs",
    "factory_kind",
    "registered_names",
    "registered_specs",
    "is_multi_source",
    "is_streaming",
    "network_preset_names",
    "network_preset",
    "NETWORK_PRESETS",
    "NetworkCondition",
    "FaultPlan",
    "SINGLE_SOURCE_KWARGS",
    "MULTI_SOURCE_KWARGS",
    "STREAMING_KWARGS",
    "NETWORK_KWARGS",
    "DEFAULT_QT_BITS",
]
