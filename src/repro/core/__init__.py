"""Core: the stage engine and the pipeline registry.

The execution skeleton shared by every algorithm lives in
:mod:`repro.core.engine` (:class:`StagePipeline` /
:class:`DistributedStagePipeline`): timing, network metering, server-side
weighted k-means, and center lift-back through the recorded DR inverses.
Algorithms are declarative compositions of the stages in
:mod:`repro.stages`, registered by name in :mod:`repro.core.registry`.

The paper's eight algorithms are registry entries built with
:func:`create_pipeline`:

* single source (Section 4): ``"nr"`` (raw data), ``"fss"`` (Theorem 4.1),
  ``"jl-fss"`` (Algorithm 1, DR + CR), ``"fss-jl"`` (Algorithm 2, CR + DR)
  and ``"jl-fss-jl"`` (Algorithm 3, DR + CR + DR);
* multi source (Section 5), over an
  :class:`~repro.distributed.cluster.EdgeCluster`: ``"nr-distributed"``
  (raw shards), ``"bklw"`` (Theorem 5.3) and ``"jl-bklw"`` (Algorithm 4).

Every pipeline accepts an optional rounding quantizer, giving the +QT
variants of Section 6, and returns a :class:`PipelineReport` with the
centers (in the original space) plus the communication and computation
accounting.

:mod:`repro.core.configuration` implements the quantizer-configuration
optimizer of Section 6.3 and :mod:`repro.core.theory` the closed-form
communication/complexity scalings of Table 2.
"""

from repro.core.report import PipelineReport
from repro.core.engine import (
    StagePipeline,
    DistributedStagePipeline,
    WireSummary,
    encode_for_wire,
)
from repro.core.streaming import (
    StreamingEngine,
    StreamingReport,
    QuerySnapshot,
)
from repro.core.registry import (
    PipelineSpec,
    register_pipeline,
    create_pipeline,
    registered_names,
    registered_specs,
    get_spec,
    is_multi_source,
    is_streaming,
)
from repro.core.configuration import (
    QuantizerConfiguration,
    configure_joint_reduction,
    approximation_error_bound,
    communication_cost_model,
)
from repro.core.theory import TheoreticalCosts, theoretical_costs, THEORY_TABLE_ROWS

__all__ = [
    "PipelineReport",
    "StagePipeline",
    "DistributedStagePipeline",
    "StreamingEngine",
    "StreamingReport",
    "QuerySnapshot",
    "WireSummary",
    "encode_for_wire",
    "PipelineSpec",
    "register_pipeline",
    "create_pipeline",
    "registered_names",
    "registered_specs",
    "get_spec",
    "is_multi_source",
    "is_streaming",
    "QuantizerConfiguration",
    "configure_joint_reduction",
    "approximation_error_bound",
    "communication_cost_model",
    "TheoreticalCosts",
    "theoretical_costs",
    "THEORY_TABLE_ROWS",
]
