"""The quantization stage (Section 6): quantize-on-send.

Quantization is special among the stages: what must be quantized is the
payload that actually crosses the wire — for FSS-format summaries that is
the subspace *coordinates*, not the ambient points, and weights / basis /
shift always travel at full precision (Section 6.2).  ``QuantizeStage``
therefore does not transform the points eagerly; it arms the state with a
wire quantizer that the engine applies to the main payload at transmission
time, inside the timed source section.  The pipeline-level ``quantizer=``
argument is sugar for appending this stage.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.quantization.rounding import RoundingQuantizer
from repro.stages.base import Stage, StageContext, StageEffect, SourceState


class QuantizeStage(Stage):
    """Arm the pipeline's quantize-on-send step with a rounding quantizer.

    Parameters
    ----------
    quantizer:
        A :class:`~repro.quantization.rounding.RoundingQuantizer`, or an
        ``int`` number of significant bits to build one from.
    """

    name = "QT"

    def __init__(self, quantizer: Union[RoundingQuantizer, int]) -> None:
        if isinstance(quantizer, int):
            quantizer = RoundingQuantizer(quantizer)
        self.quantizer = quantizer

    # Not cacheable (it arms a non-serializable wire quantizer, and caching
    # a no-compute stage would buy nothing), but its bits still key the
    # chain so downstream entries never alias across quantization settings.
    def fingerprint(self):
        return ("QT", self.quantizer.significant_bits)

    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        return self.apply_stacked([state], [ctx])[0]

    def apply_stacked(
        self, states: Sequence[SourceState], ctxs: Sequence[StageContext]
    ) -> List[StageEffect]:
        bits = float(self.quantizer.significant_bits)
        return [
            StageEffect(
                state=state.evolve(wire_quantizer=self.quantizer),
                details={"quantizer_bits": bits},
            )
            for state in states
        ]
