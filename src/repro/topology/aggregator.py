"""The mid-tree aggregator: fold child summaries, ship one bucket upward.

An :class:`AggregatorNode` is both halves of the streaming protocol at
once.  Downward it is a server: it registers its children and folds their
:class:`~repro.streaming.source.SourceUpdate`\\ s under the same watermarked
at-least-once contract as :class:`~repro.streaming.server.StreamingServer`
(duplicates ack as no-ops, gaps are typed rejections).  Upward it is a
source: whenever its child view changed it merges every live child bucket
(exact, by coreset mergeability — the same merge the
:class:`~repro.streaming.tree.CoresetTree` performs), re-compresses the
merged summary with the composition's CR stage (timed as aggregator
compute), and ships *one* replacing bucket to its parent through the
metered network with per-hop tags (``stream-points@h<level>`` ...), so
reports break communication down by hop.

Delivery failures are transactional per step: the upward update either
carries the complete replace (new bucket + retirement of the previous one)
or nothing — a failed hop leaves the parent on the aggregator's last good
summary (stale but valid) and retries on the next step.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cr.coreset import Coreset, merge_coresets
from repro.distributed.conditions import DeliveryError
from repro.distributed.network import SimulatedNetwork
from repro.stages.base import SourceState, Stage, StageContext
from repro.streaming.source import BucketUpdate, SourceUpdate
from repro.streaming.server import FoldResult, admit_update
from repro.utils.clock import perf_counter


class AggregatorNode:
    """One aggregation hop of a tree topology.

    Parameters
    ----------
    agg_id, parent_id, level:
        This node's identifier, its fold target (an aggregator id or the
        server), and its height above the sources (leaf aggregators are
        level 1) — the hop number stamped into its wire tags.
    reduce_stage, ctx:
        The composition's CR stage and this aggregator's own stage context
        (its private generator), used to re-compress merged child summaries.
    network:
        The metered network the upward hop transmits through.
    quantizer:
        Optional wire quantizer (the composition's QT stage), applied to
        the merged bucket's points on send exactly as sources do.
    """

    def __init__(
        self,
        agg_id: str,
        parent_id: str,
        level: int,
        reduce_stage: Stage,
        ctx: StageContext,
        network: SimulatedNetwork,
        quantizer=None,
    ) -> None:
        self.agg_id = str(agg_id)
        self.parent_id = str(parent_id)
        self.level = int(level)
        self.reduce_stage = reduce_stage
        self.ctx = ctx
        self.network = network
        self.quantizer = quantizer
        #: (child_id, bucket_id) -> the child bucket as it crossed the wire.
        self._buckets: Dict[Tuple[str, int], BucketUpdate] = {}
        self._watermarks: Dict[str, int] = {}
        self._dirty = False
        #: Bucket id the parent currently holds for this aggregator.
        self._current_id: Optional[int] = None
        self._next_bucket_id = 0
        self.compute_seconds = 0.0
        self.merges = 0
        self.updates_folded = 0
        self.delivery_failures = 0

    # ----------------------------------------------------------- server half
    def register(self, child_id: str) -> int:
        """Admit a child to this aggregator's fold (idempotent)."""
        return self._watermarks.setdefault(str(child_id), -1)

    def fold(self, update: SourceUpdate) -> FoldResult:
        """Fold one child update under the watermarked delivery contract
        (:func:`~repro.streaming.server.admit_update`)."""
        if not admit_update(self._watermarks, update):
            return FoldResult.DUPLICATE
        for bucket_id in update.retired_ids:
            if self._buckets.pop((update.source_id, bucket_id), None) is not None:
                self._dirty = True
        for bucket in update.added:
            self._buckets[(update.source_id, bucket.bucket_id)] = bucket
            self._dirty = True
        self._watermarks[update.source_id] = int(update.batch_index)
        self.updates_folded += 1
        return FoldResult.APPLIED

    @property
    def live_bucket_count(self) -> int:
        return len(self._buckets)

    # ----------------------------------------------------------- source half
    def emit(self, batch_index: int) -> SourceUpdate:
        """Produce this step's upward update (and transmit its payload).

        Always returns an update stamped ``batch_index`` — an empty one
        when the child view did not change (it advances the parent's
        watermark at zero wire cost, keeping the per-source contiguity the
        fold contract demands).  When dirty, merges the live child buckets,
        re-reduces, and ships the replacing bucket; on a delivery failure
        the update stays empty, the aggregator stays dirty, and the hop
        retries next step.
        """
        update = SourceUpdate(source_id=self.agg_id, batch_index=int(batch_index))
        if not self._dirty:
            return update

        start = perf_counter()
        reduced: Optional[Coreset] = None
        first_batch = last_batch = 0
        if self._buckets:
            children = [self._buckets[key] for key in sorted(self._buckets)]
            merged = merge_coresets(c.coreset for c in children)
            state = SourceState(
                points=merged.points, weights=merged.weights, shift=merged.shift
            )
            state = self.reduce_stage.apply_at_source(state, self.ctx).state
            reduced = Coreset(state.points, state.weights, state.shift)
            first_batch = min(c.first_batch for c in children)
            last_batch = max(c.last_batch for c in children)
            self.merges += 1
        self.compute_seconds += perf_counter() - start

        hop = f"@h{self.level}"
        bucket_id = self._next_bucket_id
        try:
            if reduced is not None:
                wire_coreset, bits = self._encode(reduced)
                header = [
                    float(bucket_id), float(self.level),
                    float(first_batch), float(last_batch),
                    float(wire_coreset.shift),
                ]
                self.network.send_many(
                    self.agg_id, self.parent_id,
                    [
                        ("stream-points" + hop, wire_coreset.points, bits),
                        ("stream-weights" + hop, wire_coreset.weights, None),
                        ("stream-header" + hop, header, None),
                    ],
                )
            if self._current_id is not None:
                self.network.send(
                    self.agg_id, self.parent_id, [self._current_id],
                    tag="stream-retire" + hop,
                )
        except DeliveryError:
            self.delivery_failures += 1
            return update

        if self._current_id is not None:
            update.retired_ids = [self._current_id]
            self._current_id = None
        if reduced is not None:
            update.added.append(
                BucketUpdate(
                    bucket_id=bucket_id,
                    coreset=wire_coreset,
                    first_batch=first_batch,
                    last_batch=last_batch,
                    level=self.level,
                )
            )
            self._current_id = bucket_id
            self._next_bucket_id = bucket_id + 1
        self._dirty = False
        return update

    def _encode(self, coreset: Coreset) -> Tuple[Coreset, Optional[int]]:
        """Quantize-on-send, matching the sources' wire format."""
        if self.quantizer is None:
            return coreset, None
        return (
            Coreset(
                self.quantizer.quantize(coreset.points),
                coreset.weights,
                coreset.shift,
            ),
            int(self.quantizer.significant_bits),
        )
