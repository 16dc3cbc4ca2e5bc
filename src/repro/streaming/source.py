"""The streaming data source: per-batch compression + incremental uplink.

A :class:`StreamingSource` turns the one-shot source protocol of
:class:`~repro.core.engine.StagePipeline` into an online one.  For every
timestamped batch it

1. runs the stage composition on the batch (timed, exactly like the one-shot
   engine's source section) to obtain a leaf coreset in the reduced space —
   DR stages use the seeds agreed at the stream-wide handshake, so every
   batch of every source lands in the *same* reduced space and summaries
   stay mergeable;
2. inserts the leaf into its bounded-memory
   :class:`~repro.streaming.tree.CoresetTree` (merges run locally, inside
   the timed section — they are source work);
3. transmits the *delta* between the buckets the server already holds and
   the buckets now alive, through the metered
   :class:`~repro.distributed.network.SimulatedNetwork`: new buckets travel
   as quantized points + full-precision weights + a 5-scalar header, retired
   bucket ids as one scalar each.  Re-transmitting a merged bucket replaces
   the buckets it subsumes, so the server's view stays consistent while the
   per-batch uplink stays amortized ``O(coreset_size)``.

Stacked step: the streaming engine does not compress one source at a time.
:func:`compress_stacked` takes every same-shaped batch of a step as one
``(m, b, d)`` array, runs each stage once over the stack
(:meth:`~repro.stages.base.Stage.apply_stacked`), and cascades all the
sources' trees level by level together, re-reducing each level's merges in
one stacked call (:func:`~repro.streaming.tree.insert_stacked`).

* **m = 1 rule.**  :meth:`StreamingSource.compress` — what ``ingest`` and the
  ``repro serve`` client run — is ``compress_stacked`` with one source.
* **Parity contract.**  Each source draws only from its own generator, in
  the order a lone ``compress`` would, and every stacked kernel equals its
  per-slice calls bit for bit, so a source's tree, and every bucket it
  ships, is identical whichever sources it was stacked with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cr.coreset import Coreset
from repro.distributed.conditions import DeliveryError
from repro.distributed.network import SimulatedNetwork
from repro.stages.base import CenterLift, SourceState, Stage, StageContext
from repro.streaming.tree import Bucket, CoresetTree, insert_stacked
from repro.utils.clock import perf_counter


@dataclass
class BucketUpdate:
    """One bucket as it crossed the wire (points possibly quantized)."""

    bucket_id: int
    coreset: Coreset
    first_batch: int
    last_batch: int
    level: int


@dataclass
class SourceUpdate:
    """Incremental summary of one ingest step, for the server to fold."""

    source_id: str
    batch_index: int
    added: List[BucketUpdate] = field(default_factory=list)
    retired_ids: List[int] = field(default_factory=list)


class StreamingSource:
    """One data source of a streaming deployment.

    Parameters
    ----------
    source_id:
        Network identifier (``"source-<i>"``).
    stages:
        The (already handshaken) stage composition applied to every batch.
    reduce_stage:
        The composition's CR stage, re-applied to merged tree buckets.
    ctx:
        The stream-wide stage context (shared master generator).
    network:
        The metered network all transmissions go through.
    window:
        Optional sliding window in batches, forwarded to the tree.
    receiver:
        Fold target this source transmits to: its topology parent, the
        server (default) or a mid-tree aggregator id.
    """

    def __init__(
        self,
        source_id: str,
        stages: Sequence[Stage],
        reduce_stage: Stage,
        ctx: StageContext,
        network: SimulatedNetwork,
        window: Optional[int] = None,
        receiver: str = "server",
    ) -> None:
        self.source_id = str(source_id)
        self.receiver = str(receiver)
        self.stages = list(stages)
        self.reduce_stage = reduce_stage
        self.ctx = ctx
        self.network = network
        self.tree = CoresetTree(reduce=self._reduce, window=window)
        self.compute_seconds = 0.0
        self.batches_ingested = 0
        self.lifts: Optional[List[CenterLift]] = None
        self.quantizer_bits: Optional[int] = None
        #: Ingest steps whose bucket delta could not be fully delivered
        #: (the pending part ships on the next successful flush).
        self.delivery_failures = 0
        self._shipped: set = set()
        self._pending_quantizer = None

    # ------------------------------------------------------------------ API
    def ingest(self, batch: np.ndarray, batch_index: int) -> SourceUpdate:
        """Compress one batch, update the tree, and uplink the delta."""
        self.compress(batch, batch_index)
        return self.flush(batch_index)

    def compress(self, batch: np.ndarray, batch_index: int) -> None:
        """The compute half of :meth:`ingest`: run the stage composition on
        the batch and update the local tree — no network activity.

        Touches only source-local state (the tree, the timing counter, and
        this source's stage context / generator), so the engine may run the
        ``compress`` steps of all sources in parallel; the network delta is
        shipped afterwards by :meth:`flush`, serially, in source order.
        The ``m = 1`` case of :func:`compress_stacked`.
        """
        compress_stacked([self], np.asarray(batch, dtype=float)[None], batch_index)

    def flush(self, batch_index: int) -> SourceUpdate:
        """The transmit half of :meth:`ingest`: uplink the bucket delta."""
        return self._transmit_delta(batch_index, self._pending_quantizer)

    def advance(self, batch_index: int) -> SourceUpdate:
        """Advance stream time without new data: expire and retire only.

        Sliding-window streams call this for sources whose stream already
        ended while others keep ingesting — their out-of-window buckets must
        leave the tree and the server view exactly as if they were still
        producing batches.
        """
        self.tree.expire(batch_index)
        return self._transmit_delta(batch_index, None)

    # ------------------------------------------------------- snapshotting
    def snapshot(self) -> dict:
        """JSON-able snapshot of the source's mutable stream state.

        Covers the coreset tree, the wire bookkeeping (which buckets the
        server already holds), and the counters.  The stage composition,
        context, and network are configuration — re-supplied by the
        constructor on restore.  The center-lift chain is *not* serialized
        (lifts are closures): it is deterministic given the handshaken
        stage seeds and rebuilds on the first batch compressed after a
        restore, exactly as it was built on the stream's first batch.
        """
        return {
            "source_id": self.source_id,
            "tree": self.tree.snapshot(),
            "compute_seconds": self.compute_seconds,
            "batches_ingested": self.batches_ingested,
            "quantizer_bits": self.quantizer_bits,
            "delivery_failures": self.delivery_failures,
            "shipped": sorted(self._shipped),
        }

    def restore(self, snapshot: dict) -> "StreamingSource":
        """Replace this source's stream state with a :meth:`snapshot`'s
        (the source must be constructed with the same configuration);
        returns ``self`` for chaining."""
        if snapshot.get("source_id") != self.source_id:
            raise ValueError(
                f"snapshot belongs to source {snapshot.get('source_id')!r}, "
                f"this is {self.source_id!r}"
            )
        self.tree.restore(snapshot["tree"])
        self.compute_seconds = float(snapshot.get("compute_seconds", 0.0))
        self.batches_ingested = int(snapshot.get("batches_ingested", 0))
        bits = snapshot.get("quantizer_bits")
        self.quantizer_bits = None if bits is None else int(bits)
        self.delivery_failures = int(snapshot.get("delivery_failures", 0))
        self._shipped = {int(b) for b in snapshot.get("shipped", ())}
        self.lifts = None
        self._pending_quantizer = None
        return self

    # ------------------------------------------------------------ internals
    def _reduce(self, coreset: Coreset) -> Coreset:
        """Re-compress a merged bucket with the composition's CR stage."""
        return _reduce_stacked(self.reduce_stage, [self.ctx], [coreset])[0]

    def _transmit_delta(self, batch_index: int, quantizer) -> SourceUpdate:
        """Ship exactly the difference between server view and live buckets.

        Delivery failures are tolerated per bucket: a bucket joins the
        server update (and :attr:`_shipped`) only when all three of its
        messages arrive; anything undelivered stays pending and retries on
        the next flush, so a flaky link catches the server up once it
        recovers.  Every failed attempt is still metered by the network.
        """
        live = set(self.tree.live_bucket_ids)
        to_retire = sorted(self._shipped - live)
        to_add = [b for b in self.tree.live_buckets if b.bucket_id not in self._shipped]

        update = SourceUpdate(source_id=self.source_id, batch_index=batch_index)
        link_up = True
        for bucket in to_add:
            wire_coreset, bits = self._encode_bucket(bucket, quantizer)
            header = [
                float(bucket.bucket_id), float(bucket.level),
                float(bucket.first_batch), float(bucket.last_batch),
                float(wire_coreset.shift),
            ]
            try:
                # One batched call per bucket: the recorded messages (and
                # loss draws) are bit-identical to three sequential sends,
                # but the per-call link/fault-plan resolution is hoisted —
                # the difference between feasible and not at 10k sources.
                self.network.send_many(
                    self.source_id, self.receiver,
                    [
                        ("stream-points", wire_coreset.points, bits),
                        ("stream-weights", wire_coreset.weights, None),
                        ("stream-header", header, None),
                    ],
                )
            except DeliveryError:
                self.delivery_failures += 1
                link_up = False
                break
            self._shipped.add(bucket.bucket_id)
            update.added.append(
                BucketUpdate(
                    bucket_id=bucket.bucket_id,
                    coreset=wire_coreset,
                    first_batch=bucket.first_batch,
                    last_batch=bucket.last_batch,
                    level=bucket.level,
                )
            )
        if to_retire and link_up:
            try:
                self.network.send(
                    self.source_id, self.receiver, to_retire, tag="stream-retire"
                )
            except DeliveryError:
                self.delivery_failures += 1
            else:
                update.retired_ids = to_retire
                self._shipped -= set(to_retire)
        return update

    @staticmethod
    def _encode_bucket(bucket: Bucket, quantizer) -> Tuple[Coreset, Optional[int]]:
        """Quantize-on-send: points at reduced precision, weights and Δ at
        full precision (Section 6.2's coreset wire format)."""
        coreset = bucket.coreset
        if quantizer is None:
            return coreset, None
        return (
            Coreset(quantizer.quantize(coreset.points), coreset.weights, coreset.shift),
            int(quantizer.significant_bits),
        )


def compress_stacked(
    sources: Sequence[StreamingSource], batches: np.ndarray, batch_index: int
) -> None:
    """:meth:`StreamingSource.compress` for ``m`` sources at once.

    ``batches`` is the ``(m, b, d)`` stack of the step's same-shaped batches
    (``sources`` share one stage composition).  Every stage runs once over
    the stack (:meth:`~repro.stages.base.Stage.apply_stacked`), then the
    trees cascade level by level together, each pass re-reducing every
    tree's pending merge in one stacked call.  Each source still draws from
    its own generator in its own order, so every tree ends bit-identical to
    a one-source ``compress``, which is the ``m = 1`` case.  The step's wall
    time is shared evenly among the sources' ``compute_seconds``.
    """
    start = perf_counter()
    ctxs = [source.ctx for source in sources]
    states = [SourceState(points=batch) for batch in batches]
    lifts: List[CenterLift] = []
    for stage in sources[0].stages:
        effects = stage.apply_stacked(states, ctxs)
        states = [effect.state for effect in effects]
        if effects[0].lift is not None:
            lifts.append(effects[0].lift)
    if states[0].weights is None:
        raise RuntimeError(
            "streaming requires a CR stage in the composition: the batch "
            "state still has no coreset weights after all stages"
        )
    reduce_stage = sources[0].reduce_stage

    def reduce_many(indices: List[int], merged: List[Coreset]) -> List[Coreset]:
        return _reduce_stacked(reduce_stage, [ctxs[i] for i in indices], merged)

    insert_stacked(
        [source.tree for source in sources],
        [Coreset(state.points, state.weights, state.shift) for state in states],
        batch_index,
        reduce_many,
    )
    share = (perf_counter() - start) / len(sources)
    quantizer = states[0].wire_quantizer
    for source in sources:
        if source.lifts is None:
            # DR maps are fixed for the whole stream (shared handshake seeds,
            # pinned dimensions), so the lift chain of the first batch is the
            # lift chain of every batch.
            source.lifts = lifts
        source.tree.expire(batch_index)
        source.compute_seconds += share
        source.batches_ingested += 1
        source._pending_quantizer = quantizer
        if quantizer is not None:
            source.quantizer_bits = int(quantizer.significant_bits)


def _reduce_stacked(
    reduce_stage: Stage, ctxs: Sequence[StageContext], merged: Sequence[Coreset]
) -> List[Coreset]:
    """Re-compress merged buckets with the CR stage, one stacked call per
    distinct bucket shape (results in input order)."""
    reduced: List[Optional[Coreset]] = [None] * len(merged)
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for i, coreset in enumerate(merged):
        shapes.setdefault(coreset.points.shape, []).append(i)
    for members in shapes.values():
        states = [
            SourceState(
                points=merged[i].points, weights=merged[i].weights, shift=merged[i].shift
            )
            for i in members
        ]
        effects = reduce_stage.apply_stacked(states, [ctxs[i] for i in members])
        for i, effect in zip(members, effects):
            state = effect.state
            reduced[i] = Coreset(state.points, state.weights, state.shift)
    return reduced
