"""The stage protocol: one composable step of a summary-building pipeline.

The paper frames every algorithm as a *composition* of dimensionality
reduction (DR), cardinality reduction (CR), and quantization (QT): NR is the
empty composition, FSS is ``PCA ∘ SS``, Algorithm 1 is ``JL ∘ FSS``,
Algorithm 3 is ``JL ∘ FSS ∘ JL``, and the +QT variants append a quantizer.
The seed implementations hard-coded each composition; this module defines the
:class:`Stage` protocol that lets the engine in :mod:`repro.core.engine`
execute *any* composition declaratively.

A stage transforms the data source's working state (:class:`SourceState`) and
returns a :class:`StageEffect` describing

* the new state (points / weights / shift / wire representation),
* an optional *lift* — the server-side inverse that pulls computed centers
  back up through this stage (the Moore–Penrose lift of a DR map; CR and QT
  stages need no lift), and
* free-form detail entries merged into the final report.

Stages whose randomness must be known to **both** end points (data-oblivious
DR maps such as JL, whose matrix the server re-derives from a seed) declare
``requires_shared_seed = True``; the engine then performs a *seed handshake*
— deriving one seed per such stage from the pipeline's master generator
before any source computation — mirroring the paper's assumption that the
projection seed is pre-shared and therefore costs zero communication.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.random import derive_seed


@dataclass
class StageContext:
    """Per-run execution context handed to every stage.

    Carries the clustering problem parameters and the pipeline's master
    random generator, from which stages derive their private seeds.
    """

    k: int
    epsilon: float
    delta: float
    rng: np.random.Generator

    def derive_seed(self) -> int:
        """Draw a fresh private seed from the pipeline's master generator."""
        return derive_seed(self.rng)


@dataclass
class SourceState:
    """The data source's working summary as it flows through the stages.

    Attributes
    ----------
    points:
        Current point set — the raw shard initially, a coreset after a CR
        stage, always in the ambient coordinates of the *current* space
        (which DR stages shrink).
    weights:
        Per-point weights once a CR stage ran; ``None`` while the state is
        still the raw dataset (the NR wire format).
    shift:
        Accumulated additive constant Δ of the generalized coreset
        (Definition 3.2); PCA-style stages add their discarded tail energy.
    subspace:
        When set (a fitted PCA-like map with ``basis``/``effective_rank``),
        the points lie in its principal subspace, so the wire format sends
        each point's subspace *coordinates* plus the basis — the FSS wire
        format of Theorem 4.1.  Any subsequent transform that moves the
        points out of the subspace must clear it.
    wire_quantizer:
        Quantizer to apply to the main payload at transmission time
        (quantize-on-send, Section 6); set by a QT stage or by the
        pipeline-level ``quantizer`` argument.
    """

    points: np.ndarray
    weights: Optional[np.ndarray] = None
    shift: float = 0.0
    subspace: Optional[object] = None
    wire_quantizer: Optional[object] = None

    # ------------------------------------------------------------ properties
    @property
    def is_raw(self) -> bool:
        """True while no CR stage has run (the state is the full dataset)."""
        return self.weights is None

    @property
    def cardinality(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def evolve(self, **changes) -> "SourceState":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def stack_points(states: Sequence[SourceState]) -> np.ndarray:
    """The ``(m, n, d)`` point array of same-shaped states (a view, not a
    copy, for a single state: a one-source pipeline never copies its data)."""
    if len(states) == 1:
        return states[0].points[None]
    return np.stack([state.points for state in states])


def stack_weights(states: Sequence[SourceState]) -> np.ndarray:
    """The ``(m, n)`` weights of same-shaped states (unit weights while a
    state is still raw)."""
    return np.stack([
        np.ones(state.cardinality) if state.weights is None else state.weights
        for state in states
    ])


#: Server-side inverse of a stage: maps centers from the stage's output space
#: back to its input space.
CenterLift = Callable[[np.ndarray], np.ndarray]


@dataclass
class StageEffect:
    """Everything one stage application produces."""

    state: SourceState
    lift: Optional[CenterLift] = None
    details: Dict[str, float] = field(default_factory=dict)


class Stage(abc.ABC):
    """One composable DR / CR / QT step executed at the data source.

    Concrete stages are *configuration* objects: constructing one performs no
    computation, and all data-dependent resolution (default sizes, dimension
    caps) happens inside :meth:`apply_at_source` against the state actually
    flowing through the pipeline.  A stage instance may therefore be applied
    to many datasets and reused across Monte-Carlo runs.
    """

    #: Human-readable stage name used in composed pipeline names.
    name: str = "stage"

    #: True when the stage's randomness must be pre-shared with the server
    #: (data-oblivious DR).  The engine then calls :meth:`handshake` before
    #: any source computation, in declaration order — reproducing the
    #: pre-shared-seed protocol of the paper.
    requires_shared_seed: bool = False

    #: True for CR stages (they replace the point set by a weighted coreset).
    #: The streaming engine re-applies the composition's CR stage to merged
    #: buckets of its coreset tree (merge-and-reduce), so it must be able to
    #: identify that stage declaratively.
    reduces_cardinality: bool = False

    #: True when the engine may memoize this stage's output through a
    #: content-addressed :class:`~repro.core.cache.StageCache`.  Requires
    #: that (a) the output is fully described by a
    #: :class:`~repro.core.cache.pack_effect` payload — points, weights,
    #: shift, subspace basis, details — and (b) any lift the stage produces
    #: is reconstructable from its configuration plus the pre-shared seed
    #: (:meth:`rebuild_lift`).  Stages that arm non-serializable state
    #: (e.g. the wire quantizer) stay ``False``; they still contribute
    #: their :meth:`fingerprint` to the cache key chain.
    cacheable: bool = False

    def handshake(self, ctx: StageContext) -> None:
        """Negotiate pre-shared randomness with the server (if any)."""
        if self.requires_shared_seed:
            self._shared_seed = ctx.derive_seed()

    @abc.abstractmethod
    def apply_at_source(self, state: SourceState, ctx: StageContext) -> StageEffect:
        """Transform the source's working state; runs inside the timed
        source-computation section.  Concrete stages implement it as the
        ``m = 1`` case of :meth:`apply_stacked`."""

    @abc.abstractmethod
    def apply_stacked(
        self, states: Sequence[SourceState], ctxs: Sequence[StageContext]
    ) -> List[StageEffect]:
        """Apply the stage to ``m`` same-shaped source states at once.

        ``ctxs[i]`` is source ``i``'s context: each source derives its seeds
        from its own generator, in the order a lone application would, so
        effect ``i`` is bit-identical to ``apply_at_source(states[i],
        ctxs[i])``.  The streaming engine stacks every same-shaped batch of
        a step through this call.
        """

    # ------------------------------------------------------------- caching
    def fingerprint(self) -> Tuple:
        """Hashable identity of this stage's *configuration*.

        Two stage instances with equal fingerprints must compute identical
        outputs from identical inputs and seed streams — the fingerprint is
        one link of the content-addressed cache key chain
        (:meth:`~repro.core.cache.StageCache.chain_key`), so any
        constructor argument that changes the output must appear here.
        The default covers configuration-free stages only; configurable
        stages override it.
        """
        return (type(self).__name__,)

    def rebuild_lift(
        self, input_dimension: int, output_dimension: int
    ) -> Optional[CenterLift]:
        """Reconstruct the server-side lift for a cached application of this
        stage, given the dimensions it mapped between, or ``None`` when the
        lift cannot be rebuilt from configuration + pre-shared seed alone
        (the cache then recomputes the stage instead of honouring the hit).
        Only lift-producing cacheable stages override this.
        """
        return None

    # --------------------------------------------------------------- helpers
    @property
    def shared_seed(self) -> int:
        seed = getattr(self, "_shared_seed", None)
        if seed is None:
            raise RuntimeError(
                f"{type(self).__name__} requires a seed handshake before use; "
                "run it through a StagePipeline"
            )
        return seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
