"""Bicriteria approximation for k-means via adaptive sampling.

Implements the Aggarwal–Deshpande–Kannan adaptive-sampling scheme (paper
references [36]/[42]): repeatedly draw batches of ``O(k)`` points with
D²-sampling.  The selected set ``B`` has more than ``k`` points but its cost
is within a constant factor of the optimal k-means cost with constant
probability; repeating ``log(1/δ)`` times and keeping the best run boosts the
confidence.

Two consumers in this library:

* sensitivity sampling (:mod:`repro.cr.sensitivity`) uses the bicriteria set
  to upper-bound point sensitivities;
* the quantizer configuration of Section 6.3 uses ``cost(P, B)/20`` as the
  lower bound ``E`` on the optimal k-means cost.

Performance: each adaptive round maintains the per-point min-distance vector
*incrementally* — only distances to the centers added in that round are
computed, then folded into the running minimum, so each (point, center)
distance is computed exactly once across the whole run.  Nearest-center
labels and distances are computed once, for the winning repetition only, and
cached on the result for downstream reuse (the sensitivity sampler needs
exactly those quantities).

Stacked sources: ``points`` may carry a leading source axis, ``(m, n, d)``,
with ``(m, n)`` weights and one generator per source.  All repetitions of
all sources then run as one sweep: each round draws every live row with one
stacked :func:`~repro.kmeans.seeding.d2_sampling` call and updates the
distances with one stacked matmul per distinct fresh-center count.  The
result is a list with one :class:`BicriteriaResult` per source.

* **m = 1 rule.**  A 2-D call validates its inputs and runs as the stacked
  sweep with one source: there is one implementation, not a per-source
  fork.  The stacked form is the kernel-to-kernel call (the sensitivity
  sampler's) and trusts its inputs.
* **Parity contract.**  Source ``i`` of a stacked call returns exactly what
  ``bicriteria_approximation(points[i], ..., seed=seed[i])`` returns, bit
  for bit: each repetition draws from the generator its source's own
  ``spawn_generators`` call derives, in the same order, and every slice of
  every stacked BLAS call is the 2-D call the one-source sweep makes (grouping
  by fresh-center count keeps a one-center update a gemv, as it is alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.kmeans.cost import _BLOCK_ROWS
from repro.kmeans.seeding import d2_sampling
from repro.utils.linalg import squared_norms, stacked_squared_distances
from repro.utils.random import SeedLike, as_generator, spawn_generators
from repro.utils.validation import check_matrix, check_positive_int, check_weights


@dataclass
class BicriteriaResult:
    """A bicriteria solution: more than ``k`` centers, constant-factor cost.

    Attributes
    ----------
    centers:
        Selected points (shape ``(b, d)`` with ``b >= k`` typically).
    cost:
        Weighted k-means cost of the original data against ``centers``.
    labels:
        Nearest-center assignment of the input points.
    rounds:
        Number of adaptive-sampling rounds used by the winning repetition.
    squared_distances:
        Per-point squared distance to the nearest center (the ``D²`` vector
        matching ``labels``); cached so consumers such as the sensitivity
        sampler do not pay another full assignment pass.
    """

    centers: np.ndarray
    cost: float
    labels: np.ndarray
    rounds: int
    squared_distances: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return int(self.centers.shape[0])

    def optimal_cost_lower_bound(self, slack: float = 20.0) -> float:
        """Lower bound ``E = cost / slack`` on the optimal k-means cost.

        The adaptive-sampling guarantee states the bicriteria cost is at most
        a constant (the paper uses 20) times the optimum, hence dividing by
        that constant yields a valid lower bound with high probability.
        """
        return self.cost / float(slack)


def bicriteria_approximation(
    points: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
    rounds: Optional[int] = None,
    batch_factor: int = 3,
    repetitions: int = 3,
    seed: SeedLike = None,
):
    """Adaptive-sampling bicriteria approximation for weighted k-means.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix, or ``(m, n, d)`` for ``m`` stacked sources
        (see the module docstring).
    k:
        Target number of clusters.
    weights:
        Optional non-negative point weights (``(m, n)`` when stacked).
    rounds:
        Number of adaptive sampling rounds; defaults to
        ``ceil(log2(n)) + 1`` capped to keep the selected set small.
    batch_factor:
        Points drawn per round = ``batch_factor * k``.
    repetitions:
        Independent repetitions; the lowest-cost selection wins (this is the
        ``log(1/δ)`` boosting described in Section 6.3).
    seed:
        RNG seed or generator; a sequence of ``m`` generators when stacked.

    Returns
    -------
    A :class:`BicriteriaResult`, or a list of ``m`` of them when stacked.
    """
    if np.ndim(points) == 3:
        m, n = points.shape[:2]
        if weights is None:
            weights = np.ones((m, n))
        return _stacked_bicriteria(
            points, k, weights, rounds, batch_factor, repetitions, seed
        )
    points = check_matrix(points, "points")
    k = check_positive_int(k, "k")
    n = points.shape[0]
    weights = check_weights(weights, n)
    check_positive_int(batch_factor, "batch_factor")
    check_positive_int(repetitions, "repetitions")
    if rounds is not None:
        check_positive_int(rounds, "rounds")
    rng = as_generator(seed)
    return _stacked_bicriteria(
        points[None], k, weights[None], rounds, batch_factor, repetitions, [rng]
    )[0]


def _stacked_bicriteria(
    points: np.ndarray,
    k: int,
    weights: np.ndarray,
    rounds: Optional[int],
    batch_factor: int,
    repetitions: int,
    rngs: Sequence[np.random.Generator],
) -> List[BicriteriaResult]:
    """The bicriteria approximation of ``m`` stacked sources.

    Repetition ``j`` of every source runs as one stacked sweep, source ``i``
    drawing from the ``j``-th generator its own ``spawn_generators`` call
    derives; the lowest-cost repetition of each source wins, the first on
    ties, exactly as in the one-source loop.
    """
    m, n, d = points.shape
    if rounds is None:
        rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    norms = squared_norms(points.reshape(m * n, d)).reshape(m, n)
    spawned = [spawn_generators(rng, repetitions) for rng in rngs]
    best_cost = np.full(m, np.inf)
    best_selected = np.zeros((m, n), dtype=bool)
    for repetition in range(repetitions):
        selected, cost = _adaptive_sweep(
            points, norms, k, weights, rounds, batch_factor,
            [generators[repetition] for generators in spawned],
        )
        better = cost < best_cost
        best_cost[better] = cost[better]
        best_selected[better] = selected[better]

    # rounds >= 1 and every draw returns >= 1 index, so every source
    # selected a center.  Labels (and the matching D² vector) are needed
    # only for the winners, so the losing repetitions never pay the
    # assignment pass.
    chosen = [np.flatnonzero(row) for row in best_selected]
    labels = np.empty((m, n), dtype=np.int64)
    d2 = np.empty((m, n))
    sizes = np.array([c.size for c in chosen])
    for size in np.unique(sizes):
        group = np.flatnonzero(sizes == size)
        centers = np.stack([chosen[i] for i in group])
        labels[group], d2[group] = _assign(
            _rows(points, group), _rows(norms, group), centers
        )
    return [
        BicriteriaResult(
            centers=points[i][chosen[i]],
            cost=float(best_cost[i]),
            labels=labels[i],
            rounds=rounds,
            squared_distances=d2[i],
        )
        for i in range(m)
    ]


def _adaptive_sweep(points, norms, k, weights, rounds, batch_factor, rngs):
    """One adaptive-sampling pass per source: iteratively add D²-sampled
    batches.  Returns ``(selected (m, n), residual cost (m,))``.

    The per-point min squared distance to the selected set is maintained
    incrementally: each round draws every live source with one stacked
    :func:`d2_sampling` call, then folds in the distances to that source's
    *fresh* centers only — one stacked matmul per distinct fresh-center
    count, so every slice is the exact 2-D BLAS call of a lone source.
    """
    m, n = weights.shape
    batch = min(batch_factor * k, n)
    selected = np.zeros((m, n), dtype=bool)
    closest = np.zeros((m, n))
    residual = np.full(m, np.inf)
    live = np.arange(m)
    for round_index in range(rounds):
        indices, _ = d2_sampling(
            _rows(points, live), None, batch, weights=_rows(weights, live),
            seed=[rngs[i] for i in live],
            min_squared_distances=None if round_index == 0 else _rows(closest, live),
        )
        drawn = np.zeros((live.size, n), dtype=bool)
        drawn[np.arange(live.size)[:, None], indices] = True
        fresh = drawn & ~selected[live]
        selected[live] |= fresh
        counts = fresh.sum(axis=1)
        for count in np.unique(counts[counts > 0]):
            group = np.flatnonzero(counts == count)
            members = live[group]
            centers = np.nonzero(fresh[group])[1].reshape(group.size, count)
            new_d2 = _distances_to(
                _rows(points, members), _rows(norms, members), centers
            ).min(axis=2)
            if round_index > 0:
                np.minimum(closest[members], new_d2, out=new_d2)
            closest[members] = new_d2
        residual[live] = np.matmul(
            _rows(weights, live)[:, None, :], _rows(closest, live)[:, :, None]
        )[:, 0, 0]
        # Early exit: once a source's residual cost is (numerically) zero
        # every point coincides with a selected center and further rounds
        # are moot.
        live = live[residual[live] > 0.0]
        if live.size == 0:
            break
    return selected, residual


def _rows(array: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``array[rows]``, without the copy when ``rows`` is every row (always
    so for one source: a one-source call never copies its points)."""
    return array if rows.size == array.shape[0] else array[rows]


def _distances_to(
    points: np.ndarray, norms: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """``(g, n, c)`` squared distances from each slice's points to its own
    points at the ``(g, c)`` indices ``centers``."""
    rows = np.arange(points.shape[0])[:, None]
    return stacked_squared_distances(
        points, points[rows, centers], norms, norms[rows, centers]
    )


def _assign(points: np.ndarray, norms: np.ndarray, centers: np.ndarray):
    """Nearest-center labels and distances of every slice, swept in the
    row blocks of :func:`~repro.kmeans.cost.assign_to_centers` so each block
    is the same BLAS call the 2-D assignment makes."""
    g, n = norms.shape
    labels = np.empty((g, n), dtype=np.int64)
    dists = np.empty((g, n))
    rows = np.arange(g)[:, None]
    block_centers = points[rows, centers]
    center_norms = norms[rows, centers]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = stacked_squared_distances(
            points[:, start:stop], block_centers, norms[:, start:stop], center_norms
        )
        block_labels = block.argmin(axis=2)
        labels[:, start:stop] = block_labels
        dists[:, start:stop] = np.take_along_axis(
            block, block_labels[:, :, None], axis=2
        )[:, :, 0]
    return labels, dists
