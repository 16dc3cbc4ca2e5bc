"""Sensitivity sampling for k-means coresets.

The Langberg–Schulman / Feldman–Langberg framework (paper references [23],
[24]): upper-bound each point's *sensitivity* — the maximum fraction of the
total cost it can be responsible for under any candidate center set — using a
bicriteria solution, then sample points with probability proportional to the
sensitivity bound and weight each sample by the inverse of its expected
selection count.

Following footnote 8 of the paper (and reference [4]), weights are assigned
so that the total coreset weight equals the cardinality of the input
(deterministically), which the quantization-error analysis of Theorem 6.1
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cr.coreset import Coreset
from repro.kmeans.bicriteria import BicriteriaResult, bicriteria_approximation
from repro.utils.random import SeedLike, as_generator, stacked_weighted_indices
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_positive_int,
    check_weights,
)


def sensitivity_sample_size(
    k: int,
    epsilon: float,
    delta: float = 0.1,
    constant: float = 10.0,
) -> int:
    """Theoretical ε-coreset size ``O(k³ log²k · log(1/δ) / ε⁴)`` (Thm 3.2).

    The constant is configurable because the paper's literal constant
    (Section 6.3 quotes ``C1 ≈ 54912·…/225``) produces coresets far larger
    than the dataset at laptop scale; experiments in Section 7 tune sizes so
    algorithms reach comparable empirical error, which we mirror by exposing
    the knob.
    """
    k = check_positive_int(k, "k")
    epsilon = check_fraction(epsilon, "epsilon")
    delta = check_fraction(delta, "delta")
    log_k = math.log(max(k, 2))
    size = constant * (k**3) * (log_k**2) * math.log(1.0 / delta) / (epsilon**4)
    return max(k + 1, int(math.ceil(size)))


@dataclass
class SensitivityScores:
    """Per-point sensitivity upper bounds and the bicriteria solution used."""

    scores: np.ndarray
    total: float
    bicriteria: BicriteriaResult


class SensitivitySampler:
    """Coreset construction by sensitivity (importance) sampling.

    Parameters
    ----------
    k:
        Number of clusters the coreset must support.
    size:
        Number of samples to draw (coreset cardinality).  Callers typically
        derive it from :func:`sensitivity_sample_size` or tune it as in the
        paper's experiments.
    seed:
        RNG seed or generator.
    deterministic_weights:
        If True (default), rescale weights so the total coreset weight equals
        the total input weight exactly (footnote 8 / reference [4]); if
        False, use the classical unbiased ``1/(size * prob)`` weights.
    """

    def __init__(
        self,
        k: int,
        size: int,
        seed: SeedLike = None,
        deterministic_weights: bool = True,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.size = check_positive_int(size, "size")
        self.deterministic_weights = bool(deterministic_weights)
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------ API
    def compute_sensitivities(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> SensitivityScores:
        """Upper-bound the sensitivity of every point.

        Uses the standard bound ``s(p) ≲ cost(p, B)/cost(P, B) + 1/|P_b|``
        where ``B`` is a bicriteria solution and ``P_b`` is the cluster of
        ``p`` under ``B``.
        """
        points = check_matrix(points, "points")
        weights = check_weights(weights, points.shape[0])
        scores, totals, bicriteria = _stacked_sensitivities(
            points[None], weights[None], self.k, [self._rng]
        )
        return SensitivityScores(
            scores=scores[0], total=float(totals[0]), bicriteria=bicriteria[0]
        )

    def build(
        self,
        points: np.ndarray,
        weights: Optional[np.ndarray] = None,
        shift: float = 0.0,
    ) -> Coreset:
        """Draw the coreset.

        Parameters
        ----------
        points, weights:
            Input (possibly already weighted) dataset.
        shift:
            A Δ value to carry into the resulting coreset (FSS passes the
            discarded PCA tail energy here).
        """
        points = check_matrix(points, "points")
        weights = check_weights(weights, points.shape[0])
        sampled, sample_weights = stacked_sensitivity_sample(
            points[None], weights[None], [self._rng], self.k, self.size,
            self.deterministic_weights,
        )
        return Coreset(sampled[0], sample_weights[0], shift=shift)


def stacked_sensitivity_sample(
    points: np.ndarray,
    weights: np.ndarray,
    rngs,
    k: int,
    size: int,
    deterministic_weights: bool = True,
):
    """Sensitivity-sample ``m`` stacked sources at once.

    ``points`` is ``(m, n, d)`` and ``weights`` ``(m, n)``; source ``i``
    draws from ``rngs[i]`` exactly what ``SensitivitySampler(k, size,
    rngs[i]).build(points[i], weights[i])`` draws.  Returns the sampled
    points ``(m, s, d)`` and their weights ``(m, s)``, bit-identical to the
    coresets those builds produce: :meth:`SensitivitySampler.build` is the
    ``m = 1`` case.  Inputs are trusted (the kernel-to-kernel call of FSS
    and the CR stages).
    """
    m, n = weights.shape
    size = min(size, n)
    scores, totals, _ = _stacked_sensitivities(points, weights, k, rngs)
    probabilities = scores / totals[:, None]
    indices = stacked_weighted_indices(rngs, probabilities, size)

    sample_weights = np.take_along_axis(weights, indices, axis=1) / (
        size * np.take_along_axis(probabilities, indices, axis=1)
    )
    if deterministic_weights:
        total_input_weight = weights.sum(axis=1)
        current = sample_weights.sum(axis=1)
        scale = current > 0
        sample_weights[scale] = sample_weights[scale] * (
            total_input_weight[scale] / current[scale]
        )[:, None]
    return points[np.arange(m)[:, None], indices], sample_weights


def _stacked_sensitivities(points, weights, k: int, rngs):
    """Sensitivity upper bounds of ``m`` stacked sources: returns
    ``(scores (m, n), totals (m,), bicriteria results)``."""
    m, n = weights.shape
    bicriteria = bicriteria_approximation(points, k, weights=weights, seed=rngs)
    labels = np.stack([b.labels for b in bicriteria])
    weighted_d2 = weights * np.stack([b.squared_distances for b in bicriteria])
    total_cost = weighted_d2.sum(axis=1)

    # Offsetting each source's labels into its own bin range keeps every
    # bin's summation order that of the one-source bincount.
    width = max(b.size for b in bicriteria)
    offsets = (np.arange(m) * width)[:, None]
    cluster_weight = np.bincount(
        (labels + offsets).ravel(), weights=weights.ravel(), minlength=m * width
    )
    cluster_weight_per_point = cluster_weight[labels + offsets]
    # Guard against empty / zero-weight clusters.
    cluster_weight_per_point[cluster_weight_per_point <= 0] = 1.0

    # Degenerate source (total cost 0): every point sits on a bicriteria
    # center, so only the cluster-mass term matters.
    scores = weights / cluster_weight_per_point
    spread = total_cost > 0
    scores[spread] = (
        weighted_d2[spread] / total_cost[spread, None] + scores[spread]
    )
    scores = np.maximum(scores, 1e-18)
    return scores, scores.sum(axis=1), bicriteria
