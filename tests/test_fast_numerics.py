"""Tests for the fast numerical core: fused kernels, fast samplers,
pruned/accelerated Lloyd, and dtype preservation.

Three contracts are pinned here:

1. **Parity** — the fused assignment/cost kernel, the searchsorted samplers,
   and the incremental bicriteria sweep must match their naive formulations
   bit for bit (the registry's golden communication values depend on the
   exact RNG draw sequence, so "equivalent" is not enough).
2. **Determinism** — seeded runs reproduce exactly, including through the
   greedy k-means++ variant and the float32 compute path.
3. **Equivalence** — the opt-in Hamerly-accelerated Lloyd reaches the same
   labels and cost as the plain loop on separated synthetic data.
"""

import re

import numpy as np
import pytest

from repro.datasets import make_gaussian_mixture
from repro.kmeans.bicriteria import bicriteria_approximation
from repro.kmeans.cost import (
    assign_and_cost,
    assign_to_centers,
    cluster_means,
    weighted_kmeans_cost,
)
from repro.kmeans.lloyd import WeightedKMeans
from repro.kmeans.seeding import d2_sampling, kmeans_plus_plus
from repro.utils.linalg import pairwise_squared_distances
from repro.utils.random import weighted_index_from_scores, weighted_indices


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((3000, 17)) * 2.0
    points[1000:2000] += 8.0
    points[2000:] -= 8.0
    weights = rng.random(3000) + 0.05
    return points, weights


class TestFusedAssignCost:
    """The fused kernel must match the naive two-pass computation bit for bit."""

    def test_matches_two_pass_bitwise(self, data):
        points, weights = data
        rng = np.random.default_rng(3)
        centers = points[rng.choice(points.shape[0], size=9, replace=False)]

        labels, d2, cost = assign_and_cost(points, centers, weights)
        naive_labels, naive_d2 = assign_to_centers(points, centers)
        naive_cost = weighted_kmeans_cost(points, centers, weights)

        np.testing.assert_array_equal(labels, naive_labels)
        np.testing.assert_array_equal(d2, naive_d2)
        assert cost == naive_cost  # bitwise, not approx

    def test_shift_carried(self, data):
        points, weights = data
        centers = points[:4]
        _, _, cost = assign_and_cost(points, centers, weights, shift=2.5)
        assert cost == weighted_kmeans_cost(points, centers, weights, shift=2.5)

    def test_unweighted_defaults_to_unit_weights(self, data):
        points, _ = data
        centers = points[:5]
        _, d2, cost = assign_and_cost(points, centers)
        assert cost == float(np.dot(np.ones(points.shape[0]), d2))

    def test_blockwise_matches_single_block(self, data):
        """Inputs larger than the block size produce the same answer."""
        from repro.kmeans import cost as cost_mod

        points, weights = data
        centers = points[:6]
        full = assign_and_cost(points, centers, weights)
        original = cost_mod._BLOCK_ROWS
        try:
            cost_mod._BLOCK_ROWS = 257  # force many ragged blocks
            blocked = assign_and_cost(points, centers, weights)
        finally:
            cost_mod._BLOCK_ROWS = original
        np.testing.assert_array_equal(full[0], blocked[0])
        np.testing.assert_array_equal(full[1], blocked[1])
        assert full[2] == blocked[2]


class TestClusterMeansSegmentSums:
    def test_matches_scatter_add_bitwise(self, data):
        points, weights = data
        labels = np.random.default_rng(5).integers(0, 12, size=points.shape[0])
        means = cluster_means(points, labels, 12, weights)
        reference = np.zeros((12, points.shape[1]))
        totals = np.zeros(12)
        np.add.at(totals, labels, weights)
        np.add.at(reference, labels, points * weights[:, None])
        nonempty = totals > 0
        reference[nonempty] /= totals[nonempty, None]
        np.testing.assert_array_equal(means, reference)

    def test_return_totals(self, data):
        points, weights = data
        labels = np.zeros(points.shape[0], dtype=np.int64)
        means, totals = cluster_means(points, labels, 3, weights, return_totals=True)
        assert totals[0] == pytest.approx(weights.sum())
        assert totals[1] == 0.0 and totals[2] == 0.0
        np.testing.assert_array_equal(means[1], 0.0)


class TestSearchsortedSamplers:
    """The cumsum+searchsorted samplers must be bit-compatible with
    ``Generator.choice`` and deterministic under a fixed seed."""

    def test_weighted_indices_matches_generator_choice(self):
        p = np.abs(np.random.default_rng(0).standard_normal(513))
        p /= p.sum()
        a = np.random.default_rng(42).choice(513, size=100, replace=True, p=p)
        b = weighted_indices(np.random.default_rng(42), p, size=100)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw_matches_generator_choice(self):
        p = np.random.default_rng(1).random(64)
        p /= p.sum()
        a = int(np.random.default_rng(9).choice(64, p=p))
        b = weighted_index_from_scores(np.random.default_rng(9), p * 13.0)
        assert a == b

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            weighted_indices(np.random.default_rng(0), np.zeros(8))

    def test_kmeans_plus_plus_deterministic(self, data):
        points, weights = data
        a = kmeans_plus_plus(points, 6, weights=weights, seed=11)
        b = kmeans_plus_plus(points, 6, weights=weights, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_d2_sampling_deterministic(self, data):
        points, weights = data
        centers = points[:3]
        ia, _ = d2_sampling(points, centers, 40, weights=weights, seed=13)
        ib, _ = d2_sampling(points, centers, 40, weights=weights, seed=13)
        np.testing.assert_array_equal(ia, ib)

    def test_d2_sampling_all_zero_weights_raise(self, data):
        points, _ = data
        with pytest.raises(ValueError):
            d2_sampling(points, points[:2], 10, weights=np.zeros(points.shape[0]), seed=0)

    def test_d2_sampling_precomputed_distances_match(self, data):
        points, weights = data
        centers = points[:5]
        closest = pairwise_squared_distances(points, centers).min(axis=1)
        ia, _ = d2_sampling(points, centers, 30, weights=weights, seed=3)
        ib, _ = d2_sampling(
            points, None, 30, weights=weights, seed=3, min_squared_distances=closest
        )
        np.testing.assert_array_equal(ia, ib)

    def test_greedy_local_trials_not_worse(self, data):
        """The greedy variant's seeding potential is no worse on average."""
        points, weights = data

        def potential(centers):
            return weighted_kmeans_cost(points, centers, weights)

        plain = np.mean([
            potential(kmeans_plus_plus(points, 8, weights=weights, seed=s))
            for s in range(5)
        ])
        greedy = np.mean([
            potential(kmeans_plus_plus(points, 8, weights=weights, seed=s, local_trials=4))
            for s in range(5)
        ])
        assert greedy <= plain * 1.05

    def test_greedy_local_trials_deterministic(self, data):
        points, weights = data
        a = kmeans_plus_plus(points, 5, weights=weights, seed=2, local_trials=3)
        b = kmeans_plus_plus(points, 5, weights=weights, seed=2, local_trials=3)
        np.testing.assert_array_equal(a, b)


class TestIncrementalBicriteria:
    def test_cost_matches_full_reassignment(self, data):
        points, weights = data
        result = bicriteria_approximation(points, 5, weights=weights, seed=19)
        recomputed = weighted_kmeans_cost(points, result.centers, weights)
        assert result.cost == recomputed  # incremental min == full-pass min

    def test_cached_assignment_matches(self, data):
        points, weights = data
        result = bicriteria_approximation(points, 5, weights=weights, seed=23)
        labels, d2 = assign_to_centers(points, result.centers)
        np.testing.assert_array_equal(result.labels, labels)
        np.testing.assert_array_equal(result.squared_distances, d2)


def stacked_sources(m=7, n=32, d=5, seed=0, duplicates=(), zero_weights=()):
    """``m`` sources of ``n`` points: source ``i`` in ``duplicates`` holds
    only two distinct points (its residual cost reaches zero), one in
    ``zero_weights`` has half its rows at weight zero."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((m, n, d)) * 3.0
    weights = rng.random((m, n)) + 0.1
    for i in duplicates:
        points[i] = points[i, rng.integers(0, 2, size=n)]
    for i in zero_weights:
        weights[i, ::2] = 0.0
    return points, weights


def generators(seed, m):
    return [np.random.default_rng([seed, i]) for i in range(m)]


def assert_bicriteria_equal(a, b):
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.cost == b.cost
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.squared_distances, b.squared_distances)
    assert a.rounds == b.rounds


class TestStackedKernels:
    """A leading source axis runs m sources in one call; every source's
    result must equal its own one-source call bit for bit."""

    def test_d2_sampling_rows_match(self):
        points, weights = stacked_sources(zero_weights=(2,))
        closest = np.random.default_rng(1).random(weights.shape)
        closest[4] = 0.0  # no score mass: falls back to the weights
        for min_d2 in (None, closest):
            stacked, sampled = d2_sampling(
                points, None, 9, weights=weights, seed=generators(3, 7),
                min_squared_distances=min_d2,
            )
            for i, rng in enumerate(generators(3, 7)):
                row, row_points = d2_sampling(
                    points[i], None, 9, weights=weights[i], seed=rng,
                    min_squared_distances=None if min_d2 is None else min_d2[i],
                )
                np.testing.assert_array_equal(stacked[i], row)
                np.testing.assert_array_equal(sampled[i], row_points)

    def test_stacked_d2_sampling_rejects_current_centers(self):
        points, weights = stacked_sources(m=2)
        with pytest.raises(ValueError, match="min_squared_distances"):
            d2_sampling(points, points[0, :2], 3, weights=weights, seed=generators(0, 2))

    @pytest.mark.parametrize("k, batch_factor", [(3, 3), (1, 1), (2, 1)])
    def test_bicriteria_rows_match(self, k, batch_factor):
        """``batch_factor * k = 1`` draws one point a round, so every round
        that grows the set adds exactly one fresh center (the gemv-shaped
        distance update); the duplicate sources stop early on a zero
        residual while the others keep sampling."""
        points, weights = stacked_sources(duplicates=(1, 5), zero_weights=(3,))
        stacked = bicriteria_approximation(
            points, k, weights=weights, batch_factor=batch_factor,
            seed=generators(5, 7),
        )
        assert stacked[1].cost == 0.0 and stacked[5].cost == 0.0
        for i, rng in enumerate(generators(5, 7)):
            row = bicriteria_approximation(
                points[i], k, weights=weights[i], batch_factor=batch_factor, seed=rng
            )
            assert_bicriteria_equal(stacked[i], row)

    def test_sensitivity_build_rows_match(self):
        from repro.cr.sensitivity import SensitivitySampler, stacked_sensitivity_sample

        points, weights = stacked_sources(duplicates=(0,), zero_weights=(6,))
        sampled, sample_weights = stacked_sensitivity_sample(
            points, weights, generators(7, 7), k=3, size=20
        )
        for i, rng in enumerate(generators(7, 7)):
            coreset = SensitivitySampler(3, 20, seed=rng).build(points[i], weights[i])
            np.testing.assert_array_equal(sampled[i], coreset.points)
            np.testing.assert_array_equal(sample_weights[i], coreset.weights)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_fss_build_rows_match(self, rank):
        from repro.cr.fss import FSSCoreset, stacked_fss

        points, weights = stacked_sources(duplicates=(2,), zero_weights=(4,))
        pcas, sampled, sample_weights, tails = stacked_fss(
            points, weights, generators(9, 7), k=3, size=16, rank=rank
        )
        for i, rng in enumerate(generators(9, 7)):
            built = FSSCoreset(3, size=16, pca_rank=rank, seed=rng).build(
                points[i], weights[i]
            )
            np.testing.assert_array_equal(sampled[i], built.coreset.points)
            np.testing.assert_array_equal(sample_weights[i], built.coreset.weights)
            assert tails[i] == built.coreset.shift
            np.testing.assert_array_equal(pcas[i].basis, built.pca.basis)

    def test_stream_steps_match_one_source_at_a_time(self, monkeypatch):
        """Uneven shards put several batch shapes in one step; stacking
        each shape group must equal compressing every source alone."""
        from repro.core.streaming import StreamingEngine
        from repro.stages.cr import FSSStage

        rng = np.random.default_rng(4)
        shards = [rng.standard_normal((size, 4)) for size in (40, 23, 16, 57, 9)]

        def run():
            return StreamingEngine(
                [FSSStage(size=6)], k=2, batch_size=8, query_every=1, seed=3,
                server_n_init=1, server_max_iterations=10,
            ).run(shards)

        stacked = run()
        original = StreamingEngine._stacked_chunks

        def one_source_chunks(self, sources, arrivals):
            return [
                ([source], batch[None])
                for sources_chunk, batches in original(self, sources, arrivals)
                for source, batch in zip(sources_chunk, batches)
            ]

        monkeypatch.setattr(StreamingEngine, "_stacked_chunks", one_source_chunks)
        alone = run()
        assert len(stacked.queries) == len(alone.queries)
        for a, b in zip(stacked.queries, alone.queries):
            np.testing.assert_array_equal(a.centers, b.centers)
            assert (a.summary_cardinality, a.bits) == (b.summary_cardinality, b.bits)


class TestValidationBoundary:
    """Kernel-to-kernel calls no longer re-validate, so every public entry
    point must still reject bad input itself, with the same message."""

    ENTRY_POINTS = {
        "bicriteria": lambda p, w: bicriteria_approximation(p, 2, weights=w, seed=0),
        "d2_sampling": lambda p, w: d2_sampling(p, None, 3, weights=w, seed=0),
        "sensitivity_build": lambda p, w: _sampler().build(p, w),
        "sensitivity_scores": lambda p, w: _sampler().compute_sensitivities(p, w),
        "fss_build": lambda p, w: _fss().build(p, w),
        "coreset": lambda p, w: _coreset(p, w),
    }

    BAD_INPUTS = {
        "nan-point": (lambda p, w: (_with(p, np.nan), w), "points contains NaN or infinite values"),
        "inf-point": (lambda p, w: (_with(p, np.inf), w), "points contains NaN or infinite values"),
        "negative-weight": (lambda p, w: (p, _with(w, -1.0)), "weights must be non-negative"),
        "nan-weight": (lambda p, w: (p, _with(w, np.nan)), "weights contains NaN or infinite values"),
        "short-weights": (lambda p, w: (p, w[:-1]), "weights must have length 10, got 9"),
        "4-d-points": (lambda p, w: (p[None, None], w), "points must be a 2-D array, got ndim=4"),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_bad_input_raises_same_message(self, entry, bad):
        make, message = self.BAD_INPUTS[bad]
        rng = np.random.default_rng(0)
        points, weights = make(rng.standard_normal((10, 3)), rng.random(10) + 0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            self.ENTRY_POINTS[entry](points, weights)

    @pytest.mark.parametrize("bad", ["nan-point", "inf-point", "4-d-points"])
    def test_pca_fit_rejects_bad_points(self, bad):
        from repro.dr.pca import PCAProjection

        make, message = self.BAD_INPUTS[bad]
        points, _ = make(np.random.default_rng(0).standard_normal((10, 3)), None)
        with pytest.raises(ValueError, match=re.escape(message)):
            PCAProjection(2).fit(points)

    def test_fss_shift_is_the_pca_residual_energy(self):
        """FSS takes Δ from the projection it already computed; it must
        equal the public residual-energy call exactly."""
        points, _ = stacked_sources(m=1, n=40, d=6)
        built = _fss().build(points[0])
        assert built.coreset.shift == built.pca.residual_energy(points[0])


def _with(array, value):
    array = np.array(array, dtype=float)
    array.flat[3] = value
    return array


def _sampler():
    from repro.cr.sensitivity import SensitivitySampler

    return SensitivitySampler(2, 5, seed=0)


def _fss():
    from repro.cr.fss import FSSCoreset

    return FSSCoreset(2, size=5, pca_rank=2, seed=0)


def _coreset(points, weights):
    from repro.cr.coreset import Coreset

    return Coreset(points, weights)


HAMERLY_DATASETS = [
    dict(n=600, d=8, k=4, separation=10.0, cluster_std=1.0, seed=1),
    dict(n=900, d=15, k=3, separation=8.0, cluster_std=1.5, seed=2),
    dict(n=500, d=25, k=5, separation=12.0, cluster_std=0.8, seed=3),
]


class TestHamerlyEquivalence:
    @pytest.mark.parametrize("spec", HAMERLY_DATASETS, ids=["ds1", "ds2", "ds3"])
    def test_same_labels_and_cost_as_plain(self, spec):
        points, _, _ = make_gaussian_mixture(**spec)
        k = spec["k"]
        # tolerance=0 runs both variants to their common fixed point.
        plain = WeightedKMeans(
            k=k, n_init=2, max_iterations=200, tolerance=0.0, seed=99
        ).fit(points)
        fast = WeightedKMeans(
            k=k, n_init=2, max_iterations=200, tolerance=0.0, seed=99,
            accelerate="hamerly",
        ).fit(points)
        np.testing.assert_array_equal(plain.labels, fast.labels)
        assert fast.cost == pytest.approx(plain.cost, rel=1e-9)
        np.testing.assert_allclose(fast.centers, plain.centers, rtol=1e-9, atol=1e-9)

    def test_invalid_accelerate_mode_rejected(self):
        with pytest.raises(ValueError):
            WeightedKMeans(k=2, accelerate="elkan")

    def test_hamerly_weighted(self, data):
        points, weights = data
        plain = WeightedKMeans(
            k=3, n_init=1, max_iterations=100, tolerance=0.0, seed=4
        ).fit(points, weights)
        fast = WeightedKMeans(
            k=3, n_init=1, max_iterations=100, tolerance=0.0, seed=4,
            accelerate="hamerly",
        ).fit(points, weights)
        assert fast.cost == pytest.approx(plain.cost, rel=1e-9)


class TestFloat32Path:
    def test_pairwise_preserves_float32(self):
        a = np.random.default_rng(0).standard_normal((40, 6)).astype(np.float32)
        b = np.random.default_rng(1).standard_normal((5, 6)).astype(np.float32)
        d2 = pairwise_squared_distances(a, b)
        assert d2.dtype == np.float32

    def test_pairwise_no_copy_for_contiguous_float64(self):
        """Regression: float inputs must not be silently copied/promoted."""
        a = np.ascontiguousarray(np.random.default_rng(2).standard_normal((30, 4)))
        b = np.ascontiguousarray(np.random.default_rng(3).standard_normal((7, 4)))
        from repro.utils.linalg import as_float_array

        assert as_float_array(a) is a
        assert as_float_array(b) is b
        f32 = a.astype(np.float32)
        assert as_float_array(f32) is f32  # no promotion copy either

    def test_pairwise_out_buffer_is_used_and_matches(self):
        a = np.random.default_rng(4).standard_normal((25, 9))
        b = np.random.default_rng(5).standard_normal((6, 9))
        out = np.empty((25, 6))
        result = pairwise_squared_distances(a, b, out=out)
        assert result is out
        np.testing.assert_array_equal(out, pairwise_squared_distances(a, b))

    def test_float32_solver_close_to_float64(self, data):
        points, weights = data
        exact = WeightedKMeans(k=3, n_init=2, seed=8).fit(points, weights)
        single = WeightedKMeans(
            k=3, n_init=2, seed=8, compute_dtype=np.float32
        ).fit(points, weights)
        assert single.centers.dtype == np.float64  # reported in full precision
        assert single.cost == pytest.approx(exact.cost, rel=1e-3)

    def test_assign_and_cost_float32_is_opt_in(self, data):
        points, _ = data
        pts32 = points.astype(np.float32)
        labels64, d2_default, _ = assign_and_cost(points, points[:4])
        # Default: float32 input is promoted to float64 at the validation
        # boundary — the expanded distance formula is unsafe in single
        # precision, so low precision must never be implicit.
        _, d2_promoted, _ = assign_and_cost(pts32, pts32[:4])
        assert d2_promoted.dtype == np.float64
        # Opt-in: the caller accepts single-precision compute.
        labels32, d2, cost = assign_and_cost(pts32, pts32[:4], preserve_dtype=True)
        assert d2.dtype == np.float32
        # Separated data: the assignment itself agrees across precisions.
        assert np.mean(labels64 == labels32) > 0.999
