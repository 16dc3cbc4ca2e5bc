"""Property-based tests (hypothesis) for the core data structures and
invariants that must hold for arbitrary inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cr.coreset import Coreset, merge_coresets
from repro.distributed.network import _count_scalars
from repro.distributed.partition import partition_dataset
from repro.dr.jl import JLProjection
from repro.kmeans.cost import assign_to_centers, kmeans_cost, weighted_kmeans_cost
from repro.quantization.bits import bits_per_scalar
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.linalg import pairwise_squared_distances

# Bounded, finite float matrices keep hypothesis fast and avoid overflow in
# squared distances.
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def matrices(max_rows=12, max_cols=6):
    return hnp.arrays(
        dtype=float,
        shape=st.tuples(
            st.integers(min_value=1, max_value=max_rows),
            st.integers(min_value=1, max_value=max_cols),
        ),
        elements=finite_floats,
    )


@st.composite
def points_and_centers(draw, max_rows=12, max_cols=5, max_centers=4):
    d = draw(st.integers(min_value=1, max_value=max_cols))
    n = draw(st.integers(min_value=1, max_value=max_rows))
    k = draw(st.integers(min_value=1, max_value=max_centers))
    points = draw(hnp.arrays(float, (n, d), elements=finite_floats))
    centers = draw(hnp.arrays(float, (k, d), elements=finite_floats))
    return points, centers


class TestCostProperties:
    @settings(max_examples=60, deadline=None)
    @given(points_and_centers())
    def test_cost_non_negative(self, pc):
        points, centers = pc
        assert kmeans_cost(points, centers) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(points_and_centers())
    def test_adding_a_center_never_increases_cost(self, pc):
        points, centers = pc
        extended = np.vstack([centers, points[:1]])
        base = kmeans_cost(points, centers)
        # Relative tolerance: with coordinates up to 1e6 the cost reaches
        # ~1e12, where one ulp of reduction-order noise dwarfs any absolute
        # epsilon.
        assert kmeans_cost(points, extended) <= base + 1e-6 + 1e-9 * base

    @settings(max_examples=60, deadline=None)
    @given(points_and_centers(), st.floats(min_value=0.0, max_value=100.0))
    def test_shift_is_additive(self, pc, shift):
        points, centers = pc
        base = weighted_kmeans_cost(points, centers)
        shifted = weighted_kmeans_cost(points, centers, shift=shift)
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(points_and_centers(), st.floats(min_value=0.1, max_value=10.0))
    def test_cost_scales_with_uniform_weights(self, pc, scale):
        points, centers = pc
        weights = np.full(points.shape[0], scale)
        assert weighted_kmeans_cost(points, centers, weights) == pytest.approx(
            scale * kmeans_cost(points, centers), rel=1e-9, abs=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(points_and_centers())
    def test_assignment_cost_consistency(self, pc):
        points, centers = pc
        labels, d2 = assign_to_centers(points, centers)
        # The per-point distance to the assigned center equals the minimum
        # pairwise distance.
        full = pairwise_squared_distances(points, centers)
        assert np.allclose(d2, full.min(axis=1), rtol=1e-9, atol=1e-6)
        assert np.all(labels >= 0) and np.all(labels < centers.shape[0])


class TestDistanceProperties:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_self_distance_diagonal_zero(self, m):
        d2 = pairwise_squared_distances(m, m)
        # Absolute tolerance must scale with the magnitude of the entries:
        # the |x|^2 - 2xy + |y|^2 expansion cancels catastrophically for
        # large values.
        scale = max(1.0, float(np.max(np.abs(m))) ** 2)
        assert np.allclose(np.diag(d2), 0.0, atol=1e-9 * scale)
        assert np.all(d2 >= 0.0)


class TestQuantizerProperties:
    @settings(max_examples=80, deadline=None)
    @given(matrices(), st.integers(min_value=1, max_value=52))
    def test_relative_error_bound(self, m, s):
        quantized = RoundingQuantizer(s).quantize(m)
        error = np.abs(m - quantized)
        assert np.all(error <= np.abs(m) * 2.0 ** (-s) + 1e-300)

    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.integers(min_value=1, max_value=52))
    def test_idempotence(self, m, s):
        q = RoundingQuantizer(s)
        once = q.quantize(m)
        assert np.array_equal(q.quantize(once), once)

    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.integers(min_value=1, max_value=52))
    def test_sign_and_zero_preservation(self, m, s):
        quantized = RoundingQuantizer(s).quantize(m)
        assert np.all((m == 0) == (quantized == 0))
        assert np.all(np.sign(quantized) == np.sign(m))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60))
    def test_bits_per_scalar_monotone_and_capped(self, s):
        assert bits_per_scalar(s) <= 64
        if s < 52:
            assert bits_per_scalar(s) <= bits_per_scalar(s + 1)


class TestJLProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_projection_shapes_and_determinism(self, d, d_out, seed):
        d_out = min(d_out, d)
        a = JLProjection(d, d_out, seed=seed)
        b = JLProjection(d, d_out, seed=seed)
        assert a.matrix.shape == (d, d_out)
        assert np.array_equal(a.matrix, b.matrix)

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_rows=8, max_cols=10), st.integers(min_value=0, max_value=10**6))
    def test_projection_linearity(self, m, seed):
        d = m.shape[1]
        proj = JLProjection(d, max(1, d // 2), seed=seed)
        scaled = proj.transform(2.5 * m)
        assert np.allclose(scaled, 2.5 * proj.transform(m), rtol=1e-9, atol=1e-6)


# ---------------------------------------------------------------------------
# _count_scalars: payload trees with a known ground-truth scalar count.
# ---------------------------------------------------------------------------

@st.composite
def counted_payloads(draw, max_leaves=6):
    """A (payload, exact scalar count) pair built as a random container tree.

    Leaves are the meterable atoms (None, python/numpy scalars, bools, and
    small arrays), each carrying its known count; containers (lists, tuples,
    dicts) combine children additively.
    """
    leaf = st.one_of(
        st.just((None, 0)),
        st.integers(min_value=-10**6, max_value=10**6).map(lambda v: (v, 1)),
        finite_floats.map(lambda v: (v, 1)),
        st.booleans().map(lambda v: (v, 1)),
        st.booleans().map(lambda v: (np.bool_(v), 1)),
        finite_floats.map(lambda v: (np.float64(v), 1)),
        st.integers(min_value=0, max_value=10**6).map(lambda v: (np.int64(v), 1)),
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=3),
        ).map(lambda shape: (np.zeros(shape), shape[0] * shape[1])),
    )

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=max_leaves).map(
                lambda kids: ([p for p, _ in kids], sum(c for _, c in kids))
            ),
            st.lists(children, max_size=max_leaves).map(
                lambda kids: (tuple(p for p, _ in kids), sum(c for _, c in kids))
            ),
            st.dictionaries(
                st.text(st.characters(codec="ascii"), max_size=4),
                children,
                max_size=max_leaves,
            ).map(
                lambda kids: (
                    {key: p for key, (p, _) in kids.items()},
                    sum(c for _, c in kids.values()),
                )
            ),
        )

    payload, count = draw(st.recursive(leaf, containers, max_leaves=4 * max_leaves))
    return payload, count


class TestCountScalarsProperties:
    @settings(max_examples=120, deadline=None)
    @given(counted_payloads())
    def test_count_matches_ground_truth(self, payload_and_count):
        payload, expected = payload_and_count
        assert _count_scalars(payload) == expected

    @settings(max_examples=80, deadline=None)
    @given(counted_payloads(), counted_payloads())
    def test_counts_are_additive(self, a, b):
        payload_a, count_a = a
        payload_b, count_b = b
        assert _count_scalars([payload_a, payload_b]) == count_a + count_b
        assert _count_scalars({"a": payload_a, "b": payload_b}) == count_a + count_b

    @settings(max_examples=80, deadline=None)
    @given(counted_payloads())
    def test_none_is_transparent_at_any_position(self, payload_and_count):
        payload, expected = payload_and_count
        assert _count_scalars([None, payload, None]) == expected
        assert _count_scalars({"absent": None, "present": payload}) == expected
        assert _count_scalars((payload, [None, (None,)])) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        counted_payloads(),
        st.sampled_from(["a string", b"bytes", object(), {1, 2}, 3 + 4j]),
    )
    def test_unmeterable_types_raise_at_any_depth(self, payload_and_count, bad):
        payload, _ = payload_and_count
        with pytest.raises(TypeError):
            _count_scalars(bad)
        with pytest.raises(TypeError):
            _count_scalars([payload, bad])
        with pytest.raises(TypeError):
            _count_scalars({"ok": payload, "bad": [bad]})


# ---------------------------------------------------------------------------
# partition_dataset: every strategy is an exact partition of the dataset.
# ---------------------------------------------------------------------------

@st.composite
def partition_cases(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    num_sources = draw(st.integers(min_value=1, max_value=n))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    skew = draw(st.floats(min_value=1.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False))
    points = np.random.default_rng(seed).standard_normal((n, d))
    return points, num_sources, seed, skew


@st.composite
def large_partition_cases(draw):
    """Thousand-source splits with n barely above num_sources and strong
    skew — the regime where the skewed-size remainder handling has to drain
    a large deficit without emptying any bucket."""
    num_sources = draw(st.integers(min_value=1000, max_value=4096))
    extra = draw(st.integers(min_value=0, max_value=64))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    skew = draw(st.floats(min_value=32.0, max_value=4096.0,
                          allow_nan=False, allow_infinity=False))
    n = num_sources + extra
    points = np.random.default_rng(seed).standard_normal((n, 2))
    return points, num_sources, seed, skew


class TestPartitionProperties:
    @settings(max_examples=100, deadline=None)
    @given(partition_cases(), st.sampled_from(["random", "skewed-size", "by-cluster"]))
    def test_every_point_covered_exactly_once(self, case, strategy):
        points, num_sources, seed, skew = case
        chunks = partition_dataset(
            points, num_sources, strategy=strategy, seed=seed, skew=skew
        )
        assert len(chunks) == num_sources
        combined = np.concatenate(chunks)
        # Exact partition: the chunks' union is 0..n-1 with no repetition.
        assert np.array_equal(np.sort(combined), np.arange(points.shape[0]))

    @settings(max_examples=100, deadline=None)
    @given(partition_cases(), st.sampled_from(["random", "skewed-size", "by-cluster"]))
    def test_every_source_gets_at_least_one_point(self, case, strategy):
        points, num_sources, seed, skew = case
        chunks = partition_dataset(
            points, num_sources, strategy=strategy, seed=seed, skew=skew
        )
        assert all(chunk.size >= 1 for chunk in chunks)

    @settings(max_examples=60, deadline=None)
    @given(partition_cases())
    def test_random_partition_is_seed_deterministic(self, case):
        points, num_sources, seed, _ = case
        a = partition_dataset(points, num_sources, strategy="random", seed=seed)
        b = partition_dataset(points, num_sources, strategy="random", seed=seed)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @settings(max_examples=60, deadline=None)
    @given(partition_cases())
    def test_skew_keeps_smallest_source_first(self, case):
        # Regression for the bug this suite originally caught: strong skew
        # with n close to num_sources used to dump a negative rounding
        # remainder onto the last bucket, leaving it empty.
        points, num_sources, seed, _ = case
        chunks = partition_dataset(
            points, num_sources, strategy="skewed-size", seed=seed, skew=8.0
        )
        sizes = [c.size for c in chunks]
        assert sum(sizes) == points.shape[0]
        assert min(sizes) >= 1
        # The geometric profile always makes the first source a smallest one.
        assert sizes[0] == min(sizes)

    @settings(max_examples=20, deadline=None)
    @given(large_partition_cases(),
           st.sampled_from(["random", "skewed-size", "by-cluster"]))
    def test_thousand_source_splits_stay_exact(self, case, strategy):
        # Hierarchical aggregation makes thousand-source deployments real;
        # every strategy must still produce an exact cover with non-empty
        # sources when n is barely above num_sources and the skew is strong.
        points, num_sources, seed, skew = case
        chunks = partition_dataset(
            points, num_sources, strategy=strategy, seed=seed, skew=skew
        )
        assert len(chunks) == num_sources
        sizes = np.array([c.size for c in chunks])
        assert sizes.min() >= 1
        combined = np.concatenate(chunks)
        assert np.array_equal(np.sort(combined), np.arange(points.shape[0]))
        if strategy == "skewed-size":
            # The drained deficit never inverts the geometric profile's
            # smallest-first shape.
            assert sizes[0] == sizes.min()


class TestCoresetProperties:
    @settings(max_examples=50, deadline=None)
    @given(matrices(max_rows=10, max_cols=4), st.floats(min_value=0.0, max_value=10.0))
    def test_coreset_cost_vs_weighted_cost(self, m, shift):
        weights = np.abs(m[:, 0]) + 1.0
        coreset = Coreset(m, weights, shift=shift)
        centers = m[:1]
        assert coreset.cost(centers) == pytest.approx(
            weighted_kmeans_cost(m, centers, weights, shift), rel=1e-9, abs=1e-6
        )

    @settings(max_examples=50, deadline=None)
    @given(matrices(max_rows=8, max_cols=4))
    def test_merge_preserves_total_weight(self, m):
        a = Coreset(m, np.ones(m.shape[0]))
        b = Coreset(m * 2.0, np.full(m.shape[0], 2.0))
        merged = a.merged_with(b)
        assert merged.total_weight == pytest.approx(a.total_weight + b.total_weight)
        assert merged.size == a.size + b.size


@st.composite
def coreset_lists(draw, max_coresets=40, max_rows=5, max_cols=4):
    """1-40 coresets of one dimension; empty ones (zero rows) included."""
    d = draw(st.integers(min_value=1, max_value=max_cols))
    count = draw(st.integers(min_value=1, max_value=max_coresets))
    coresets = []
    for _ in range(count):
        rows = draw(st.integers(min_value=0, max_value=max_rows))
        points = draw(hnp.arrays(float, (rows, d), elements=finite_floats))
        weights = draw(hnp.arrays(
            float, rows, elements=st.floats(min_value=0.0, max_value=1e6)
        ))
        shift = draw(st.floats(min_value=0.0, max_value=1e6))
        coresets.append(Coreset(points, weights, shift))
    return coresets


class TestMergeCoresetsProperties:
    @settings(max_examples=80, deadline=None)
    @given(coreset_lists())
    def test_equals_pairwise_fold_bitwise(self, coresets):
        """One concatenation is the left fold of merged_with, bit for bit."""
        merged = merge_coresets(coresets)
        folded = coresets[0]
        for coreset in coresets[1:]:
            folded = folded.merged_with(coreset)
        np.testing.assert_array_equal(merged.points, folded.points)
        assert merged.points.shape == folded.points.shape
        np.testing.assert_array_equal(merged.weights, folded.weights)
        assert merged.shift == folded.shift

    @settings(max_examples=40, deadline=None)
    @given(coreset_lists(max_coresets=10), st.data())
    def test_dimension_mismatch_raises_like_pairwise_fold(self, coresets, data):
        d = coresets[0].dimension
        odd = Coreset(np.zeros((1, d + 1)), np.ones(1))
        position = data.draw(st.integers(min_value=1, max_value=len(coresets)))
        mixed = coresets[:position] + [odd] + coresets[position:]
        with pytest.raises(ValueError) as merged_error:
            merge_coresets(mixed)
        with pytest.raises(ValueError) as folded_error:
            folded = mixed[0]
            for coreset in mixed[1:]:
                folded = folded.merged_with(coreset)
        assert str(merged_error.value) == str(folded_error.value)
