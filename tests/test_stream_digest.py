"""Pinned digests of whole streaming runs.

Each digest hashes everything a run reports that depends on the sampled
coresets: the final centers, every query snapshot (centers, summary shape,
cumulative and windowed scalars/bits, live buckets), the headline bits and
the per-tag scalar ledger.  The shards are deliberately uneven — ragged
final batches, sources whose streams end at different steps — so the
batch-step loop sees several batch shapes per step and sources dropping
out mid-stream.  The pinned values were captured from the one-source-at-a-
time compression path; the stacked step must reproduce them bit for bit at
every ``jobs`` value and on both topologies.
"""

import hashlib

import numpy as np
import pytest

from repro.core.registry import create_pipeline
from repro.datasets import make_gaussian_mixture

SHARD_SIZES = (40, 57, 16, 73, 33, 64, 25, 90, 48)
BATCH = 16
D = 6
K = 3

COMPOSITIONS = {
    "stream-fss": dict(coreset_size=12),
    "stream-jl-fss": dict(coreset_size=12, jl_dimension=4),
    "stream-uniform-qt": dict(coreset_size=12),
    "stream-fss-window": dict(coreset_size=12, window=3),
}
TOPOLOGIES = {
    "star": dict(),
    "tree,fan_in=4": dict(topology="tree", fan_in=4),
}

EXPECTED = {
    ("stream-fss", "star"): "48399e1e23049c0b87e9fd01ac4b0068241b11b4edc1c10f22514fa4c78421b0",
    ("stream-fss", "tree,fan_in=4"): "b991194f2384c645dd19b3ee5f6ac330062a06bfae209ee4d40438fafaf21337",
    ("stream-fss-window", "star"): "9f2ee1630f8aa4173f671d4fb9168f7c64dc731001c895c3a7c848272073b952",
    ("stream-fss-window", "tree,fan_in=4"): "16302b4aa863fabe2a3642cfa24f5f42d61a2c9c4cc82161318ab09e6c8d1774",
    ("stream-jl-fss", "star"): "468c0653013d085d11bc776e1e3bdbbdb316a0afebb22b3ea17a8ec279cde43a",
    ("stream-jl-fss", "tree,fan_in=4"): "ad6e919a59e07ab09e54720addaf73d84a1381d967a9f8cc33dd685e65b06197",
    ("stream-uniform-qt", "star"): "548450d8479816e50311598a6beef16732ba39c9fd60e420287960276cf449be",
    ("stream-uniform-qt", "tree,fan_in=4"): "5393e3b638c4e3a8b46233ee501e4145c13cf3a3605e71fc8a86d7c512e8d5f2",
}


@pytest.fixture(scope="module")
def shards():
    points, _, _ = make_gaussian_mixture(
        n=sum(SHARD_SIZES), d=D, k=K, separation=5.0, seed=21
    )
    bounds = np.cumsum((0,) + SHARD_SIZES)
    return [points[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def run_digest(shards, name, topology, jobs):
    kwargs = dict(COMPOSITIONS[name], **TOPOLOGIES[topology])
    report = create_pipeline(
        name, k=K, batch_size=BATCH, query_every=1, server_n_init=2,
        server_max_iterations=20, seed=5, jobs=jobs, **kwargs
    ).run(shards)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(report.centers, dtype=np.float64).tobytes())
    for q in report.queries:
        h.update(np.ascontiguousarray(q.centers, dtype=np.float64).tobytes())
        h.update(repr((
            q.time, q.summary_cardinality, q.summary_dimension, q.scalars,
            q.bits, q.windowed_scalars, q.windowed_bits, q.live_buckets,
        )).encode())
    h.update(repr((
        report.communication_scalars, report.communication_bits,
        sorted(report.tag_scalars.items()),
    )).encode())
    return h.hexdigest()


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
@pytest.mark.parametrize("jobs", [1, 4])
def test_stream_digest_pinned(shards, name, topology, jobs):
    assert run_digest(shards, name, topology, jobs) == EXPECTED[(name, topology)]
