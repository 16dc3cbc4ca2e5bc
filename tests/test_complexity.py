"""Complexity contracts: deterministic work counts in place of wall-clock races.

Each test runs a hot path at size ``s`` and ``4s`` and pins how a count of
work grows, so a complexity blow-up fails tier-1 deterministically even when
the output stays right:

* the server's query merge copies every live-bucket row once — linear in
  live buckets (the old pairwise fold re-copied the growing union once per
  bucket, quadratic);
* a tree's root query holds at most ``fan_in`` per-hop coresets, whatever
  the source count;
* the rows each aggregator merges per emit stay bounded by its fan-in.
"""

import numpy as np
import pytest

import repro.cr.coreset as coreset_module
import repro.topology.aggregator as aggregator_module
from repro.core.streaming import StreamingEngine
from repro.datasets import make_gaussian_mixture
from repro.stages.cr import FSSStage

K = 3
D = 4
BATCH = 16
BATCHES = 3
CORESET = 12
FAN_IN = 4
SMALL = 8


class RowCounter:
    """Stands in for ``numpy`` inside :mod:`repro.cr.coreset` and counts the
    point rows every concatenation there copies."""

    def __init__(self) -> None:
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def _counted(self, out):
        if out.ndim == 2:
            self.rows += out.shape[0]
        return out

    def concatenate(self, arrays, *args, **kwargs):
        return self._counted(np.concatenate(arrays, *args, **kwargs))

    def vstack(self, arrays, *args, **kwargs):
        return self._counted(np.vstack(arrays, *args, **kwargs))


def shards(num_sources):
    points, _, _ = make_gaussian_mixture(
        n=num_sources * BATCH * BATCHES, d=D, k=K, separation=6.0, seed=13
    )
    return np.array_split(points, num_sources)


def run(num_sources, **kwargs):
    return StreamingEngine(
        [FSSStage(size=CORESET)], k=K, batch_size=BATCH, query_every=1,
        seed=2, server_n_init=1, server_max_iterations=10, **kwargs,
    ).run(shards(num_sources))


class TestServerMerge:
    def test_rows_copied_grow_linearly_in_live_buckets(self, monkeypatch):
        copied = {}
        live = {}
        for sources in (SMALL, 4 * SMALL):
            counter = RowCounter()
            monkeypatch.setattr(coreset_module, "np", counter)
            report = run(sources)
            copied[sources] = counter.rows
            live[sources] = report.queries[-1].live_buckets
        assert live[4 * SMALL] == 4 * live[SMALL]
        # Every query and every tree merge copies each row once: 4x the
        # buckets copy at most 4x the rows.  The pairwise fold copied ~16x.
        assert copied[4 * SMALL] <= 4 * copied[SMALL], copied

    def test_merge_copies_each_row_once(self, monkeypatch):
        counter = RowCounter()
        monkeypatch.setattr(coreset_module, "np", counter)
        buckets = [
            coreset_module.Coreset(np.ones((5, 2)), np.ones(5)) for _ in range(40)
        ]
        merged = coreset_module.merge_coresets(buckets)
        assert merged.size == counter.rows == 200


class TestTreeBounds:
    @pytest.mark.parametrize("sources", [SMALL * 2, SMALL * 8])
    def test_root_query_holds_at_most_fan_in_hop_coresets(self, sources):
        report = run(sources, topology="tree", fan_in=FAN_IN)
        assert report.details["topology_hops"] >= 2
        for query in report.queries:
            assert query.summary_cardinality <= FAN_IN * CORESET, query.time

    def test_rows_each_aggregator_folds_stay_bounded(self, monkeypatch):
        widest = {}
        for sources in (SMALL * 2, SMALL * 8):
            largest = [0]

            def merge(coresets, largest=largest):
                coresets = list(coresets)
                largest[0] = max(largest[0], sum(c.size for c in coresets))
                return coreset_module.merge_coresets(coresets)

            monkeypatch.setattr(aggregator_module, "merge_coresets", merge)
            report = run(sources, topology="tree", fan_in=FAN_IN)
            widest[sources] = largest[0]
            # A child is a source (its live tree buckets) or an aggregator
            # (one bucket): at most fan_in children of that many rows.
            per_child = report.details["max_live_buckets"] * CORESET
            assert 0 < widest[sources] <= FAN_IN * per_child
        assert widest[SMALL * 8] <= widest[SMALL * 2], widest
