"""End-to-end tests of tree-topology streaming runs: star bit-parity,
determinism, per-hop metering, quality, and aggregator fault degradation."""

import numpy as np
import pytest

from repro.core.streaming import StreamingEngine
from repro.datasets import make_gaussian_mixture
from repro.distributed.conditions import FaultPlan
from repro.kmeans.cost import kmeans_cost
from repro.stages.cr import FSSStage
from repro.stages.qt import QuantizeStage
from repro.quantization.rounding import RoundingQuantizer
from repro.topology import Topology

K = 3
D = 10
BATCH = 64
NUM_SOURCES = 6
BATCHES_PER_SOURCE = 5


@pytest.fixture(scope="module")
def shards():
    n = NUM_SOURCES * BATCH * BATCHES_PER_SOURCE
    points, _, _ = make_gaussian_mixture(n=n, d=D, k=K, separation=6.0, seed=33)
    return np.array_split(points, NUM_SOURCES)


def make_engine(**kwargs):
    defaults = dict(
        k=K, batch_size=BATCH, seed=47, server_n_init=2, server_max_iterations=50
    )
    defaults.update(kwargs)
    return StreamingEngine([FSSStage(size=50)], **defaults)


class TestStarParity:
    def test_star_argument_bit_identical_to_default(self, shards):
        default = make_engine().run(shards)
        star = make_engine(topology="star").run(shards)
        np.testing.assert_array_equal(default.centers, star.centers)
        assert default.communication_scalars == star.communication_scalars
        assert default.communication_bits == star.communication_bits
        assert default.tag_scalars == star.tag_scalars

    def test_explicit_star_topology_bit_identical(self, shards):
        default = make_engine().run(shards)
        star = make_engine(topology=Topology.star(NUM_SOURCES)).run(shards)
        np.testing.assert_array_equal(default.centers, star.centers)
        assert default.tag_scalars == star.tag_scalars

    def test_degenerate_tree_is_the_flat_path(self, shards):
        # fan_in >= num_sources builds no aggregators: exact star behavior.
        default = make_engine().run(shards)
        degenerate = make_engine(topology="tree", fan_in=16).run(shards)
        np.testing.assert_array_equal(default.centers, degenerate.centers)
        assert "topology_hops" not in degenerate.details

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_pinned_lossy_windowed_star_with_faults(self, jobs):
        # Uneven shards end at different steps, so ended sources' window
        # advances share steps with live flushes under loss, dropout, a
        # flaky link and a straggler.  The figures are pinned exactly.
        sizes = [
            5 * BATCH, 2 * BATCH + 9, 4 * BATCH, BATCH - 7, 3 * BATCH + 30, 5 * BATCH
        ]
        points, _, _ = make_gaussian_mixture(
            n=sum(sizes), d=D, k=K, separation=6.0, seed=35
        )
        uneven = np.split(points, np.cumsum(sizes)[:-1])
        plan = FaultPlan(
            dropout={"source-2": 3},
            flaky={"source-4": (1, 3)},
            stragglers={"source-0": 2.0},
        )
        report = make_engine(
            window=2, network="lossy", fault_plan=plan, jobs=jobs
        ).run(uneven)
        observed = (
            report.communication_bits,
            report.tag_scalars,
            report.retransmissions,
            report.messages_lost,
            report.failed_sources,
            report.details["num_batches"],
        )
        assert observed == (
            181248,
            {
                "stream-points": 12090,
                "stream-weights": 1059,
                "stream-header": 115,
                "stream-retire": 15,
            },
            15,
            15,
            1,
            21,
        )


class TestTreeRuns:
    def test_tree_run_is_deterministic(self, shards):
        reports = [
            make_engine(topology="tree", fan_in=2).run(shards) for _ in range(2)
        ]
        np.testing.assert_array_equal(reports[0].centers, reports[1].centers)
        assert reports[0].communication_bits == reports[1].communication_bits
        assert reports[0].tag_scalars == reports[1].tag_scalars

    def test_per_hop_tags_and_details(self, shards):
        report = make_engine(topology="tree", fan_in=2).run(shards)
        # balanced(6, 2): three level-1 aggregators, two level-2, 3 hops.
        assert report.details["topology_hops"] == 3
        assert report.details["num_aggregators"] == 5
        assert report.details["aggregator_merges"] > 0
        assert report.details["failed_aggregators"] == 0
        tags = report.tag_scalars
        for hop in ("@h1", "@h2"):
            assert any(t.endswith(hop) for t in tags), (hop, sorted(tags))
        # Sources keep the plain hop-0 tags; every upward hop is uplink, so
        # the totals strictly exceed a flat run's.
        flat = make_engine().run(shards)
        assert tags["stream-points"] == flat.tag_scalars["stream-points"]
        assert report.communication_scalars > flat.communication_scalars
        assert report.details["aggregator_seconds"] > 0
        assert (
            report.details["total_aggregator_seconds"]
            >= report.details["aggregator_seconds"]
        )

    def test_tree_quality_within_tolerance_of_flat(self, shards):
        points = np.vstack(shards)
        flat = make_engine().run(shards)
        tree = make_engine(topology="tree", fan_in=2).run(shards)
        flat_cost = kmeans_cost(points, flat.centers)
        tree_cost = kmeans_cost(points, tree.centers)
        # Each extra hop is an exact merge plus one more coreset reduction:
        # the summary stays a coreset of the same stream, so the answered
        # centers stay in the flat fold's cost regime.
        assert tree_cost <= flat_cost * 1.3 + 1e-9

    def test_explicit_irregular_topology(self, shards):
        # Sources 0-3 share an aggregator; 4 and 5 uplink directly.
        topo = Topology.from_edges(
            [
                ("source-0", "agg-1-0"),
                ("source-1", "agg-1-0"),
                ("source-2", "agg-1-0"),
                ("source-3", "agg-1-0"),
                ("source-4", "server"),
                ("source-5", "server"),
                ("agg-1-0", "server"),
            ]
        )
        report = make_engine(topology=topo).run(shards)
        assert report.details["topology_hops"] == 2
        assert report.details["num_aggregators"] == 1
        assert np.isfinite(report.centers).all()

    def test_windowed_tree_run(self, shards):
        report = make_engine(topology="tree", fan_in=2, window=3, query_every=2).run(
            shards
        )
        assert report.details["window"] == 3
        assert report.details["topology_hops"] == 3
        # Windowed headline counts expired batches out; the cumulative
        # detail keeps the full metered uplink.
        assert report.communication_scalars <= report.details["cumulative_scalars"]
        assert len(report.queries) >= 2
        assert np.isfinite(report.centers).all()

    def test_quantized_tree_run_tags_hops(self, shards):
        engine = StreamingEngine(
            [FSSStage(size=50), QuantizeStage(RoundingQuantizer(12))],
            k=K,
            batch_size=BATCH,
            seed=47,
            topology="tree",
            fan_in=3,
        )
        report = engine.run(shards)
        assert report.quantizer_bits == 12
        # Quantized points travel quantized on every hop: the bit total is
        # below the 64-bit baseline implied by the scalar total.
        assert report.communication_bits < report.communication_scalars * 64
        assert any(t == "stream-points@h1" for t in report.tag_scalars)


@pytest.mark.chaos
class TestAggregatorFaults:
    def test_dead_aggregator_degrades_only_its_subtree(self, shards):
        # balanced(6, 2): agg-1-0 aggregates sources 0 and 1.  Killing it at
        # step 2 severs exactly that subtree; the other four sources stream
        # to the end and the run still answers.
        plan = FaultPlan(dropout={"agg-1-0": 2})
        report = make_engine(topology="tree", fan_in=2, fault_plan=plan).run(shards)
        assert report.details["failed_aggregators"] == 1
        assert report.failed_sources == 2
        assert report.participating_sources == NUM_SOURCES - 2
        # Severed sources ingested exactly the two pre-fault steps; the
        # healthy subtree delivered every batch.
        expected = 2 * 2 + (NUM_SOURCES - 2) * BATCHES_PER_SOURCE
        assert report.details["num_batches"] == expected
        assert np.isfinite(report.centers).all()
        # The answer still lands in the regime of the surviving data.
        points = np.vstack(shards)
        healthy = make_engine(topology="tree", fan_in=2).run(shards)
        assert kmeans_cost(points, report.centers) <= kmeans_cost(
            points, healthy.centers
        ) * 2.0

    def test_root_level_aggregator_death(self, shards):
        # agg-2-0 parents agg-1-0 and agg-1-1 (sources 0-3): its death takes
        # four sources and its whole aggregator subtree.
        plan = FaultPlan(dropout={"agg-2-0": 1})
        report = make_engine(topology="tree", fan_in=2, fault_plan=plan).run(shards)
        assert report.details["failed_aggregators"] == 3  # agg-2-0 + two children
        assert report.failed_sources == 4
        assert report.participating_sources == 2
        assert np.isfinite(report.centers).all()

    def test_dead_source_under_a_tree(self, shards):
        # A plain source dropout inside a subtree must not take its
        # aggregator with it: only the one source degrades.
        plan = FaultPlan(dropout={"source-3": 2})
        report = make_engine(topology="tree", fan_in=2, fault_plan=plan).run(shards)
        assert report.details["failed_aggregators"] == 0
        assert report.failed_sources == 1
        assert report.participating_sources == NUM_SOURCES - 1
