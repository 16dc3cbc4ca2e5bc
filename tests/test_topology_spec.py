"""Tests for repro.topology.spec (the Topology shape) and the declarative
``TopologySpec`` section of the experiment API."""

import pytest

from repro.api import ExperimentSpec, PipelineConfig, DataSpec, SweepSpec, TopologySpec
from repro.api.serialization import dumps_toml, spec_from_dict
from repro.api.specs import apply_axis_overrides
from repro.topology import Topology, is_aggregator_id, resolve_topology
from repro.topology.spec import source_id


class TestTopologyConstructors:
    def test_star_has_no_aggregators(self):
        topo = Topology.star(5)
        assert topo.is_star
        assert topo.num_aggregators == 0
        assert topo.hops == 1
        assert all(topo.parent(s) == "server" for s in topo.source_ids)

    def test_balanced_assigns_contiguous_blocks(self):
        topo = Topology.balanced(6, fan_in=2)
        # Deterministic assignment: source i lands on aggregator i // fan_in.
        for i in range(6):
            assert topo.parent(source_id(i)) == f"agg-1-{i // 2}"
        assert topo.hops == 3  # source -> agg-1 -> agg-2 -> server
        assert topo.num_aggregators == 5  # three level-1 + two level-2

    def test_balanced_degenerates_to_star_at_small_counts(self):
        assert Topology.balanced(4, fan_in=8).is_star
        assert not Topology.balanced(9, fan_in=8).is_star

    def test_balanced_is_deterministic(self):
        a = Topology.balanced(100, fan_in=4)
        b = Topology.balanced(100, fan_in=4)
        assert a == b
        assert hash(a) == hash(b)
        assert a.aggregator_ids == b.aggregator_ids

    def test_forced_depth(self):
        shallow = Topology.balanced(4, fan_in=2, depth=1)
        assert shallow.num_aggregators == 2
        assert shallow.hops == 2
        assert Topology.balanced(4, fan_in=2, depth=0).is_star

    def test_fan_in_floor(self):
        with pytest.raises(ValueError, match="fan_in"):
            Topology.balanced(4, fan_in=1)

    def test_from_edges(self):
        topo = Topology.from_edges(
            [
                ("source-0", "agg-1-0"),
                ("source-1", "agg-1-0"),
                ("source-2", "server"),
                ("agg-1-0", "server"),
            ]
        )
        assert topo.num_sources == 3
        assert topo.num_aggregators == 1
        assert topo.level("agg-1-0") == 1
        assert topo.children("server") == ("agg-1-0", "source-2")

    def test_from_edges_rejects_two_parents(self):
        with pytest.raises(ValueError, match="two parents"):
            Topology.from_edges(
                [("source-0", "server"), ("source-0", "agg-1-0"), ("agg-1-0", "server")]
            )


class TestTopologyValidation:
    def test_sources_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            Topology({"source-0": "server", "source-2": "server"})

    def test_dangling_aggregator_parent(self):
        with pytest.raises(ValueError, match="dangling"):
            Topology({"source-0": "agg-1-0"})

    def test_childless_aggregator(self):
        with pytest.raises(ValueError, match="no children"):
            Topology({"source-0": "server", "agg-1-0": "server"})

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            Topology(
                {
                    "source-0": "agg-1-0",
                    "agg-1-0": "agg-2-0",
                    "agg-2-0": "agg-1-0",
                }
            )

    def test_unknown_parent_kind(self):
        with pytest.raises(ValueError, match="neither"):
            Topology({"source-0": "source-1", "source-1": "server"})


class TestSubtrees:
    def test_subtree_sources_is_the_blast_radius(self):
        topo = Topology.balanced(8, fan_in=2)
        assert topo.subtree_sources("agg-1-0") == ("source-0", "source-1")
        # A level-2 aggregator covers its whole half of the tree.
        level2 = [a for a in topo.aggregator_ids if topo.level(a) == 2]
        assert topo.subtree_sources(level2[0]) == (
            "source-0",
            "source-1",
            "source-2",
            "source-3",
        )

    def test_is_aggregator_id(self):
        assert is_aggregator_id("agg-1-0")
        assert not is_aggregator_id("source-3")
        assert not is_aggregator_id("server")


class TestResolveTopology:
    def test_none_and_star_resolve_to_flat(self):
        assert resolve_topology(None, None, 10) == Topology.star(10)
        assert resolve_topology("star", None, 10) == Topology.star(10)

    def test_tree_requires_fan_in(self):
        with pytest.raises(ValueError, match="fan_in"):
            resolve_topology("tree", None, 10)

    def test_fan_in_requires_tree(self):
        with pytest.raises(ValueError, match="topology"):
            resolve_topology(None, 4, 10)

    def test_tree_builds_balanced(self):
        topo = resolve_topology("tree", 3, 10)
        assert topo == Topology.balanced(10, fan_in=3)

    def test_degenerate_tree_is_flat(self):
        assert resolve_topology("tree", 16, 10).is_star

    def test_explicit_topology_checked_against_source_count(self):
        topo = Topology.balanced(10, fan_in=3)
        assert resolve_topology(topo, None, 10) is topo
        with pytest.raises(ValueError, match="sources"):
            resolve_topology(topo, None, 12)
        with pytest.raises(ValueError, match="fan_in"):
            resolve_topology(topo, 3, 10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("ring", None, 10)


def _streaming_spec(**kwargs):
    return ExperimentSpec(
        pipeline=PipelineConfig(algorithm="stream-fss", k=3, coreset_size=40),
        data=DataSpec(name="mnist", n=400, d=8),
        runs=1,
        seed=5,
        num_sources=6,
        **kwargs,
    )


class TestTopologySpec:
    def test_defaults_to_star(self):
        spec = TopologySpec()
        assert spec.kind == "star"
        assert spec.to_overrides() == {}

    def test_tree_requires_fan_in(self):
        with pytest.raises(ValueError, match="fan_in"):
            TopologySpec(kind="tree")
        with pytest.raises(ValueError, match="fan_in"):
            TopologySpec(kind="star", fan_in=4)
        with pytest.raises(ValueError, match="kind"):
            TopologySpec(kind="ring", fan_in=4)

    def test_tree_overrides(self):
        spec = TopologySpec(kind="tree", fan_in=4)
        assert spec.to_overrides() == {"topology": "tree", "fan_in": 4}

    def test_experiment_spec_requires_streaming_for_trees(self):
        with pytest.raises(ValueError, match="streaming"):
            ExperimentSpec(
                pipeline=PipelineConfig(algorithm="fss", k=3, coreset_size=40),
                data=DataSpec(name="mnist", n=400, d=8),
                topology=TopologySpec(kind="tree", fan_in=4),
            )

    def test_toml_round_trip(self):
        spec = _streaming_spec(topology=TopologySpec(kind="tree", fan_in=4))
        text = dumps_toml(spec.to_dict())
        assert "[topology]" in text
        restored = spec_from_dict(spec.to_dict())
        assert restored.topology == TopologySpec(kind="tree", fan_in=4)
        assert restored == spec

    def test_star_section_omitted_from_dict(self):
        assert "topology" not in _streaming_spec().to_dict()

    def test_overrides_reach_the_pipeline(self):
        spec = _streaming_spec(topology=TopologySpec(kind="tree", fan_in=4))
        overrides = spec.overrides()
        assert overrides["topology"] == "tree"
        assert overrides["fan_in"] == 4


class TestTopologySweepAxes:
    def test_fan_in_axis(self):
        base = _streaming_spec(topology=TopologySpec(kind="tree", fan_in=2))
        varied = apply_axis_overrides(base, {"fan_in": 3})
        assert varied.topology == TopologySpec(kind="tree", fan_in=3)

    def test_topology_axis_star_drops_fan_in(self):
        # A star x tree grid keeps star cells valid: the flat baseline rows
        # simply ignore the grid's fan_in value.
        base = _streaming_spec()
        sweep = SweepSpec(
            base=base,
            axes={"topology": ("star", "tree"), "fan_in": (2, 3)},
        )
        cells = list(sweep.cells())
        assert len(cells) == 4
        topologies = {
            (c.spec.topology.kind if c.spec.topology else "star",
             c.spec.topology.fan_in if c.spec.topology else None)
            for c in cells
        }
        assert topologies == {("star", None), ("tree", 2), ("tree", 3)} | {
            ("star", None)
        }
