"""Multiple data sources at the edge: BKLW vs JL+BKLW (Algorithm 4).

Reproduces the Figure 2 / Table 4 comparison at a small scale: a NeurIPS-like
dataset is partitioned at random across 10 edge devices; the devices
cooperatively build a coreset with the distributed protocols (disPCA +
disSS), either directly (BKLW) or after a shared-seed JL projection
(Algorithm 4), and the edge server solves k-means on the union.

Every scalar crossing the simulated network is metered, so the reported
communication numbers are exactly what the devices would transmit.

Run with:  python examples/edge_multi_source.py
"""

from __future__ import annotations

import numpy as np

from repro import create_pipeline, make_neurips_like
from repro.metrics import ExperimentRunner

NUM_SOURCES = 10
MONTE_CARLO_RUNS = 3
K = 2


def main() -> None:
    points, spec = make_neurips_like(n=1500, d=1200, seed=0)
    d = points.shape[1]
    print(
        f"dataset: {spec.name}, n={spec.n}, d={spec.d} "
        f"(substitute for the NeurIPS word counts), {NUM_SOURCES} data sources"
    )

    runner = ExperimentRunner(points, k=K, monte_carlo_runs=MONTE_CARLO_RUNS, seed=7)
    common = dict(k=K, total_samples=300, pca_rank=20)
    factories = {
        "BKLW": lambda s: create_pipeline("bklw", seed=s, **common),
        "JL+BKLW (Alg4)": lambda s: create_pipeline("jl-bklw", seed=s, jl_dimension=d // 2, **common),
    }
    result = runner.run_multi_source(factories, num_sources=NUM_SOURCES)

    print(f"\n{'algorithm':<18}{'norm. cost':>14}{'norm. comm.':>14}{'per-source time (s)':>22}")
    for label, summary in result.summary().items():
        print(
            f"{label:<18}{summary.mean_normalized_cost:>14.4f}"
            f"{summary.mean_normalized_communication:>14.5f}"
            f"{summary.mean_source_seconds:>22.3f}"
        )

    # Break the communication down by protocol stage for one run.
    print("\nCommunication breakdown (one run, scalars by message tag):")
    pipeline = create_pipeline("bklw", seed=0, **common)
    shards_report = pipeline.run_on_dataset(points, NUM_SOURCES, partition_seed=0)
    print(f"  BKLW total scalars: {shards_report.communication_scalars:,}")
    print(f"    of which disPCA sketches: {int(shards_report.details['dispca_scalars']):,}")
    print(f"    of which disSS samples  : {int(shards_report.details['disss_scalars']):,}")

    pipeline4 = create_pipeline("jl-bklw", seed=0, jl_dimension=d // 2, **common)
    report4 = pipeline4.run_on_dataset(points, NUM_SOURCES, partition_seed=0)
    print(f"  JL+BKLW total scalars: {report4.communication_scalars:,}")
    print(f"    of which disPCA sketches: {int(report4.details['dispca_scalars']):,}")
    print(f"    of which disSS samples  : {int(report4.details['disss_scalars']):,}")


if __name__ == "__main__":
    main()
