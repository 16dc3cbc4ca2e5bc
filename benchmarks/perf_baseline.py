"""Acceptance macro-benchmark: fss / jl-fss end-to-end on 100k × 50.

Run once on the pre-change tree and once on the post-change tree; the rows
land in ``BENCH_perf.json`` tagged ``baseline:*`` / ``post:*``.  Rows go to
the ignored ``results/bench/`` by default; set
``REPRO_BENCH_RESULTS_DIR=benchmarks/results`` to update the committed file.

    PYTHONPATH=src python benchmarks/perf_baseline.py baseline
    PYTHONPATH=src python benchmarks/perf_baseline.py post
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_helpers import record_perf, time_best_of  # noqa: E402

from repro.core import registry  # noqa: E402
from repro.datasets import make_gaussian_mixture  # noqa: E402
from repro.kmeans.bicriteria import bicriteria_approximation  # noqa: E402
from repro.kmeans.cost import assign_to_centers, cluster_means, weighted_kmeans_cost  # noqa: E402
from repro.kmeans.seeding import d2_sampling, kmeans_plus_plus  # noqa: E402


def time_pipeline(name: str, points: np.ndarray) -> dict:
    pipeline = registry.create_pipeline(name, k=10, coreset_size=500, seed=7)
    start = time.perf_counter()
    report = pipeline.run(points)
    elapsed = time.perf_counter() - start
    return {
        "wall_seconds": elapsed,
        "source_seconds": report.source_seconds,
        "server_seconds": report.server_seconds,
    }


def time_primitives(points: np.ndarray) -> dict:
    rng = np.random.default_rng(0)
    centers = points[rng.choice(points.shape[0], size=10, replace=False)]
    labels, _ = assign_to_centers(points, centers)
    return {
        "assign_seconds": time_best_of(lambda: assign_to_centers(points, centers)),
        "cost_seconds": time_best_of(lambda: weighted_kmeans_cost(points, centers)),
        "cluster_means_seconds": time_best_of(lambda: cluster_means(points, labels, 10)),
        "kmeanspp_seconds": time_best_of(lambda: kmeans_plus_plus(points[:20000], 10, seed=1)),
        "d2_sampling_seconds": time_best_of(lambda: d2_sampling(points, centers, 512, seed=1)),
        "bicriteria_seconds": time_best_of(
            lambda: bicriteria_approximation(points[:20000], 10, seed=1), repeats=1
        ),
    }


def main() -> None:
    tag = sys.argv[1] if len(sys.argv) > 1 else "baseline"
    points, _, _ = make_gaussian_mixture(
        n=100_000, d=50, k=10, separation=6.0, cluster_std=1.0, seed=31
    )
    rows = {}
    prim = time_primitives(points)
    rows[f"{tag}:primitives"] = prim
    print("primitives:", {k: round(v, 4) for k, v in prim.items()})
    for name in ("fss", "jl-fss"):
        row = time_pipeline(name, points)
        rows[f"{tag}:{name}"] = row
        print(name, {k: round(v, 4) for k, v in row.items()})
    path = record_perf(rows)
    print("wrote", path)


if __name__ == "__main__":
    main()
