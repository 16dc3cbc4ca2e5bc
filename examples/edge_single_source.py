"""Single data source at the edge: compare every algorithm of Section 4.

Reproduces the Figure 1 / Table 3 comparison at a small scale: one device
holds an MNIST-like dataset; we run NR (raw data), FSS, JL+FSS (Alg. 1),
FSS+JL (Alg. 2), and JL+FSS+JL (Alg. 3), each over several Monte-Carlo runs,
and report the paper's three metrics: normalized k-means cost, normalized
communication cost, and data-source running time.

Run with:  python examples/edge_single_source.py
"""

from __future__ import annotations

import numpy as np

from repro import create_pipeline, make_mnist_like
from repro.metrics import ExperimentRunner

MONTE_CARLO_RUNS = 3
CORESET_SIZE = 300
PCA_RANK = 48
K = 2


def main() -> None:
    points, spec = make_mnist_like(n=2000, d=784, seed=0)
    d = points.shape[1]
    print(f"dataset: {spec.name}, n={spec.n}, d={spec.d}  (substitute for MNIST)")

    runner = ExperimentRunner(points, k=K, monte_carlo_runs=MONTE_CARLO_RUNS, seed=42)
    common = dict(k=K, coreset_size=CORESET_SIZE, pca_rank=PCA_RANK)
    factories = {
        "NR (raw data)": lambda s: create_pipeline("nr", k=K, seed=s),
        "FSS": lambda s: create_pipeline("fss", seed=s, **common),
        "JL+FSS (Alg1)": lambda s: create_pipeline("jl-fss", seed=s, jl_dimension=d // 2, **common),
        "FSS+JL (Alg2)": lambda s: create_pipeline("fss-jl", seed=s, jl_dimension=64, **common),
        "JL+FSS+JL (Alg3)": lambda s: create_pipeline(
            "jl-fss-jl",
            seed=s, jl_dimension=d // 2, second_jl_dimension=64, **common
        ),
    }

    result = runner.run_single_source(factories)

    print(f"\n{'algorithm':<18}{'norm. cost':>14}{'norm. comm.':>14}{'source time (s)':>18}")
    for label, summary in result.summary().items():
        print(
            f"{label:<18}{summary.mean_normalized_cost:>14.4f}"
            f"{summary.mean_normalized_communication:>14.5f}"
            f"{summary.mean_source_seconds:>18.3f}"
        )

    print("\nPer-run normalized costs (the paper plots these as CDFs):")
    for label in factories:
        samples = np.sort(result.metric_samples(label, "normalized_cost"))
        print(f"  {label:<18} {np.array2string(samples, precision=4)}")


if __name__ == "__main__":
    main()
