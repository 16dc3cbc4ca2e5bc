"""Joint DR, CR, and QT: sweeping the quantizer precision (Section 6).

Reproduces the Figure 3 experiment at a small scale, then uses the
Section 6.3 configuration procedure to pick the number of significant bits
automatically for a target error budget.

The device builds a JL+FSS+JL summary of an MNIST-like dataset and quantizes
the coreset points with a rounding quantizer that keeps ``s`` significant
bits.  As ``s`` decreases the transmitted bits shrink while the k-means cost
stays flat — until ``s`` becomes so small that the quantization error
dominates.

Run with:  python examples/quantization_tradeoff.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EvaluationContext,
    RoundingQuantizer,
    create_pipeline,
    configure_joint_reduction,
    evaluate_report,
    make_mnist_like,
)
from repro.core.configuration import estimate_optimal_cost_lower_bound

K = 2
CORESET_SIZE = 300
BIT_GRID = (3, 5, 8, 12, 20, 30, 53)


def main() -> None:
    points, spec = make_mnist_like(n=2000, d=784, seed=0)
    n, d = points.shape
    print(f"dataset: {spec.name}, n={n}, d={d}")
    context = EvaluationContext.build(points, k=K, n_init=5, seed=1)

    print(f"\n{'significant bits':>18}{'norm. cost':>14}{'norm. comm.':>14}{'device time (s)':>18}")
    for bits in BIT_GRID:
        quantizer = None if bits >= 53 else RoundingQuantizer(bits)
        pipeline = create_pipeline(
            "jl-fss-jl",
            k=K, seed=2, coreset_size=CORESET_SIZE, jl_dimension=d // 2,
            second_jl_dimension=64, quantizer=quantizer,
        )
        evaluation = evaluate_report(pipeline.run(points), context)
        print(
            f"{bits:>18}{evaluation.normalized_cost:>14.4f}"
            f"{evaluation.normalized_communication:>14.5f}"
            f"{evaluation.source_seconds:>18.3f}"
        )

    # Section 6.3: pick the precision automatically for an error budget.
    error_budget = 1.5
    lower_bound = estimate_optimal_cost_lower_bound(points, K, seed=3)
    max_norm = float(np.max(np.linalg.norm(points, axis=1)))
    config = configure_joint_reduction(
        n=n, d=d, k=K, error_bound=error_budget,
        optimal_cost_lower_bound=lower_bound,
        max_norm=max_norm, diameter=2.0 * max_norm,
        use_paper_constants=False,
        coreset_cardinality=CORESET_SIZE, coreset_dimension=64,
    )
    print(
        f"\nSection 6.3 configuration for an error budget of {error_budget}: "
        f"keep s = {config.significant_bits} significant bits "
        f"(predicted error bound {config.predicted_error:.3f}, "
        f"predicted summary size {config.predicted_communication / 8 / 1024:.1f} KiB)"
    )

    pipeline = create_pipeline(
        "jl-fss-jl",
        k=K, seed=4, coreset_size=CORESET_SIZE, jl_dimension=d // 2,
        second_jl_dimension=64, quantizer=RoundingQuantizer(config.significant_bits),
    )
    evaluation = evaluate_report(pipeline.run(points), context)
    print(
        f"empirical result with that configuration: normalized cost "
        f"{evaluation.normalized_cost:.4f}, normalized communication "
        f"{evaluation.normalized_communication:.5f}"
    )


if __name__ == "__main__":
    main()
