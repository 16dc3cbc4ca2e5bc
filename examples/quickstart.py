"""Quickstart: communication-efficient k-means in a dozen lines.

A single edge device holds a high-dimensional dataset and wants a nearby
edge server to compute the k-means centers.  Instead of shipping the raw
data, the device sends a small summary built by Algorithm 3 of the paper
(JL projection -> FSS coreset -> JL projection); the server solves weighted
k-means on the summary and lifts the centers back to the original space.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EvaluationContext,
    create_pipeline,
    evaluate_report,
    make_mnist_like,
)


def main() -> None:
    # A synthetic image-like dataset standing in for the data collected at
    # the edge device (a stand-in for the paper's MNIST workload), already
    # normalized to [-1, 1] with zero mean as in Section 7.1.
    points, spec = make_mnist_like(n=3000, d=784, seed=0)
    n, d = points.shape
    k = 2  # the paper's setting
    print(f"dataset: {spec.name}, n={n}, d={d}")

    # Reference solution computed directly on the full data (what the paper
    # normalizes against).
    context = EvaluationContext.build(points, k=k, n_init=5, seed=1)
    print(f"reference k-means cost: {context.reference_cost:,.1f}")

    # Baseline: ship the raw data.
    raw_report = create_pipeline("nr", k=k, seed=2).run(points)
    raw_eval = evaluate_report(raw_report, context)

    # Algorithm 3: JL -> FSS coreset -> JL, then solve at the server.
    pipeline = create_pipeline(
        "jl-fss-jl",
        k=k, seed=2, coreset_size=400, jl_dimension=d // 2, second_jl_dimension=64
    )
    report = pipeline.run(points)
    evaluation = evaluate_report(report, context)

    print("\n                         raw data     JL+FSS+JL (Alg. 3)")
    print(f"normalized k-means cost  {raw_eval.normalized_cost:10.3f}     {evaluation.normalized_cost:10.3f}")
    print(f"normalized communication {raw_eval.normalized_communication:10.3f}     {evaluation.normalized_communication:10.3f}")
    print(f"scalars transmitted      {raw_eval.communication_scalars:10d}     {evaluation.communication_scalars:10d}")
    print(f"device compute time (s)  {raw_eval.source_seconds:10.3f}     {evaluation.source_seconds:10.3f}")

    savings = 1.0 - evaluation.communication_scalars / raw_eval.communication_scalars
    print(f"\ncommunication saved vs raw data: {savings:.1%}")
    print(f"summary: {report.summary_cardinality} weighted points in "
          f"{report.summary_dimension} dimensions (+ weights and a constant shift)")


if __name__ == "__main__":
    main()
