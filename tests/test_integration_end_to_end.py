"""End-to-end integration tests exercising the public API the way the
examples and benchmarks do: dataset -> pipelines -> evaluation, in both the
single-source and multi-source setting, with and without quantization."""

import numpy as np
import pytest

import repro
from repro.metrics import ExperimentRunner


@pytest.fixture(scope="module")
def mnist_like_small():
    points, spec = repro.make_mnist_like(n=1200, d=196, n_prototypes=4, seed=0)
    return points, spec


@pytest.fixture(scope="module")
def neurips_like_small():
    points, spec = repro.make_neurips_like(n=400, d=300, n_topics=6, seed=0)
    return points, spec


class TestSingleSourceEndToEnd:
    def test_paper_claim_summary_beats_raw_communication(self, mnist_like_small):
        """Headline claim (i): DR+CR cuts communication by a large factor
        with only a moderate increase in k-means cost."""
        points, _ = mnist_like_small
        n, d = points.shape
        context = repro.EvaluationContext.build(points, k=2, n_init=5, seed=0)

        nr = repro.evaluate_report(
            repro.create_pipeline("nr", k=2, seed=1).run(points), context
        )
        alg3 = repro.evaluate_report(
            repro.create_pipeline(
                "jl-fss-jl",
                k=2, seed=1, coreset_size=200, jl_dimension=80
            ).run(points),
            context,
        )
        assert nr.normalized_communication == pytest.approx(1.0)
        assert alg3.normalized_communication < 0.1
        assert alg3.normalized_cost < nr.normalized_cost * 1.5

    def test_all_single_source_algorithms_comparable_quality(self, mnist_like_small):
        points, _ = mnist_like_small
        context = repro.EvaluationContext.build(points, k=2, n_init=5, seed=0)
        costs = {}
        for name in ("fss", "jl-fss", "fss-jl", "jl-fss-jl"):
            report = repro.create_pipeline(name, k=2, seed=3, coreset_size=200).run(points)
            costs[name] = repro.evaluate_report(report, context).normalized_cost
        assert all(c < 2.0 for c in costs.values()), costs

    def test_quantization_reduces_bits_without_hurting_quality(self, neurips_like_small):
        """Headline claim (iii): joint DR/CR/QT reduces communication further
        without compromising solution quality."""
        points, _ = neurips_like_small
        context = repro.EvaluationContext.build(points, k=2, n_init=5, seed=0)
        plain = repro.create_pipeline("jl-fss", k=2, seed=4, coreset_size=150).run(points)
        quantized = repro.create_pipeline(
            "jl-fss",
            k=2, seed=4, coreset_size=150, quantizer=repro.RoundingQuantizer(10)
        ).run(points)
        plain_eval = repro.evaluate_report(plain, context)
        quant_eval = repro.evaluate_report(quantized, context)
        assert quant_eval.communication_bits < plain_eval.communication_bits
        assert quant_eval.normalized_cost <= plain_eval.normalized_cost * 1.25


class TestMultiSourceEndToEnd:
    def test_jl_bklw_vs_bklw(self, neurips_like_small):
        """Headline claim (ii)/Fig. 2: Algorithm 4 matches BKLW's quality at a
        lower communication cost for high-dimensional data."""
        points, _ = neurips_like_small
        context = repro.EvaluationContext.build(points, k=2, n_init=5, seed=0)
        kwargs = dict(k=2, seed=5, total_samples=120, pca_rank=10)
        bklw = repro.create_pipeline("bklw", **kwargs).run_on_dataset(points, 5, partition_seed=9)
        alg4 = repro.create_pipeline("jl-bklw", jl_dimension=150, **kwargs).run_on_dataset(
            points, 5, partition_seed=9
        )
        bklw_eval = repro.evaluate_report(bklw, context)
        alg4_eval = repro.evaluate_report(alg4, context)
        assert alg4_eval.communication_scalars < bklw_eval.communication_scalars
        assert alg4_eval.normalized_cost <= bklw_eval.normalized_cost * 1.5

    def test_experiment_runner_full_cycle(self, mnist_like_small):
        points, _ = mnist_like_small
        runner = ExperimentRunner(points, k=2, monte_carlo_runs=2, seed=0, reference_n_init=3)
        single = runner.run_single_source({
            "FSS": lambda s: repro.create_pipeline("fss", k=2, seed=s, coreset_size=120),
            "JL+FSS": lambda s: repro.create_pipeline("jl-fss", k=2, seed=s, coreset_size=120),
        })
        multi = runner.run_multi_source({
            "BKLW": lambda s: repro.create_pipeline("bklw", k=2, seed=s, total_samples=80, pca_rank=8),
        }, num_sources=4)
        summary = single.summary()
        assert set(summary) == {"FSS", "JL+FSS"}
        assert all(s.runs == 2 for s in summary.values())
        assert multi.summary()["BKLW"].mean_normalized_cost < 2.5


class TestConfigurationIntegration:
    def test_configured_quantizer_respects_error_bound_empirically(self, mnist_like_small):
        """Section 6.3: pick the cheapest configuration for a given error
        budget, then verify the empirical error stays within (a generous
        multiple of) that budget."""
        points, _ = mnist_like_small
        n, d = points.shape
        lower_bound = repro.configure_joint_reduction.__module__  # silence linters
        E = max(1e-9, repro.EvaluationContext.build(points, k=2, n_init=3, seed=0).reference_cost / 20)
        max_norm = float(np.max(np.linalg.norm(points, axis=1)))
        diameter = 2.0 * max_norm
        config = repro.configure_joint_reduction(
            n=n, d=d, k=2, error_bound=2.0,
            optimal_cost_lower_bound=E, max_norm=max_norm, diameter=diameter,
            use_paper_constants=False, coreset_cardinality=200, coreset_dimension=40,
        )
        context = repro.EvaluationContext.build(points, k=2, n_init=5, seed=0)
        pipeline = repro.create_pipeline(
            "jl-fss-jl",
            k=2, seed=6, coreset_size=200,
            quantizer=repro.RoundingQuantizer(config.significant_bits),
        )
        evaluation = repro.evaluate_report(pipeline.run(points), context)
        # The theoretical bound is loose; empirically the configured pipeline
        # should stay well inside a generous multiple of the budget.
        assert evaluation.normalized_cost <= 2.0 * 1.5
