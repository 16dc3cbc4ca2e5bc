"""Smoke-size self-check of the benchmark.

Runs every workload tiny, untraced and traced, through ``run.main`` and
asserts that:

* the result line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and every correctness check passed;
* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* no tracing wrapper is left bound once a traced run has finished;
* on traced runs, the per-layer self times plus ``bench.untraced_s`` add up
  to the traced wall time;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

Usage, from the repository root (about a minute)::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def shrink() -> None:
    """Tiny inputs: every code path, a fraction of the work."""
    workloads.STREAM_SOURCES = 40
    workloads.ONESHOT_N = 600
    workloads.SERVE_SOURCES = 6
    workloads.SERVE_CLOSED_ROUNDS = 2
    workloads.SERVE_RUNG_SECONDS = 0.5


def run_one(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, f"{workload} trace={trace} exited {code}:\n" + "\n".join(lines[-8:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = run.declared_metrics(bool(trace))
    assert [m["name"] for m in declared] == list(result["metrics"]), (
        f"{workload}: emitted metrics differ from BENCHMARK.json")
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert isinstance(emitted["value"], float), emitted
    return result["metrics"]


def check_accounting(workload: str, metrics: dict) -> None:
    self_seconds = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    untraced = metrics["bench.untraced_s"]["value"]
    wall = metrics["bench.traced_wall_s"]["value"]
    assert wall > 0 and abs(self_seconds + untraced - wall) <= 1e-6 * max(1.0, wall), (
        f"{workload}: self times {self_seconds} + untraced {untraced} != wall {wall}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream-flat",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0, "the benchmark succeeded without the program"
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    shrink()
    layers = {}
    for workload in workloads.WORKLOADS:
        end_to_end = run_one(workload, 0)
        assert all(m["value"] != 0 for m in end_to_end.values()), end_to_end
        layers[workload] = run_one(workload, 1)
        leftovers = tracing.leftover_wrappers()
        assert not leftovers, f"tracing wrappers left after {workload}: {leftovers}"
        check_accounting(workload, layers[workload])
        print(f"ok: {workload}")
    # The tree layers run on stream-tree only; the flat star bypasses them.
    for name in ("topology.agg_fold.calls", "topology.agg_emit.calls"):
        assert layers["stream-flat"][name]["value"] == 0, name
        assert layers["stream-tree"][name]["value"] > 0, name
    check_bare_directory()
    print("ok: bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
