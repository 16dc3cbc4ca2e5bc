"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-flat --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` measures the per-layer metrics from traced runs.  Human-readable
lines (provenance, then each metric with its unit and sample count) precede
the result, which is the last line: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def declared_metrics(trace: bool):
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when not readable."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git(*args: str):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit or "unknown",
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, in this process and every child it starts: on a host
    # with two cores shared with other load, two-thread BLAS ran the same
    # paper-oneshot run at anywhere from 2.1k to 4.7k points/s, and its
    # idle spinning threads slowed the serve daemon unevenly.  The engines
    # default to jobs=1, so this matches one core per engine.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    # A terminated run still unwinds, so the serve daemon it started stops.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    outcome = workloads.measure(args.workload, args.seed, args.seconds, trace)

    print("provenance: " + json.dumps(provenance(args.workload, args.seed, args.seconds, trace)))
    for key, note in outcome.notes.items():
        print(f"note: {key}: {note}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in outcome.metrics:
            if trace:
                # A layer this workload never enters reads zero.
                outcome.put(name, 0.0, 0)
            else:
                outcome.failures.append(f"end-to-end metric {name} was not measured")
                continue
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric: {name} = {value:.6g} {unit} (n={outcome.samples[name]})")
    for problem in outcome.failures:
        print(f"check failed: {problem}")
    # One failed check fails at most one operation.
    attempted = max(outcome.attempted, 1)
    failed = min(len(outcome.failures), attempted)
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    correct = not outcome.failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
