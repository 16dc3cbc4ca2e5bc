"""The four benchmark workloads.

Every workload drives the system only through its public entry points:
registry names (``create_pipeline``), :class:`StreamingEngine`, the
``python -m repro serve`` CLI and :class:`ServeClient`.  Inputs are made
from the seed before any timing starts; the program sees only them.

Each workload returns an :class:`Outcome`: end-to-end metrics from untraced
runs (``trace=False``) or per-layer metrics from a traced run preceded by an
untraced twin of the same seed (``trace=True``).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

perf = time.perf_counter


# ---------------------------------------------------------------- results
@dataclass
class Outcome:
    """What one invocation measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Samples behind each metric (1 for counts and single readings).
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Human-readable context printed beside the metrics.
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(samples)


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the maximum when that percentile would fall
    below the median (fewer than 20 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def kmeans_cost(points: np.ndarray, centers: np.ndarray) -> float:
    """Sum of squared distances to the nearest center, in row chunks."""
    total = 0.0
    sq_centers = (centers ** 2).sum(axis=1)
    for lo in range(0, len(points), 4096):
        chunk = points[lo:lo + 4096]
        d2 = (chunk ** 2).sum(axis=1)[:, None] - 2.0 * chunk @ centers.T + sq_centers
        total += float(np.maximum(d2.min(axis=1), 0.0).sum())
    return total


def reference_cost(points: np.ndarray, k: int, seed: int, restarts: int = 3,
                   iterations: int = 50) -> float:
    """Benchmark-side k-means++ + Lloyd on the full input (independent of
    the program's own solver)."""
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        centers = [points[rng.integers(len(points))]]
        for _ in range(1, k):
            d2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
            centers.append(points[rng.choice(len(points), p=d2 / d2.sum())])
        centers = np.array(centers)
        for _ in range(iterations):
            d2 = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            moved = np.array([
                points[labels == j].mean(axis=0) if np.any(labels == j) else centers[j]
                for j in range(k)
            ])
            if np.allclose(moved, centers):
                break
            centers = moved
        best = min(best, kmeans_cost(points, centers))
    return best


def check_centers(centers: np.ndarray, k: int, d: int, cost_ratio: float,
                  bound: float, label: str) -> List[str]:
    problems = []
    if centers.shape != (k, d):
        problems.append(f"{label}: centers have shape {centers.shape}, expected {(k, d)}")
    if not np.all(np.isfinite(centers)):
        problems.append(f"{label}: centers are not finite")
    if not cost_ratio <= bound:
        problems.append(f"{label}: normalized cost {cost_ratio:.4f} exceeds {bound}")
    return problems


# ------------------------------------------------------------ memory/setup
def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark of this process, so
    input generation does not mask the workload's own peak."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def inprocess_setup_seconds(constructions: List[Tuple[str, dict]], repeats: int = 5) -> List[float]:
    """Imports plus engine construction, timed inside fresh interpreters
    (the in-process workloads pay them once per process)."""
    code = "\n".join(
        ["import time", "start = time.perf_counter()",
         "from repro.core.registry import create_pipeline"]
        + [f"create_pipeline({name!r}, **{kwargs!r})" for name, kwargs in constructions]
        + ["print(time.perf_counter() - start)"]
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ----------------------------------------------------------- in-process
@dataclass
class RunRecord:
    """One execution of an in-process workload's unit of work."""

    wall: float
    points: int
    latencies: List[float]
    centers: List[np.ndarray]
    bits: int
    retransmissions: int
    comm_ratio: float
    cost_ratio: float


class InProcessWorkload:
    """Base of the three in-process workloads."""

    name = ""
    cost_bound = 0.0
    #: Operations (for ``failed_frac``) in one :meth:`run_once`.
    operations_per_run = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def constructions(self) -> List[Tuple[str, dict]]:
        raise NotImplementedError

    def run_once(self) -> RunRecord:
        raise NotImplementedError

    def check(self, record: RunRecord) -> List[str]:
        raise NotImplementedError


def measure_inprocess(workload: InProcessWorkload, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = inprocess_setup_seconds(workload.constructions())
    first: Optional[RunRecord] = None

    def attempt(record: RunRecord, label: str) -> None:
        nonlocal first
        outcome.attempted += workload.operations_per_run
        problems = workload.check(record)
        if first is None:
            first = record
        elif (record.bits != first.bits or len(record.centers) != len(first.centers)
              or any(not np.array_equal(a, b) for a, b in zip(record.centers, first.centers))):
            problems.append(f"{label}: centers or uplink bits differ from the first run of this seed")
        outcome.failures.extend(problems)

    if not trace:
        reset_peak_rss()
        records: List[RunRecord] = []
        deadline = perf() + seconds
        while not records or perf() < deadline:
            record = workload.run_once()
            attempt(record, f"run {len(records)}")
            records.append(record)
        rss = peak_rss_mb()
        latencies = [x for r in records for x in r.latencies]
        rates = [r.points / r.wall for r in records]
        outcome.put("setup_s", statistics.median(setups), len(setups))
        outcome.put("points_per_s", statistics.median(rates), len(rates))
        outcome.put("latency_p50_ms", 1e3 * statistics.median(latencies), len(latencies))
        outcome.put("normalized_comm", statistics.median(r.comm_ratio for r in records), len(records))
        outcome.put("normalized_cost", statistics.median(r.cost_ratio for r in records), len(records))
        outcome.put("peak_rss_mb", rss, 1)
        value, pct = tail(latencies)
        outcome.notes["latency_tail_ms"] = f"{1e3 * value:.3f} at p{pct:.1f} of {len(latencies)}"
        outcome.notes["runs"] = len(records)
        return outcome

    # Traced: alternate untraced and traced runs of the same seed, so the
    # overhead compares like with like and the outputs can be compared.
    untraced: List[float] = []
    traced: List[float] = []
    recorder = tracing.Recorder()
    deadline = perf() + seconds
    last: Optional[RunRecord] = None
    while not traced or perf() < deadline:
        record = workload.run_once()
        attempt(record, f"untraced run {len(untraced)}")
        untraced.append(record.wall)
        patches = tracing.install(recorder)
        try:
            last = workload.run_once()
        finally:
            tracing.uninstall(patches)
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            outcome.failures.append(f"tracing wrappers left installed: {leftovers}")
        attempt(last, f"traced run {len(traced)}")
        traced.append(last.wall)
    runs = len(traced)
    layers = {key: value / runs for key, value in recorder.layer_metrics().items()}
    layers.update(recorder.gauges)
    layers["distributed.uplink_bits"] = float(last.bits)
    layers["distributed.retransmissions"] = float(last.retransmissions)
    layers["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers["bench.untraced_s"] = sum(traced) / runs - recorder.covered_seconds() / runs
    layers["bench.traced_wall_s"] = sum(traced) / runs
    put_layers(outcome, layers, runs)
    return outcome


def put_layers(outcome: Outcome, layers: Dict[str, float], runs: int) -> None:
    folds = layers.get("streaming.fold.calls", 0.0)
    layers["streaming.fold.applied_ratio"] = (
        layers.get("streaming.fold.applied", 0.0) / folds if folds else 0.0
    )
    for name, value in layers.items():
        outcome.put(name, value, runs)


# Stream workloads: the settings of benchmarks/test_source_scaling.py
# (stream-fss, 32-point batches, d = 8, k = 4, 64-point coresets, a query
# every step, the lossless metered link), at a source count whose run fits
# several times in one measurement window.
STREAM_SOURCES = 256
STREAM_BATCHES = 3
STREAM_BATCH = 32
STREAM_D = 8
STREAM_K = 4
STREAM_FAN_IN = 32


def metered_network():
    from repro.core.registry import NetworkCondition
    from repro.distributed.conditions import LinkModel

    return NetworkCondition(
        name="metered",
        default_link=LinkModel(loss=0.0, latency_seconds=0.005,
                               bandwidth_bits_per_second=50e6),
    )


def stream_kwargs(seed: int) -> dict:
    return dict(k=STREAM_K, coreset_size=64, batch_size=STREAM_BATCH,
                query_every=1, server_n_init=3, server_max_iterations=25,
                seed=seed)


class StreamWorkload(InProcessWorkload):
    """``stream-fss`` over many tiny per-source batches, star or tree."""

    cost_bound = 1.5

    def __init__(self, seed: int, tree: bool) -> None:
        super().__init__(seed)
        from repro.datasets import make_gaussian_mixture

        self.tree = tree
        self.name = "stream-tree" if tree else "stream-flat"
        n = STREAM_SOURCES * STREAM_BATCHES * STREAM_BATCH
        self.points, _, true_centers = make_gaussian_mixture(
            n=n, d=STREAM_D, k=STREAM_K, separation=6.0, seed=self.seed
        )
        self.shards = np.array_split(self.points, STREAM_SOURCES)
        self.reference = kmeans_cost(self.points, true_centers)

    def engine_kwargs(self) -> dict:
        kwargs = stream_kwargs(self.seed)
        if self.tree:
            kwargs.update(topology="tree", fan_in=STREAM_FAN_IN)
        return kwargs

    def constructions(self):
        return [("stream-fss", self.engine_kwargs())]

    def run_once(self) -> RunRecord:
        from repro.core.registry import create_pipeline

        engine = create_pipeline("stream-fss", network=metered_network(),
                                 **self.engine_kwargs())
        # Every step pulls each source's next batch, source 0 first, and
        # answers a query: the gap between source 0's pulls is one step.
        pulls: List[float] = []

        def stream(shard: np.ndarray, clock: bool):
            for lo in range(0, len(shard), STREAM_BATCH):
                if clock:
                    pulls.append(perf())
                yield shard[lo:lo + STREAM_BATCH]

        start = perf()
        report = engine.run_streams(
            [stream(shard, i == 0) for i, shard in enumerate(self.shards)]
        )
        end = perf()
        bounds = pulls + [end]
        return RunRecord(
            wall=end - start,
            points=len(self.points),
            latencies=[b - a for a, b in zip(bounds, bounds[1:])],
            centers=[np.asarray(report.centers)],
            bits=int(report.communication_bits),
            retransmissions=int(report.retransmissions),
            comm_ratio=report.communication_bits / (64.0 * self.points.size),
            cost_ratio=kmeans_cost(self.points, report.centers) / self.reference,
        )

    def check(self, record: RunRecord) -> List[str]:
        return check_centers(record.centers[0], STREAM_K, STREAM_D,
                             record.cost_ratio, self.cost_bound, self.name)


# Paper one-shot evaluation: the MNIST-like set at the paper's d = 784 and
# the Section 7 settings (k = 2, 300-point coresets, PCA rank 64, JL to d/2,
# second JL to 64, 10 sources and 300 samples for the BKLW family).
ONESHOT_N = 2000
ONESHOT_D = 784
ONESHOT_K = 2
ONESHOT_SOURCES = 10
_SINGLE = dict(coreset_size=300, pca_rank=64)
ONESHOT_COMPOSITIONS: Tuple[Tuple[str, dict], ...] = (
    ("fss", dict(_SINGLE)),
    ("jl-fss", dict(_SINGLE, jl_dimension=ONESHOT_D // 2)),
    ("fss-jl", dict(_SINGLE, jl_dimension=64)),
    ("jl-fss-jl", dict(_SINGLE, jl_dimension=ONESHOT_D // 2, second_jl_dimension=64)),
    ("jl-fss-qt", dict(_SINGLE, jl_dimension=ONESHOT_D // 2)),
    ("bklw", dict(total_samples=300, pca_rank=20)),
    ("jl-bklw", dict(total_samples=300, pca_rank=20, jl_dimension=ONESHOT_D // 2)),
)


class OneShotWorkload(InProcessWorkload):
    """Every paper composition once over the whole MNIST-like set."""

    name = "paper-oneshot"
    cost_bound = 1.5
    operations_per_run = len(ONESHOT_COMPOSITIONS)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.datasets import make_mnist_like

        self.points, _ = make_mnist_like(n=ONESHOT_N, d=ONESHOT_D, seed=self.seed)
        self.reference = reference_cost(self.points, ONESHOT_K, self.seed)

    def constructions(self):
        return [(name, dict(kwargs, k=ONESHOT_K, seed=self.seed))
                for name, kwargs in ONESHOT_COMPOSITIONS]

    def run_once(self) -> RunRecord:
        from repro.core.registry import create_pipeline, is_multi_source

        latencies, centers, costs, comms = [], [], [], []
        bits = retransmissions = 0
        for name, kwargs in self.constructions():
            pipeline = create_pipeline(name, **kwargs)
            start = perf()
            if is_multi_source(name):
                report = pipeline.run_on_dataset(
                    self.points, ONESHOT_SOURCES, partition_seed=self.seed
                )
            else:
                report = pipeline.run(self.points)
            latencies.append(perf() - start)
            centers.append(np.asarray(report.centers))
            costs.append(kmeans_cost(self.points, report.centers) / self.reference)
            comms.append(report.communication_bits / (64.0 * self.points.size))
            bits += int(report.communication_bits)
            retransmissions += int(report.retransmissions)
        return RunRecord(
            wall=sum(latencies),
            points=len(self.points) * len(latencies),
            latencies=latencies,
            centers=centers,
            bits=bits,
            retransmissions=retransmissions,
            comm_ratio=float(np.mean(comms)),
            cost_ratio=max(costs),
        )

    def check(self, record: RunRecord) -> List[str]:
        problems = []
        for (name, _), centers in zip(ONESHOT_COMPOSITIONS, record.centers):
            cost = kmeans_cost(self.points, centers) / self.reference
            problems += check_centers(centers, ONESHOT_K, ONESHOT_D, cost,
                                      self.cost_bound, name)
        return problems


# ---------------------------------------------------------------- serve
SERVE_SOURCES = 24
SERVE_BATCHES = 32
SERVE_BATCH = 32
SERVE_D = 8
SERVE_K = 4
#: Open-loop fold rate (folds/s), below the sustainable rate of the
#: snapshot-every-fold daemon at this tenant size.
SERVE_RATE = 4.0
#: Query period on the second connection (s).
SERVE_QUERY_PERIOD = 1.0
#: Fold-ladder rates (folds/s) and the tail latency limit a rung must meet.
SERVE_LADDER = (4.0, 8.0, 16.0, 32.0)
SERVE_LIMIT_MS = 250.0
SERVE_RUNG_SECONDS = 3.0
#: Warm-up stagger (see :attr:`ServeWorkload.order`).
SERVE_STAGGER = 8
#: Closed-loop rounds (one fold from every source each) after the warm-up,
#: which is also sent closed-loop; a fixed count, so the open-loop phase
#: always starts from the same tenant state.
SERVE_CLOSED_ROUNDS = 2
#: Share of the measurement window spent in the open-loop phase.
SERVE_OPEN_SHARE = 0.8
SERVE_COST_BOUND = 1.5
SERVE_DAEMON_SEED = 11


class Daemon:
    """One ``python -m repro serve --snapshot`` subprocess."""

    def __init__(self, tag: str) -> None:
        from repro.serve.client import ServeClient

        WORK.mkdir(parents=True, exist_ok=True)
        stem = f"serve-{os.getpid()}-{tag}"
        self.snapshot = WORK / f"{stem}.json"
        self.log = WORK / f"{stem}.log"
        self.port_file = port_file = WORK / f"{stem}.port"
        for path in (self.snapshot, port_file):
            path.unlink(missing_ok=True)
        self.client = None
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--port-file", str(port_file), "--k", str(SERVE_K),
                 "--seed", str(SERVE_DAEMON_SEED), "--snapshot", str(self.snapshot)],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            deadline = perf() + 60
            text = ""
            while not text.endswith("\n"):
                if self.process.poll() is not None or perf() > deadline:
                    raise RuntimeError("repro serve did not start:\n"
                                       + self.log.read_text(errors="replace")[-2000:])
                time.sleep(0.005)
                text = port_file.read_text() if port_file.exists() else ""
            self.port = int(text)
            self.client = ServeClient("127.0.0.1", self.port, timeout=60.0)
            self.client.healthz()
        except BaseException:
            self.stop()
            raise

    def connect(self):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout=60.0)

    def stop(self) -> None:
        """Ask the daemon to shut down, make sure it has ended, and remove
        its files."""
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
        except (OSError, RuntimeError, ValueError):
            pass  # already gone or not answering: killed below
        finally:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
            if self.client is not None:
                self.client.close()
            tmp = self.snapshot.with_name(self.snapshot.name + ".tmp")
            for path in (self.snapshot, tmp, self.log, self.port_file):
                path.unlink(missing_ok=True)


class ServeWorkload:
    """One tenant of :data:`SERVE_SOURCES` sources behind a durable daemon."""

    name = "serve-durable"

    def __init__(self, seed: int) -> None:
        from repro.datasets import make_gaussian_mixture

        self.seed = int(seed)
        n = SERVE_SOURCES * SERVE_BATCHES * SERVE_BATCH
        points, _, self.true_centers = make_gaussian_mixture(
            n=n, d=SERVE_D, k=SERVE_K, separation=6.0, seed=self.seed
        )
        self.shards = np.array_split(points, SERVE_SOURCES)
        #: Delivery order: a staggered warm-up leaves source ``i`` holding
        #: ``1 + i % SERVE_STAGGER`` batches, so the sources sit at different
        #: points of their merge-and-reduce cascades; then round-robin.  The
        #: tenant's bucket count (and snapshot size) then stays nearly level
        #: while the measured phases run, instead of swinging in lockstep.
        warm = [1 + i % SERVE_STAGGER for i in range(SERVE_SOURCES)]
        self.order = [(b, i) for b in range(max(warm))
                      for i in range(SERVE_SOURCES) if b < warm[i]]
        self.warmup = len(self.order)
        self.order += [(warm[i] + r, i) for r in range(SERVE_BATCHES - max(warm))
                       for i in range(SERVE_SOURCES)]

    def source_ids(self) -> List[str]:
        return [f"source-{i}" for i in range(SERVE_SOURCES)]

    def generate(self) -> Tuple[Dict[Tuple[int, int], dict], Dict[Tuple[int, int], int]]:
        """Every source's wire updates and their metered uplink bits, made
        with the client half of a serve deployment (one engine per source,
        all from the same seed, as separate ``repro client`` processes do)."""
        from repro.core.registry import create_pipeline
        from repro.distributed.network import SimulatedNetwork
        from repro.serve import protocol

        updates, bits = {}, {}
        for i, source_id in enumerate(self.source_ids()):
            engine = create_pipeline("stream-fss", **stream_kwargs(self.seed))
            network = SimulatedNetwork()
            source = engine.standalone_source(source_id, (SERVE_BATCH, SERVE_D), network)
            for b in range(SERVE_BATCHES):
                before = network.uplink_bits()
                batch = self.shards[i][b * SERVE_BATCH:(b + 1) * SERVE_BATCH]
                updates[(b, i)] = protocol.encode_update(source.ingest(batch, b))
                bits[(b, i)] = network.uplink_bits() - before
        return updates, bits

    # ----------------------------------------------------------- phases
    def _fold_payload(self, key) -> dict:
        return {"op": "fold", "tenant": "default", "update": self.updates[key]}

    def closed_loop(self, client, folds: int) -> float:
        """``folds`` folds back to back on one connection; returns the
        seconds they took."""
        start = perf()
        for _ in range(folds):
            self.ack(client.call(self._fold_payload(self.order[self.sent])))
            self.sent += 1
        return perf() - start

    def ack(self, response: dict) -> None:
        self.requests += 1
        if not response.get("ok") or response.get("result") != "applied":
            self.failures.append(f"fold {self.sent} not applied: {response}")

    def open_loop(self, fold_client, query_client, rate: float, seconds: float) -> dict:
        """Folds due every ``1/rate`` s in order on one connection, queries
        due every :data:`SERVE_QUERY_PERIOD` s on another.  Latency counts
        from the due time, so a stall delays every later request."""
        start = perf()
        count = int(rate * seconds)
        stop = threading.Event()
        query_latencies: List[float] = []
        query_error: List[BaseException] = []

        def query_loop() -> None:
            j = 0
            try:
                while not stop.is_set():
                    due = start + 0.5 / rate + j * SERVE_QUERY_PERIOD
                    delay = due - perf()
                    if delay > 0 and stop.wait(delay):
                        break
                    response = query_client.call({"op": "query", "tenant": "default"},
                                                 idempotent=False)
                    query_latencies.append(perf() - due)
                    self.record_query(response)
                    j += 1
            except BaseException as exc:  # reported by the main thread
                query_error.append(exc)

        querier = threading.Thread(target=query_loop, daemon=True)
        querier.start()
        latencies, service, lags, backlogs = [], [], [], []
        try:
            for j in range(count):
                due = start + j / rate
                now = perf()
                if now < due:
                    time.sleep(due - now)
                    lags.append(perf() - due)
                sent = perf()
                self.ack(fold_client.call(self._fold_payload(self.order[self.sent])))
                self.sent += 1
                done = perf()
                latencies.append(done - due)
                service.append(done - sent)
                # Outstanding folds at this ack: due by now but not acked.
                backlogs.append(min(count, int((done - start) * rate) + 1) - (j + 1))
        finally:
            stop.set()
            querier.join(timeout=120)
        if query_error:
            raise query_error[0]
        return {
            "latencies": latencies,
            "service": service,
            "lags": lags,
            "queries": query_latencies,
            "backlogs": backlogs,
        }

    def record_query(self, response: dict) -> None:
        self.requests += 1
        if not response.get("ok"):
            self.failures.append(f"query rejected: {response}")
            return
        self.queries.append(int(response["updates_folded"]))
        self.last_centers = np.asarray(response["centers"], dtype=float)

    def replay(self) -> np.ndarray:
        """The daemon's fold/query sequence against an in-process
        :class:`StreamingServer` seeded like the tenant; returns the final
        query's centers."""
        from repro.serve import protocol
        from repro.streaming.server import StreamingServer
        from repro.utils.random import generator_for_name

        server = StreamingServer(
            k=SERVE_K, seed=generator_for_name(SERVE_DAEMON_SEED, "tenant::default")
        )
        for source_id in self.source_ids():
            server.register(source_id)
        folded = 0
        centers = None
        for target in self.queries:
            while folded < target:
                server.fold(protocol.decode_update(self.updates[self.order[folded]]))
                folded += 1
            centers = server.query()[0].centers
        return centers

    def tenant_metrics(self, client) -> dict:
        response = client.metrics()
        tenant = response["tenants"]["default"]
        return dict(tenant, snapshot_writes=response["snapshot_writes"])

    def measure(self, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        self.failures: List[str] = []
        self.updates, self.bits = self.generate()
        layers: Dict[str, float] = {}
        if trace:
            # The client half is the only in-process part: time a second,
            # warm generation, then trace a third and require it to match
            # the untraced one bit for bit.
            untraced_start = perf()
            self.generate()
            untraced_wall = perf() - untraced_start
            recorder = tracing.Recorder()
            patches = tracing.install(recorder)
            try:
                traced_start = perf()
                traced_updates, traced_bits = self.generate()
                traced_wall = perf() - traced_start
            finally:
                tracing.uninstall(patches)
            leftovers = tracing.leftover_wrappers()
            if leftovers:
                self.failures.append(f"tracing wrappers left installed: {leftovers}")
            if traced_updates != self.updates or traced_bits != self.bits:
                self.failures.append("traced and untraced update generation differ")
            layers.update(recorder.layer_metrics())
            layers["bench.trace_overhead_s"] = traced_wall - untraced_wall
            layers["bench.untraced_s"] = traced_wall - recorder.covered_seconds()
            layers["bench.traced_wall_s"] = traced_wall

        # Set-up: spawn until healthz answers, plus every registration.  Done
        # three times; the last daemon serves the measurement.
        setups: List[float] = []
        daemon = None
        try:
            for attempt in range(3):
                if daemon is not None:
                    daemon.stop()
                start = perf()
                daemon = Daemon(str(attempt))
                for source_id in self.source_ids():
                    response = daemon.client.call(
                        {"op": "register", "tenant": "default", "source_id": source_id})
                    if not response.get("ok"):
                        self.failures.append(f"register {source_id} refused: {response}")
                setups.append(perf() - start)
            self.sent = self.requests = 0
            self.queries: List[int] = []
            self.last_centers = None
            fold_client, query_client = daemon.connect(), daemon.connect()
            try:
                closed_folds = self.warmup + SERVE_CLOSED_ROUNDS * SERVE_SOURCES
                closed_seconds = self.closed_loop(fold_client, closed_folds)
                before = self.tenant_metrics(daemon.client)
                phase = self.open_loop(fold_client, query_client, SERVE_RATE,
                                       seconds * SERVE_OPEN_SHARE)
                after = self.tenant_metrics(daemon.client)
                ladder = []
                if trace:
                    for rate in SERVE_LADDER:
                        if self.sent + int(rate * SERVE_RUNG_SECONDS) > len(self.order):
                            break
                        rung = self.open_loop(fold_client, query_client, rate,
                                              SERVE_RUNG_SECONDS)
                        # A growing backlog ends the rung with more folds
                        # outstanding than it had halfway through.
                        backlogs = rung["backlogs"]
                        growing = backlogs[-1] > max(2, backlogs[len(backlogs) // 2])
                        ladder.append((rate, 1e3 * tail(rung["latencies"])[0], growing))
                final = query_client.call({"op": "query", "tenant": "default"}, idempotent=False)
                self.record_query(final)
                rss = peak_rss_mb(daemon.process.pid)
                snapshot_bytes = daemon.snapshot.stat().st_size
            finally:
                fold_client.close()
                query_client.close()
        finally:
            if daemon is not None:
                daemon.stop()

        delivered = self.order[:self.sent]
        points = np.concatenate([
            self.shards[i][b * SERVE_BATCH:(b + 1) * SERVE_BATCH] for b, i in delivered
        ])
        cost_ratio = kmeans_cost(points, self.last_centers) / kmeans_cost(points, self.true_centers)
        self.failures += check_centers(self.last_centers, SERVE_K, SERVE_D, cost_ratio,
                                       SERVE_COST_BOUND, self.name)
        replayed = self.replay()
        if replayed is None or not np.array_equal(replayed, self.last_centers):
            self.failures.append(
                "final query centers differ from an in-process StreamingServer "
                "given the same folds and queries")

        outcome.attempted = max(1, self.requests)
        outcome.failures = self.failures
        latencies = phase["latencies"]
        if not trace:
            outcome.put("setup_s", statistics.median(setups), len(setups))
            outcome.put("points_per_s", closed_folds * SERVE_BATCH / closed_seconds,
                        closed_folds)
            outcome.put("latency_p50_ms", 1e3 * statistics.median(latencies), len(latencies))
            outcome.put("normalized_comm",
                        sum(self.bits[key] for key in delivered) / (64.0 * points.size),
                        len(delivered))
            outcome.put("normalized_cost", cost_ratio, 1)
            outcome.put("peak_rss_mb", rss, 1)
        value, pct = tail(latencies)
        q_value, q_pct = tail(phase["queries"])
        folds_in_phase = after["folds"] - before["folds"]
        busy = after["fold_seconds"] - before["fold_seconds"]
        layers.update({
            "serve.fold_tail_ms": 1e3 * value,
            "serve.fold_tail_pct": pct,
            "serve.query_p50_ms": 1e3 * statistics.median(phase["queries"]),
            "serve.query_tail_ms": 1e3 * q_value,
            "serve.fold_busy_s": busy,
            "serve.query_busy_s": after["query_seconds"] - before["query_seconds"],
            "serve.snapshot_writes": after["snapshot_writes"] - before["snapshot_writes"],
            "serve.snapshot_bytes": snapshot_bytes,
            "serve.fold_wait_ms": 1e3 * (sum(phase["service"]) - busy) / max(1, folds_in_phase),
            "serve.backlog_max": max(phase["backlogs"]),
            "streaming.live_buckets": after["live_buckets"],
            "distributed.uplink_bits": sum(self.bits[key] for key in delivered),
            "bench.gen_lag_ms": 1e3 * tail(phase["lags"])[0] if phase["lags"] else 0.0,
        })
        if trace:
            passing = [rate for rate, tail_ms, growing in ladder
                       if tail_ms <= SERVE_LIMIT_MS and not growing]
            layers["serve.fold_rate_max"] = max(passing, default=0.0)
            put_layers(outcome, layers, 1)
            outcome.notes["ladder"] = [
                f"{rate:g}/s tail {tail_ms:.1f} ms{' backlog growing' if growing else ''}"
                for rate, tail_ms, growing in ladder]
        outcome.notes["fold_tail_ms"] = f"{1e3 * value:.3f} at p{pct:.1f} of {len(latencies)}"
        outcome.notes["query_latency_ms"] = (
            f"p50 {1e3 * statistics.median(phase['queries']):.3f}, "
            f"tail {1e3 * q_value:.3f} at p{q_pct:.1f} of {len(phase['queries'])}")
        return outcome


def build(workload: str, seed: int):
    if workload in ("stream-flat", "stream-tree"):
        return StreamWorkload(seed, tree=workload == "stream-tree")
    if workload == "paper-oneshot":
        return OneShotWorkload(seed)
    if workload == "serve-durable":
        return ServeWorkload(seed)
    raise ValueError(f"unknown workload {workload!r}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    target = build(workload, seed)
    if isinstance(target, ServeWorkload):
        return target.measure(seconds, trace)
    return measure_inprocess(target, seconds, trace)


WORKLOADS = ("stream-flat", "stream-tree", "paper-oneshot", "serve-durable")
