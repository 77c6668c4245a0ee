"""Shared pieces of the benchmark: paths, set-up, statistics, layer tables."""

import gc
import hashlib
import hmac
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from typing import Dict, Sequence, Tuple

#: The checkout the benchmark runs in, and the package source it builds on.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for pickled pipelines, journals and trace output.
WORK = os.path.join(ROOT, ".perfbench_work")
#: CPUs this process may run on; the load generator never opens more
#: connections than this at once.
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread per process (inherited by the server child).  The
# models are tiny, so a second OpenBLAS thread only spins: it doubled the
# CPU time of training at the same wall time and competes with the other
# process for the host's two cores.  Set before anything imports numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

#: Percentile ladder the tail metric steps down until at least
#: ``TAIL_MIN_BEYOND`` samples lie beyond the chosen percentile.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 70.0, 60.0, 50.0)
TAIL_MIN_BEYOND = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: CPU milliseconds the reference kernel takes on the nominal host.  The
#: gated times are CPU time divided by the reference kernel's CPU time
#: measured next to it, times this constant (see :func:`nominal_ms`).
REF_NOMINAL_MS = 25.0


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _source_digest() -> str:
    """A digest of the package source, naming the trained-pipeline file."""
    digest = hashlib.sha256()
    for folder, subfolders, files in os.walk(os.path.join(SRC, "repro")):
        subfolders.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def pipeline_path() -> str:
    """The pickled chaos-sized pipeline every workload serves.

    The benchmark's build step: the first run in a checkout trains
    ``build_chaos_pipeline()`` (seeded, so every build gives the same
    model; ~10 s) and pickles it under :data:`WORK`, named by a digest of
    the package source.  Later runs load it, so their set-up is the
    served system's own: loading a trained model, starting the server
    with journal recovery, warming up.
    """
    path = os.path.join(WORK, f"pipeline-{_source_digest()}.pkl")
    if not os.path.exists(path):
        from repro.faults.chaos import build_chaos_pipeline

        started = time.monotonic()
        pipeline = build_chaos_pipeline()
        print(f"built the chaos pipeline in {time.monotonic() - started:.2f} s")
        os.makedirs(WORK, exist_ok=True)
        partial = f"{path}.{os.getpid()}.partial"
        with open(partial, "wb") as handle:
            pickle.dump(pipeline, handle)
        os.replace(partial, path)
    return path


def load_pipeline(path: str) -> Tuple[object, float]:
    """Unpickle a built pipeline; returns it and the seconds it took."""
    started = time.monotonic()
    with open(path, "rb") as handle:
        pipeline = pickle.load(handle)
    return pipeline, time.monotonic() - started


_REF_DATA: Dict[str, object] = {}


def _reference_work() -> None:
    """Fixed work of the kinds the package does, owned by the benchmark.

    Dict and string churn, a sort with a Python key, numpy trig and
    cumulative sums on a 256 KiB vector, tiny matrix products, HMAC-SHA256
    and JSON round trips.  Nothing of the package runs here, so a change
    to the package never moves the reference.
    """
    import numpy as np

    keys = _REF_DATA["keys"]
    for _ in range(5):
        table = {key: index * 0.5 for index, key in enumerate(keys)}
        sorted(keys[::2], key=lambda key: table[key] % 7.0)
    vector = _REF_DATA["vector"]
    for _ in range(10):
        vector = np.cos(vector * 1.0001) + np.sin(vector)
        np.cumsum(vector)
    rows = _REF_DATA["rows"]
    for _ in range(120):
        rows = np.tanh(rows @ _REF_DATA["weights"])
    for index in range(120):
        hmac.new(b"reference-key", index.to_bytes(4, "big") * 16, hashlib.sha256).digest()
    for _ in range(60):
        json.loads(json.dumps(_REF_DATA["doc"]))


def reference_cpu_s() -> float:
    """CPU seconds this thread spends on one run of the reference kernel."""
    if not _REF_DATA:
        import numpy as np

        rng = np.random.default_rng(0)
        _REF_DATA.update(
            keys=[f"k{i}" for i in range(4000)],
            vector=rng.standard_normal(32768),
            rows=rng.standard_normal((16, 64)),
            weights=rng.standard_normal((64, 64)) * 0.1,
            doc={"type": "secure", "record": bytes(range(256)).hex() * 2},
        )
        _reference_work()  # untimed: the first run pays for lazy imports
    # Without the collector: a collection would walk the calling
    # process's whole heap, which differs between the processes.
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        _reference_work()
        return time.thread_time() - began
    finally:
        if collecting:
            gc.enable()


def nominal_ms(cpu_s: float, ref_cpu_s: float) -> float:
    """``cpu_s`` in CPU milliseconds of the nominal host.

    CPU time leaves out the time the hypervisor runs other guests on this
    vCPU (steal), and dividing by the reference kernel's CPU time in the
    same process leaves out how fast the host's cores run at the time.
    On the shared 2-vCPU host both moved a run's wall times by 25-130%
    from hour to hour, and core speed swung by up to 2x from second to
    second.  Callers pass the mean of the kernel runs just before and
    just after the measured stretch.  Over six chaos runs whose CPU time
    spread 0.25 (IQR/median), CPU time scaled this way spread 0.03;
    scaled by the run's median kernel time it spread 0.14, and scaled by
    pure-Python or numpy-only kernels 0.05-0.09.
    """
    return cpu_s / ref_cpu_s * REF_NOMINAL_MS if ref_cpu_s > 0 else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float], preferred: float) -> Tuple[float, float]:
    """``(percentile, value)``: ``preferred``, lowered until >= 10 samples lie beyond."""
    n = len(values)
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, percentile(values, pct)
    raise ValueError("empty ladder")


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def wall_throughput(blocks: Sequence[Dict[str, float]]) -> float:
    """Operations per wall second over a run's blocks."""
    wall = sum(block["wall_s"] for block in blocks)
    return sum(block["ops"] for block in blocks) / wall if wall > 0 else 0.0


class Connections:
    """Counts the load generator's open connections and their peak."""

    def __init__(self) -> None:
        self.open = 0
        self.peak = 0

    def opened(self) -> None:
        self.open += 1
        self.peak = max(self.peak, self.open)

    def closed(self) -> None:
        self.open -= 1

    async def connect(self, client) -> None:
        await client.connect()
        self.opened()

    async def close(self, client) -> None:
        await client.close()
        self.closed()


def layer_table(
    totals: Dict[str, Dict[str, float]], wall_s: float, ops: int
) -> Dict[str, Dict[str, float]]:
    """Per-layer table over one traced window of one process.

    For each layer: ``calls``, ``self_ms`` and ``total_ms`` summed over
    the window, ``self_ms_per_op``/``total_ms_per_op`` per operation
    (session or record), ``us_per_call`` and ``self_share`` of the
    window's wall time.
    """
    table = {}
    for layer, entry in totals.items():
        calls = entry["calls"]
        table[layer] = {
            "calls": calls,
            "self_ms": entry["self_s"] * 1e3,
            "total_ms": entry["total_s"] * 1e3,
            "self_ms_per_op": entry["self_s"] * 1e3 / max(ops, 1),
            "total_ms_per_op": entry["total_s"] * 1e3 / max(ops, 1),
            "us_per_call": entry["total_s"] * 1e6 / calls if calls else 0.0,
            "self_share": entry["self_s"] / wall_s if wall_s > 0 else 0.0,
        }
    return table


def layer_metrics(table: Dict[str, Dict[str, float]], ops: int) -> Dict[str, float]:
    """The ``<layer>.self_share`` and ``<layer>.calls_per_op`` metrics."""
    metrics = {}
    for layer, row in table.items():
        metrics[f"{layer}.self_share"] = row["self_share"]
        metrics[f"{layer}.calls_per_op"] = row["calls"] / max(ops, 1)
    return metrics
