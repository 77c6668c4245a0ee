"""The ``chaos-sweep`` workload: the in-process chaos harness.

Each session is one ``run_chaos(pipeline, 1, seed=s)`` call with the
data phase on, so the per-round ARQ probing loop, fault and adversary
injection, ``establish_key``'s fallbacks and the rekeying
``ManagedSecureLink`` do the work.

A chaos session's cost is dominated by its random plans.  Under the
EU868 1% duty cycle every retry backs off ~99 airtimes, the vehicles
drive on and the channel model keeps extending its shadowing grid, so a
lossy EU868 session costs 4-13 s against ~0.3 s for most others, and
doubles the sweep's peak memory.  Drawn freely, one or two of them
decide a run's throughput; even one per block made the sweep swing with
the host's memory speed (IQR/median of throughput 0.41 over ten runs of
identical sessions, against 0.10 for ``keys-r256`` interleaved with
them).  So
the sessions come from a *stratified catalogue* without the EU868 plan:
a block holds one session from every cell of (regional plan, ARQ retry
budget), and the EU433 10% duty cycle keeps the duty-cycled ARQ path
measured.

A mix drawn afresh per seed also varies by its composition (IQR/median
0.16 on throughput, 0.34 on p50 latency over five seeds), and even a
seed-chosen *order* of the same sessions moved the per-session p50 and
tail by 0.12 and 0.23 while throughput held at 0.05.  So the catalogue and
its order are fixed, drawn once from :data:`CATALOGUE_SEED`; the
workload seed does not change this workload's inputs, and two commits
run the same sessions.

A run repeats catalogue block 0 until its time is up, runs the
reference kernel between sessions, and counts each session at the
median of its repeats (:func:`figures`).
"""

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults import chaos

import common

#: (duty cycle of the regional plan or None, ARQ max_retries) cells.
CELLS: Tuple[Tuple[Optional[float], int], ...] = tuple(
    (duty, retries) for duty in (None, 1.0, 0.1) for retries in range(5)
)
#: Seed the session catalogue is drawn from.
CATALOGUE_SEED = 0
#: Block index the warm-up session is drawn from (never a timed block).
WARMUP_BLOCK = 1_000_000


def plan_cell(sweep_seed: int) -> Tuple[Optional[float], int]:
    """The cell of the session ``run_chaos(..., 1, seed=sweep_seed)`` runs.

    Draws the plans exactly as ``run_chaos`` does for session 0.
    """
    rng = np.random.default_rng([sweep_seed, 0])
    chaos.random_fault_plan(rng)
    chaos.random_adversary_plan(rng)
    policy = chaos.random_retry_policy(rng)
    plan = policy.regional_plan
    return (plan.duty_cycle if plan is not None else None, policy.max_retries)


def block_cells(block: int) -> Dict[Tuple[Optional[float], int], int]:
    """One sweep seed per cell of catalogue block ``block``."""
    rng = np.random.default_rng([CATALOGUE_SEED, block, 0xC4A05])
    chosen: Dict[Tuple[Optional[float], int], int] = {}
    while len(chosen) < len(CELLS):
        candidate = int(rng.integers(0, 2**31 - 1))
        cell = plan_cell(candidate)
        if cell in CELLS and cell not in chosen:
            chosen[cell] = candidate
    return chosen


def block_seeds(block: int) -> List[int]:
    """A catalogue block's sweep seeds, in the catalogue's order."""
    cells = block_cells(block)
    order = np.random.default_rng([CATALOGUE_SEED, block, 0x0DE4]).permutation(len(CELLS))
    return [cells[CELLS[index]] for index in order]


def warmup_seed() -> int:
    """A cheap session (unrestricted plan, no retries) outside every block."""
    return block_cells(WARMUP_BLOCK)[(1.0, 0)]


def sweep(pipeline, seconds: float, tamper: bool = False):
    """Repeat catalogue block 0 until ``seconds`` pass (at least once).

    Returns ``(rows, start, end)``; each row holds the sweep seed, the
    session's wall time and its :class:`ChaosReport`.
    """
    seeds = block_seeds(0)
    rows = []
    start = time.monotonic()
    ref_before = common.reference_cpu_s()
    while not rows or time.monotonic() < start + seconds:
        for sweep_seed in seeds:
            began, cpu0 = time.monotonic(), time.process_time()
            report = chaos.run_chaos(pipeline, 1, seed=sweep_seed)
            wall, cpu = time.monotonic() - began, time.process_time() - cpu0
            ref_after = common.reference_cpu_s()
            ref_cpu_s = (ref_before + ref_after) / 2.0
            rows.append({
                "seed": sweep_seed,
                "wall_s": wall,
                "cost_ms": common.nominal_ms(cpu, ref_cpu_s),
                "ref_cpu_s": ref_cpu_s,
                "report": report,
            })
            ref_before = ref_after
    if tamper and rows:
        rows[0]["report"].violations.append(
            chaos.ChaosViolation("uncaught-exception", 0, rows[0]["seed"], "tampered by the negative check")
        )
    return rows, start, time.monotonic()


def figures(rows) -> Tuple[float, float, float]:
    """``(nominal CPU ms per session, sessions per second, p50 session ms)``.

    Each session of the block counts at the median of its repeats' cost
    (CPU time in nominal milliseconds, :func:`common.nominal_ms`) and
    wall time.  The cost is the mean over the block's sessions; the
    throughput is the session count over the sum of their wall times.
    """
    costs: Dict[int, List[float]] = {}
    walls: Dict[int, List[float]] = {}
    for row in rows:
        costs.setdefault(row["seed"], []).append(row["cost_ms"])
        walls.setdefault(row["seed"], []).append(row["wall_s"])
    cost = [common.median(values) for values in costs.values()]
    wall = [common.median(values) for values in walls.values()]
    return sum(cost) / len(cost), len(wall) / sum(wall), 1e3 * common.median(wall)
