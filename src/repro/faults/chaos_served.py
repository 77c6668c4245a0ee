"""The served chaos sweeps: the seeded chaos mix against a live key server.

Both sweeps file on :class:`~repro.faults.chaos.ChaosReport` the
invariants :data:`~repro.faults.chaos.INVARIANTS` registers for them,
and share one behavior draw, one client classifier
(:func:`_classify_clients`) and one set of server knobs
(:func:`chaos_server_config`):

``server`` -- :func:`run_server_chaos` (``repro chaos --server``)
    A real :class:`~repro.server.server.KeyEstablishmentServer` on a
    loopback port against a seeded mix of honest and misbehaving clients
    (mid-phase disconnects, slow-loris frames, corrupt and oversized
    frames, duplicate session ids, overload bursts).
``restart`` -- :func:`run_restart_chaos` (``repro chaos --restart``)
    The server forked into a child armed with seeded
    :mod:`~repro.server.crashpoints`, SIGKILLed mid-sweep at the armed
    site and restarted against the same write-ahead journal while the
    clients reconnect and resume; the journal itself is the witness.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import VehicleKeyPipeline
from repro.core.statemachine import ABORT_RECOVERED
from repro.faults.chaos import INVARIANTS, ChaosReport, _check_outcome, _report_reuses
from repro.secure import NonceLedger
from repro.server.client import (
    ClientOutcome,
    DeviceClient,
    Endpoint,
    _run_secure_behavior,
    run_behavior,
)
from repro.server.crashpoints import CRASHPOINTS, SITES
from repro.server.journal import JOURNAL_FILENAME, replay_journal
from repro.server.registry import ModelRegistry
from repro.server.server import KeyEstablishmentServer, ServerConfig
from repro.utils.artifact import write_atomically
from repro.utils.validation import require_positive


#: Seeded behavior mix the server sweep draws from (weights sum to 1).
_BEHAVIOR_WEIGHTS = (
    ("normal", 0.27),
    ("ping-then-normal", 0.10),
    ("secure-echo", 0.10),
    ("secure-tamper", 0.05),
    ("normal-retry", 0.03),
    ("disconnect-after-hello", 0.08),
    ("disconnect-after-start", 0.08),
    ("slow-loris", 0.07),
    ("corrupt-frame", 0.07),
    ("oversized-frame", 0.05),
    ("unknown-frame", 0.05),
    ("silent", 0.05),
)

#: Probability a client claims the previous client's session id.
_DUPLICATE_ID_RATE = 0.05


def _draw_behavior(
    rng: np.random.Generator, mix: Sequence[Tuple[str, float]]
) -> str:
    """One seeded draw from a ``(behavior, weight)`` mix."""
    names = [name for name, _ in mix]
    weights = np.array([weight for _, weight in mix])
    return str(rng.choice(names, p=weights / weights.sum()))


def random_client_behavior(rng: np.random.Generator) -> str:
    """One seeded draw from the server sweep's behavior mix."""
    return _draw_behavior(rng, _BEHAVIOR_WEIGHTS)


#: Client behaviors that must always reach a structured verdict.
_HONEST_BEHAVIORS = (
    "normal",
    "normal-retry",
    "ping-then-normal",
    "secure-echo",
    "secure-tamper",
    "secure-data",
)


def _classify_clients(
    report: ChaosReport, outcomes: Sequence[ClientOutcome]
) -> None:
    """Tally served client outcomes and check the client-side invariants.

    Client ``i`` is session ``i`` of the report.  A
    ``payload-invariant:<name>`` detail is filed under ``<name>`` when
    the sweep checks it, else as ``shed-not-hang``; a rejection must
    carry a ``retry_after_s`` hint.  An honest client must end in a
    structured verdict: a miss is a ``tick-stall`` in the server sweep
    and ``shed-not-hang`` in the restart sweep, whose honest clients
    reconnect across crashes until a verdict arrives.  A misbehaving
    client may end in a clean close, and in a transport error only in
    the restart sweep, where a crash can cut its connection.
    """
    restart = report.sweep == "restart"
    for index, outcome in enumerate(outcomes):
        report.behaviors[outcome.behavior] = (
            report.behaviors.get(outcome.behavior, 0) + 1
        )
        report.client_kinds[outcome.kind] = (
            report.client_kinds.get(outcome.kind, 0) + 1
        )
        frame = outcome.frame or {}
        if outcome.detail.startswith("payload-invariant:"):
            name = outcome.detail.split(":", 1)[1]
            report.violate(
                name if report.sweep in INVARIANTS.get(name, ()) else "shed-not-hang",
                index,
                f"{outcome.behavior!r} client's payload check failed "
                f"({outcome.detail})",
            )
            continue
        if outcome.kind == "result":
            report.results += 1
            if frame.get("success"):
                report.successes += 1
                if outcome.behavior.startswith("secure-"):
                    report.secured_sessions += 1
            if frame.get("resumed"):
                report.resumed_results += 1
        elif outcome.kind == "abort":
            report.aborts += 1
            if frame.get("reason") == ABORT_RECOVERED:
                report.recovered_aborts += 1
        elif outcome.kind == "rejected":
            report.rejections += 1
            if "retry_after_s" not in frame:
                report.violate(
                    "shed-not-hang",
                    index,
                    f"{outcome.behavior!r} client was rejected without a "
                    "retry_after_s hint",
                )
        else:
            honest = outcome.behavior in _HONEST_BEHAVIORS
            if honest or (outcome.kind == "error" and not restart):
                report.violate(
                    "tick-stall" if honest and not restart else "shed-not-hang",
                    index,
                    f"{outcome.behavior!r} client ended with "
                    f"kind={outcome.kind!r} "
                    f"({outcome.detail or 'no terminal frame'})",
                )


def chaos_server_config(n_clients: int) -> ServerConfig:
    """Server knobs tuned so a sweep exercises every robustness path.

    Budgets are tight enough that silent and slow-loris peers are reaped
    within the sweep, and the ingress queue is small enough that a burst
    of honest clients actually triggers load shedding.
    """
    return ServerConfig(
        port=0,
        hello_timeout_s=1.0,
        idle_timeout_s=1.5,
        session_deadline_s=90.0,
        tick_interval_s=0.02,
        max_batch=16,
        queue_limit=max(8, min(16, n_clients)),
        max_sessions=max(64, 2 * n_clients),
        retry_after_s=0.5,
        reap_interval_s=0.25,
    )


def _check_drain(report: ChaosReport, still_active: int, degraded_seen: int) -> None:
    """The server sweep's post-drain checks.

    ``report.leaked_sessions`` and ``report.degraded_sessions`` hold the
    drain's leak count and the server metrics' degraded count;
    ``still_active`` is the server's registered-session count after the
    drain and ``degraded_seen`` the degraded outcomes the sweep's own
    observer counted.
    """
    if report.leaked_sessions > 0 or still_active > 0:
        report.violate(
            "session-leak-after-reap",
            -1,
            f"{max(report.leaked_sessions, still_active)} "
            "sessions still registered after the final drain",
        )
    if report.degraded_sessions != degraded_seen:
        report.violate(
            "silent-degraded-session",
            -1,
            f"observer saw {degraded_seen} degraded sessions "
            f"but server metrics counted {report.degraded_sessions}",
        )


async def _run_server_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int,
    n_rounds: Optional[int],
    config: Optional[ServerConfig],
) -> ChaosReport:
    """The async body of :func:`run_server_chaos`."""
    report = ChaosReport(sweep="server", n_sessions=n_clients, seed=seed)
    observed = {"index": 0, "degraded": 0}

    def on_outcome(session, outcome) -> None:
        """Re-check the key-release invariants on every served outcome."""
        index = observed["index"]
        observed["index"] = index + 1
        if outcome.degraded_mode is not None:
            observed["degraded"] += 1
        _check_outcome(report, outcome, index)

    ledger = NonceLedger()
    server = KeyEstablishmentServer(
        ModelRegistry(pipeline),
        config if config is not None else chaos_server_config(n_clients),
        on_outcome=on_outcome,
        nonce_ledger=ledger,
    )
    await server.start()
    endpoint = Endpoint(port=server.bound_port)

    async def one_client(index: int) -> ClientOutcome:
        """Client ``index``'s seeded behavior draw and execution."""
        rng = np.random.default_rng([seed, index])
        await asyncio.sleep(float(rng.uniform(0.0, 0.5)))
        behavior = random_client_behavior(rng)
        if index > 0 and rng.random() < _DUPLICATE_ID_RATE:
            session_id = f"dev-{seed}-{index - 1}"
        else:
            session_id = f"dev-{seed}-{index}"
        return await run_behavior(
            endpoint,
            behavior,
            session_id,
            episode=f"serve-chaos-{seed}-{index}",
            rounds=n_rounds,
            timeout_s=60.0,
        )

    try:
        outcomes = await asyncio.gather(
            *(one_client(index) for index in range(n_clients))
        )
    finally:
        drain = await server.drain()

    report.drain_delivered = drain.delivered
    report.drain_aborted = drain.aborted_draining
    report.leaked_sessions = drain.leaked
    report.metrics = server.metrics.snapshot()
    report.degraded_sessions = server.metrics.degraded_sessions
    _classify_clients(report, outcomes)
    _check_drain(report, server.active_sessions, observed["degraded"])
    _report_reuses(report, "no-nonce-reuse-ever", ledger.reuses)
    return report


def run_server_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int = 0,
    n_rounds: Optional[int] = None,
    config: Optional[ServerConfig] = None,
) -> ChaosReport:
    """Chaos-sweep the *served* path with misbehaving concurrent clients.

    Stands up a real :class:`KeyEstablishmentServer` on a loopback port,
    launches ``n_clients`` concurrent clients whose behaviors (honest,
    disconnecting, slow-loris, corrupt/oversized frames, duplicate ids,
    silent) derive from ``(seed, index)``, then drains the server and
    checks every invariant :data:`INVARIANTS` registers for the
    ``"server"`` sweep.

    Args:
        pipeline: A trained pipeline to serve (e.g.
            :func:`~repro.faults.chaos.build_chaos_pipeline`'s).
        n_clients: Concurrent client interactions to run.
        seed: Sweep seed; any single client reproduces from
            ``(seed, index)``.
        n_rounds: Probing rounds clients request (``None``: the server
            default, i.e. the pipeline's ``session_rounds``).
        config: Server knobs; defaults to :func:`chaos_server_config`.

    Returns:
        The ``"server"`` :class:`ChaosReport`; ``report.ok`` is the
        verdict.
    """
    require_positive(n_clients, "n_clients")
    return asyncio.run(
        _run_server_chaos(pipeline, n_clients, seed, n_rounds, config)
    )


# -- kill/restart sweep -------------------------------------------------------

#: Seeded behavior mix of the restart sweep: mostly honest sessions that
#: span crashes, plus walk-away clients that leave orphans behind.
_RESTART_BEHAVIOR_WEIGHTS = (
    ("normal", 0.45),
    ("secure-data", 0.30),
    ("disconnect-after-start", 0.125),
    ("disconnect-after-hello", 0.125),
)

#: Probability a client that received a result re-resumes its token to
#: actively verify idempotent redelivery.
_RESUME_PROBE_RATE = 0.30

#: Most reconnect/resume attempts one client spends chasing a verdict.
_RESUME_ATTEMPTS = 12


def restart_chaos_config(n_clients: int, journal_dir: str) -> ServerConfig:
    """The server sweep's tuned knobs plus crash-durability journaling.

    ``batch`` fsync (small batches) is deliberate: it leaves a window of
    admission and nonce high-water records that a SIGKILL can eat, which
    is exactly the lag recovery must compensate for.  Idle/hello budgets
    are widened past the restart latency so detached sessions survive
    the resumption window.
    """
    return replace(
        chaos_server_config(n_clients),
        journal_dir=str(journal_dir),
        journal_fsync="batch",
        journal_batch_records=8,
        hello_timeout_s=2.0,
        idle_timeout_s=4.0,
    )


async def _restart_server_child_main(
    pipeline: VehicleKeyPipeline, config: ServerConfig, port_path: str
) -> int:
    """Async body of the forked server child: serve until SIGTERM, drain.

    The journal doubles as the child's witness channel: key-release
    breaches on served outcomes and ledger-witnessed nonce reuses are
    filed on a child-side ``"restart"`` report and appended as
    ``violation`` records, so the parent can machine-check them after
    the child is long dead.
    """
    ledger = NonceLedger()
    server = KeyEstablishmentServer(
        ModelRegistry(pipeline), config, nonce_ledger=ledger
    )
    witness = ChaosReport(sweep="restart")

    def journal_witnessed() -> None:
        for violation in witness.violations:
            server.journal_append(
                {
                    "t": "violation",
                    "invariant": violation.invariant,
                    "detail": violation.detail,
                },
                critical=True,
            )
        witness.violations.clear()

    def on_outcome(session, outcome) -> None:
        _check_outcome(witness, outcome, -1)
        journal_witnessed()

    def on_reuse(reuse) -> None:
        _report_reuses(witness, "no-nonce-reuse-across-restart", [reuse])
        journal_witnessed()

    server.on_outcome = on_outcome
    ledger.on_reuse = on_reuse
    # The bound port is published write-temp-then-rename, so the parent
    # never reads a half-written port file.
    report = await server.serve_forever(
        on_ready=lambda: write_atomically(
            port_path, lambda handle: handle.write(str(server.bound_port).encode())
        )
    )
    return 0 if report.leaked == 0 else 3


def _restart_server_child(
    pipeline: VehicleKeyPipeline,
    config: ServerConfig,
    port_path: str,
    crash_plan: Dict[str, int],
) -> None:  # pragma: no cover - runs in a forked child
    """Forked child entry: arm the crash plan, serve, die or drain."""
    CRASHPOINTS.reset()
    CRASHPOINTS.arm_plan(crash_plan)
    raise SystemExit(
        asyncio.run(_restart_server_child_main(pipeline, config, port_path))
    )


class _ServerCluster:
    """Parent-side spawn/respawn handle over the forked server child.

    Generations ``0 .. restarts-1`` run with a seeded crashpoint armed
    (derived from ``(seed, 7, generation)``); later generations run
    unarmed so the sweep always ends with a clean recovery and drain.
    """

    def __init__(
        self,
        pipeline: VehicleKeyPipeline,
        config: ServerConfig,
        journal_dir: str,
        seed: int,
        n_clients: int,
        restarts: int,
    ) -> None:
        self.pipeline = pipeline
        self.config = config
        self.port_path = Path(journal_dir) / "server.port"
        self.seed = seed
        self.n_clients = n_clients
        self.restarts = restarts
        self.generation = 0
        self.kills = 0
        self.unexpected_exits: List[int] = []
        self.crash_plans: List[Dict[str, int]] = []
        self.process = None
        self._ctx = multiprocessing.get_context("fork")

    def crash_plan(self, generation: int) -> Dict[str, int]:
        """The seeded ``site -> countdown`` plan for one generation."""
        if generation >= self.restarts:
            return {}
        rng = np.random.default_rng([self.seed, 7, generation])
        site = str(rng.choice(np.array(SITES)))
        spans = {
            "admit": (1, max(3, self.n_clients // 2)),
            "tick": (1, 24),
            "deliver": (1, max(3, self.n_clients // 2)),
            "seal": (2, max(6, 2 * self.n_clients)),
        }
        low, high = spans[site]
        return {site: int(rng.integers(low, high + 1))}

    def spawn(self) -> None:
        """Fork the next server generation against the same journal."""
        try:
            os.unlink(self.port_path)
        except FileNotFoundError:
            pass
        plan = self.crash_plan(self.generation)
        self.crash_plans.append(plan)
        self.process = self._ctx.Process(
            target=_restart_server_child,
            args=(self.pipeline, self.config, str(self.port_path), plan),
            daemon=True,
        )
        self.process.start()

    async def port(self, timeout_s: float = 120.0) -> int:
        """Await the *current* generation's published port."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while asyncio.get_running_loop().time() < deadline:
            try:
                text = self.port_path.read_text(encoding="utf-8").strip()
                if text:
                    return int(text)
            except (FileNotFoundError, ValueError):
                pass
            await asyncio.sleep(0.02)
        raise asyncio.TimeoutError("server port file never appeared")

    async def monitor(self, stop: asyncio.Event) -> None:
        """Respawn the child whenever a crashpoint SIGKILLs it."""
        while not stop.is_set():
            process = self.process
            if process is not None and not process.is_alive():
                code = process.exitcode
                if code == -signal.SIGKILL:
                    self.kills += 1
                else:
                    self.unexpected_exits.append(int(code or 0))
                if self.generation >= self.restarts + 3:
                    return  # runaway backstop; clients will time out
                self.generation += 1
                self.spawn()
            await asyncio.sleep(0.02)

    async def finish(self, timeout_s: float = 60.0) -> Optional[int]:
        """SIGTERM the live child (graceful drain) and reap its exit."""
        process = self.process
        if process is None:
            return None
        if process.is_alive():
            process.terminate()
        deadline = asyncio.get_running_loop().time() + timeout_s
        while process.is_alive() and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.05)
        if process.is_alive():  # pragma: no cover - drain wedged
            process.kill()
        process.join(timeout=5.0)
        return process.exitcode


async def _restart_client(
    cluster: _ServerCluster,
    index: int,
    seed: int,
    n_rounds: Optional[int],
    ledger: NonceLedger,
    report: ChaosReport,
) -> ClientOutcome:
    """One client's establish / reconnect / resume loop across crashes.

    ``secure-data`` clients run the served ``secure-echo`` data phase on
    every (re)connect, registering each seal and accept on the sweep-wide
    parent ``ledger``, and check that every result frame's channel epoch
    strictly advances -- the client-side halves of
    ``no-nonce-reuse-across-restart``.
    """
    rng = np.random.default_rng([seed, index])
    await asyncio.sleep(float(rng.uniform(0.0, 1.0)))
    behavior = _draw_behavior(rng, _RESTART_BEHAVIOR_WEIGHTS)
    session_id = f"dev-{seed}-{index}"
    episode = f"restart-chaos-{seed}-{index}"
    if behavior in ("disconnect-after-hello", "disconnect-after-start"):
        # Walk-away clients: their abandoned admissions are exactly the
        # orphans recovery must abort; any outcome is legal for them.
        try:
            endpoint = Endpoint(port=await cluster.port())
        except asyncio.TimeoutError:
            return ClientOutcome(session_id, behavior, "error",
                                 detail="server endpoint never appeared")
        return await run_behavior(
            endpoint, behavior, session_id,
            episode=episode, rounds=n_rounds, timeout_s=60.0,
        )
    token = ""
    last_epoch = -1
    outcome = ClientOutcome(session_id, behavior, "error", detail="never ran")
    for attempt in range(_RESUME_ATTEMPTS):
        try:
            endpoint = Endpoint(port=await cluster.port())
        except asyncio.TimeoutError:
            outcome = ClientOutcome(
                session_id, behavior, "error",
                detail="server endpoint never reappeared", resume_token=token,
            )
            break
        client = DeviceClient(
            endpoint,
            session_id,
            episode=episode,
            rounds=n_rounds,
            timeout_s=60.0,
            max_admission_retries=4,
            backoff_cap_s=1.0,
            retry_seed=int(rng.integers(0, 2**31)),
            resume=token or None,
            resume_token=token,
        )
        if behavior == "secure-data":
            outcome = await _run_secure_behavior(
                client, behavior, session_id, ledger=ledger
            )
            frame = outcome.frame or {}
            if frame.get("success") and frame.get("channel") is not None:
                epoch = int(frame["channel"].get("epoch", 0))
                if epoch <= last_epoch:
                    report.violate(
                        "no-nonce-reuse-across-restart",
                        index,
                        f"resumed channel re-issued epoch {epoch} "
                        f"(this client already held epoch {last_epoch})",
                    )
                last_epoch = max(last_epoch, epoch)
        else:
            # A client holding a token resumes under its drawn behavior,
            # so the honest-client check still covers it.
            outcome = await client.establish(behavior=behavior)
        token = outcome.resume_token or token
        if outcome.kind in ("result", "abort"):
            break
        if outcome.kind == "rejected":
            reason = str((outcome.frame or {}).get("reason") or "")
            if reason == "unknown-resumption-token":
                # The admit record died un-fsynced with the crash; the
                # contract is a fresh session, never a duplicate key.
                token = ""
            elif reason not in ("duplicate-session", "server-overloaded"):
                break  # final structured rejection
        await asyncio.sleep(0.1 * (attempt + 1) + float(rng.uniform(0.0, 0.3)))
    if (
        outcome.kind == "result"
        and token
        and float(rng.random()) < _RESUME_PROBE_RATE
    ):
        # Actively verify idempotent redelivery: re-resuming a delivered
        # result must re-answer the identical key digest, never a second
        # key and never an abort (results are journaled before delivery).
        report.resume_probes += 1
        try:
            probe = DeviceClient(
                Endpoint(port=await cluster.port()),
                session_id,
                timeout_s=60.0,
                max_admission_retries=6,
                backoff_cap_s=1.0,
                retry_seed=int(rng.integers(0, 2**31)),
            )
            again = await probe.resume_session(token)
        except asyncio.TimeoutError:
            again = ClientOutcome(session_id, "resume", "error")
        first = (outcome.frame or {}).get("key_digest")
        if again.kind == "result":
            second = (again.frame or {}).get("key_digest")
            if second != first:
                report.violate(
                    "no-duplicate-result-delivery",
                    index,
                    f"re-resume answered key digest {second!r} "
                    f"after the first delivery answered {first!r}",
                )
        elif again.kind == "abort" or (
            again.kind == "rejected"
            and (again.frame or {}).get("reason") == "unknown-resumption-token"
        ):
            report.violate(
                "no-duplicate-result-delivery",
                index,
                f"re-resume of a delivered result answered "
                f"{again.kind!r} ({(again.frame or {}).get('reason')!r})",
            )
    return outcome


def _verify_restart_journal(report: ChaosReport, records: List[dict]) -> None:
    """Machine-check the restart invariants from the journal alone.

    Files violations on the ``"restart"`` ``report`` and fills its
    ``recoveries``, ``orphans_recovered`` and ``metrics`` (the last drain
    record's snapshot).  The checks are purely structural, so a torn or
    lying server cannot pass by construction: high-water marks must
    never regress, channel epochs must strictly advance per token, every
    admission preceding a recovery marker must precede a terminal
    outcome, one token must never map to two key digests, and the final
    generation must have drained.  A ``violation`` record the child
    journaled is filed under its invariant only when that name is a
    restart invariant; a missing or foreign name is filed as
    ``uncaught-exception``, raw name in the detail.
    """
    admitted: Dict[str, int] = {}
    outcomes: Dict[str, List[tuple]] = {}
    nonce_high: Dict[tuple, int] = {}
    epochs: Dict[str, int] = {}
    drains = 0
    for pos, record in enumerate(records):
        kind = record.get("t")
        token = str(record.get("token", ""))
        if kind == "admit":
            admitted.setdefault(token, pos)
        elif kind == "outcome":
            frame = record.get("frame") or {}
            outcomes.setdefault(token, []).append(
                (
                    pos,
                    str(record.get("kind", "")),
                    frame.get("key_digest"),
                    str(record.get("reason", "")),
                )
            )
        elif kind == "channel":
            epoch = int(record.get("epoch", 0))
            last = epochs.get(token, -1)
            if epoch <= last:
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"token {token[:8]}... re-journaled channel "
                    f"epoch {epoch} after already reaching {last}",
                )
            epochs[token] = max(last, epoch)
        elif kind == "nonce":
            key = (str(record.get("key", "")), int(record.get("dir", 0)))
            high = int(record.get("high", 0))
            if high <= nonce_high.get(key, -1):
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"seal high-water for key {key[0][:16]}... "
                    f"dir {key[1]} regressed to {high} from "
                    f"{nonce_high[key]}",
                )
            nonce_high[key] = max(nonce_high.get(key, -1), high)
        elif kind == "recovery":
            report.recoveries += 1
            report.orphans_recovered += int(record.get("orphans", 0))
            for admit_token, admit_pos in admitted.items():
                if admit_pos < pos and not any(
                    outcome_pos < pos
                    for outcome_pos, *_ in outcomes.get(admit_token, [])
                ):
                    report.violate(
                        "no-orphan-session-after-recovery",
                        -1,
                        f"recovery left admitted token "
                        f"{admit_token[:8]}... without a terminal outcome",
                    )
        elif kind == "violation":
            name = record.get("invariant")
            detail = f"server child witnessed: {record.get('detail', '')}"
            if isinstance(name, str) and "restart" in INVARIANTS.get(name, ()):
                report.violate(name, -1, detail)
            else:
                report.violate(
                    "uncaught-exception",
                    -1,
                    f"{detail} (journaled invariant {name!r} is not a "
                    "restart invariant)",
                )
        elif kind == "drain":
            drains += 1
            report.metrics = record.get("metrics") or {}
            if int(record.get("leaked", 0)) > 0:
                report.violate(
                    "no-orphan-session-after-recovery",
                    -1,
                    f"drain left {record.get('leaked')} "
                    "session(s) registered",
                )
            if int(record.get("ledger_reuses", 0)) > 0:
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"server ledger witnessed "
                    f"{record.get('ledger_reuses')} nonce reuse(s)",
                )
    for token, entries in outcomes.items():
        digests = {
            digest for _, okind, digest, _ in entries if okind == "result" and digest
        }
        if len(digests) > 1:
            report.violate(
                "no-duplicate-result-delivery",
                -1,
                f"token {token[:8]}... holds result outcomes under "
                f"{len(digests)} distinct key digests",
            )
        result_positions = [p for p, okind, _, _ in entries if okind == "result"]
        if result_positions and any(
            okind == "abort" and reason == ABORT_RECOVERED
            and pos > min(result_positions)
            for pos, okind, _, reason in entries
        ):
            report.violate(
                "no-duplicate-result-delivery",
                -1,
                f"token {token[:8]}... was orphan-aborted after "
                "its result was already journaled",
            )
    if drains == 0:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            "no drain record reached the journal -- the final "
            "generation never drained gracefully",
        )


async def _run_restart_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int,
    n_rounds: Optional[int],
    journal_dir: str,
    restarts: int,
    config: Optional[ServerConfig],
) -> ChaosReport:
    """The async body of :func:`run_restart_chaos`."""
    report = ChaosReport(
        sweep="restart", n_sessions=n_clients, seed=seed, restarts=restarts
    )
    if config is None:
        config = restart_chaos_config(n_clients, journal_dir)
    cluster = _ServerCluster(pipeline, config, journal_dir, seed, n_clients, restarts)
    cluster.spawn()
    stop = asyncio.Event()
    monitor = asyncio.create_task(cluster.monitor(stop))
    ledger = NonceLedger()
    try:
        outcomes = await asyncio.gather(
            *(
                _restart_client(cluster, index, seed, n_rounds, ledger, report)
                for index in range(n_clients)
            )
        )
    finally:
        stop.set()
        await monitor
        exit_code = await cluster.finish()
        if exit_code == -signal.SIGKILL:
            # An armed crashpoint fired during the drain itself: run one
            # final unarmed generation so recovery and a graceful drain
            # complete against the same journal before verification.
            cluster.kills += 1
            cluster.generation = max(cluster.generation + 1, restarts)
            cluster.spawn()
            await cluster.port()
            exit_code = await cluster.finish()
    report.kills = cluster.kills
    report.generations = cluster.generation + 1
    report.crash_plans = cluster.crash_plans
    report.unexpected_exits = list(cluster.unexpected_exits)
    if exit_code not in (0, None):
        report.unexpected_exits.append(int(exit_code))
    for code in report.unexpected_exits:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            f"server child exited with unexpected code {code} "
            "(crashpoints only ever SIGKILL; a drain exits 0)",
        )
    _classify_clients(report, outcomes)
    _report_reuses(report, "no-nonce-reuse-across-restart", ledger.reuses)
    replay = replay_journal(Path(journal_dir) / JOURNAL_FILENAME)
    report.journal_records = len(replay.records)
    if not replay.clean:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            f"journal tail still torn after the final drain ({replay.torn})",
        )
    _verify_restart_journal(report, replay.records)
    return report


def run_restart_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int = 0,
    n_rounds: Optional[int] = None,
    journal_dir: Optional[str] = None,
    restarts: int = 2,
    config: Optional[ServerConfig] = None,
) -> ChaosReport:
    """Kill/restart-sweep the served path against its durability contract.

    Forks a real :class:`KeyEstablishmentServer` into a child process
    whose :mod:`~repro.server.crashpoints` are armed from
    ``(seed, 7, generation)``, launches ``n_clients`` seeded clients
    (honest establishments, encrypted data phases, walk-away orphans),
    lets the armed crashpoint SIGKILL the child mid-sweep, restarts a
    fresh server generation against the same write-ahead journal while
    clients reconnect with their resumption tokens, and finally drains
    gracefully and machine-checks every invariant :data:`INVARIANTS`
    registers for the ``"restart"`` sweep from the journal, the
    parent-side client nonce ledger, and active idempotency probes.

    Args:
        pipeline: A trained pipeline to serve (e.g.
            :func:`~repro.faults.chaos.build_chaos_pipeline`'s).
        n_clients: Concurrent client interactions to run.
        seed: Sweep seed; one seed reproduces clients, behaviors, crash
            plans and restart timing.
        n_rounds: Probing rounds clients request (``None``: the server
            default).
        journal_dir: Journal directory shared by every server
            generation, left in place; when ``None``, a temporary
            directory removed once the journal has been verified.
        restarts: Armed generations (SIGKILLs) to plan; later
            generations run unarmed so the sweep always ends clean.
        config: Server knobs; defaults to :func:`restart_chaos_config`.

    Returns:
        The ``"restart"`` :class:`ChaosReport`; ``report.ok`` is the
        verdict.
    """
    require_positive(n_clients, "n_clients")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    # The journal holds each data-phase session's master secret, so a
    # directory the sweep made itself does not outlive the sweep.
    holder = (
        tempfile.TemporaryDirectory(prefix="vk-restart-chaos-")
        if journal_dir is None
        else contextlib.nullcontext(str(journal_dir))
    )
    with holder as directory:
        return asyncio.run(
            _run_restart_chaos(
                pipeline, n_clients, seed, n_rounds, directory, restarts, config
            )
        )
