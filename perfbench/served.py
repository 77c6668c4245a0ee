"""Served workloads: ``keys-r256`` and ``secure-echo``.

The key server runs in a child process (``server_child.py``) and the
load comes from this process over loopback TCP, through the package's
public client (:class:`~repro.server.DeviceClient`), in a closed loop of
at most two connections.
"""

import asyncio
import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import BatchedSessionRunner
from repro.server import DeviceClient, Endpoint
from repro.server.client import channel_from_frame, fetch_status
from repro.server.framing import encode_frame

import common
import tracer

#: Probing rounds per served session: the library benchmark's r256 shape.
ROUNDS = 256
#: Concurrent connections of the closed loop.
CONNECTIONS = min(2, common.NPROC)
#: Served sessions re-run in-process to pin served keys to the library.
DIGEST_SAMPLE = 8
#: Records one secure-echo connection pipelines before reading echoes.
WINDOW = 64
#: Secure-echo payload sizes, alternated record by record.
PAYLOAD_SIZES = (64, 1024)
#: Episodes a secure-echo connection tries before giving up on a key.
ESTABLISH_TRIES = 16
#: Client-side budget for any one server reply.
CLIENT_TIMEOUT_S = 120.0
#: Seconds of load per metered block (:func:`_metered`).
BLOCK_S = 1.0
#: Server counters scraped into the per-layer metrics.
STATUS_COUNTERS = (
    "ticks",
    "tick_sessions_max",
    "batch_fallbacks",
    "rejected_overload",
    "degraded_sessions",
    "secure_batches",
    "journal_records",
)


class ServerProcess:
    """The child-process key server and its line-oriented control pipe."""

    def __init__(self, pipeline_path: str, journal_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (common.SRC, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(common.HERE, "server_child.py"),
                pipeline_path,
                journal_dir,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=common.ROOT,
            text=True,
        )
        try:
            hello = self._read()
        except BaseException:
            self.kill()
            raise
        self.endpoint = Endpoint(host="127.0.0.1", port=int(hello["port"]))
        self.load_s = float(hello["load_s"])
        self.start_s = float(hello["start_s"])

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server child exited unexpectedly")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.command("stop")
        self.proc.wait(timeout=60)
        return reply

    def kill(self) -> None:
        """Make sure the child is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def key_digest(outcome) -> Optional[str]:
    """The server's ``key_digest`` for an outcome (``None`` without a key)."""
    if outcome.final_key is None:
        return None
    return hashlib.sha256(outcome.final_key).hexdigest()[:32]


async def scrape_status(endpoint: Endpoint, conns: common.Connections) -> dict:
    conns.opened()
    try:
        reply = await fetch_status(endpoint, session_id="perfbench-status")
    finally:
        conns.closed()
    if reply is None:
        raise RuntimeError("status scrape failed")
    return reply["metrics"]


# -- keys-r256 --------------------------------------------------------------
async def _key_session(endpoint, conns, label: str) -> dict:
    """One honest session: connect, hello, start, verdict, close."""
    client = DeviceClient(
        endpoint, label, episode=label, rounds=ROUNDS, timeout_s=CLIENT_TIMEOUT_S
    )
    row = {"label": label, "t_connect": time.monotonic(), "verdict": None}
    try:
        await conns.connect(client)
        try:
            welcome = await client.hello()
            row["t_welcome"] = time.monotonic()
            if welcome is not None and welcome.get("type") == "welcome":
                await client.send({"type": "start"})
                row["t_start"] = time.monotonic()
                row["verdict"] = await client.recv()
            else:
                row["verdict"] = welcome
        finally:
            await conns.close(client)
    except (OSError, asyncio.TimeoutError, ConnectionError) as error:
        row["error"] = repr(error)
    row["t_verdict"] = time.monotonic()
    return row


async def _key_phase(endpoint, conns, prefix: str, seconds: float):
    """Closed loop in lock-step rounds of one session per connection.

    The next round starts when every verdict of the last one is in, so a
    round's sessions share one server tick.  Left free-running, the two
    connections fell into or out of phase with the 50 ms tick at random
    and stayed there, and a run's session p50 took one of two values 15%
    apart.  At least one round runs, then more until ``seconds`` pass.
    Returns ``(rows, start, end)``.
    """
    rows: List[dict] = []
    start = time.monotonic()
    index = 0
    while index == 0 or time.monotonic() < start + seconds:
        rows.extend(await asyncio.gather(*(
            _key_session(endpoint, conns, f"{prefix}-c{conn}-{index}")
            for conn in range(CONNECTIONS)
        )))
        index += 1
    end = max(row["t_verdict"] for row in rows)
    return rows, start, end


def _check_keys(rows, pipeline, seed: int, tamper: bool) -> List[str]:
    """Every verdict is a result frame; a seeded sample matches the library."""
    problems = [
        f"{row['label']}: no result frame ({row.get('error') or row['verdict']})"
        for row in rows
        if not row["verdict"] or row["verdict"].get("type") != "result"
    ]
    served = [row for row in rows if row["verdict"] and row["verdict"].get("type") == "result"]
    if not served:
        return problems + ["no served session to check against the library"]
    rng = np.random.default_rng([seed, 0xD16E57])
    picks = sorted(rng.choice(len(served), size=min(DIGEST_SAMPLE, len(served)), replace=False))
    sample = [served[i] for i in picks]
    report = BatchedSessionRunner(pipeline, n_rounds=ROUNDS).run_episodes(
        [row["label"] for row in sample]
    )
    for position, (row, outcome) in enumerate(zip(sample, report.outcomes)):
        digest = row["verdict"].get("key_digest")
        if tamper and position == 0:
            digest = "0" * 32 if digest != "0" * 32 else "1" * 32
        if digest != key_digest(outcome) or row["verdict"].get("success") != outcome.success:
            problems.append(
                f"{row['label']}: served digest {digest} != library {key_digest(outcome)}"
            )
    return problems


def session_breakdown(rows, server_spans) -> Dict[str, List[float]]:
    """Join client timestamps with server batch spans by episode label."""
    batch_of = {}
    for span in server_spans:
        if span["name"] == "batch" and span["label"]:
            for label in span["label"].split(","):
                batch_of[label] = span
    parts: Dict[str, List[float]] = {
        name: [] for name in ("session", "admit", "tick_wait", "run", "deliver")
    }
    for row in rows:
        span = batch_of.get(row["label"])
        if span is None or "t_start" not in row:
            continue
        parts["session"].append(row["t_verdict"] - row["t_connect"])
        parts["admit"].append(row["t_welcome"] - row["t_connect"])
        parts["tick_wait"].append(span["start"] - row["t_start"])
        parts["run"].append(span["end"] - span["start"])
        parts["deliver"].append(row["t_verdict"] - span["end"])
    return parts


async def _set_up(pipeline_path: str, workdir: str, warm_up, close):
    """Set the served system up :data:`common.SETUPS` times; keep the last.

    A set-up starts a server child (it loads the built model and starts
    with journal recovery) and runs ``warm_up(server)``; the earlier ones
    are then torn down with ``close(state)`` and a drain.  A set-up's cost
    is this process's CPU time over it plus the child's CPU time since it
    was spawned, each in nominal milliseconds.  Returns ``(server, state,
    record)`` where ``record`` holds the median set-up cost in seconds,
    the median set-up wall seconds and the child's median model-load
    seconds.
    """
    costs, times, loads = [], [], []
    for attempt in range(common.SETUPS):
        ref_before = common.reference_cpu_s()
        began, cpu0 = time.monotonic(), time.process_time()
        server = ServerProcess(pipeline_path, os.path.join(workdir, f"journal-{attempt}"))
        try:
            state = await warm_up(server)
            cpu1 = time.process_time()
            times.append(time.monotonic() - began)
            child = server.command("ref")
            client_ref = (ref_before + common.reference_cpu_s()) / 2.0
            costs.append(
                common.nominal_ms(cpu1 - cpu0, client_ref)
                + common.nominal_ms(child["cpu_before_s"], child["ref_cpu_s"])
            )
            loads.append(server.load_s)
            if attempt < common.SETUPS - 1:
                await close(state)
                server.stop()
        except BaseException:
            server.kill()
            raise
        if attempt < common.SETUPS - 1:
            server.kill()
    record = {
        "setup_s": common.median(costs) / 1e3,
        "setup_wall_s": common.median(times),
        "load_s": common.median(loads),
        "server_start_s": server.start_s,
    }
    return server, state, record


async def _metered(server: ServerProcess, seconds: float, run_block) -> List[dict]:
    """Call ``await run_block(index)`` until ``seconds`` pass (at least once).

    Each call is one block: it runs load for about :data:`BLOCK_S` and
    returns its operation count.  Between blocks, each process runs the
    reference kernel and reports its CPU time.  A block's ``cost_ms`` is
    the sum over the two processes of their CPU time in the block in
    nominal milliseconds (:func:`common.nominal_ms`), each against the
    mean of its own kernel runs just before and after the block: the two
    processes may sit on vCPUs running at different speeds.
    """
    blocks: List[dict] = []
    start = time.monotonic()
    client_ref, ref = common.reference_cpu_s(), server.command("ref")
    while not blocks or time.monotonic() < start + seconds:
        began, cpu0 = time.monotonic(), time.process_time()
        ops = await run_block(len(blocks))
        wall, cpu1 = time.monotonic() - began, time.process_time()
        client_after, ref_after = common.reference_cpu_s(), server.command("ref")
        server_cpu = ref_after["cpu_before_s"] - ref["cpu_s"]
        client_mean = (client_ref + client_after) / 2.0
        server_mean = (ref["ref_cpu_s"] + ref_after["ref_cpu_s"]) / 2.0
        blocks.append({
            "ops": ops,
            "wall_s": wall,
            "client_cpu_s": cpu1 - cpu0,
            "server_cpu_s": server_cpu,
            "ref_cpu_s": client_mean,
            "cost_ms": (
                common.nominal_ms(cpu1 - cpu0, client_mean)
                + common.nominal_ms(server_cpu, server_mean)
            ),
        })
        client_ref, ref = client_after, ref_after
    return blocks


def _cost_per_op_ms(blocks: List[dict]) -> float:
    """Nominal CPU milliseconds per operation over the middle blocks.

    Blocks are ranked by cost per operation; the fifth at each end is
    dropped and the rest give their summed cost over their summed
    operations.  A ``keys-r256`` block holds only 10-12 sessions whose
    CPU differs by episode, so single blocks ranged 66-106 ms a session
    within one run; the plain median of blocks followed that.
    """
    ranked = sorted((block for block in blocks if block["ops"]), key=lambda b: b["cost_ms"] / b["ops"])
    cut = len(ranked) // 5
    kept = ranked[cut:len(ranked) - cut]
    return sum(block["cost_ms"] for block in kept) / sum(block["ops"] for block in kept)


def _cpu_shares(blocks: List[dict]) -> Tuple[float, float]:
    """``(client, server)`` CPU seconds per wall second over the blocks."""
    wall = sum(block["wall_s"] for block in blocks)
    return (
        sum(block["client_cpu_s"] for block in blocks) / wall,
        sum(block["server_cpu_s"] for block in blocks) / wall,
    )


async def run_keys(pipeline_path: str, seed: int, seconds: float, trace: bool, tamper: bool, workdir: str):
    """The ``keys-r256`` workload; returns the run record for ``run.py``."""

    async def warm_up(server):
        conns = common.Connections()
        await _key_phase(server.endpoint, conns, f"w{seed}", 0.0)
        return conns

    async def close(conns):
        pass

    server, conns, record = await _set_up(pipeline_path, workdir, warm_up, close)

    async def measure(prefix: str, window: float):
        rows: List[dict] = []

        async def block(index: int) -> int:
            chunk, _, _ = await _key_phase(server.endpoint, conns, f"{prefix}b{index}", BLOCK_S)
            rows.extend(chunk)
            return len(chunk)

        return rows, await _metered(server, window, block)

    try:
        endpoint = server.endpoint
        window = seconds / 2.0 if trace else seconds
        rows, blocks = await measure(f"k{seed}", window)
        traced_rows: List[dict] = []
        if trace:
            server.command("trace-on")
            traced_rows, traced_blocks = await measure(f"t{seed}", window)
            spans_path = os.path.join(workdir, "server_spans.jsonl")
            counts = server.command(f"trace-off {spans_path}")
            record["spans"] = tracer.read_jsonl(spans_path)
            record["counts"] = counts
            record["traced"] = {
                "rows": traced_rows,
                "wall_s": sum(block["wall_s"] for block in traced_blocks),
                "cost_ms_per_op": _cost_per_op_ms(traced_blocks),
            }
        status = await scrape_status(endpoint, conns)
        stopped = server.stop()
    finally:
        server.kill()

    pipeline, _ = common.load_pipeline(pipeline_path)
    problems = _check_keys(rows + traced_rows, pipeline, seed, tamper)
    if stopped.get("leaked"):
        problems.append(f"server drain leaked {stopped['leaked']} sessions")
    latencies = [1e3 * (row["t_verdict"] - row["t_connect"]) for row in rows]
    results = [row["verdict"] for row in rows if row["verdict"] and row["verdict"].get("type") == "result"]
    client_share, server_share = _cpu_shares(blocks)
    record.update(
        ops=len(rows),
        failed=len(rows) - len(results) + status["batch_fallbacks"] + status["rejected_overload"],
        problems=problems,
        peak_rss_mb=stopped["peak_rss_mb"],
        cost_ms_per_op=_cost_per_op_ms(blocks),
        ref_cpu_ms=1e3 * common.median([block["ref_cpu_s"] for block in blocks]),
        throughput=common.wall_throughput(blocks),
        latency_p50_ms=common.median(latencies),
        latencies_ms=latencies,
        success_share=sum(1 for frame in results if frame.get("success")) / max(len(rows), 1),
        client_cpu_share=client_share,
        server_cpu_share=server_share,
        status=status,
        peak_connections=conns.peak,
    )
    return record


# -- secure-echo ------------------------------------------------------------
class _EchoLink:
    """One established data-phase connection and its seeded payloads."""

    def __init__(self, client, channel, payloads, tries):
        self.client = client
        self.channel = channel
        self.payloads = payloads
        self.tries = tries
        self.sent = 0
        self.wire_bytes: List[int] = []


async def _establish_link(endpoint, conns, seed: int, conn: int) -> _EchoLink:
    rng = np.random.default_rng([seed, conn, 0xEC40])
    payloads = [
        rng.bytes(PAYLOAD_SIZES[index % len(PAYLOAD_SIZES)]) for index in range(2 * WINDOW)
    ]
    for attempt in range(ESTABLISH_TRIES):
        label = f"e{seed}-c{conn}-{attempt}"
        client = DeviceClient(
            endpoint, label, episode=label, rounds=ROUNDS,
            timeout_s=CLIENT_TIMEOUT_S, data=True,
        )
        await conns.connect(client)
        welcome = await client.hello()
        if welcome is not None and welcome.get("type") == "welcome":
            await client.send({"type": "start"})
            verdict = await client.recv()
            if verdict and verdict.get("type") == "result" and verdict.get("success") and "channel" in verdict:
                return _EchoLink(client, channel_from_frame(verdict["channel"]), payloads, attempt + 1)
        await conns.close(client)
    raise RuntimeError(f"connection {conn}: no data-phase key in {ESTABLISH_TRIES} episodes")


async def _echo_window(link: _EchoLink, done: List[Tuple[float, float]], tamper: bool) -> int:
    """Pipeline one window of records; verify every echo.  Returns failures.

    Appends ``(verified time, send -> verified ms)`` per record to ``done``.
    """
    payloads = [link.payloads[(link.sent + k) % len(link.payloads)] for k in range(WINDOW)]
    sent_at = []
    for record in link.channel.seal_records(payloads):
        frame = {"type": "secure", "record": record.hex()}
        if link.sent == 0:
            link.wire_bytes.append(len(encode_frame(frame)))
        await link.client.send(frame)
        sent_at.append(time.monotonic())
    failures = 0
    for index, plaintext in enumerate(payloads):
        reply = await link.client.recv()
        blob = b""
        if reply is not None and reply.get("type") == "secure":
            blob = bytes.fromhex(str(reply.get("record", "")))
        if tamper and index == 0 and blob:
            blob = blob[:-1] + bytes([blob[-1] ^ 0x01])
        opened = link.channel.open(blob)
        verified = time.monotonic()
        done.append((verified, 1e3 * (verified - sent_at[index])))
        if not opened.ok or opened.plaintext != plaintext:
            failures += 1
    link.sent += WINDOW
    return failures


async def _echo_phase(links, seconds: float, tamper: bool):
    """Each link pipelines at least one window, then more until ``seconds`` pass.

    The links run free, not in lock-step rounds as in :func:`_key_phase`:
    rounds left both processes idle between windows, and cost a fifth of
    the throughput.
    """
    done: List[Tuple[float, float]] = []
    failures = [0]
    start = time.monotonic()
    deadline = start + seconds

    async def loop(link: _EchoLink) -> None:
        windows = 0
        while windows == 0 or time.monotonic() < deadline:
            failures[0] += await _echo_window(link, done, tamper and windows == 0)
            windows += 1

    await asyncio.gather(*(loop(link) for link in links))
    return done, failures[0], start, time.monotonic()


async def _close_links(links: List[_EchoLink], conns) -> None:
    while links:
        link = links.pop()
        await link.client.send({"type": "bye"})
        await conns.close(link.client)


async def run_echo(pipeline_path: str, seed: int, seconds: float, trace: bool, tamper: bool, workdir: str):
    """The ``secure-echo`` workload; returns the run record for ``run.py``."""
    warm_failures = 0

    async def warm_up(server):
        nonlocal warm_failures
        conns = common.Connections()
        links = [
            await _establish_link(server.endpoint, conns, seed, conn)
            for conn in range(CONNECTIONS)
        ]
        _, failed, _, _ = await _echo_phase(links, 0.0, tamper=False)
        warm_failures += failed
        return conns, links

    async def close(state):
        await _close_links(state[1], state[0])

    server, (conns, links), record = await _set_up(pipeline_path, workdir, warm_up, close)

    async def measure(window: float, tampered: bool):
        done: List[Tuple[float, float]] = []
        failures = [0]

        async def block(index: int) -> int:
            chunk, failed, _, _ = await _echo_phase(links, BLOCK_S, tampered and index == 0)
            done.extend(chunk)
            failures[0] += failed
            return len(chunk)

        blocks = await _metered(server, window, block)
        return done, failures[0], blocks

    try:
        endpoint = server.endpoint
        window = seconds / 2.0 if trace else seconds
        done, failures, blocks = await measure(window, tamper)
        traced_failures = 0
        if trace:
            server.command("trace-on")
            traced_done, traced_failures, traced_blocks = await measure(window, False)
            spans_path = os.path.join(workdir, "server_spans.jsonl")
            counts = server.command(f"trace-off {spans_path}")
            record["spans"] = tracer.read_jsonl(spans_path)
            record["counts"] = counts
            record["traced"] = {
                "ops": len(traced_done),
                "wall_s": sum(block["wall_s"] for block in traced_blocks),
                "cost_ms_per_op": _cost_per_op_ms(traced_blocks),
            }
        sent = sum(link.sent for link in links)
        tries = sum(link.tries for link in links)
        wire_bytes = [size for link in links for size in link.wire_bytes]
        await _close_links(links, conns)
        status = await scrape_status(endpoint, conns)
        stopped = server.stop()
    finally:
        for link in links:
            await link.client.close()
        server.kill()

    problems = []
    if failures or warm_failures or traced_failures:
        problems.append(
            f"{failures + warm_failures + traced_failures} echoes did not open "
            "to the sent plaintext"
        )
    if not status["secure_records"] == status["secure_echoed"] == sent:
        problems.append(
            f"status secure_records={status['secure_records']} "
            f"secure_echoed={status['secure_echoed']} != {sent} records sent"
        )
    if stopped.get("leaked"):
        problems.append(f"server drain leaked {stopped['leaked']} sessions")
    latencies = [latency for _, latency in done]
    client_share, server_share = _cpu_shares(blocks)
    record.update(
        ops=len(done),
        failed=failures + status["batch_fallbacks"] + status["rejected_overload"],
        problems=problems,
        peak_rss_mb=stopped["peak_rss_mb"],
        cost_ms_per_op=_cost_per_op_ms(blocks),
        ref_cpu_ms=1e3 * common.median([block["ref_cpu_s"] for block in blocks]),
        throughput=common.wall_throughput(blocks),
        latency_p50_ms=common.median(latencies),
        latencies_ms=latencies,
        success_share=CONNECTIONS / tries,
        client_cpu_share=client_share,
        server_cpu_share=server_share,
        status=status,
        peak_connections=conns.peak,
        wire_bytes_per_record=sum(wire_bytes) / len(wire_bytes),
    )
    return record
