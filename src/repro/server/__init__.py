"""Fault-tolerant async key-establishment session server.

The server subsystem turns the in-process Vehicle-Key pipeline into a
long-running service: a framed transport (:mod:`~repro.server.framing`),
per-device session records with liveness budgets
(:mod:`~repro.server.session`), a checksummed hot-reloading model
registry (:mod:`~repro.server.registry`), health counters
(:mod:`~repro.server.metrics`), the asyncio server itself
(:mod:`~repro.server.server`), a device client / misbehavior driver
(:mod:`~repro.server.client`), a crash-durability write-ahead journal
(:mod:`~repro.server.journal`) and seeded crash-point fault injection
(:mod:`~repro.server.crashpoints`).  See ``docs/SERVER.md`` for the
architecture and the robustness contract.
"""

from repro.server.client import (
    BEHAVIORS,
    ClientOutcome,
    DeviceClient,
    Endpoint,
    channel_from_frame,
    fetch_status,
    run_behavior,
)
from repro.server.crashpoints import CRASHPOINTS, SITES, CrashpointRegistry
from repro.server.framing import (
    FRAME_CORRUPT,
    FRAME_OVERSIZED,
    FRAME_TRUNCATED,
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    encode_frame,
    decode_body,
    write_frame,
    write_frames,
)
from repro.server.journal import (
    JOURNAL_FILENAME,
    JournalReplay,
    RecoveredSession,
    RecoveryState,
    SessionJournal,
    recover_journal,
    replay_journal,
)
from repro.server.metrics import ServerMetrics
from repro.server.registry import ARTIFACT_NAMES, ModelRegistry
from repro.server.server import DrainReport, KeyEstablishmentServer, ServerConfig
from repro.server.session import DeviceSession

__all__ = [
    "ARTIFACT_NAMES",
    "BEHAVIORS",
    "CRASHPOINTS",
    "ClientOutcome",
    "CrashpointRegistry",
    "DeviceClient",
    "DeviceSession",
    "DrainReport",
    "Endpoint",
    "FrameError",
    "FrameReader",
    "FRAME_CORRUPT",
    "FRAME_OVERSIZED",
    "FRAME_TRUNCATED",
    "JOURNAL_FILENAME",
    "JournalReplay",
    "KeyEstablishmentServer",
    "MAX_FRAME_BYTES",
    "ModelRegistry",
    "RecoveredSession",
    "RecoveryState",
    "SITES",
    "ServerConfig",
    "ServerMetrics",
    "SessionJournal",
    "channel_from_frame",
    "decode_body",
    "encode_frame",
    "fetch_status",
    "recover_journal",
    "replay_journal",
    "run_behavior",
    "write_frame",
    "write_frames",
]
