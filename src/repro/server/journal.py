"""Append-only checksummed write-ahead journal for the session server.

The server keeps its safety-critical state -- admitted sessions,
terminal outcomes, delivered results, data-phase channel context and the
nonce ledger's per-key high-water marks -- purely in memory; this module
makes that state survive a crash.  Every witnessed event is one
*record*: a length-prefixed JSON body guarded by a SHA-256 checksum
prefix, appended to a single journal file whose tail may be torn by a
crash mid-write.  Recovery replays the file, stops at the first record
that is truncated or fails its checksum, and atomically truncates the
tail back to the last fully-checksummed record (the same
tempfile + ``os.fsync`` + ``os.replace`` discipline
:func:`repro.utils.artifact.save_artifact` uses).

Record kinds (the ``"t"`` field):

``admit``    session admitted: id, resumption token, episode, rounds.
``outcome``  terminal verdict for a token: a result frame (without the
             channel object) or an abort reason/detail pair.
``channel``  data-phase channel context for a token: master secret,
             session nonce, fingerprint and epoch.  Resuming after a
             crash re-derives keys at ``epoch + 1`` so no pre-crash
             ``(epoch, direction, sequence)`` tuple can ever verify
             again.
``deliver``  the terminal frame for a token was written to the peer.
``nonce``    a ``(key_id, direction)`` seal high-water mark advanced.
``recovery`` a recovery pass completed (replayed/orphaned counts).
``drain``    a graceful drain completed (delivered/leaked + metrics).
``violation`` an invariant violation observed in-process (the restart
             chaos child uses the journal as its witness channel).

Durability contract: records are written to the OS immediately
(unbuffered ``os.write``), but ``fsync`` is batched -- every
``batch_records`` appends in ``"batch"`` mode, every append in
``"always"`` mode, never in ``"off"`` mode.  *Critical* records
(terminal outcomes, deliveries, channel context, recovery markers)
force an fsync in both ``"batch"`` and ``"always"`` modes, so the
recovery-facing promises hold even when admission and nonce high-water
records lag; recovery compensates for the lag by aborting orphans and
bumping the channel epoch floor.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.server.crashpoints import CRASHPOINTS

#: File magic identifying a session journal (versioned).
JOURNAL_MAGIC = b"VKJRNL01"

#: Checksum prefix length guarding each record body.
CHECKSUM_BYTES = 8

#: Per-record header: 4-byte big-endian body length + checksum prefix.
HEADER_BYTES = 4 + CHECKSUM_BYTES

#: Sanity ceiling on one record's JSON body.
MAX_RECORD_BYTES = 1 << 20

#: Journal file name inside a journal directory.
JOURNAL_FILENAME = "journal.wal"

#: Valid fsync policies.
FSYNC_POLICIES = ("always", "batch", "off")


def encode_record(record: dict) -> bytes:
    """One record's wire form: ``len(4B BE) | sha256(body)[:8] | body``."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    if len(body) > MAX_RECORD_BYTES:
        raise ValueError(
            f"journal record of {len(body)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte ceiling"
        )
    checksum = hashlib.sha256(body).digest()[:CHECKSUM_BYTES]
    return len(body).to_bytes(4, "big") + checksum + body


@dataclass
class JournalReplay:
    """What a replay of one journal file found.

    Attributes:
        records: Every fully-checksummed record, in append order.
        valid_bytes: File offset of the end of the last valid record
            (the length recovery truncates the file to).
        total_bytes: The file's size when replayed.
        torn: Why the scan stopped early (``None`` when the file was
            clean): ``"magic"``, ``"truncated-header"``,
            ``"truncated-body"``, ``"checksum-mismatch"``,
            ``"oversized-record"`` or ``"undecodable-body"``.
    """

    records: List[dict] = field(default_factory=list)
    valid_bytes: int = 0
    total_bytes: int = 0
    torn: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Whether the whole file replayed without a torn tail."""
        return self.torn is None


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay a journal file; stops at the first torn/corrupt record.

    A missing or empty file replays to zero records.  Anything invalid
    -- a bad magic, a truncated header or body, a checksum mismatch, an
    implausible length, an undecodable body -- ends the scan *there*:
    every record before the damage is returned, nothing after it is
    trusted (a mid-file corruption invalidates the tail, which is the
    conservative reading of an append-only log).
    """
    path = Path(path)
    replay = JournalReplay()
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return replay
    replay.total_bytes = len(data)
    if not data:
        return replay
    if not data.startswith(JOURNAL_MAGIC):
        replay.torn = "magic"
        return replay
    offset = len(JOURNAL_MAGIC)
    replay.valid_bytes = offset
    while offset < len(data):
        header = data[offset : offset + HEADER_BYTES]
        if len(header) < HEADER_BYTES:
            replay.torn = "truncated-header"
            return replay
        length = int.from_bytes(header[:4], "big")
        if length > MAX_RECORD_BYTES:
            replay.torn = "oversized-record"
            return replay
        body = data[offset + HEADER_BYTES : offset + HEADER_BYTES + length]
        if len(body) < length:
            replay.torn = "truncated-body"
            return replay
        if hashlib.sha256(body).digest()[:CHECKSUM_BYTES] != header[4:]:
            replay.torn = "checksum-mismatch"
            return replay
        try:
            record = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            replay.torn = "undecodable-body"
            return replay
        replay.records.append(record)
        offset += HEADER_BYTES + length
        replay.valid_bytes = offset
    return replay


def recover_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay and, if the tail is torn, atomically truncate it away.

    The valid prefix is rewritten through a tempfile in the same
    directory, fsync'd, and swapped in with ``os.replace`` -- a crash
    *during recovery* leaves either the damaged original or the clean
    prefix, never a half-truncated file.  Returns the replay of the
    (now clean) prefix.
    """
    path = Path(path)
    replay = replay_journal(path)
    if replay.clean or replay.total_bytes == 0:
        return replay
    try:
        data = path.read_bytes()[: replay.valid_bytes]
    except FileNotFoundError:  # pragma: no cover - raced away
        return replay
    if replay.torn == "magic":
        data = b""  # nothing before the magic is trustworthy
        replay.valid_bytes = 0
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return replay


class SessionJournal:
    """The server's append handle onto one journal directory.

    Args:
        directory: Directory holding the journal file (created if
            missing).
        fsync: ``"always"``, ``"batch"`` (default) or ``"off"``; see the
            module docstring for the durability contract.
        batch_records: In ``"batch"`` mode, fsync after this many
            unsynced non-critical appends.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "batch",
        batch_records: int = 16,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; valid: {FSYNC_POLICIES}"
            )
        if batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        self.fsync = fsync
        self.batch_records = batch_records
        self.records_written = 0
        self._fd: Optional[int] = None
        self._unsynced = 0

    @property
    def open(self) -> bool:
        """Whether the journal is accepting appends."""
        return self._fd is not None

    def recover(self) -> JournalReplay:
        """Truncate any torn tail, open for append, return the replay."""
        self.directory.mkdir(parents=True, exist_ok=True)
        replay = recover_journal(self.path)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600
        )
        if replay.total_bytes == 0 or replay.valid_bytes == 0:
            # Fresh (or fully-invalid, now empty) file: stamp the magic.
            os.ftruncate(self._fd, 0)
            os.write(self._fd, JOURNAL_MAGIC)
            os.fsync(self._fd)
        return replay

    def append(self, record: dict, critical: bool = False) -> None:
        """Append one record; critical records are fsync'd immediately.

        The write itself always reaches the OS before returning
        (unbuffered ``os.write``); only the fsync is batched.  A no-op
        once the journal is closed or abandoned, so late observers (a
        metrics scrape racing a drain) cannot raise.
        """
        if self._fd is None:
            return
        blob = encode_record(record)
        if CRASHPOINTS.pending("seal"):
            # A 'seal' crash dies mid-append: half the record reaches
            # the file, leaving the torn tail recovery must truncate.
            os.write(self._fd, blob[: max(1, len(blob) // 2)])
            CRASHPOINTS.hit("seal")
            return  # only reachable under a non-killing test action
        CRASHPOINTS.hit("seal")  # count this append toward the countdown
        os.write(self._fd, blob)
        self.records_written += 1
        if self.fsync == "off":
            return
        if critical or self.fsync == "always":
            os.fsync(self._fd)
            self._unsynced = 0
            return
        self._unsynced += 1
        if self._unsynced >= self.batch_records:
            os.fsync(self._fd)
            self._unsynced = 0

    def flush(self) -> None:
        """Fsync any batched appends."""
        if self._fd is not None and self.fsync != "off":
            os.fsync(self._fd)
            self._unsynced = 0

    def close(self) -> None:
        """Flush and release the file descriptor (idempotent)."""
        if self._fd is None:
            return
        if self.fsync != "off":
            os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None

    def abandon(self) -> None:
        """Release the descriptor *without* flushing (crash simulation)."""
        if self._fd is None:
            return
        os.close(self._fd)
        self._fd = None


@dataclass
class RecoveredSession:
    """One resumable terminal verdict, as the journal records it.

    Attributes:
        session_id: The session id the token was minted for.
        kind: ``"result"`` or ``"abort"``.
        frame: The journaled terminal wire frame (without any channel
            object) for ``"result"`` verdicts.
        reason: Abort taxonomy slug for ``"abort"`` verdicts.
        detail: Abort detail for ``"abort"`` verdicts.
        channel: The latest journaled channel context for the token
            (master/nonce/fingerprint/epoch), when a data phase ran.
    """

    session_id: str
    kind: str
    frame: Optional[dict] = None
    reason: str = ""
    detail: str = ""
    channel: Optional[dict] = None


@dataclass
class RecoveryState:
    """The resumable state the journal's records fold into.

    A restarted server folds its replay through :meth:`apply`, and a
    journaling server folds every record it appends the same way, so a
    resumption token reads one state whether or not a crash came
    between.

    Attributes:
        resumable: Terminal verdicts by resumption token.
        admitted: ``token -> session_id`` for every admitted session.
        nonce_floors: Highest journaled seal sequence per
            ``(key_id, direction)``; restored into the server's ledger
            so a re-issued sequence is witnessed as a reuse.
    """

    resumable: Dict[str, RecoveredSession] = field(default_factory=dict)
    admitted: Dict[str, str] = field(default_factory=dict)
    nonce_floors: Dict[tuple, int] = field(default_factory=dict)

    def apply(self, record: dict) -> None:
        """Fold one journal record into the state."""
        kind = record.get("t")
        token = str(record.get("token", ""))
        if kind == "admit":
            self.admitted[token] = str(record.get("sid", ""))
        elif kind == "outcome":
            recovered = self.resumable.get(token)
            self.resumable[token] = RecoveredSession(
                session_id=self.admitted.get(token, str(record.get("sid", ""))),
                kind=str(record.get("kind", "abort")),
                frame=record.get("frame"),
                reason=str(record.get("reason", "")),
                detail=str(record.get("detail", "")),
                channel=recovered.channel if recovered else None,
            )
        elif kind == "channel":
            recovered = self.resumable.get(token)
            if recovered is None:
                recovered = self.resumable[token] = RecoveredSession(
                    session_id=self.admitted.get(token, ""), kind="result"
                )
            recovered.channel = {
                "master": str(record.get("master", "")),
                "nonce": str(record.get("nonce", "")),
                "fingerprint": str(record.get("fingerprint", "")),
                "epoch": int(record.get("epoch", 0)),
                "max_records": int(record.get("max_records", 2**20)),
                "replay_window": int(record.get("replay_window", 64)),
            }
        elif kind == "nonce":
            key = (str(record.get("key", "")), int(record.get("dir", 0)))
            high = int(record.get("high", 0))
            if high > self.nonce_floors.get(key, -1):
                self.nonce_floors[key] = high

    def orphans(self) -> List[str]:
        """Tokens admitted but never terminal -- the sessions a crash
        interrupted mid-flight; recovery aborts each with
        ``recovered-after-crash``."""
        return [token for token in self.admitted if token not in self.resumable]
