"""Length-prefixed JSON framing for the key-establishment server.

The session server talks to devices over a byte stream (TCP or a unix
socket); frames give that stream message boundaries.  The format is
deliberately minimal -- a 4-byte big-endian payload length followed by a
UTF-8 JSON object -- because the hard part is not the encoding but the
failure taxonomy: a peer can stall mid-frame (slow loris), lie about the
length (memory exhaustion), or send bytes that are not JSON (corruption
or malice).  Every one of those ends in a typed :class:`FrameError`
carrying a closed ``reason`` slug, so the server can map transport
damage onto the session state machine's abort taxonomy instead of
leaking ``json``/``struct`` internals.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from repro.exceptions import ReproError

#: Default ceiling on one frame's payload (covers every legitimate
#: protocol message with two orders of magnitude to spare).
MAX_FRAME_BYTES = 64 * 1024

#: Frame-failure reason slugs (the complete set).
FRAME_OVERSIZED = "frame-oversized"
FRAME_TRUNCATED = "frame-truncated"
FRAME_CORRUPT = "frame-corrupt"

_HEADER = struct.Struct(">I")


class FrameError(ReproError):
    """A wire frame could not be read or decoded.

    Attributes:
        reason: One of :data:`FRAME_OVERSIZED` (declared length exceeds
            the limit), :data:`FRAME_TRUNCATED` (the stream ended
            mid-frame) or :data:`FRAME_CORRUPT` (the payload is not a
            JSON object).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def encode_frame(payload: dict) -> bytes:
    """Serialize one protocol message to its on-wire bytes."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Decode one frame payload; raises :class:`FrameError` on damage."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(FRAME_CORRUPT, f"undecodable frame payload: {error}")
    if not isinstance(message, dict):
        raise FrameError(
            FRAME_CORRUPT, f"frame payload is {type(message).__name__}, not an object"
        )
    return message


#: Most bytes one :class:`FrameReader` asks its stream for per read.
READ_BYTES = 64 * 1024


class FrameReader:
    """Frames from one connection's byte stream, parsed from a buffer.

    Each socket read takes up to :data:`READ_BYTES`, and every complete
    frame in the buffer is parsed from it, so a burst of frames costs one
    read and no await per frame.  The failure taxonomy is the one above: ``frame-oversized`` as soon as a
    header declares more than ``max_bytes``, ``frame-truncated`` when the
    stream ends inside a header or a body, ``frame-corrupt`` for a
    payload that is not a JSON object.

    A connection has one reader, and the reader one consumer at a time:
    whoever awaits :meth:`read` owns the buffer until the await returns.
    Liveness is the caller's concern: wrap :meth:`read` in
    :func:`asyncio.wait_for`.
    """

    def __init__(
        self, reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
    ):
        self._reader = reader
        self._max_bytes = max_bytes
        self._buffer = b""
        self._start = 0  # offset of the next unparsed byte in _buffer
        self._eof = False

    def _parse(self, strict: bool) -> Optional[dict]:
        """The next frame if it is complete in the buffer, else ``None``.

        ``strict`` consumes a damaged frame and raises its
        :class:`FrameError`; otherwise damage is left in the buffer for
        the next strict parse and reads as ``None``.
        """
        buffer, start = self._buffer, self._start
        if len(buffer) - start < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(buffer, start)
        body_start = start + _HEADER.size
        if length > self._max_bytes:
            if not strict:
                return None
            self._start = body_start
            raise FrameError(
                FRAME_OVERSIZED,
                f"declared frame length {length} exceeds {self._max_bytes}",
            )
        end = body_start + length
        if len(buffer) < end:
            return None
        try:
            frame = decode_body(buffer[body_start:end])
        except FrameError:
            if not strict:
                return None
            self._start = end
            raise
        self._start = end
        return frame

    def buffered(self) -> Optional[dict]:
        """The next frame if it has already arrived intact, without awaiting.

        ``None`` means :meth:`read` has to be awaited: the next frame is
        incomplete, damaged, or the stream has ended.
        """
        return self._parse(strict=False)

    async def read(self) -> Optional[dict]:
        """The next frame; ``None`` on clean EOF at a frame boundary.

        Raises :class:`FrameError` when the peer declares an oversized
        length, disconnects mid-frame, or delivers a payload that is not
        a JSON object.
        """
        while True:
            frame = self._parse(strict=True)
            if frame is not None:
                return frame
            if self._eof:
                self._check_clean_end()
                return None
            chunk = await self._reader.read(READ_BYTES)
            if not chunk:
                self._eof = True
            elif self._start < len(self._buffer):
                self._buffer = self._buffer[self._start :] + chunk
                self._start = 0
            else:
                self._buffer, self._start = chunk, 0

    def _check_clean_end(self) -> None:
        """At EOF: raise ``frame-truncated`` unless the stream ended
        between frames.  The leftover bytes are dropped either way."""
        left = len(self._buffer) - self._start
        header = self._buffer[self._start : self._start + _HEADER.size]
        self._buffer, self._start = b"", 0
        if not left:
            return
        if left < _HEADER.size:
            raise FrameError(
                FRAME_TRUNCATED,
                f"stream ended {left} bytes into a frame header",
            )
        (length,) = _HEADER.unpack(header)
        raise FrameError(
            FRAME_TRUNCATED,
            f"stream ended {left - _HEADER.size}/{length} bytes into a frame",
        )


async def write_frames(writer: asyncio.StreamWriter, payloads) -> None:
    """Write a run of frames with one ``write`` and flush them together."""
    writer.write(b"".join([encode_frame(payload) for payload in payloads]))
    await writer.drain()


async def write_frame(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one frame and flush it to the transport."""
    await write_frames(writer, (payload,))
