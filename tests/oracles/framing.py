"""The frozen per-frame stream reader: ``FrameReader``'s oracle.

:func:`reference_read_frame` is ``repro.server.framing.read_frame`` as it
stood before frames were parsed from one buffered read per connection:
two ``readexactly`` calls per frame, ``None`` on a clean close at a
frame boundary, and a :class:`~repro.server.framing.FrameError` of the
closed taxonomy on damage.  The header codec is inlined; the error type,
its reason slugs and the body decoder are the live ones, because they
are the contract both readers share, not the code under test.

``tests/test_framing_fuzz.py`` feeds the same byte streams to this
reader and to ``FrameReader`` in random chunkings and requires the same
frames and the same error at the same point.
"""

import asyncio
import struct
from typing import Optional

from repro.server.framing import (
    FRAME_OVERSIZED,
    FRAME_TRUNCATED,
    MAX_FRAME_BYTES,
    FrameError,
    decode_body,
)

_HEADER = struct.Struct(">I")


async def reference_read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise FrameError(
            FRAME_TRUNCATED,
            f"stream ended {len(error.partial)} bytes into a frame header",
        )
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(
            FRAME_OVERSIZED, f"declared frame length {length} exceeds {max_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            FRAME_TRUNCATED,
            f"stream ended {len(error.partial)}/{length} bytes into a frame",
        )
    return decode_body(body)
