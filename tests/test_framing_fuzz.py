"""Seeded fuzz of the wire framing layer.

The framing contract is that *any* byte stream -- random noise, truncated
frames, mutated valid frames, hostile length prefixes -- ends in exactly
one of three outcomes per read: a decoded dict, a clean ``None`` EOF, or
a :class:`FrameError` carrying one of the three closed reason slugs.
Nothing else may escape: no ``struct.error``, no ``json`` internals, no
``UnicodeDecodeError``.  The sweep is seeded, so a failure names the
exact stream that produced it.

:class:`TestAgainstTheFrozenReader` feeds generated streams both to
:class:`FrameReader`, in random chunkings, and to the per-frame reader it
replaced (``tests/oracles/framing.py``), and requires the same frames and
the same error at the same point.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.framing import (
    FRAME_CORRUPT,
    FRAME_OVERSIZED,
    FRAME_TRUNCATED,
    FrameError,
    FrameReader,
    encode_frame,
)
from tests.oracles.framing import reference_read_frame

FRAME_REASONS = (FRAME_OVERSIZED, FRAME_TRUNCATED, FRAME_CORRUPT)

#: Small ceiling so oversized declarations are cheap to exercise.
MAX_BYTES = 4096


def drain_stream(data: bytes):
    """Feed ``data`` as one closed stream; read frames until EOF or error.

    Returns ``(frames, error)`` where ``error`` is the FrameError that
    ended the stream, if any.  Any *other* exception propagates and
    fails the test -- that is the point of the fuzz.
    """

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames_in = FrameReader(reader, max_bytes=MAX_BYTES)
        frames = []
        try:
            while True:
                frame = await frames_in.read()
                if frame is None:
                    return frames, None
                frames.append(frame)
        except FrameError as error:
            return frames, error

    return asyncio.run(body())


def seeded_payload(rng: random.Random) -> dict:
    """One random-but-valid protocol-shaped message."""
    return {
        "type": rng.choice(["hello", "start", "ping", "secure", "bye"]),
        "session_id": f"dev-{rng.randrange(1000)}",
        "blob": rng.randbytes(rng.randrange(64)).hex(),
    }


class TestRandomStreams:
    def test_pure_noise_never_escapes_the_taxonomy(self):
        for seed in range(200):
            rng = random.Random(seed)
            data = rng.randbytes(rng.randrange(1, 256))
            frames, error = drain_stream(data)
            if error is not None:
                assert error.reason in FRAME_REASONS, f"seed {seed}"
            # Decoded frames from noise are astronomically unlikely but
            # would still be dicts by contract.
            assert all(isinstance(frame, dict) for frame in frames)

    def test_noise_is_deterministic_per_seed(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        data_a = rng_a.randbytes(128)
        data_b = rng_b.randbytes(128)
        result_a = drain_stream(data_a)
        result_b = drain_stream(data_b)
        assert data_a == data_b
        assert (result_a[0], getattr(result_a[1], "reason", None)) == (
            result_b[0],
            getattr(result_b[1], "reason", None),
        )


class TestTruncatedFrames:
    def test_every_truncation_point_is_structured(self):
        rng = random.Random(11)
        wire = encode_frame(seeded_payload(rng))
        for cut in range(len(wire)):
            frames, error = drain_stream(wire[:cut])
            if cut == 0:
                assert frames == [] and error is None  # clean EOF
            else:
                assert error is not None, f"cut at {cut} silently passed"
                assert error.reason == FRAME_TRUNCATED

    def test_truncation_after_a_whole_frame_keeps_the_frame(self):
        rng = random.Random(13)
        first = seeded_payload(rng)
        wire = encode_frame(first) + encode_frame(seeded_payload(rng))
        cut = len(encode_frame(first)) + 2  # two bytes into frame 2's header
        frames, error = drain_stream(wire[:cut])
        assert frames == [first]
        assert error is not None and error.reason == FRAME_TRUNCATED


class TestMutatedFrames:
    def test_single_byte_mutations_stay_taxonomized(self):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            wire = bytearray(encode_frame(seeded_payload(rng)))
            position = rng.randrange(len(wire))
            wire[position] ^= 1 << rng.randrange(8)
            frames, error = drain_stream(bytes(wire))
            if error is not None:
                assert error.reason in FRAME_REASONS, (
                    f"seed {seed}, byte {position}: {error}"
                )
            else:
                # A mutation inside a JSON string can keep the frame
                # valid; the decode contract still holds.
                assert all(isinstance(frame, dict) for frame in frames)

    def test_length_prefix_mutations_never_hang_or_crash(self):
        rng = random.Random(29)
        body = encode_frame(seeded_payload(rng))[4:]
        for seed in range(50):
            mutated_length = random.Random(seed).randrange(0, 2**32)
            data = mutated_length.to_bytes(4, "big") + body
            frames, error = drain_stream(data)
            if error is not None:
                assert error.reason in FRAME_REASONS
            if mutated_length > MAX_BYTES:
                assert error is not None
                assert error.reason == FRAME_OVERSIZED


class TestHostilePayloads:
    def test_oversized_declaration_is_refused_before_reading(self):
        data = (MAX_BYTES + 1).to_bytes(4, "big") + b"\x00" * 16
        _, error = drain_stream(data)
        assert error is not None and error.reason == FRAME_OVERSIZED

    def test_non_object_json_is_corrupt(self):
        for payload in (b"[1,2,3]", b'"string"', b"42", b"null", b"true"):
            data = len(payload).to_bytes(4, "big") + payload
            _, error = drain_stream(data)
            assert error is not None and error.reason == FRAME_CORRUPT

    def test_invalid_utf8_is_corrupt_not_unicode_error(self):
        payload = b"\xff\xfe{}"
        data = len(payload).to_bytes(4, "big") + payload
        _, error = drain_stream(data)
        assert error is not None and error.reason == FRAME_CORRUPT

    def test_valid_frames_interleaved_with_garbage_tail(self):
        rng = random.Random(31)
        payloads = [seeded_payload(rng) for _ in range(3)]
        wire = b"".join(encode_frame(p) for p in payloads) + rng.randbytes(7)
        frames, error = drain_stream(wire)
        assert frames == payloads  # everything before the damage decoded
        assert error is not None and error.reason in FRAME_REASONS


class ChunkedStream:
    """A stream that hands out ``data`` in the given chunk sizes, then EOF."""

    def __init__(self, data: bytes, chunks):
        self.data = data
        self.chunks = list(chunks) or [len(data) or 1]
        self.position = 0
        self.reads = 0

    async def read(self, n: int) -> bytes:
        size = min(n, self.chunks[self.reads % len(self.chunks)])
        self.reads += 1
        chunk = self.data[self.position : self.position + size]
        self.position += len(chunk)
        return chunk


async def read_all_async(read_one):
    """Frames from ``read_one()`` until EOF or error: ``(frames, error)``."""
    frames = []
    try:
        while (frame := await read_one()) is not None:
            frames.append(frame)
    except FrameError as error:
        return frames, (error.reason, str(error))
    return frames, None


def read_all(read_one):
    return asyncio.run(read_all_async(read_one))


def oracle_outcome(data: bytes):
    """What the frozen reader makes of ``data`` as one closed stream."""

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_all_async(lambda: reference_read_frame(reader, MAX_BYTES))

    return asyncio.run(body())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
payloads = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


@st.composite
def segments(draw):
    """One piece of a stream: a frame, damage, or a hostile header."""
    kind = draw(
        st.sampled_from(
            ["frame", "frame", "frame", "noise", "truncated", "corrupt", "length"]
        )
    )
    if kind == "frame":
        return encode_frame(draw(payloads))
    if kind == "noise":
        return draw(st.binary(min_size=1, max_size=64))
    if kind == "truncated":
        wire = encode_frame(draw(payloads))
        return wire[: draw(st.integers(1, len(wire) - 1))]
    if kind == "corrupt":
        body = draw(
            st.sampled_from([b"", b"[1,2]", b'"s"', b"null", b"\xff\xfe{}", b"{bad"])
            | st.binary(max_size=32)
        )
        return len(body).to_bytes(4, "big") + body
    length = draw(
        st.sampled_from([MAX_BYTES, MAX_BYTES + 1, 2**31, 2**32 - 1])
        | st.integers(0, 2**32 - 1)
    )
    return length.to_bytes(4, "big") + draw(st.binary(max_size=16))


class TestAgainstTheFrozenReader:
    @settings(max_examples=400, deadline=None)
    @given(
        stream=st.lists(segments(), max_size=8).map(b"".join),
        cut=st.none() | st.integers(0, 10**6),
        chunks=st.lists(st.integers(1, 70_000), min_size=1, max_size=6),
        prefer_buffered=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    def test_same_frames_and_same_error(self, stream, cut, chunks, prefer_buffered):
        if cut is not None:
            stream = stream[: cut % (len(stream) + 1)]  # EOF anywhere
        source = ChunkedStream(stream, chunks)
        frames_in = FrameReader(source, max_bytes=MAX_BYTES)
        calls = [0]

        async def read_one():
            calls[0] += 1
            if prefer_buffered[calls[0] % len(prefer_buffered)]:
                frame = frames_in.buffered()
                if frame is not None:
                    return frame
            return await frames_in.read()

        assert read_all(read_one) == oracle_outcome(stream)
