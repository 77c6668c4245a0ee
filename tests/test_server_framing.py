"""Unit tests for the server's length-prefixed JSON framing layer.

The framing layer is the first thing attacker bytes touch, so its
failure taxonomy must be closed: every way a peer can damage a frame
(lie about the length, stall mid-frame, send non-JSON) maps to a typed
:class:`FrameError` with one of the three reason slugs, and a clean
close at a frame boundary is distinguishable (``None``) from a
truncation mid-frame (an error).
"""

import asyncio

import pytest

from repro.server.framing import (
    FRAME_CORRUPT,
    FRAME_OVERSIZED,
    FRAME_TRUNCATED,
    FrameError,
    decode_body,
    FrameReader,
    encode_frame,
    write_frames,
)


def read_from_bytes(data: bytes, eof: bool = True, **kwargs):
    """Feed raw bytes to a StreamReader and read one frame from it."""

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await FrameReader(reader, **kwargs).read()

    return asyncio.run(body())


class TestRoundTrip:
    def test_encode_decode_roundtrip(self):
        payload = {"type": "hello", "session_id": "dev-1", "rounds": 96}
        assert read_from_bytes(encode_frame(payload)) == payload

    def test_multiple_frames_in_sequence(self):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"n": 1}) + encode_frame({"n": 2}))
            reader.feed_eof()
            frames = FrameReader(reader)
            return await frames.read(), await frames.read()

        first, second = asyncio.run(body())
        assert (first, second) == ({"n": 1}, {"n": 2})

    def test_clean_eof_returns_none(self):
        assert read_from_bytes(b"") is None


class TestFailureTaxonomy:
    def test_oversized_declared_length(self):
        header = (2**31).to_bytes(4, "big")
        with pytest.raises(FrameError) as info:
            read_from_bytes(header)
        assert info.value.reason == FRAME_OVERSIZED

    def test_custom_limit_is_enforced(self):
        frame = encode_frame({"type": "x", "pad": "y" * 256})
        with pytest.raises(FrameError) as info:
            read_from_bytes(frame, max_bytes=64)
        assert info.value.reason == FRAME_OVERSIZED

    def test_truncated_header(self):
        with pytest.raises(FrameError) as info:
            read_from_bytes(b"\x00\x00")
        assert info.value.reason == FRAME_TRUNCATED

    def test_truncated_body(self):
        frame = encode_frame({"type": "hello"})
        with pytest.raises(FrameError) as info:
            read_from_bytes(frame[:-3])
        assert info.value.reason == FRAME_TRUNCATED

    def test_corrupt_payload(self):
        body = b"\x00\xffdefinitely-not-json"
        with pytest.raises(FrameError) as info:
            read_from_bytes(len(body).to_bytes(4, "big") + body)
        assert info.value.reason == FRAME_CORRUPT

    def test_non_object_payload(self):
        body = b"[1, 2, 3]"
        with pytest.raises(FrameError) as info:
            read_from_bytes(len(body).to_bytes(4, "big") + body)
        assert info.value.reason == FRAME_CORRUPT

    def test_decode_body_requires_object(self):
        with pytest.raises(FrameError):
            decode_body(b'"just a string"')


class TestFrameReader:
    def test_buffered_hands_out_complete_frames_without_awaiting(self):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(b"".join(encode_frame({"n": n}) for n in range(3)))
            reader.feed_data(encode_frame({"n": 3})[:5])  # a partial fourth
            frames = FrameReader(reader)
            assert frames.buffered() is None  # nothing read from the stream yet
            first = await frames.read()
            rest = [frames.buffered(), frames.buffered()]
            assert frames.buffered() is None  # the fourth is incomplete
            reader.feed_data(encode_frame({"n": 3})[5:])
            reader.feed_eof()
            return first, rest, await frames.read(), await frames.read()

        first, rest, fourth, end = asyncio.run(body())
        assert [first, *rest, fourth] == [{"n": n} for n in range(4)]
        assert end is None

    def test_one_stream_read_parses_a_whole_burst(self):
        class CountingReader(asyncio.StreamReader):
            reads = 0

            async def read(self, n=-1):
                CountingReader.reads += 1
                return await super().read(n)

        async def body():
            reader = CountingReader()
            reader.feed_data(b"".join(encode_frame({"n": n}) for n in range(64)))
            frames = FrameReader(reader)
            got = [await frames.read()]
            while (frame := frames.buffered()) is not None:
                got.append(frame)
            return got

        assert asyncio.run(body()) == [{"n": n} for n in range(64)]
        assert CountingReader.reads == 1

    def test_oversized_is_raised_before_the_body_arrives(self):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"ok": 1}) + (2**20).to_bytes(4, "big"))
            frames = FrameReader(reader, max_bytes=1024)
            first = frames.buffered()  # nothing read yet
            ok = await frames.read()
            assert frames.buffered() is None  # damage is left for read()
            with pytest.raises(FrameError) as info:
                await asyncio.wait_for(frames.read(), timeout=1.0)  # no EOF fed
            return first, ok, info.value.reason

        assert asyncio.run(body()) == (None, {"ok": 1}, FRAME_OVERSIZED)

    def test_corrupt_frame_is_left_for_read(self):
        body_bytes = b"[1]"
        wire = encode_frame({"ok": 1}) + len(body_bytes).to_bytes(4, "big") + body_bytes

        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            frames = FrameReader(reader)
            ok = await frames.read()
            assert frames.buffered() is None
            with pytest.raises(FrameError) as info:
                await frames.read()
            return ok, info.value.reason, await frames.read()

        assert asyncio.run(body()) == ({"ok": 1}, FRAME_CORRUPT, None)

    def test_write_frames_is_one_write_of_the_concatenated_frames(self):
        class Writer:
            def __init__(self):
                self.writes, self.drains = [], 0

            def write(self, data):
                self.writes.append(data)

            async def drain(self):
                self.drains += 1

        payloads = [{"type": "secure", "n": n} for n in range(5)]
        writer = Writer()
        asyncio.run(write_frames(writer, payloads))
        assert writer.writes == [b"".join(encode_frame(p) for p in payloads)]
        assert writer.drains == 1
