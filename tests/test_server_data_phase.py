"""The data phase's wire bytes and its asyncio cost, without training.

Each test builds a server and a session with a channel of known keys,
then hands the data phase a peer: a scripted byte stream or a real
:class:`~repro.server.DeviceClient` over loopback.  No establishment
runs, so no pipeline is needed.

- The wire pins feed scripted streams and require the server to write
  exactly the bytes the per-frame data phase wrote (sha256 below,
  recorded from it) -- 64-record bursts, a tampered record, a ``ping``
  and a non-``secure`` frame mid-burst, the decrypt budget crossed
  mid-burst and a channel at its nonce bound.  Burst boundaries change
  with how the bytes arrive; the reply bytes must not.
- The count pin echoes 512 records in windows of 64 and counts the
  asyncio tasks both ends create, with a loop task factory.
"""

import asyncio
import hashlib

import pytest

from repro.server import DeviceClient, Endpoint, KeyEstablishmentServer, ServerConfig
from repro.server.client import channel_from_frame
from repro.server.framing import MAX_FRAME_BYTES, FrameReader, encode_frame
from repro.server.session import DeviceSession

SESSION_ID = "dev-pin"
MASTER = bytes(range(32))
NONCE = bytes(range(100, 116))
FINGERPRINT = "pin-fingerprint"


def payload(index: int) -> bytes:
    """The ``index``-th scripted plaintext, alternating 64 B and 1 KiB."""
    size = 64 if index % 2 == 0 else 1024
    return hashlib.sha256(index.to_bytes(4, "big")).digest() * (size // 32)


async def open_session(**overrides):
    """A server and a session whose responder channel has fixed keys.

    Returns ``(server, session, peer)`` where ``peer`` is the initiator
    channel a device would derive from the session's channel frame, with
    a send bound of its own so it can script records past the server's.
    """
    server = KeyEstablishmentServer(None, ServerConfig(**overrides))
    session = DeviceSession(session_id=SESSION_ID, episode="pin")
    frame = server._build_channel(
        session, master=MASTER, nonce=NONCE, fingerprint=FINGERPRINT, epoch=0
    )
    return server, session, channel_from_frame({**frame, "max_records": 2**20})


class RecordingWriter:
    """A stream writer that keeps every byte written to it."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def write(self, data: bytes) -> None:
        self.data += data
        self.writes += 1

    async def drain(self) -> None:
        pass


def secure(peer, index: int) -> dict:
    return {"type": "secure", "record": peer.seal(payload(index)).hex()}


def tampered(peer, index: int) -> dict:
    wire = bytearray(peer.seal(payload(index)))
    wire[-1] ^= 0x01
    return {"type": "secure", "record": bytes(wire).hex()}


def script_echo(peer, channel):
    """Two 64-record bursts, a tampered record and a bad hex record, a
    ping mid-burst, then a non-``secure`` frame mid-burst (protocol
    error: the records behind it are never answered)."""
    frames = [secure(peer, i) for i in range(64)]
    frames += [secure(peer, 64 + i) for i in range(5)]
    frames.append(tampered(peer, 69))
    frames += [secure(peer, 70 + i) for i in range(3)]
    frames.append({"type": "ping"})
    frames += [secure(peer, 73 + i) for i in range(64)]
    frames.append({"type": "secure", "record": "zz"})
    frames += [secure(peer, 137 + i) for i in range(4)]
    frames.append({"type": "start"})
    frames += [secure(peer, 141 + i) for i in range(3)]
    return frames


def script_bye(peer, channel):
    """A full burst, a ping, three records, then ``bye`` ends the phase."""
    frames = [secure(peer, i) for i in range(64)]
    frames.append({"type": "ping"})
    frames += [secure(peer, 64 + i) for i in range(3)]
    frames.append({"type": "bye"})
    frames += [secure(peer, 67 + i) for i in range(2)]
    return frames


def script_budget(peer, channel):
    """The third failed open (budget 3) falls mid-burst."""
    frames = [secure(peer, i) for i in range(4)]
    frames.append(tampered(peer, 4))
    frames += [secure(peer, 5 + i) for i in range(2)]
    frames.append({"type": "secure", "record": ""})
    frames.append(secure(peer, 7))
    frames.append(tampered(peer, 8))
    frames += [secure(peer, 9 + i) for i in range(5)]
    return frames


def script_nonce_bound(peer, channel):
    """The server's channel has 6 of its 10 send nonces (``max_records=9``)
    left; the seventh record that opens finds none, mid-burst."""
    for _ in range(4):
        channel.seal(b"spent")
    frames = [secure(peer, i) for i in range(3)]
    frames.append(tampered(peer, 3))
    frames += [secure(peer, 4 + i) for i in range(6)]
    return frames


def script_eof(peer, channel):
    """Records, then the peer closes mid-frame: the burst is answered."""
    frames = [secure(peer, i) for i in range(10)]
    return frames + [encode_frame(secure(peer, 10))[:-7]]


def script_corrupt(peer, channel):
    """A frame that is not JSON mid-burst: the records before it are
    answered, then the phase ends without a reply to the damage."""
    frames = [secure(peer, i) for i in range(5)]
    frames.append(len(b"{oops").to_bytes(4, "big") + b"{oops")
    return frames + [secure(peer, 5 + i) for i in range(3)]


#: name -> (server settings, script, sha256 and length of the server's
#: bytes as written by the per-frame data phase).  A script is a list of
#: frames and raw byte strings (damage), sent in order.
SCRIPTS = {
    "budget": (
        {"secure_decrypt_budget": 3},
        script_budget,
        "d4b28d094d2a8008c5c6b6041de4165157267ea0e3faea434aa5b26b057cbad9",
        9758,
    ),
    "bye": (
        {},
        script_bye,
        "635b5c71df07fb2481294e01d54a2e2889f25664554f21c087a4e37021f5946c",
        80263,
    ),
    "corrupt": (
        {},
        script_corrupt,
        "d3c2cf871c3cd3dd9fa80ce6a4a9e3fe1f01d4107d3c4924b0b7d7f721870256",
        5100,
    ),
    "echo": (
        {},
        script_echo,
        "d9bace4852449307ccd97f58212917485f0bc348352df676b92cab7a17696885",
        168010,
    ),
    "eof": (
        {},
        script_eof,
        "182fb5739344cd521b8246393bac12ae0fcfa30eb94c247a61e9702c38c72071",
        12120,
    ),
    "nonce-bound": (
        {"secure_max_records": 9},
        script_nonce_bound,
        "2d626fe9e4b741a892e12910ce8400c0a81205e871e49764c15a79a72bef2028",
        5505,
    ),
}


def run_script(name: str, chunk: int = 0):
    """Serve one script; returns ``(server bytes, server, peer, writer)``.

    ``chunk`` > 0 delivers the stream ``chunk`` bytes at a time, with a
    loop turn between chunks, instead of all at once.
    """
    settings, script, _, _ = SCRIPTS[name]

    async def body():
        server, session, peer = await open_session(**settings)
        stream = b"".join(
            item if isinstance(item, bytes) else encode_frame(item)
            for item in script(peer, session.channel)
        )
        reader = asyncio.StreamReader()
        writer = RecordingWriter()

        async def feed():
            step = chunk or len(stream)
            for start in range(0, len(stream), step):
                reader.feed_data(stream[start : start + step])
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames_in = FrameReader(reader, MAX_FRAME_BYTES)
        await server._data_phase(
            session, frames_in, writer, asyncio.create_task(frames_in.read())
        )
        await feeder
        return bytes(writer.data), server, peer, writer

    return asyncio.run(body())


def server_frames(data: bytes):
    """The frames in the bytes the server wrote."""

    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames_in = FrameReader(reader)
        out = []
        while (frame := await frames_in.read()) is not None:
            out.append(frame)
        return out

    return asyncio.run(body())


def summary(frames):
    """Reply kinds in order, with the failure or close reason attached."""
    out = []
    for frame in frames:
        detail = frame.get("failure") or frame.get("reason")
        out.append(frame["type"] + (f":{detail}" if detail else ""))
    return out


EXPECTED_REPLIES = {
    "echo": ["secure"] * 69
    + ["secure-error:auth-failed"]
    + ["secure"] * 3
    + ["pong"]
    + ["secure"] * 64
    + ["secure-error:record-truncated"]
    + ["secure"] * 4
    + ["channel-closed:protocol-error"],
    "bye": ["secure"] * 64 + ["pong"] + ["secure"] * 3,
    "budget": ["secure"] * 4
    + ["secure-error:auth-failed"]
    + ["secure"] * 2
    + ["secure-error:record-truncated", "secure", "secure-error:auth-failed"]
    + ["channel-closed:decrypt-budget-exceeded"],
    "nonce-bound": ["secure"] * 3
    + ["secure-error:auth-failed"]
    + ["secure"] * 3
    + ["channel-closed:nonce-exhausted"],
    "eof": ["secure"] * 10,
    "corrupt": ["secure"] * 5,
}


class TestWirePin:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_server_writes_the_per_frame_phase_bytes(self, name):
        data, _, peer, _ = run_script(name)
        frames = server_frames(data)
        assert summary(frames) == EXPECTED_REPLIES[name]
        for frame in frames:
            if frame["type"] == "secure":
                assert peer.open(bytes.fromhex(frame["record"])).ok
        _, _, digest, length = SCRIPTS[name]
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, length)

    @pytest.mark.parametrize("chunk", [1, 997, 65536])
    def test_arrival_pattern_does_not_change_the_bytes(self, chunk):
        whole = run_script("echo")[0]
        assert run_script("echo", chunk=chunk)[0] == whole

    def test_damage_mid_burst_is_counted_not_raised(self):
        _, server, _, _ = run_script("corrupt")
        assert server.metrics.secure_echoed == 5
        assert server.metrics.malformed_frames == 1

    def test_one_write_per_burst(self):
        _, server, _, writer = run_script("bye")
        # 67 echoes and one pong; the 64-record burst spans more than
        # one 64 KiB read, so it may arrive as two bursts.
        assert server.metrics.secure_echoed == 67
        assert server.metrics.secure_batches <= 3
        assert writer.writes == server.metrics.secure_batches + 1


class TestTaskCount:
    RECORDS, WINDOW = 512, 64

    def test_echo_creates_under_one_task_per_four_records(self):
        async def body():
            server, session, peer = await open_session()
            created = [0]
            loop = asyncio.get_running_loop()

            def counting_factory(loop, coro, **kwargs):
                created[0] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            async def handle(reader, writer):
                frames_in = FrameReader(reader, MAX_FRAME_BYTES)
                read_task = asyncio.create_task(frames_in.read())
                try:
                    await server._data_phase(session, frames_in, writer, read_task)
                finally:
                    writer.close()

            listener = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = DeviceClient(Endpoint(port=port), SESSION_ID, timeout_s=10.0)
            await client.connect()
            echoed = 0
            try:
                loop.set_task_factory(counting_factory)
                for start in range(0, self.RECORDS, self.WINDOW):
                    window = [payload(start + k) for k in range(self.WINDOW)]
                    for record in peer.seal_records(window):
                        await client.send({"type": "secure", "record": record.hex()})
                    for plaintext in window:
                        reply = await client.recv()
                        opened = peer.open(bytes.fromhex(reply["record"]))
                        echoed += opened.ok and opened.plaintext == plaintext
                loop.set_task_factory(None)
                await client.send({"type": "bye"})
            finally:
                loop.set_task_factory(None)
                await client.close()
                listener.close()
                await listener.wait_closed()
            return echoed, created[0]

        echoed, tasks = asyncio.run(body())
        assert echoed == self.RECORDS
        assert tasks < self.RECORDS / 4, f"{tasks} tasks for {self.RECORDS} records"
