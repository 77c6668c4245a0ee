"""Known-answer and reference-equivalence pins of the secure wire format.

The optimized record layer (:mod:`repro.secure.records`) promises that
**not a single wire byte changed** relative to the frozen
:mod:`tests.oracles.secure_records` implementation.  Two independent
pins hold it to that:

- **Known answers**: SHA-256 digests of whole wire records (plus full
  hex for the tiniest sizes) generated from the *reference* path and
  committed here as constants.  If either implementation -- or the KDF
  above them -- ever drifts, these fail without needing the other
  implementation present.
- **Pairwise equivalence**: across the same matrix, the optimized seal,
  keystream, decrypt and verify are compared byte-for-byte against the
  reference, including verify parity on tampered records.

The matrix covers payload sizes ``{0, 1, 31, 32, 33, 64, 1024}`` (empty,
sub-block, both block boundaries, the benchmark sizes), both directions,
and large epoch/sequence values that exercise every header field's width.

The keystream has two paths -- the per-block midstate loop for short
records and one PBKDF2 call for blocks 1, 2, ... of longer ones -- so
:class:`TestKeystreamPaths` holds both, and the crossover between them,
to the reference: every length up to ten blocks, arbitrary keys, nonces
and payloads up to 32 KiB, a burst mixing both paths, and a count of the
PBKDF2 calls themselves.
"""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.oracles import secure_records as reference
from repro.secure import SecureLink
from repro.secure.channel import SecureChannel
from repro.secure.kdf import ChannelContext, DirectionKeys, derive_channel_keys
from repro.secure.records import (
    decrypt_record,
    keystream_bytes,
    parse_record,
    seal_record,
    verify_record,
    xor_bytes,
)

MASTER = bytes(range(32))

#: Fewest 32-byte blocks whose keystream comes from one PBKDF2 call.
#: Pinned here, not imported, so the count pin fails when the crossover
#: in :mod:`repro.secure.records` moves.
CROSSOVER_BLOCKS = 7

#: The longest keystream the per-block loop still produces (192 B).
LONGEST_SHORT = (CROSSOVER_BLOCKS - 1) * 32

#: The largest payload a 64 KiB hex frame carries.
MAX_PAYLOAD = 32 * 1024

#: The KAT matrix axes.
KAT_SIZES = (0, 1, 31, 32, 33, 64, 1024)
KAT_EPOCHS = (0, 70000)
KAT_SEQUENCES = (0, 2**19)

#: ``(size, direction, epoch, sequence) -> sha256(wire)``, generated from
#: the frozen reference implementation.  Do not regenerate casually: a
#: change here is a wire-format break.
KAT_DIGESTS = {
    (0, 0, 0, 0): "a89709b42b70a932ea5ab607c8898b72df6764372268962975f6d94932df762a",
    (0, 0, 0, 524288): "a82025f1f3ccecf51ecd650adf7797c471c104fcbaca4a645f11882609f28887",
    (0, 0, 70000, 0): "668cc4b08c7e7be37c23f4a4994584362bc7768a50ee314ee91f655f01cc970b",
    (0, 0, 70000, 524288): "8b7292f5c2271296e707283061a6796f202c75251d3b311b59ac38e0dc01a8e0",
    (0, 1, 0, 0): "960462df1040a373358e5d9855889035b72c28dd6233e95bcb0fc648c12c0308",
    (0, 1, 0, 524288): "12eec101647507e163dba17fa4f4573a02e66abfefdfdbca395d0b4bf6918a2b",
    (0, 1, 70000, 0): "b74c41bc92b9f82aecbd619055826f37b0411c1c60f185b5c9e92d21949d0095",
    (0, 1, 70000, 524288): "4aea4af26f29585605e2fcdeaf5a65f55c325267e2454adeea1e5afce581267f",
    (1, 0, 0, 0): "e38e7523cc44aa7289d3e910b7b90fb667fc60f43145729720d73446c3de4cc9",
    (1, 0, 0, 524288): "fb8ba755467e33bf6d25242084691fa278ebd3e7eaa60969b71a3149159efe85",
    (1, 0, 70000, 0): "c20dcd125de0be08944d33aac6c788acae2dd55f166cdca76459de70a7a741c2",
    (1, 0, 70000, 524288): "efc7e5061c3a5b65ab1ff1090abd57448eacf4db9b106871fc45cccd5546709f",
    (1, 1, 0, 0): "0635841b5789573bc3186fa26df8ae8c9609b3ab3851a03d68c51cc0f02d1503",
    (1, 1, 0, 524288): "0d05061e1bc92ee9d51651d052f74cefda7a7fe71e40a487538c5316ccb178b2",
    (1, 1, 70000, 0): "bd2f97b8ec930329a4d5eb6d42ea852afb0a2cf4ddf8118f70ead44ee2dafc99",
    (1, 1, 70000, 524288): "480c0b0235aefe6a5d8c74703d8ed900ee0db04acd353bb45ad93c4edd20aa70",
    (31, 0, 0, 0): "8edf825ff869aee097b39bde4c4f46bc98ce3098cc7aa93ad0d5fbf7503f8286",
    (31, 0, 0, 524288): "0e64cdf87561b3293f8022353307a1899b8dbfd89ff314942d6a5e0a9d71b865",
    (31, 0, 70000, 0): "6acf9cab17dbd9e72be146c590c1d9849e428634674d8670629ca29dc6f4679b",
    (31, 0, 70000, 524288): "73302c31020fd92d5eb099d652dc882924ad0530ac99e16684e88b0d983da9a7",
    (31, 1, 0, 0): "e07f3fabc22d8afe9edd2c1fbcf6bbbd8d70d5291e810d7623803c10cfd87be6",
    (31, 1, 0, 524288): "5013478ff17c0508a43d312d3308bd165a2e2b33c60201e464c2ec4507bb333e",
    (31, 1, 70000, 0): "fe8f057df681ef2acc3d674edb8e1f657f1abdc8c1145f0a8c73d034c3437465",
    (31, 1, 70000, 524288): "09a16218a3e36494a2e43c9bb4b2e65015a94f4683610174f634959e1a565517",
    (32, 0, 0, 0): "45419a20d14bb38ca7975da26c76745961242a96d0a5bfb6fb853a775d98bcff",
    (32, 0, 0, 524288): "fc69708d7a5e6749d1a106928aa764a35103598c0626cff02e47465393be1855",
    (32, 0, 70000, 0): "3d355a58ef807d16ce1425270a170dd4ff8de3683592d073cebe689ec29340cc",
    (32, 0, 70000, 524288): "8936fed9bebbb0b9a9bcb9828286cc6297d9f09329fafcd6931eb2d7b3afeb9d",
    (32, 1, 0, 0): "6c82ae86344b071219e7ff272a4d9e7897904caf6ccf424b4f50420e83ef111b",
    (32, 1, 0, 524288): "86c114911c76d14021585b2fedb920f56662041db3596cf1cbb73e36c58761bc",
    (32, 1, 70000, 0): "867f4158c7c8a5b517d0208771bf3fa0f46d7496543c740662defba93f44f50a",
    (32, 1, 70000, 524288): "f2c470706b5d128bc6f8320e66e8d6838b49631a56bc9d6bcee40bd985707da3",
    (33, 0, 0, 0): "e3f39610fc9c4b91fe7dc965f158d7fd6bc0ac9c1df22c28768c6378f6a2fe46",
    (33, 0, 0, 524288): "7fd599093cae782e10ad872d88ad786b324e112f87bfb4e5af51f6c09d0782c1",
    (33, 0, 70000, 0): "d1ba0cdd701e1d0fe83fc43262dfc30fd8fbaececd7322b17372d7f09ee576bc",
    (33, 0, 70000, 524288): "3d7b3b3cbcf3c8bb056c6ddcbdeb5e615b706528ec282ba4d08bc062bdcc5e0a",
    (33, 1, 0, 0): "d9bf78c8632235914a3d1c65b50e60becf82b4767ef9b4c8dd1439280b4af8df",
    (33, 1, 0, 524288): "d00f9928533c835355c3b8c8a683358db7f060da6d263a5ff808bb66f1ca34a1",
    (33, 1, 70000, 0): "b2375c3fd10fa0820de3a7a87e8f09f626b74f184057ca5d9ec2b8511d8d1ba8",
    (33, 1, 70000, 524288): "d6a6e825b19b9ef206f56ed92c46dc13ae18ac0ef0aff4e546643723f57f7c46",
    (64, 0, 0, 0): "09f6fb721b959c599c5524e8faf6061fd287c128fc061662782bb540289778f4",
    (64, 0, 0, 524288): "c801badbdc4d106e46def4b3c30cb50ea6a5e2e508d05b976db7a12d6247e364",
    (64, 0, 70000, 0): "2dd9e071ccc2b961c9727d3f1c2e32e34f68a19675b76c8c67c940a1d70f87ef",
    (64, 0, 70000, 524288): "8bbfd02d9ba6f054c03371486d0c26de3676750cf3bb119b09eca8fd89c0b72a",
    (64, 1, 0, 0): "21c72138e4c2c8fab64f87b004df4cdc17c32dde0749841b009418b996de4ec1",
    (64, 1, 0, 524288): "df416fc4b94bf8e93b05267d8e6f8b2b36bc2332cd7ffb1a1eba35bae54125a7",
    (64, 1, 70000, 0): "c2be977ad830298ece980f2ed162165fe99b5768fc8ac59a4a7097029503c409",
    (64, 1, 70000, 524288): "2b58eb241f0828bc6da07f59f0869baa535981e6a7dbfaefb91863c01daaa3e5",
    (1024, 0, 0, 0): "509e11e7b2a46287a4396a60a6987e305244d3948618f2a4a28031fb8afc502f",
    (1024, 0, 0, 524288): "ed3689ef2360f033579d3555a193b7eeb3cbf8409827adf9394c098cb828db3b",
    (1024, 0, 70000, 0): "d33c8b528419189bc1b7684b4b6b697e2c44982e6142ce3b654ac927cbab2134",
    (1024, 0, 70000, 524288): "ac52740a5676c9fc4c95038b721e5d8328e5fe67ceb82ad878db1ffe0ac1e2c1",
    (1024, 1, 0, 0): "a52e0efc2ff6ed3a93af2545244de79d440f7a7cb0bd31c7f1c1c1b5439de727",
    (1024, 1, 0, 524288): "07af14b88f90488ea601be29fbf4d6a97f4410abff1909d2d0d3de7409f84f38",
    (1024, 1, 70000, 0): "edf2dd5afa1819adf69c62acf3bc3e73deb2de66c355e6484349a3c144fbdc61",
    (1024, 1, 70000, 524288): "6d13a8dd4cfe3514685e05873f4bcfa22a2b7383da5d57df44b703ade16e9916",
}

#: Full wire hex of the smallest records (initiator direction, epoch 0,
#: sequence 0) so a digest mismatch has a byte-level witness.
KAT_WIRES_HEX = {
    0: "01000000000000000000000000000000000052df13bfadae25509a96528d69849270",
    1: "01000000000000000000000000000000000184bbced67c0f7c6213c78d9fa4e5807a59",
    31: (
        "01000000000000000000000000000000001f84c91d70c7d62ee747c88307aaa0"
        "37805fec28ac752f3106c6c292820bfb622b4d00da6d251bf0bf77fa86792385"
        "f6"
    ),
}


def _plaintext(size: int) -> bytes:
    return (bytes(range(251)) * (size // 251 + 1))[:size]


@pytest.fixture(scope="module")
def keys():
    return derive_channel_keys(
        MASTER,
        ChannelContext(
            session_nonce=b"\x11" * 16,
            initiator_id="vk-alice",
            responder_id="vk-bob",
            pipeline_fingerprint="kat-v1",
        ),
    )


def _direction_keys(keys, direction):
    return keys.send_keys("initiator" if direction == 0 else "responder")


class TestKnownAnswers:
    @pytest.mark.parametrize("size", KAT_SIZES)
    @pytest.mark.parametrize("direction", (0, 1))
    @pytest.mark.parametrize("epoch", KAT_EPOCHS)
    @pytest.mark.parametrize("sequence", KAT_SEQUENCES)
    def test_optimized_path_matches_pinned_digest(
        self, keys, size, direction, epoch, sequence
    ):
        dk = _direction_keys(keys, direction)
        wire = seal_record(dk, epoch, direction, sequence, _plaintext(size)).encode()
        assert (
            hashlib.sha256(wire).hexdigest()
            == KAT_DIGESTS[(size, direction, epoch, sequence)]
        )

    @pytest.mark.parametrize("size", KAT_SIZES)
    @pytest.mark.parametrize("direction", (0, 1))
    @pytest.mark.parametrize("epoch", KAT_EPOCHS)
    @pytest.mark.parametrize("sequence", KAT_SEQUENCES)
    def test_reference_path_matches_pinned_digest(
        self, keys, size, direction, epoch, sequence
    ):
        dk = _direction_keys(keys, direction)
        wire = reference.seal_record(
            dk, epoch, direction, sequence, _plaintext(size)
        ).encode()
        assert (
            hashlib.sha256(wire).hexdigest()
            == KAT_DIGESTS[(size, direction, epoch, sequence)]
        )

    @pytest.mark.parametrize("size", sorted(KAT_WIRES_HEX))
    def test_tiny_records_match_pinned_bytes(self, keys, size):
        dk = _direction_keys(keys, 0)
        wire = seal_record(dk, 0, 0, 0, _plaintext(size)).encode()
        assert wire.hex() == KAT_WIRES_HEX[size]

    def test_kat_matrix_is_complete(self):
        assert len(KAT_DIGESTS) == len(KAT_SIZES) * 2 * len(KAT_EPOCHS) * len(
            KAT_SEQUENCES
        )


class TestReferenceEquivalence:
    @pytest.mark.parametrize("size", KAT_SIZES + (5000,))
    @pytest.mark.parametrize("direction", (0, 1))
    def test_seal_bytes_identical(self, keys, size, direction):
        dk = _direction_keys(keys, direction)
        pt = _plaintext(size)
        for epoch, sequence in ((0, 0), (3, 1), (70000, 2**19)):
            fast = seal_record(dk, epoch, direction, sequence, pt)
            slow = reference.seal_record(dk, epoch, direction, sequence, pt)
            assert fast == slow
            assert fast.encode() == slow.encode()

    @pytest.mark.parametrize("length", (0, 1, 31, 32, 33, 64, 1024, 5000))
    def test_keystream_identical(self, keys, length):
        dk = _direction_keys(keys, 0)
        fast = keystream_bytes(dk, 7, 0, 42, length)
        slow = reference._keystream_xor(dk.enc_key, 7, 0, 42, bytes(length))
        assert fast == slow  # XOR against zeros is the raw keystream
        assert len(fast) == length

    def test_decrypt_and_verify_identical(self, keys):
        dk = _direction_keys(keys, 0)
        pt = _plaintext(1024)
        record = parse_record(seal_record(dk, 2, 0, 9, pt).encode())
        assert verify_record(dk, record)
        assert reference.verify_record(dk, record)
        assert decrypt_record(dk, record) == pt
        assert reference.decrypt_record(dk, record) == pt

    def test_tampered_record_rejected_by_both(self, keys):
        dk = _direction_keys(keys, 0)
        wire = bytearray(seal_record(dk, 0, 0, 5, _plaintext(64)).encode())
        for bit_index in (0, 8 * 20 + 3, 8 * len(wire) - 1):
            tampered = bytearray(wire)
            tampered[bit_index // 8] ^= 1 << (bit_index % 8)
            try:
                record = parse_record(bytes(tampered))
            except Exception:
                continue  # structural damage: neither path consults a MAC
            assert not verify_record(dk, record)
            assert not reference.verify_record(dk, record)

    def test_xor_bytes_roundtrip_both_regimes(self):
        for length in (1, 255, 256, 4096):  # either side of the NumPy cutover
            data = bytes((i * 37) % 256 for i in range(length))
            stream = bytes((i * 101 + 7) % 256 for i in range(length))
            out = xor_bytes(data, stream)
            assert len(out) == length
            assert xor_bytes(out, stream) == data
            assert out == bytes(d ^ s for d, s in zip(data, stream))


class TestKeystreamPaths:
    """The per-block loop, the PBKDF2 path and the crossover between them."""

    @pytest.mark.parametrize(
        "epoch, direction, sequence", ((7, 0, 42), (2**32 - 1, 1, 2**64 - 1))
    )
    def test_every_length_up_to_ten_blocks(
        self, keys, epoch, direction, sequence
    ):
        dk = _direction_keys(keys, direction)
        for length in range(10 * 32 + 1):
            fast = keystream_bytes(dk, epoch, direction, sequence, length)
            slow = reference._keystream_xor(
                dk.enc_key, epoch, direction, sequence, bytes(length)
            )
            assert fast == slow, length

    @settings(max_examples=200, deadline=None)
    @given(
        enc_key=st.integers(0, 100).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
        epoch=st.just(2**32 - 1) | st.integers(0, 2**32 - 1),
        direction=st.sampled_from((0, 1)),
        sequence=st.just(2**64 - 1) | st.integers(0, 2**64 - 1),
        length=st.integers(0, 10 * 32) | st.integers(0, MAX_PAYLOAD),
    )
    @example(
        enc_key=bytes(range(100)),
        epoch=2**32 - 1,
        direction=1,
        sequence=2**64 - 1,
        length=MAX_PAYLOAD,
    )
    def test_any_key_nonce_and_length(
        self, enc_key, epoch, direction, sequence, length
    ):
        dk = DirectionKeys(enc_key=enc_key, mac_key=b"\x5c" * 32, key_id="kat")
        pt = _plaintext(length)
        record = seal_record(dk, epoch, direction, sequence, pt)
        slow = reference.seal_record(dk, epoch, direction, sequence, pt)
        assert record == slow
        assert decrypt_record(dk, record) == pt

    def test_mixed_burst_matches_seal_and_reference(self, keys):
        sizes = (
            64,
            LONGEST_SHORT,
            LONGEST_SHORT + 1,
            CROSSOVER_BLOCKS * 32,
            1024,
            64,
            1024,
            LONGEST_SHORT,
        )
        payloads = [_plaintext(size) for size in sizes]
        link = SecureLink(keys)
        wires = link.initiator.seal_records(payloads)
        one_at_a_time = SecureChannel(keys, "initiator")
        assert wires == [one_at_a_time.seal(payload) for payload in payloads]
        dk = keys.send_keys("initiator")
        assert wires == [
            reference.seal_record(dk, 0, 0, sequence, payload).encode()
            for sequence, payload in enumerate(payloads)
        ]
        outcomes = link.responder.open_records(wires)
        assert [outcome.plaintext for outcome in outcomes] == payloads

    def test_one_pbkdf2_call_per_keystream_from_the_crossover(
        self, keys, monkeypatch
    ):
        calls = []
        real = hashlib.pbkdf2_hmac

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashlib, "pbkdf2_hmac", counting)
        dk = _direction_keys(keys, 0)
        for length in range(LONGEST_SHORT + 3 * 32 + 1):
            calls.clear()
            keystream_bytes(dk, 0, 0, length, length)
            assert len(calls) == (length > LONGEST_SHORT), length

        # Every channel path draws its keystream the same way.
        payloads = [
            _plaintext(size) for size in (64, LONGEST_SHORT, 1024, 1024)
        ]
        link = SecureLink(keys)
        calls.clear()
        wires = link.initiator.seal_records(payloads)
        assert len(calls) == 2
        calls.clear()
        assert all(outcome.ok for outcome in link.responder.open_records(wires))
        assert len(calls) == 2
        calls.clear()
        link.initiator.seal(payloads[-1])
        assert len(calls) == 1
