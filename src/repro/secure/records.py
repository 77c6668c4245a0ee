"""The authenticated-encryption record format of the secure channel.

No AES implementation ships with this environment, so the record layer is
built from the primitives the protocol already trusts -- HMAC-SHA256 via
:mod:`repro.reconciliation.mac`:

- **Encryption** is an HMAC-SHA256 keystream in counter mode: block ``i``
  of the keystream is ``HMAC(enc_key, label || epoch || direction ||
  sequence || i)``, XORed over the plaintext.  The ``(epoch, direction,
  sequence)`` triple is the nonce; the channel layer guarantees it is
  never reused under one key, which is exactly the stream-cipher safety
  condition.
- **Authentication** is encrypt-then-MAC: a truncated HMAC-SHA256 tag
  (:func:`repro.reconciliation.mac.compute_mac`) over the full header and
  the ciphertext, under the independent ``mac_key``.  Every header field
  is authenticated, so any single-bit flip anywhere in the record --
  header, nonce fields, ciphertext or tag -- fails as ``auth-failed``.

The wire format (big-endian)::

    version(1) | epoch(4) | direction(1) | sequence(8) | ct_len(4)
    | ciphertext(ct_len) | tag(16)

Open failures form a closed taxonomy (:data:`OPEN_FAILURES`); the channel
layer maps every rejected record onto exactly one slug and never releases
plaintext alongside any of them.

The hot path here is the *optimized* implementation.  Keystream block
``i >= 1`` at one iteration is exactly PBKDF2-HMAC-SHA256's block ``i``
(RFC 8018, section 5.2: ``T_i = F(P, S, 1, i) = HMAC(P, S || INT(i))``
with a 4-byte big-endian ``INT``), so a record of
:data:`_PBKDF2_MIN_BLOCKS` or more blocks takes blocks 1, 2, ... from one
:func:`hashlib.pbkdf2_hmac` call (a single OpenSSL call) with
``P = enc_key`` and ``S = label || epoch || direction || sequence``.
Block 0, which PBKDF2 never emits, and every block of a shorter record
come from HMAC midstates primed once per
:class:`~repro.secure.kdf.DirectionKeys` (see
:meth:`~repro.secure.kdf.DirectionKeys.keystream_states`).  The XOR runs
over machine words (``int.from_bytes`` for short records, NumPy for long
ones) instead of a per-byte generator.  Every byte on the wire is
identical to the frozen implementation in
``tests/oracles/secure_records.py``; the equivalence and known-answer
tests pin that.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProtocolError
from repro.reconciliation.mac import MAC_BYTES
from repro.secure.kdf import DirectionKeys
from repro.utils.validation import require

#: Record format version carried in every header.
RECORD_VERSION = 1

#: Direction codes (match the KDF's label order).
DIRECTION_I2R = 0
DIRECTION_R2I = 1
DIRECTIONS = (DIRECTION_I2R, DIRECTION_R2I)

#: Header codec: version, epoch, direction, sequence, ciphertext length.
_HEADER = struct.Struct(">BIBQI")

#: Header bytes preceding the ciphertext.
HEADER_BYTES = _HEADER.size

#: Authentication tag bytes (truncated HMAC-SHA256, same as syndrome MACs).
TAG_BYTES = MAC_BYTES

#: Fixed per-record overhead: header plus tag.
RECORD_OVERHEAD = HEADER_BYTES + TAG_BYTES

#: Versioned domain-separation label of the keystream PRF.
STREAM_LABEL = b"vehicle-key-stream-v1"

#: Keystream block width (SHA-256 digest size).
_BLOCK_BYTES = 32

#: Closed decrypt-failure taxonomy, in reporting order.
FAILURE_AUTH = "auth-failed"
FAILURE_REPLAY = "nonce-replayed"
FAILURE_EXHAUSTED = "nonce-exhausted"
FAILURE_TRUNCATED = "record-truncated"
FAILURE_EPOCH = "epoch-mismatch"
OPEN_FAILURES = (
    FAILURE_AUTH,
    FAILURE_REPLAY,
    FAILURE_EXHAUSTED,
    FAILURE_TRUNCATED,
    FAILURE_EPOCH,
)


class RecordDamage(ProtocolError):
    """A byte string does not parse as a structurally valid record.

    Carried internally between :func:`parse_record` and the channel's
    ``open`` path, where it becomes the ``record-truncated`` failure slug;
    it never escapes :meth:`repro.secure.channel.SecureChannel.open`.
    """


@dataclass(frozen=True)
class SecureRecord:
    """One parsed (not yet verified) record.

    Attributes:
        epoch: Channel epoch the sender sealed under.
        direction: :data:`DIRECTION_I2R` or :data:`DIRECTION_R2I`.
        sequence: The sender's monotonic per-direction counter value.
        ciphertext: Encrypted payload bytes.
        tag: Truncated HMAC-SHA256 over header and ciphertext.
    """

    epoch: int
    direction: int
    sequence: int
    ciphertext: bytes
    tag: bytes

    def header_bytes(self) -> bytes:
        """The authenticated header encoding of this record."""
        return _HEADER.pack(
            RECORD_VERSION,
            self.epoch,
            self.direction,
            self.sequence,
            len(self.ciphertext),
        )

    def encode(self) -> bytes:
        """The full wire encoding: header, ciphertext, tag."""
        return self.header_bytes() + self.ciphertext + self.tag


def parse_record(data: bytes) -> SecureRecord:
    """Parse a wire record; raises :class:`RecordDamage` on any damage.

    Structural damage -- too short for the header, an unknown version, a
    length field disagreeing with the actual byte count (truncated *or*
    trailing garbage), an out-of-range direction -- is all one failure
    class: the bytes are not a record.  Tampering *within* a structurally
    valid record is the MAC's job, not the parser's.  Input that is not
    bytes-like (no buffer protocol: ``str``, ``int``, ``None``) is damage
    too.
    """
    if not isinstance(data, bytes):
        try:
            data = memoryview(data).tobytes()
        except TypeError:
            raise RecordDamage(
                f"record is {type(data).__name__}, not bytes-like"
            ) from None
    if len(data) < RECORD_OVERHEAD:
        raise RecordDamage(
            f"record too short: {len(data)} bytes < {RECORD_OVERHEAD} overhead"
        )
    version, epoch, direction, sequence, ct_len = _HEADER.unpack_from(data)
    if version != RECORD_VERSION:
        raise RecordDamage(f"unknown record version {version}")
    if direction not in DIRECTIONS:
        raise RecordDamage(f"unknown direction code {direction}")
    if len(data) != RECORD_OVERHEAD + ct_len:
        raise RecordDamage(
            f"length mismatch: header promises {ct_len} ciphertext bytes, "
            f"record carries {len(data) - RECORD_OVERHEAD}"
        )
    ciphertext = data[HEADER_BYTES : HEADER_BYTES + ct_len]
    tag = data[HEADER_BYTES + ct_len :]
    return SecureRecord(
        epoch=epoch,
        direction=direction,
        sequence=sequence,
        ciphertext=ciphertext,
        tag=tag,
    )


#: Nonce-tail codec: epoch, direction, sequence (the keystream PRF input
#: after the label; byte-identical to the reference's manual packing).
_NONCE_TAIL = struct.Struct(">IBQ")

#: Fewest keystream blocks for which one PBKDF2 call beats the midstate
#: loop.  Measured on a 2-vCPU x86-64 host (Python 3.11, OpenSSL 3.0,
#: best of 21 interleaved runs of 2,000 keystreams): the loop costs about
#: 0.75 us a block, PBKDF2 about 3 us a call plus 0.3 us a block; 6 blocks
#: tie (5.0 us in the loop, 4.9 us with PBKDF2), 7 blocks took 5.8 us
#: against 5.4, and a 1 KiB keystream 23.1 us against 13.0.
_PBKDF2_MIN_BLOCKS = 7

#: Pre-encoded 4-byte big-endian counters of the midstate loop's blocks.
_COUNTERS = tuple(
    counter.to_bytes(4, "big") for counter in range(_PBKDF2_MIN_BLOCKS)
)

#: Below this many bytes the int-XOR beats NumPy's per-call overhead.
_NUMPY_XOR_MIN = 256


def keystream_bytes(
    keys: DirectionKeys, epoch: int, direction: int, sequence: int, length: int
) -> bytes:
    """The first ``length`` keystream bytes of one record's nonce.

    Block ``i`` is ``HMAC(enc_key, label || epoch || direction ||
    sequence || i)``, exactly as the reference computes it.  Block 0
    comes from the key's primed midstates (two ``copy()``-and-finalize
    digests instead of a full ``hmac.new``); blocks 1, 2, ... come from
    one :func:`hashlib.pbkdf2_hmac` call at one iteration once the record
    needs :data:`_PBKDF2_MIN_BLOCKS` blocks, and from the same midstate
    loop below that.
    """
    if length <= 0:
        return b""
    inner, outer = keys.keystream_states()
    nonce = STREAM_LABEL + _NONCE_TAIL.pack(epoch, direction, sequence)
    n_blocks = -(-length // _BLOCK_BYTES)
    if n_blocks >= _PBKDF2_MIN_BLOCKS:
        block = inner.copy()
        block.update(nonce + _COUNTERS[0])
        closing = outer.copy()
        closing.update(block.digest())
        return closing.digest() + hashlib.pbkdf2_hmac(
            "sha256", keys.enc_key, nonce, 1, length - _BLOCK_BYTES
        )
    prefix = inner.copy()
    prefix.update(nonce)
    copy_prefix = prefix.copy
    copy_outer = outer.copy
    blocks = []
    append = blocks.append
    for counter in _COUNTERS[:n_blocks]:
        block = copy_prefix()
        block.update(counter)
        closing = copy_outer()
        closing.update(block.digest())
        append(closing.digest())
    stream = b"".join(blocks)
    return stream if len(stream) == length else stream[:length]


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings over machine words."""
    length = len(data)
    if length == 0:
        return b""
    if length >= _NUMPY_XOR_MIN:
        return np.bitwise_xor(
            np.frombuffer(data, dtype=np.uint8),
            np.frombuffer(stream, dtype=np.uint8),
        ).tobytes()
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(length, "big")


def seal_record(
    keys: DirectionKeys,
    epoch: int,
    direction: int,
    sequence: int,
    plaintext: bytes,
) -> SecureRecord:
    """Encrypt-then-MAC one plaintext into a :class:`SecureRecord`.

    The caller (the channel layer) owns nonce discipline: it must never
    pass the same ``(epoch, direction, sequence)`` twice for one key.
    """
    require(direction in DIRECTIONS, f"unknown direction code {direction}")
    require(sequence >= 0, "sequence must be >= 0")
    require(epoch >= 0, "epoch must be >= 0")
    plaintext = bytes(plaintext)
    ciphertext = xor_bytes(
        plaintext,
        keystream_bytes(keys, epoch, direction, sequence, len(plaintext)),
    )
    header = _HEADER.pack(
        RECORD_VERSION, epoch, direction, sequence, len(ciphertext)
    )
    tag = keys.mac().tag(header + ciphertext)
    return SecureRecord(
        epoch=epoch,
        direction=direction,
        sequence=sequence,
        ciphertext=ciphertext,
        tag=tag,
    )


def verify_record(keys: DirectionKeys, record: SecureRecord) -> bool:
    """Constant-time check of a record's tag under ``keys``."""
    return keys.mac().verify(
        record.header_bytes() + record.ciphertext, record.tag
    )


def decrypt_record(keys: DirectionKeys, record: SecureRecord) -> bytes:
    """Decrypt a record's ciphertext.  Only call after :func:`verify_record`."""
    return xor_bytes(
        record.ciphertext,
        keystream_bytes(
            keys,
            record.epoch,
            record.direction,
            record.sequence,
            len(record.ciphertext),
        ),
    )
