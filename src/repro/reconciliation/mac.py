"""Message authentication for reconciliation traffic (paper Sec. IV-C).

Bob appends ``MAC(K'_Bob, y_Bob)`` to his syndrome so Alice can detect a
man-in-the-middle modifying or injecting messages.  The MAC key is the
party's (Bloom-transformed) measurement-derived key: an attacker without
a matching channel view cannot forge it.

The record layer of :mod:`repro.secure` reuses these primitives on its
hot path, so this module also exposes the HMAC *midstate* machinery:
:func:`hmac_midstates` primes the inner/outer SHA-256 states of a key
once, after which each MAC costs two ``copy()``-and-finalize operations
instead of a full ``hmac.new`` (which re-hashes both padded key blocks
on every call).  :class:`PrecomputedMacKey` wraps the pair behind the
same truncated-tag contract as :func:`compute_mac`; the two are
bit-for-bit interchangeable and the tests pin that equivalence.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

from repro.utils.bits import bits_to_bytes
from repro.utils.validation import require

MAC_BYTES = 16

#: HMAC-SHA256 block width; keys are zero-padded (or pre-hashed) to it.
_HMAC_BLOCK = 64

#: Byte-translation tables applying the HMAC ipad/opad XOR in one C call.
_IPAD_TRANS = bytes(byte ^ 0x36 for byte in range(256))
_OPAD_TRANS = bytes(byte ^ 0x5C for byte in range(256))

try:
    # The pure-builtin SHA-256 has lower per-call overhead than the
    # OpenSSL binding, which matters for the record layer's tiny
    # keystream-block digests: block 0 of every record and every block
    # of a record shorter than the PBKDF2 crossover (longer records take
    # blocks 1, 2, ... from one OpenSSL PBKDF2 call).  OpenSSL's higher
    # bulk throughput still wins for long messages (hashlib.sha256 stays
    # the default factory).
    from _sha256 import sha256 as fast_sha256
except ImportError:  # pragma: no cover - _sha256 ships with CPython
    fast_sha256 = hashlib.sha256


def hmac_midstates(key: bytes, factory=hashlib.sha256):
    """The primed ``(inner, outer)`` HMAC-SHA256 digests of ``key``.

    ``HMAC(key, message)`` is then exactly::

        inner_copy = inner.copy(); inner_copy.update(message)
        outer_copy = outer.copy(); outer_copy.update(inner_copy.digest())
        outer_copy.digest()

    which skips re-hashing the two padded 64-byte key blocks on every
    call.  ``factory`` picks the SHA-256 implementation; every choice
    yields identical bytes (SHA-256 is SHA-256), only the per-call
    overhead profile differs.
    """
    key = bytes(key)
    if len(key) > _HMAC_BLOCK:
        key = factory(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\x00")
    return factory(key.translate(_IPAD_TRANS)), factory(key.translate(_OPAD_TRANS))


class PrecomputedMacKey:
    """A byte-string MAC key with its HMAC midstates computed once.

    Wire-compatible with :func:`compute_mac`: for any whole-byte key,
    ``PrecomputedMacKey(key).tag(m)`` equals
    ``compute_mac(bytes_to_bits(key), m)``.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        self._inner, self._outer = hmac_midstates(key)

    def tag(self, message: bytes) -> bytes:
        """Truncated HMAC-SHA256 of ``message`` (two copy-finalize ops)."""
        require(len(message) > 0, "refusing to MAC an empty message")
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:MAC_BYTES]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time check of a tag produced by :meth:`tag`."""
        return hmac.compare_digest(self.tag(message), bytes(tag))


def mac_key_bytes(key_bits: np.ndarray) -> bytes:
    """The byte encoding of a bit-array MAC key (zero-padded to bytes)."""
    bits = np.asarray(key_bits, dtype=np.uint8)
    remainder = bits.size % 8
    if remainder:
        bits = np.concatenate([bits, np.zeros(8 - remainder, dtype=np.uint8)])
    return bits_to_bytes(bits)


# Internal alias kept for the existing call sites.
_key_bytes = mac_key_bytes


def compute_mac(key_bits: np.ndarray, message: bytes) -> bytes:
    """Truncated HMAC-SHA256 of ``message`` under a bit-array key."""
    require(len(message) > 0, "refusing to MAC an empty message")
    return hmac.new(_key_bytes(key_bits), message, hashlib.sha256).digest()[:MAC_BYTES]


def verify_mac(key_bits: np.ndarray, message: bytes, tag: bytes) -> bool:
    """Constant-time check of a tag produced by :func:`compute_mac`."""
    return hmac.compare_digest(compute_mac(key_bits, message), bytes(tag))
