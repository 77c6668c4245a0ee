"""Domain-separated key derivation for the secure channel.

The probing/reconciliation pipeline hands both parties the same final key
bytes (:attr:`~repro.core.session.SessionResult.final_key_alice`); using
those bytes directly as a traffic key would be the classic mistake the
``RSSI-KDFv1`` label in the LoRa exemplar code guards against -- any two
uses of the same secret must be separated by *context*, or a record MAC
forged in one context verifies in another.  This module derives traffic
keys HKDF-style (extract-then-expand over HMAC-SHA256, stdlib only) with
full context binding:

- the **session nonce** (fresh per establishment, so two sessions that
  somehow produced the same bits still get distinct traffic keys);
- the **device ids** of initiator and responder (keys are bound to the
  pair, in order -- a reflected record cannot cross identities);
- the **pipeline fingerprint** (keys derived under one model/config
  generation never verify under another);
- the **epoch counter** (each rekey bumps it, so post-rollover keys share
  nothing exploitable with the old epoch's).

Each epoch yields *four* independent keys: encryption and MAC keys for
each direction (initiator-to-responder and responder-to-initiator).  No
key is ever used for two purposes or two directions, which is what makes
the deterministic ``(epoch, direction, sequence)`` nonce of
:mod:`repro.secure.records` safe: a counter can only collide with itself.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace

from repro.reconciliation.mac import PrecomputedMacKey, fast_sha256, hmac_midstates
from repro.utils.validation import require

#: Versioned extract-stage label; bump on any change to the derivation.
KDF_LABEL = b"vehicle-key-kdf-v1"

#: Versioned context-encoding label bound into every derived key.
CONTEXT_LABEL = b"vehicle-key-context-v1"

#: Bytes per derived traffic key (HMAC-SHA256 native width).
KEY_BYTES = 32

#: Bytes of the public per-key identifier used by the nonce ledger.
KEY_ID_BYTES = 8

#: Direction labels, in (initiator-send, responder-send) order.
DIRECTION_LABELS = (b"i2r", b"r2i")


def _encode_field(data: bytes) -> bytes:
    """Length-prefix one context field (unambiguous concatenation)."""
    return len(data).to_bytes(4, "big") + data


@dataclass(frozen=True)
class ChannelContext:
    """Everything a traffic key is bound to, besides the secret itself.

    Attributes:
        session_nonce: The establishment session's fresh public nonce
            (:attr:`~repro.core.session.SessionResult.session_nonce`).
        initiator_id: Identity of the party that opened the channel (the
            device, in the served topology).
        responder_id: Identity of the answering party (the server).
        pipeline_fingerprint: The pipeline configuration fingerprint
            (:meth:`~repro.core.pipeline.VehicleKeyPipeline.fingerprint`),
            binding keys to the model/config generation that made them.
        epoch: Rekey epoch counter, starting at 0 and bumped by every
            completed rekey.
    """

    session_nonce: bytes
    initiator_id: str = "alice"
    responder_id: str = "bob"
    pipeline_fingerprint: str = ""
    epoch: int = 0

    def __post_init__(self) -> None:
        require(len(self.session_nonce) > 0, "session_nonce must be non-empty")
        require(self.epoch >= 0, "epoch must be >= 0")
        require(bool(self.initiator_id), "initiator_id must be non-empty")
        require(bool(self.responder_id), "responder_id must be non-empty")

    def encode(self) -> bytes:
        """The canonical byte encoding fed into every key derivation.

        Every field is length-prefixed, so no two distinct contexts share
        an encoding (``("ab","c")`` and ``("a","bc")`` cannot collide).
        """
        return b"".join(
            _encode_field(part)
            for part in (
                CONTEXT_LABEL,
                self.session_nonce,
                self.initiator_id.encode("utf-8"),
                self.responder_id.encode("utf-8"),
                self.pipeline_fingerprint.encode("utf-8"),
                self.epoch.to_bytes(8, "big"),
            )
        )

    def next_epoch(self) -> "ChannelContext":
        """The same context one rekey later (epoch bumped by one)."""
        return replace(self, epoch=self.epoch + 1)


@dataclass(frozen=True)
class DirectionKeys:
    """The independent key pair protecting one direction of one epoch.

    Attributes:
        enc_key: Keystream key (never used for authentication).
        mac_key: Record-MAC key (never used for encryption).
        key_id: Short public identifier of this key pair, used by the
            nonce ledger to attribute sealed/accepted nonces; derived
            through its own expansion label, so publishing it reveals
            nothing about the traffic keys.

    The record layer calls :meth:`mac` and :meth:`keystream_states` on
    every seal/open, so both cache their derived state on first use (the
    old path re-derived the MAC key via a bytes->bits->bytes round trip
    and re-hashed both HMAC key blocks per record).  The caches hold
    live hash objects, which do not pickle; ``__getstate__`` drops them
    so a pickled or deep-copied :class:`DirectionKeys` travels as its
    three key fields and re-primes lazily on the other side.
    """

    enc_key: bytes
    mac_key: bytes
    key_id: str

    def mac(self) -> PrecomputedMacKey:
        """This key pair's MAC side with midstates primed once."""
        cached = self.__dict__.get("_mac")
        if cached is None:
            cached = PrecomputedMacKey(self.mac_key)
            object.__setattr__(self, "_mac", cached)
        return cached

    def keystream_states(self):
        """Primed ``(inner, outer)`` HMAC states of the keystream PRF."""
        cached = self.__dict__.get("_keystream_states")
        if cached is None:
            cached = hmac_midstates(self.enc_key, fast_sha256)
            object.__setattr__(self, "_keystream_states", cached)
        return cached

    def __getstate__(self):
        return (self.enc_key, self.mac_key, self.key_id)

    def __setstate__(self, state) -> None:
        for name, value in zip(("enc_key", "mac_key", "key_id"), state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ChannelKeys:
    """All four traffic keys of one channel epoch.

    Attributes:
        context: The :class:`ChannelContext` the keys are bound to.
        initiator_send: Keys protecting initiator-to-responder records.
        responder_send: Keys protecting responder-to-initiator records.
    """

    context: ChannelContext
    initiator_send: DirectionKeys
    responder_send: DirectionKeys

    @property
    def epoch(self) -> int:
        """The epoch counter these keys belong to."""
        return self.context.epoch

    def send_keys(self, role: str) -> DirectionKeys:
        """The keys ``role`` (``"initiator"``/``"responder"``) seals with."""
        require(role in ("initiator", "responder"), f"unknown role {role!r}")
        return self.initiator_send if role == "initiator" else self.responder_send

    def recv_keys(self, role: str) -> DirectionKeys:
        """The keys ``role`` opens its peer's records with."""
        require(role in ("initiator", "responder"), f"unknown role {role!r}")
        return self.responder_send if role == "initiator" else self.initiator_send


def hkdf_extract(master_secret: bytes, salt: bytes = KDF_LABEL) -> bytes:
    """HKDF extract stage: concentrate the secret into a uniform PRK."""
    require(len(master_secret) > 0, "master secret must be non-empty")
    return hmac.new(salt, master_secret, hashlib.sha256).digest()


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF expand stage: ``length`` bytes bound to ``info``."""
    require(length > 0, "length must be > 0")
    require(length <= 255 * 32, "length exceeds HKDF-SHA256 output bound")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac.new(
            prk, previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def _derive_direction(prk: bytes, context_bytes: bytes, label: bytes) -> DirectionKeys:
    """One direction's enc/MAC/key-id triple from the extracted PRK."""
    enc = hkdf_expand(prk, _encode_field(b"enc|" + label) + context_bytes, KEY_BYTES)
    mac = hkdf_expand(prk, _encode_field(b"mac|" + label) + context_bytes, KEY_BYTES)
    kid = hkdf_expand(prk, _encode_field(b"kid|" + label) + context_bytes, KEY_ID_BYTES)
    return DirectionKeys(enc_key=enc, mac_key=mac, key_id=kid.hex())


def derive_channel_keys(master_secret: bytes, context: ChannelContext) -> ChannelKeys:
    """Derive one epoch's four traffic keys from the established secret.

    Both parties call this with the same ``master_secret`` (the confirmed
    final key) and the same public :class:`ChannelContext` and obtain the
    same keys; any disagreement in context -- nonce, ids, fingerprint or
    epoch -- yields unrelated keys, which the record MAC then surfaces as
    ``auth-failed`` rather than garbled plaintext.
    """
    prk = hkdf_extract(master_secret)
    context_bytes = context.encode()
    return ChannelKeys(
        context=context,
        initiator_send=_derive_direction(prk, context_bytes, DIRECTION_LABELS[0]),
        responder_send=_derive_direction(prk, context_bytes, DIRECTION_LABELS[1]),
    )


def master_secret_from_result(result) -> bytes:
    """The channel master secret held by a completed session result.

    Requires a *confirmed* matching key: deriving traffic keys from an
    aborted or unconfirmed session would turn "no key is released on
    failure" into a dead letter, so this refuses instead.
    """
    require(
        result.final_key_alice is not None and result.keys_match,
        "cannot derive channel keys: session holds no confirmed matching key",
    )
    return result.final_key_alice
