"""Secure channel built on the established key (KDF, AEAD records, rekey).

The rest of the library *establishes* keys; this package makes them do
something.  :mod:`repro.secure.kdf` derives domain-separated, per-direction
traffic keys from a :class:`~repro.core.session.SessionResult`'s reconciled
bits with full context binding (session nonce, device ids, pipeline
fingerprint, epoch counter).  :mod:`repro.secure.records` defines the
encrypt-then-MAC record format over the existing
:mod:`repro.reconciliation.mac` primitives, and
:mod:`repro.secure.channel` enforces nonce discipline on it: monotonic
per-direction sequence counters, a sliding replay window, and a closed
decrypt-failure taxonomy with the hard guarantee that no failure path
releases plaintext.  :mod:`repro.secure.ledger` records every sealed and
accepted nonce so the chaos harness can prove nonce-reuse never happens,
and :mod:`repro.secure.rekey` runs the key lifecycle -- counter
exhaustion and decrypt-failure budgets trigger a fresh
``establish_key`` epoch through the PR-1 retry/backoff machinery, and a
failed rekey degrades to a structured channel-closed outcome, never a
silent mismatch.
"""

from repro.secure.channel import (
    NonceExhaustedError,
    OpenOutcome,
    ReplayWindow,
    SecureChannel,
    SecureLink,
)
from repro.secure.kdf import (
    ChannelContext,
    ChannelKeys,
    DirectionKeys,
    derive_channel_keys,
    master_secret_from_result,
)
from repro.secure.ledger import NonceLedger, NonceReuse
from repro.secure.records import (
    FAILURE_AUTH,
    FAILURE_EPOCH,
    FAILURE_EXHAUSTED,
    FAILURE_REPLAY,
    FAILURE_TRUNCATED,
    OPEN_FAILURES,
    SecureRecord,
)
from repro.secure.rekey import (
    CLOSE_REASONS,
    ChannelCloseReport,
    ManagedSecureLink,
    RekeyPolicy,
)

__all__ = [
    "ChannelContext",
    "ChannelKeys",
    "DirectionKeys",
    "derive_channel_keys",
    "master_secret_from_result",
    "SecureRecord",
    "OPEN_FAILURES",
    "FAILURE_AUTH",
    "FAILURE_REPLAY",
    "FAILURE_EXHAUSTED",
    "FAILURE_TRUNCATED",
    "FAILURE_EPOCH",
    "SecureChannel",
    "SecureLink",
    "ReplayWindow",
    "OpenOutcome",
    "NonceExhaustedError",
    "NonceLedger",
    "NonceReuse",
    "RekeyPolicy",
    "ManagedSecureLink",
    "ChannelCloseReport",
    "CLOSE_REASONS",
]
