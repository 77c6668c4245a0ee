"""Fault injection, active adversaries, and recovery.

The robustness layer of the reproduction.  A seeded
:class:`~repro.faults.plan.FaultPlan` describes which *benign* faults to
inject (burst packet loss, SNR-dependent PER, RSSI register glitches,
reconciliation-message drop/duplication/reorder); a seeded
:class:`~repro.faults.adversary.AdversaryPlan` describes which *active
attacks* to launch (probe replay/injection, reactive jamming, syndrome
tamper/replay/spoof, confirmation tampering).  The probing protocol's
ARQ layer and the session's bounded re-requests absorb the faults, the
authenticated state machine converts attacks into structured aborts, and
the pipeline converts what cannot be absorbed into structured failures
instead of silent key mismatches.

The chaos invariant harness lives in two submodules: the invariant
registry, the report and the library sweep in :mod:`repro.faults.chaos`,
and the server and kill/restart sweeps in
:mod:`repro.faults.chaos_served`.  Import them as submodules (they
depend on the pipeline layer, which depends on this package, so they
cannot be re-exported here without a cycle).
"""

from repro.faults.adversary import ActiveAdversary, AdversaryPlan, build_adversary
from repro.faults.link import (
    GilbertElliottProcess,
    LinkFaultModel,
    snr_packet_error_rate,
)
from repro.faults.messages import LossyMessageChannel
from repro.faults.plan import (
    FaultPlan,
    LossConfig,
    MessageFaultConfig,
    RegisterCorruptionConfig,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "ActiveAdversary",
    "AdversaryPlan",
    "build_adversary",
    "FaultPlan",
    "LossConfig",
    "MessageFaultConfig",
    "RegisterCorruptionConfig",
    "GilbertElliottProcess",
    "LinkFaultModel",
    "LossyMessageChannel",
    "RetryPolicy",
    "snr_packet_error_rate",
]
