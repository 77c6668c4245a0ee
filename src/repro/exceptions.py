"""Exception hierarchy for the Vehicle-Key reproduction.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or combination of parameters was supplied."""


class ProtocolError(ReproError):
    """A key-agreement protocol message was malformed or out of order."""


class KeyEstablishmentError(ReproError):
    """A key-establishment run ended without both parties holding a key."""

    #: Machine-readable failure slug, mirrored into
    #: :attr:`repro.core.pipeline.KeyEstablishmentOutcome.failure_reason`.
    reason = "key-establishment-failed"


class InsufficientEntropyError(KeyEstablishmentError):
    """Too few verified secret bits survived to derive the final key."""

    reason = "insufficient-entropy"


class RetryBudgetExhausted(KeyEstablishmentError):
    """Every re-probe burst ``max_attempts`` allows ran without a key."""

    reason = "retry-budget-exhausted"


class SessionAborted(KeyEstablishmentError):
    """The authenticated session state machine aborted the run.

    Raised (with ``raise_on_failure=True``) when a session ends in the
    ``ABORTED`` state: a replayed or malformed message, a total MAC
    verification failure, or a failed key-confirmation round.  The
    structured :class:`~repro.core.statemachine.SessionAbort` record is
    attached as :attr:`abort`; its ``reason`` slug (not the generic class
    ``reason``) is what :attr:`KeyEstablishmentOutcome.failure_reason`
    reports.
    """

    reason = "session-aborted"

    def __init__(self, message: str, abort=None):
        super().__init__(message)
        #: The :class:`~repro.core.statemachine.SessionAbort` that ended
        #: the session (``None`` when raised without one).
        self.abort = abort


class NotTrainedError(ReproError):
    """A learned component was used before it was trained or loaded."""


class ArtifactError(ReproError):
    """A persisted artifact (weights, trace, dataset) could not be used."""


class CorruptArtifactError(ArtifactError):
    """An artifact file is truncated, tampered with, or fails its checksum."""


class ArtifactMismatchError(ArtifactError):
    """An artifact was written by a different kind or architecture of object."""


class TrainingDivergedError(ReproError):
    """Training diverged (NaN/Inf or exploding loss) beyond the retry budget."""
