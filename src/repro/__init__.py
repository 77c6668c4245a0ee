"""Vehicle-Key: secret key establishment for LoRa-enabled IoV communications.

This package is a full reproduction of the system described in

    Yang et al., "Vehicle-Key: A Secret Key Establishment Scheme for
    LoRa-enabled IoV Communications", ICDCS 2022.

It contains the paper's primary contribution (a BiLSTM-based channel
prediction + quantization model and an autoencoder-based reconciliation
method, :mod:`repro.core`) together with every substrate the paper depends
on, implemented from scratch:

- :mod:`repro.lora` -- LoRa PHY model (airtime, bit rate, SX127x RSSI).
- :mod:`repro.channel` -- vehicular radio channel simulator (path loss,
  shadowing, Jakes-spectrum Rayleigh fading, mobility, reciprocity).
- :mod:`repro.probing` -- probe/response protocol and arRSSI features.
- :mod:`repro.nn` -- a from-scratch numpy deep-learning framework.
- :mod:`repro.quantization` -- classic RSSI quantizers.
- :mod:`repro.reconciliation` -- Cascade, compressed sensing and the
  paper's autoencoder reconciliation.
- :mod:`repro.privacy` -- hash-based privacy amplification.
- :mod:`repro.security` -- NIST SP 800-22 tests and attack harnesses.
- :mod:`repro.experiments` -- one module per table/figure in the paper.

Quickstart::

    from repro import VehicleKeyPipeline, ScenarioName
    pipeline = VehicleKeyPipeline.for_scenario(ScenarioName.V2V_URBAN, seed=7)
    pipeline.train()
    outcome = pipeline.establish_key()
    print(outcome.agreement_rate, outcome.final_key.hex())
"""

from repro.version import __version__
from repro.exceptions import (
    ReproError,
    ConfigurationError,
    ProtocolError,
    NotTrainedError,
    KeyEstablishmentError,
    InsufficientEntropyError,
    RetryBudgetExhausted,
    SessionAborted,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "NotTrainedError",
    "KeyEstablishmentError",
    "InsufficientEntropyError",
    "RetryBudgetExhausted",
    "SessionAborted",
    "ScenarioName",
    "ScenarioConfig",
    "VehicleKeyPipeline",
    "KeyEstablishmentOutcome",
    "FaultPlan",
    "RetryPolicy",
    "AdversaryPlan",
]

# Re-exports of the main user-facing classes are resolved lazily (PEP 562)
# so that `import repro` stays cheap and the subpackages remain free of
# import cycles.
_LAZY_EXPORTS = {
    "ScenarioName": ("repro.channel.scenario", "ScenarioName"),
    "ScenarioConfig": ("repro.channel.scenario", "ScenarioConfig"),
    "VehicleKeyPipeline": ("repro.core.pipeline", "VehicleKeyPipeline"),
    "KeyEstablishmentOutcome": ("repro.core.pipeline", "KeyEstablishmentOutcome"),
    "FaultPlan": ("repro.faults.plan", "FaultPlan"),
    "RetryPolicy": ("repro.faults.retry", "RetryPolicy"),
    "AdversaryPlan": ("repro.faults.adversary", "AdversaryPlan"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
