"""The paper's primary contribution: the Vehicle-Key system.

- :mod:`repro.core.model` -- the BiLSTM prediction + quantization network.
- :mod:`repro.core.pipeline` -- end-to-end key establishment.
- :mod:`repro.core.session` -- the authenticated two-party message protocol.
- :mod:`repro.core.batch` -- batched multi-session establishment engine.
- :mod:`repro.core.baselines` -- LoRa-Key, Han et al. and Gao et al.
- :mod:`repro.core.transfer` -- cross-scenario fine-tuning (Fig. 14).
- :mod:`repro.core.power` -- execution timing and the RPi4 energy model.
"""

from repro.core.model import PredictionQuantizationModel

__all__ = [
    "PredictionQuantizationModel",
    "VehicleKeyPipeline",
    "KeyEstablishmentOutcome",
    "BatchedSessionRunner",
    "BatchReport",
]

_LAZY_EXPORTS = {
    "VehicleKeyPipeline": ("repro.core.pipeline", "VehicleKeyPipeline"),
    "KeyEstablishmentOutcome": ("repro.core.pipeline", "KeyEstablishmentOutcome"),
    "BatchedSessionRunner": ("repro.core.batch", "BatchedSessionRunner"),
    "BatchReport": ("repro.core.batch", "BatchReport"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
