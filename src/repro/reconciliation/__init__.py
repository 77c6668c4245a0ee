"""Information reconciliation: correcting the residual key mismatches.

Three interchangeable reconcilers behind one interface
(:class:`~repro.reconciliation.base.Reconciler`):

- :class:`CascadeReconciliation` -- Brassard-Salvail interactive parity
  protocol (the Han et al. baseline; many round trips).
- :class:`CompressedSensingReconciliation` -- sparse-syndrome scheme with
  OMP decoding (the LoRa-Key / Gao et al. baseline; one message).
- :class:`AutoencoderReconciliation` -- the paper's contribution: Bloom
  transform, learned MLP encoders, subtraction, learned decoder; one
  message, constant-time decoding.

Every outcome records the number of protocol messages and payload bytes
exchanged, which the key-generation-rate benchmarks convert into LoRa
airtime overhead.
"""

from repro.reconciliation.base import Reconciler, ReconciliationOutcome
from repro.reconciliation.bloom import PositionPreservingBloomFilter
from repro.reconciliation.cascade import CascadeReconciliation
from repro.reconciliation.compressed_sensing import (
    CompressedSensingReconciliation,
    orthogonal_matching_pursuit,
    refine_integer_correction,
)
from repro.reconciliation.autoencoder import AutoencoderReconciliation
from repro.reconciliation.mac import compute_mac, verify_mac

__all__ = [
    "Reconciler",
    "ReconciliationOutcome",
    "PositionPreservingBloomFilter",
    "CascadeReconciliation",
    "CompressedSensingReconciliation",
    "orthogonal_matching_pursuit",
    "refine_integer_correction",
    "AutoencoderReconciliation",
    "compute_mac",
    "verify_mac",
]
