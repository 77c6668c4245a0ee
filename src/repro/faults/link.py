"""Seeded link-level fault machinery: loss processes and register glitches.

Real SX127x links lose probes to fading dips, collisions and interference
bursts; the deterministic below-sensitivity flag in the probing protocol
captures none of that.  This module provides the stateful, seeded side of
a :class:`~repro.faults.plan.FaultPlan`:

- :func:`snr_packet_error_rate` -- a logistic PER curve around the
  spreading factor's demodulation SNR limit (the link-budget-coupled part
  of the loss process);
- :class:`GilbertElliottProcess` -- a two-state burst-loss chain whose
  stationary loss rate and mean burst length are the plan's knobs;
- :class:`LinkFaultModel` -- the per-session combination of both plus RSSI
  register corruption, with one independent random stream per concern so
  enabling one fault never perturbs another.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.lora.link_budget import _SNR_LIMIT_DB
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require, require_in_range

#: The two directions of the probing link: Alice's probe (heard by Bob)
#: and Bob's response (heard by Alice).  Each gets its own loss process.
DIRECTIONS = ("a2b", "b2a")

#: SNR span (dB) over which the PER curve falls from ~0.9 to ~0.1; real
#: SX127x PER-vs-SNR measurements show a 2-3 dB waterfall region.
DEFAULT_TRANSITION_WIDTH_DB = 2.5

# ln(9): the logistic slope that puts PER at 0.9 / 0.1 exactly half a
# transition width below / above the demodulation limit.
_LOGISTIC_SLOPE = math.log(9.0)


def snr_packet_error_rate(
    snr_db: float,
    spreading_factor: int,
    transition_width_db: float = DEFAULT_TRANSITION_WIDTH_DB,
) -> float:
    """Packet error rate of a reception at the given SNR.

    A logistic waterfall centered on the spreading factor's demodulation
    SNR limit: 0.5 at the limit, ~0.9 half a transition width below it,
    ~0.1 half a width above, vanishing on strong links.
    """
    require(
        spreading_factor in _SNR_LIMIT_DB,
        f"spreading_factor must be in {sorted(_SNR_LIMIT_DB)}, got {spreading_factor}",
    )
    require(transition_width_db > 0, "transition_width_db must be > 0")
    margin = snr_db - _SNR_LIMIT_DB[spreading_factor]
    scaled = 2.0 * _LOGISTIC_SLOPE * margin / transition_width_db
    # Clamp to keep exp() from overflowing on absurdly weak links.
    if scaled < -60.0:
        return 1.0
    if scaled > 60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(scaled))


class GilbertElliottProcess:
    """Two-state (good/bad) Markov loss process.

    Packets sent in the bad state are lost; the chain's transition
    probabilities are derived from the requested stationary loss rate and
    mean bad-state dwell, so ``mean_burst=1`` degenerates to memoryless
    Bernoulli loss and larger values produce correlated loss bursts.

    Args:
        loss_rate: Stationary probability of the bad (lossy) state.
        mean_burst: Mean bad-state dwell time in packets (>= 1).
        rng: The process's private random stream.
    """

    def __init__(
        self, loss_rate: float, mean_burst: float, rng: np.random.Generator
    ):
        require_in_range(loss_rate, 0.0, 0.999, "loss_rate")
        require(mean_burst >= 1.0, "mean_burst must be >= 1")
        self.loss_rate = float(loss_rate)
        self.mean_burst = float(mean_burst)
        self._rng = rng
        # bad->good per step; mean dwell in bad is 1/q.
        self._q = 1.0 / self.mean_burst
        # good->bad chosen so the stationary bad probability is loss_rate.
        if loss_rate > 0.0:
            self._p = self._q * loss_rate / (1.0 - loss_rate)
        else:
            self._p = 0.0
        # Start from the stationary distribution so the first packets are
        # as lossy as the rest (no warm-up transient).
        self._bad = bool(self._rng.random() < self.loss_rate)

    def step(self) -> bool:
        """Advance one packet; returns True when that packet is lost."""
        if self.loss_rate <= 0.0:
            return False
        if self._bad:
            if self._rng.random() < self._q:
                self._bad = False
        else:
            if self._rng.random() < self._p:
                self._bad = True
        return self._bad


class LinkFaultModel:
    """One probing session's worth of seeded link faults.

    Draws every decision from named streams of the supplied seed factory
    (``fault-loss-a2b``, ``fault-snr-b2a``, ``fault-register``, ...), so
    fault injection is reproducible per session and adding it never
    perturbs the measurement-noise streams the protocol already consumes.

    Args:
        plan: What to inject.
        seeds: Seed factory, normally the probing episode's.
    """

    def __init__(self, plan: FaultPlan, seeds: SeedSequenceFactory):
        self.plan = plan
        self._burst: Dict[str, GilbertElliottProcess] = {
            direction: GilbertElliottProcess(
                plan.loss.rate,
                plan.loss.mean_burst,
                seeds.generator(f"fault-loss-{direction}"),
            )
            for direction in DIRECTIONS
        }
        self._snr_rng: Dict[str, np.random.Generator] = {
            direction: seeds.generator(f"fault-snr-{direction}")
            for direction in DIRECTIONS
        }
        self._register_rng = seeds.generator("fault-register")

    def packet_lost(
        self, direction: str, snr_db: float, spreading_factor: int
    ) -> bool:
        """Whether one transmission in ``direction`` is lost.

        Combines the burst process with the SNR-dependent PER; both
        streams advance on every call so loss patterns stay aligned with
        the transmission sequence regardless of which mechanism fires.
        """
        require(direction in DIRECTIONS, f"unknown link direction {direction!r}")
        lost = self._burst[direction].step()
        if self.plan.loss.snr_dependent:
            per = snr_packet_error_rate(snr_db, spreading_factor)
            lost = bool(self._snr_rng[direction].random() < per) or lost
        return lost

    def register_glitch(self, size: int) -> Optional[slice]:
        """The run of a reception's ``size`` register reads that glitches.

        Models the occasional bogus RSSI register read-out seen on SX127x
        hosts (SPI glitches, reads racing the AGC); ``None`` when no glitch
        fires.  The draws depend on ``size`` alone, never on the readings,
        so a glitch may be decided before the reads are measured.
        """
        config = self.plan.register
        if not config.active or self._register_rng.random() >= config.probability:
            return None
        burst = min(config.burst_symbols, size)
        start = int(self._register_rng.integers(0, size - burst + 1))
        return slice(start, start + burst)

    def apply_glitch(
        self, samples: np.ndarray, glitch: Optional[slice], floor_dbm: float
    ) -> np.ndarray:
        """``samples`` with the run ``glitch`` collapsed toward the floor."""
        if glitch is None:
            return samples
        out = samples.copy()
        magnitude = self.plan.register.magnitude_db
        out[glitch] = np.maximum(out[glitch] - magnitude, floor_dbm)
        return out
