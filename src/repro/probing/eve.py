"""Eavesdropper observation models.

Two attackers from the paper's threat model (Sec. III):

- The **eavesdropping** attacker parks near Bob and records every
  transmission, hoping the public reconciliation messages let her finish
  the key.  Her channels to Alice and Bob are drawn with *independent*
  small-scale fading: she is well over half a wavelength (34.56 cm at
  434 MHz) from both legitimate antennas.
- The **imitating** attacker tails Alice along the same route a few meters
  behind.  She shares Alice's *large-scale* channel (path loss and, because
  the route environment is the same, shadowing) but again draws
  independent small-scale fading -- multipath decorrelates over half a
  wavelength, and that is the randomness the key is built from.

Both builders return an :class:`~repro.probing.protocol.EavesdropperSetup`
ready to hand to :meth:`ProbingProtocol.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.channel.fading import SpatialJakesFading
from repro.channel.mobility import RelativeMotion, Trajectory
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import ScenarioConfig
from repro.channel.shadowing import GudmundsonShadowing
from repro.lora.radio import MULTITECH_XDOT, TransceiverModel
from repro.probing.protocol import EavesdropperSetup
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class EveConfig:
    """Placement and hardware for an eavesdropper.

    Attributes:
        label: Trace key for this attacker.
        offset_m: Distance from the node Eve positions herself against
            (Bob for eavesdropping, Alice for imitating).  Must exceed
            half a wavelength for the independence assumption to hold.
        device: Eve's transceiver (she may use better hardware than the
            legitimate nodes).
    """

    label: str = "eve"
    offset_m: float = 10.0
    device: TransceiverModel = MULTITECH_XDOT
    #: Structural correlation between Eve's shadowing and the legitimate
    #: link's.  Even on the same route, two receivers meters apart see
    #: different obstruction geometry (antenna height, car body, lane);
    #: empirical inter-vehicle shadowing correlation is well below 1.
    #: Composes with the spatial (offset) decorrelation.
    shadow_correlation: float = 0.6

    def __post_init__(self) -> None:
        require_positive(self.offset_m, "offset_m")
        if not 0.0 <= self.shadow_correlation <= 1.0:
            raise ValueError("shadow_correlation must be in [0, 1]")


class _BlendedShadowing:
    """Partially correlated view of the legitimate shadowing.

    ``value = rho * shared(s - offset) + sqrt(1 - rho^2) * own(s)``:
    the shared component is the legitimate realization sampled at Eve's
    displaced route positions; the private component models her different
    obstruction geometry.  Marginal variance is preserved.
    """

    def __init__(self, shared, own, rho: float):
        self._shared = shared
        self._own = own
        self._rho = float(rho)
        self._own_weight = float(np.sqrt(max(0.0, 1.0 - rho**2)))

    def value_at(self, displacement_m):
        return self._rho * self._shared.value_at(
            displacement_m
        ) + self._own_weight * self._own.value_at(displacement_m)


class _OffsetTrajectory(Trajectory):
    """A trajectory rigidly displaced from a base trajectory."""

    def __init__(self, base: Trajectory, offset: Tuple[float, float]):
        self._base = base
        self._offset = np.asarray(offset, dtype=float)

    def position_m(self, time_s) -> np.ndarray:
        return self._base.position_m(time_s) + self._offset

    def velocity_m_s(self, time_s) -> np.ndarray:
        return self._base.velocity_m_s(time_s)

    def velocity_breaks_s(self, horizon_s: float) -> np.ndarray:
        return self._base.velocity_breaks_s(horizon_s)


def _eve_channels(
    scenario: ScenarioConfig,
    seeds: SeedSequenceFactory,
    legit_channel: ReciprocalChannel,
    eve_trajectory: Trajectory,
    alice_trajectory: Trajectory,
    bob_trajectory: Trajectory,
    label: str,
    config: "EveConfig",
) -> Tuple[ReciprocalChannel, ReciprocalChannel]:
    """Eve's receive channels from Alice and from Bob.

    Path loss follows the scenario's model of Eve's own distances.
    Shadowing is the *same environment* as the legitimate link, sampled
    at route positions displaced by Eve's standoff distance -- so her
    large-scale channel correlates with the legitimate one exactly as the
    Gudmundson spatial correlation at that offset predicts.  Small-scale
    fading is drawn independently per channel: Eve is far beyond half a
    wavelength, the decorrelation the security analysis rests on.
    """
    pathloss = LogDistancePathLoss(
        exponent=scenario.pathloss_exponent,
        carrier_frequency_hz=scenario.carrier_frequency_hz,
    )
    eve_shadowing = None
    if legit_channel.shadowing is not None:
        own = GudmundsonShadowing(
            sigma_db=scenario.shadowing_sigma_db,
            decorrelation_distance_m=scenario.shadowing_decorrelation_m,
            seed=seeds.generator(f"eve-{label}-own-shadowing"),
        )
        eve_shadowing = _BlendedShadowing(
            legit_channel.shadowing.shifted(config.offset_m),
            own,
            config.shadow_correlation,
        )
    channels = []
    for peer_name, peer in (("alice", alice_trajectory), ("bob", bob_trajectory)):
        motion = RelativeMotion(peer, eve_trajectory)
        fading = SpatialJakesFading(
            wavelength_m=scenario.wavelength_m,
            n_paths=scenario.n_paths,
            rician_k=scenario.rician_k,
            seed=seeds.generator(f"eve-{label}-fading-from-{peer_name}"),
        )
        channels.append(
            ReciprocalChannel(
                motion,
                pathloss,
                shadowing=eve_shadowing,
                fading=fading,
            )
        )
    from_alice, from_bob = channels
    return from_alice, from_bob


def build_eavesdropping_eve(
    scenario: ScenarioConfig,
    seeds: SeedSequenceFactory,
    legit_channel: ReciprocalChannel,
    alice_trajectory: Trajectory,
    bob_trajectory: Trajectory,
    config: EveConfig = EveConfig(label="eavesdropper"),
) -> EavesdropperSetup:
    """An attacker statically parked ``config.offset_m`` from Bob."""
    eve_trajectory = _OffsetTrajectory(bob_trajectory, (config.offset_m, 0.0))
    from_alice, from_bob = _eve_channels(
        scenario,
        seeds,
        legit_channel,
        eve_trajectory,
        alice_trajectory,
        bob_trajectory,
        config.label,
        config,
    )
    return EavesdropperSetup(
        label=config.label,
        device=config.device,
        channel_from_alice=from_alice,
        channel_from_bob=from_bob,
    )


def build_imitating_eve(
    scenario: ScenarioConfig,
    seeds: SeedSequenceFactory,
    legit_channel: ReciprocalChannel,
    alice_trajectory: Trajectory,
    bob_trajectory: Trajectory,
    config: EveConfig = EveConfig(label="imitator"),
) -> EavesdropperSetup:
    """An attacker tailing Alice's route ``config.offset_m`` behind her."""
    eve_trajectory = _OffsetTrajectory(alice_trajectory, (-config.offset_m, 0.0))
    from_alice, from_bob = _eve_channels(
        scenario,
        seeds,
        legit_channel,
        eve_trajectory,
        alice_trajectory,
        bob_trajectory,
        config.label,
        config,
    )
    return EavesdropperSetup(
        label=config.label,
        device=config.device,
        channel_from_alice=from_alice,
        channel_from_bob=from_bob,
    )
