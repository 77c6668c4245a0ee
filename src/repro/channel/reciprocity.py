"""The reciprocal channel: composition of all gain components.

The *channel* is perfectly reciprocal -- Alice->Bob and Bob->Alice share
one path gain function of time.  Everything that breaks measurement
symmetry (probe time offsets, per-device RSSI offsets and noise, register
quantization) lives in the probing and LoRa layers, matching the paper's
decomposition of reciprocity-breaking effects in Sec. II-A.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.fading import SpatialJakesFading
from repro.channel.mobility import RelativeMotion
from repro.channel.pathloss import PathLossModel
from repro.channel.shadowing import GudmundsonShadowing


class ReciprocalChannel:
    """Total path gain between two moving nodes as a function of time.

    Gain decomposes as

        gain(t) = -PL(d(t)) + S(s(t)) + F(s(t))      [all dB]

    where ``d(t)`` is the separation distance, ``s(t)`` the accumulated
    relative displacement, ``S`` the spatially-correlated shadowing and
    ``F`` the small-scale fading.  Shadowing and fading are indexed by
    displacement rather than time so that a stopped vehicle sees a frozen
    channel, as it would in reality.

    Args:
        motion: Relative motion of the two endpoints.
        pathloss: Large-scale path loss model.
        shadowing: Correlated shadowing realization, or ``None`` to disable.
        fading: Small-scale fading realization, or ``None`` to disable.
    """

    def __init__(
        self,
        motion: RelativeMotion,
        pathloss: PathLossModel,
        shadowing: Optional[GudmundsonShadowing] = None,
        fading: Optional[SpatialJakesFading] = None,
    ):
        self.motion = motion
        self.pathloss = pathloss
        self.shadowing = shadowing
        self.fading = fading

    def path_gain_db(self, time_s) -> np.ndarray:
        """Total (negative) path gain in dB at the given time(s).

        Identical for both link directions: this *is* channel reciprocity.
        """
        gain, displacement = self.prefading_gain_db(time_s)
        if self.fading is not None:
            gain = gain + self.fading.gain_db(displacement)
        if np.isscalar(time_s):
            return float(gain)
        return gain

    def prefading_gain_db(self, time_s):
        """:meth:`path_gain_db` before the fading term.

        Returns ``(partial, displacement)``: the gain with path loss and
        shadowing applied (what an imitating attacker shares) and the
        relative displacement the fading term is evaluated at.
        ``partial + self.fading.gain_db(displacement)`` *is*
        ``path_gain_db(time_s)``; cross-session batching evaluates the
        fading term of many channels in one
        :func:`~repro.channel.fading.batched_spatial_gain_db` call instead.
        """
        t = np.asarray(time_s, dtype=float)
        gain = -np.asarray(self.pathloss.loss_db(self.motion.distance_m(t)), dtype=float)
        displacement = self.motion.relative_displacement_m(t)
        if self.shadowing is not None:
            gain = gain + self.shadowing.value_at(displacement)
        return gain, displacement
