"""Vehicular radio channel substrate.

A physics-based simulator for the LoRa/IoV channel, replacing the paper's
20 hours of drive-test data.  The pieces compose as

    total path gain (dB) = -path loss (distance)
                         + shadowing (spatially correlated, log-normal)
                         + small-scale fading (Jakes/Clarke, Rayleigh/Rician)

with vehicle mobility driving the distance and the fading decorrelation,
and channel reciprocity holding exactly for the *channel* while the
*measurements* diverge through probe time offsets and per-device noise --
precisely the decomposition in the paper's Sec. II-A.

``doppler`` and ``validation`` need SciPy and are imported directly.
"""

from repro.channel.pathloss import (
    PathLossModel,
    LogDistancePathLoss,
    FreeSpacePathLoss,
)
from repro.channel.shadowing import GudmundsonShadowing
from repro.channel.fading import SpatialJakesFading
from repro.channel.mobility import (
    Trajectory,
    StaticTrajectory,
    StraightLineTrajectory,
    StopAndGoTrajectory,
    RelativeMotion,
)
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import (
    ScenarioName,
    ScenarioConfig,
    Environment,
    LinkType,
    scenario_config,
    ALL_SCENARIOS,
)

__all__ = [
    "PathLossModel",
    "LogDistancePathLoss",
    "FreeSpacePathLoss",
    "GudmundsonShadowing",
    "SpatialJakesFading",
    "Trajectory",
    "StaticTrajectory",
    "StraightLineTrajectory",
    "StopAndGoTrajectory",
    "RelativeMotion",
    "ReciprocalChannel",
    "ScenarioName",
    "ScenarioConfig",
    "Environment",
    "LinkType",
    "scenario_config",
    "ALL_SCENARIOS",
]
