"""Regional regulatory constraints on LoRa transmissions.

The paper probes back-to-back at 434 MHz and reports key rates that
ignore regulatory duty cycles; real deployments cannot.  This module
models the common regional plans and converts a transmission schedule
into its legally-paced equivalent, which the duty-cycle analysis
experiment uses to show how interactive reconciliation (Cascade) becomes
impractical under a 1% budget -- the quantitative form of the paper's
communication-overhead critique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class RegionalPlan:
    """One region's transmission rules for the relevant band.

    Attributes:
        name: Human-readable plan name.
        duty_cycle: Allowed fraction of airtime (1.0 = unrestricted).
        dwell_limit_s: Maximum single-transmission airtime, or ``None``.
    """

    name: str
    duty_cycle: float
    dwell_limit_s: Optional[float] = None

    def __post_init__(self) -> None:
        require(0.0 < self.duty_cycle <= 1.0, "duty_cycle must be in (0, 1]")
        if self.dwell_limit_s is not None:
            require_positive(self.dwell_limit_s, "dwell_limit_s")

    def min_gap_after(self, airtime_s: float) -> float:
        """Silence required after a transmission of the given airtime.

        The standard per-device pacing rule: after transmitting for T,
        stay silent for ``T * (1/duty - 1)``.
        """
        require(airtime_s >= 0, "airtime_s must be >= 0")
        return airtime_s * (1.0 / self.duty_cycle - 1.0)

    def allows_airtime(self, airtime_s: float) -> bool:
        """Whether a single transmission of this airtime is permitted."""
        return self.dwell_limit_s is None or airtime_s <= self.dwell_limit_s


#: EU 433.05-434.79 MHz ISM band (ERC 70-03): 10% duty cycle.  This is
#: the band the paper's 434 MHz experiments sit in.
EU433 = RegionalPlan(name="EU 433 MHz (10%)", duty_cycle=0.10)

#: EU 868 MHz general sub-band: 1% duty cycle.
EU868 = RegionalPlan(name="EU 868 MHz (1%)", duty_cycle=0.01)

#: US 902-928 MHz under FCC part 15: no duty cycle, 400 ms dwell limit.
US915 = RegionalPlan(name="US 915 MHz (dwell)", duty_cycle=1.0, dwell_limit_s=0.4)

#: No regulatory constraint (the paper's implicit assumption).
UNRESTRICTED = RegionalPlan(name="unrestricted", duty_cycle=1.0)

ALL_PLANS: Tuple[RegionalPlan, ...] = (UNRESTRICTED, EU433, EU868, US915)


def paced_duration_s(
    n_messages: int, airtime_per_message_s: float, plan: RegionalPlan
) -> float:
    """Wall-clock time for a message sequence under a regional plan.

    Each message is followed by the plan's mandatory silence except the
    last; this is the lower bound a polite device achieves.  Raises
    :class:`~repro.exceptions.ConfigurationError` when the plan's dwell
    limit forbids a single message of that airtime.
    """
    require(n_messages >= 0, "n_messages must be >= 0")
    if n_messages == 0:
        return 0.0
    require(
        plan.allows_airtime(airtime_per_message_s),
        f"airtime {airtime_per_message_s:.3f}s exceeds {plan.name}'s dwell limit",
    )
    gap = plan.min_gap_after(airtime_per_message_s)
    return n_messages * airtime_per_message_s + (n_messages - 1) * gap
