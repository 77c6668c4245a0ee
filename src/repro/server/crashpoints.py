"""Seeded crash-point fault injection for the kill/restart chaos sweep.

A *crashpoint* is a named place in the server's hot path where the
process may be made to die abruptly -- the moral equivalent of a power
cut at the worst possible instant.  The restart chaos harness
(:func:`repro.faults.chaos_served.run_restart_chaos`) arms one site with a
seeded countdown in a forked server child; when the countdown reaches
zero the default action SIGKILLs the process mid-operation, and the
harness then restarts a fresh server against the same journal and
machine-checks that recovery restored every durability invariant.

The four sites bracket the journal's durability contract:

``admit``
    After the admission record is journaled, before the welcome frame is
    written -- the client holds a token the server may not remember.
``tick``
    Before a coalesced batch tick computes -- started sessions die
    mid-flight and must be aborted as ``recovered-after-crash``.
``deliver``
    After the terminal outcome is journaled, before the verdict frame is
    written -- recovery must redeliver idempotently, never recompute.
``seal``
    Mid-append inside the journal itself: the record is half-written
    when the process dies, leaving a torn tail recovery must truncate.

Hits on unarmed sites cost one dict lookup, so the production path calls
:meth:`CrashpointRegistry.hit` unconditionally.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Dict, Mapping, Optional

#: The closed set of crashpoint sites the server exposes.
SITES = ("admit", "tick", "deliver", "seal")


class CrashpointRegistry:
    """Countdown-armed crash sites; the default action is SIGKILL.

    Attributes:
        action: Called with the site name when a countdown fires.  The
            default sends ``SIGKILL`` to the current process (and never
            returns); tests may install a recording stub instead.
        fired: The site whose countdown fired, if any (only observable
            when ``action`` returns, i.e. under a test stub).
    """

    def __init__(self) -> None:
        self._countdown: Dict[str, int] = {}
        self.action: Callable[[str], None] = self._sigkill_self
        self.fired: Optional[str] = None

    @staticmethod
    def _sigkill_self(site: str) -> None:  # pragma: no cover - kills the process
        os.kill(os.getpid(), signal.SIGKILL)

    def arm(self, site: str, after: int) -> None:
        """Arm ``site`` to fire on its ``after``-th hit (1-based)."""
        if site not in SITES:
            raise ValueError(f"unknown crashpoint site {site!r}; valid: {SITES}")
        if after < 1:
            raise ValueError(f"crashpoint countdown must be >= 1, got {after}")
        self._countdown[site] = int(after)

    def arm_plan(self, plan: Mapping[str, int]) -> None:
        """Arm every ``site -> after`` entry of a crash plan."""
        for site, after in plan.items():
            self.arm(site, after)

    def reset(self) -> None:
        """Disarm every site and clear the fired marker."""
        self._countdown.clear()
        self.fired = None

    @property
    def armed(self) -> Dict[str, int]:
        """A copy of the live ``site -> remaining hits`` countdowns."""
        return dict(self._countdown)

    def pending(self, site: str) -> bool:
        """Whether the *next* hit on ``site`` will fire its action.

        The journal uses this to write only half of the in-flight record
        before firing, so a ``seal`` crash leaves a genuinely torn tail.
        """
        return self._countdown.get(site) == 1

    def hit(self, site: str) -> None:
        """Register one pass through ``site``; fires when armed and due."""
        remaining = self._countdown.get(site)
        if remaining is None:
            return
        if remaining <= 1:
            del self._countdown[site]
            self.fired = site
            self.action(site)
        else:
            self._countdown[site] = remaining - 1


#: The process-wide registry the server's hot-path sites call into.
CRASHPOINTS = CrashpointRegistry()
