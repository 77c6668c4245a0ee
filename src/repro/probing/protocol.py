"""Probe/response exchange simulation.

One probing round:

1. Alice transmits a probe; Bob's radio samples its RSSI register once per
   symbol over the packet airtime.
2. Bob turns the link around after his host's processing delay and
   transmits the response; Alice samples likewise.
3. The next round starts after Alice's processing delay plus an optional
   pacing gap (duty-cycle budget).

Because the airtime of the paper's SF12 configuration is three orders of
magnitude larger than the propagation delay, propagation is ignored
(Sec. II-A makes the same argument).  Any eavesdroppers receive both
transmissions through their *own* channels, sampled at exactly the same
instants as the legitimate receivers.

Two engines produce traces:

- :meth:`ProbingProtocol.run_loop` is the frozen per-round loop -- the
  correctness oracle, and the only engine that supports ARQ fault
  injection and active attacks (retransmission timing depends on which
  packets were lost, so the timeline cannot be precomputed).
- :func:`run_fastpath_group` is the stacked fault-free kernel.  Without
  faults every round's start time is a deterministic affine function of
  the round index, so it precomputes the
  ``[n_sessions, n_rounds, n_samples]`` timestamp grid, evaluates the
  channel stack once per direction for the whole group, and draws all
  measurement noise in bulk from the same per-party seed streams --
  reproducing the loop bit-for-bit (``tests/test_probing_vectorized.py``
  and ``tests/test_probing_cross_session.py`` pin this).
  :meth:`ProbingProtocol.run` on a fault-free link is a one-session call
  to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.channel.fading import SpatialJakesFading, batched_spatial_gain_db
from repro.channel.interference import combine_power_dbm
from repro.channel.reciprocity import ReciprocalChannel
from repro.faults.adversary import ActiveAdversary
from repro.faults.link import LinkFaultModel
from repro.faults.retry import RetryPolicy
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import LinkBudget
from repro.lora.radio import TransceiverModel
from repro.lora.rssi import RegisterRssiSampler, quantize_packet_rssi
from repro.probing.trace import EveTrace, ProbeTrace
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class EavesdropperSetup:
    """An eavesdropper's receive channels from each legitimate node.

    Attributes:
        label: Name used to key this attacker's trace.
        device: Eve's transceiver.
        channel_from_alice: Channel Eve hears Alice's transmissions through.
        channel_from_bob: Channel Eve hears Bob's transmissions through.
    """

    label: str
    device: TransceiverModel
    channel_from_alice: ReciprocalChannel
    channel_from_bob: ReciprocalChannel


class ProbingProtocol:
    """Runs probing rounds over a reciprocal channel.

    Args:
        channel: The Alice<->Bob reciprocal channel.
        phy: LoRa configuration for the probe packets.
        alice_device: Alice's transceiver model.
        bob_device: Bob's transceiver model.
        link_budget: Shared link budget (TX powers are symmetric in the
            paper's setup).
        inter_round_gap_s: Extra pacing between rounds, e.g. for regional
            duty-cycle compliance.  Zero by default: the paper probes
            back-to-back.
        interference: Optional interference sources; each receiver picks
            them up through its own position, so the corruption is
            asymmetric between the endpoints (paper Sec. II-A, effect 4).
        fault_model: Optional seeded link-fault injector.  When present,
            :meth:`run` switches to ARQ semantics: every probe carries a
            sequence number, the response doubles as its acknowledgment,
            and lost transmissions are retried under ``retry_policy``.
            ``None`` reproduces the ideal link bit-for-bit.
        retry_policy: Retransmission budget/backoff used with a fault
            model (defaults to :class:`~repro.faults.retry.RetryPolicy`).
        adversary: Optional seeded active attacker.  When present,
            :meth:`run` uses the same ARQ/sequence-number semantics as a
            fault model, the attacker's jamming / replayed / injected
            probes are woven into each attempt, and the trace records
            which rounds were poisoned (``injected``) and how many stale
            replays the window check rejected (``replays_rejected``).
            All attacker randomness comes from dedicated ``adversary-*``
            seed streams, so ``None`` (or a null plan) reproduces the
            unattacked run bit-for-bit.
    """

    def __init__(
        self,
        channel: ReciprocalChannel,
        phy: LoRaPHYConfig,
        alice_device: TransceiverModel,
        bob_device: TransceiverModel,
        link_budget: Optional[LinkBudget] = None,
        inter_round_gap_s: float = 0.0,
        interference: Sequence = (),
        fault_model: Optional[LinkFaultModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        adversary: Optional[ActiveAdversary] = None,
    ):
        require(inter_round_gap_s >= 0, "inter_round_gap_s must be >= 0")
        self.channel = channel
        self.phy = phy
        self.alice_device = alice_device
        self.bob_device = bob_device
        self.link_budget = link_budget if link_budget is not None else LinkBudget()
        self.inter_round_gap_s = float(inter_round_gap_s)
        self.interference = list(interference)
        self.fault_model = fault_model
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.adversary = adversary

    def round_period_s(self) -> float:
        """Duration of one complete probe/response round."""
        return (
            2.0 * self.phy.airtime_s
            + self.bob_device.processing_delay_s
            + self.alice_device.processing_delay_s
            + self.inter_round_gap_s
        )

    def run(
        self,
        n_rounds: int,
        seeds: SeedSequenceFactory,
        eavesdroppers: Sequence[EavesdropperSetup] = (),
        start_time_s: float = 0.0,
    ) -> ProbeTrace:
        """Execute ``n_rounds`` probe/response rounds.

        A fault-free link runs as a one-session call to the stacked
        kernel :func:`run_fastpath_group`; with a fault model or an
        adversary attached the per-round ARQ loop :meth:`run_loop` runs
        instead.  On a fault-free link both produce bit-identical traces,
        so callers never need to care which one executed.

        Args:
            n_rounds: Rounds to attempt.
            seeds: Seed factory; measurement-noise streams are drawn from
                the ``alice-rssi-noise``, ``bob-rssi-noise`` and
                ``eve-<label>-rssi-noise`` streams.
            eavesdroppers: Attackers overhearing the exchange.
            start_time_s: Protocol start time on the channel's clock.

        Returns:
            The complete :class:`ProbeTrace`, including per-round validity
            (both directions above sensitivity) and eavesdropper traces.
            With a fault model attached the trace also carries per-round
            ``retries``/``dropped`` ARQ accounting.

        ARQ semantics (fault model attached): each probe carries the round
        index as its sequence number and Bob's response acknowledges it.
        When either transmission is lost, Alice times out and retransmits
        the *same* sequence number after the policy's backoff, so Bob
        replaces his measurement for that round rather than advancing --
        a lost probe or response can therefore never silently pair
        Alice's round ``k`` with Bob's round ``k+1``.  A round whose
        retry budget runs out is discarded (``valid=False``,
        ``dropped=True``) instead of desynchronizing the trace.
        """
        if self.fault_model is not None or self.adversary is not None:
            return self.run_loop(n_rounds, seeds, eavesdroppers, start_time_s)
        return run_fastpath_group(
            [self],
            n_rounds,
            [seeds],
            start_time_s=start_time_s,
            eavesdroppers=[eavesdroppers],
        )[0]

    def run_loop(
        self,
        n_rounds: int,
        seeds: SeedSequenceFactory,
        eavesdroppers: Sequence[EavesdropperSetup] = (),
        start_time_s: float = 0.0,
    ) -> ProbeTrace:
        """Per-round reference implementation of :meth:`run`.

        This is the frozen correctness baseline: one probe/response
        attempt at a time, measuring each reception as it happens.  It is
        the only path that supports ARQ fault injection (retransmission
        timing depends on which packets were lost, so the timeline cannot
        be precomputed) and the oracle the stacked kernel
        :func:`run_fastpath_group` is pinned against.  Arguments and
        return value are exactly those of :meth:`run`.
        """
        require_positive(n_rounds, "n_rounds")
        airtime = self.phy.airtime_s

        alice_sampler = RegisterRssiSampler(self.phy, self.alice_device)
        bob_sampler = RegisterRssiSampler(self.phy, self.bob_device)
        eve_samplers = {
            setup.label: RegisterRssiSampler(self.phy, setup.device)
            for setup in eavesdroppers
        }
        alice_noise = seeds.generator("alice-rssi-noise")
        bob_noise = seeds.generator("bob-rssi-noise")
        eve_noise = {
            setup.label: seeds.generator(f"eve-{setup.label}-rssi-noise")
            for setup in eavesdroppers
        }

        n_samples = alice_sampler.n_samples
        alice_rssi = np.empty((n_rounds, n_samples))
        bob_rssi = np.empty((n_rounds, n_samples))
        alice_prssi = np.empty(n_rounds)
        bob_prssi = np.empty(n_rounds)
        round_start = np.empty(n_rounds)
        valid = np.ones(n_rounds, dtype=bool)
        retries = np.zeros(n_rounds, dtype=np.int32)
        dropped = np.zeros(n_rounds, dtype=bool)
        injected = np.zeros(n_rounds, dtype=bool)
        replays_rejected = np.zeros(n_rounds, dtype=np.int32)
        backoff_time = np.zeros(n_rounds, dtype=float)
        eve_of_alice: Dict[str, np.ndarray] = {
            s.label: np.empty((n_rounds, n_samples)) for s in eavesdroppers
        }
        eve_of_bob: Dict[str, np.ndarray] = {
            s.label: np.empty((n_rounds, n_samples)) for s in eavesdroppers
        }

        alice_power = self._receiver_power(self.channel.motion.trajectory_a)
        bob_power = self._receiver_power(self.channel.motion.trajectory_b)
        faults = self.fault_model
        policy = self.retry_policy
        adversary = self.adversary
        # Backoff jitter draws from its own named session stream, keeping
        # runs reproducible without perturbing the measurement streams.
        backoff_rng = seeds.generator("arq-backoff")
        sf = self.phy.spreading_factor

        def attempt(k: int, attempt_start: float):
            """One probe/response attempt's physical measurements.

            Fills round ``k``'s slots (overwriting any earlier attempt of
            the same round: ARQ retransmissions reuse the sequence
            number) and returns ``(probe_ok, response_ok,
            response_start)``.  The measurement-noise draw order matches
            the pre-ARQ protocol exactly, so runs without a fault model
            are bit-identical to the seed behaviour.  Adversary hooks run
            *after* every legitimate draw of the attempt's direction, in
            a fixed order (jam a2b, replay, inject, jam b2a), from the
            attacker's own seed streams.
            """
            injected[k] = False  # a retransmission replaces any poisoned row
            # --- Alice's probe, received by Bob (and overheard by Eve).
            bob_rssi[k] = bob_sampler.sample(bob_power, attempt_start, seed=bob_noise)
            if faults is not None:
                bob_rssi[k] = faults.corrupt_register(
                    bob_rssi[k], self.bob_device.rssi_floor_dbm
                )
            bob_prssi[k] = self._packet_rssi(
                bob_rssi[k], self.bob_device, bob_noise
            )
            for setup in eavesdroppers:
                power = self._eve_power(setup.channel_from_alice)
                eve_of_alice[setup.label][k] = eve_samplers[setup.label].sample(
                    power, attempt_start, seed=eve_noise[setup.label]
                )
            mid_probe = attempt_start + airtime / 2.0
            probe_gain = self.channel.path_gain_db(mid_probe)
            probe_ok = self.link_budget.is_decodable(probe_gain, self.phy)
            if faults is not None and probe_ok:
                probe_ok = not faults.packet_lost(
                    "a2b", self.link_budget.snr_db(probe_gain, self.phy), sf
                )
            if adversary is not None:
                if adversary.jams("a2b"):
                    # Reactive jamming burst over the probe slot.
                    probe_ok = False
                if adversary.replays_probe():
                    # A stale captured probe carries an out-of-window
                    # sequence number: Bob's window check rejects it (a
                    # detected attack), and the on-air collision costs
                    # the legitimate probe the slot.
                    replays_rejected[k] += 1
                    probe_ok = False
                if adversary.injects_probe():
                    # A forged probe with the *current* sequence number at
                    # attacker-chosen power: Bob accepts it, poisoning his
                    # measurement for this round.  Reciprocity breaks, so
                    # the MAC/confirmation layers must catch the damage.
                    bob_rssi[k] = adversary.injected_register_samples(n_samples)
                    bob_prssi[k] = quantize_packet_rssi(
                        float(np.mean(bob_rssi[k])),
                        self.bob_device.rssi_resolution_db,
                    )
                    injected[k] = True
                    probe_ok = True

            # --- Bob's response after his turnaround delay.
            response_start = (
                attempt_start + airtime + self.bob_device.processing_delay_s
            )
            alice_rssi[k] = alice_sampler.sample(
                alice_power, response_start, seed=alice_noise
            )
            if faults is not None:
                alice_rssi[k] = faults.corrupt_register(
                    alice_rssi[k], self.alice_device.rssi_floor_dbm
                )
            alice_prssi[k] = self._packet_rssi(
                alice_rssi[k], self.alice_device, alice_noise
            )
            for setup in eavesdroppers:
                power = self._eve_power(setup.channel_from_bob)
                eve_of_bob[setup.label][k] = eve_samplers[setup.label].sample(
                    power, response_start, seed=eve_noise[setup.label]
                )
            mid_response = response_start + airtime / 2.0
            response_gain = self.channel.path_gain_db(mid_response)
            response_ok = self.link_budget.is_decodable(response_gain, self.phy)
            if faults is not None and response_ok:
                response_ok = not faults.packet_lost(
                    "b2a", self.link_budget.snr_db(response_gain, self.phy), sf
                )
            if adversary is not None and adversary.jams("b2a"):
                response_ok = False
            return probe_ok, response_ok, response_start

        cursor = float(start_time_s)
        for k in range(n_rounds):
            round_start[k] = cursor
            if faults is None and adversary is None:
                probe_ok, response_ok, response_start = attempt(k, cursor)
                valid[k] = probe_ok and response_ok
                cursor = (
                    response_start
                    + airtime
                    + self.alice_device.processing_delay_s
                    + self.inter_round_gap_s
                )
                continue

            # --- ARQ: retransmit round k's probe until the acknowledging
            # response arrives or the retry budget runs out.
            attempt_start = cursor
            n_retries = 0
            while True:
                probe_ok, response_ok, response_start = attempt(k, attempt_start)
                if probe_ok and response_ok:
                    valid[k] = True
                    next_free = (
                        response_start
                        + airtime
                        + self.alice_device.processing_delay_s
                    )
                    break
                if probe_ok:
                    # Bob measured round k but his response was lost;
                    # Alice times out.  Her retransmission reuses round
                    # k's sequence number, so Bob replaces his
                    # measurement instead of pairing it with round k+1.
                    attempt_end = response_start + airtime
                else:
                    # Probe lost: Bob never turned the link around.
                    attempt_end = attempt_start + airtime
                if n_retries >= policy.max_retries:
                    valid[k] = False
                    dropped[k] = True
                    backoff_time[k] += policy.timeout_s
                    next_free = (
                        attempt_end
                        + policy.timeout_s
                        + self.alice_device.processing_delay_s
                    )
                    break
                delay = policy.retry_delay_s(n_retries, airtime, rng=backoff_rng)
                backoff_time[k] += delay
                n_retries += 1
                attempt_start = attempt_end + delay
            retries[k] = n_retries
            cursor = next_free + self.inter_round_gap_s

        eve_traces = {
            label: EveTrace(of_alice_rssi=eve_of_alice[label], of_bob_rssi=eve_of_bob[label])
            for label in eve_of_alice
        }
        return ProbeTrace(
            phy=self.phy,
            alice_rssi=alice_rssi,
            bob_rssi=bob_rssi,
            round_start_s=round_start,
            valid=valid,
            eve=eve_traces,
            alice_prssi=alice_prssi,
            bob_prssi=bob_prssi,
            retries=retries,
            dropped=dropped,
            injected=injected,
            replays_rejected=replays_rejected,
            backoff_time_s=backoff_time,
            retry_limit=(
                policy.max_retries
                if (faults is not None or adversary is not None)
                else None
            ),
        )

    def _receiver_power(self, trajectory):
        """Receiver-side power-vs-time function for one endpoint.

        Combines the reciprocal channel's path gain with any interference
        picked up at the receiver's own position;
        :func:`_group_received_power` mirrors it row by row.
        """

        def power(times: np.ndarray) -> np.ndarray:
            total = self.link_budget.received_power_dbm(
                self.channel.path_gain_db(times)
            )
            if self.interference:
                positions = trajectory.position_m(times)
                for source in self.interference:
                    total = combine_power_dbm(
                        total, source.power_dbm(times, positions)
                    )
            return total

        return power

    def _packet_rssi(
        self,
        register_samples: np.ndarray,
        device: TransceiverModel,
        rng: np.random.Generator,
    ) -> float:
        """The chip's whole-packet RSSI report for one reception.

        Mean of the register samples plus the PacketRssi register's own
        calibration error, quantized to the register resolution with
        :func:`~repro.lora.rssi.quantize_packet_rssi` (round half toward
        +infinity -- the documented rule shared with the stacked
        kernel).
        """
        value = float(np.mean(register_samples))
        value += float(rng.normal(0.0, device.packet_rssi_noise_std_db))
        return quantize_packet_rssi(value, device.rssi_resolution_db)

    def _eve_power(self, channel: ReciprocalChannel):
        budget = self.link_budget

        def power(times: np.ndarray) -> np.ndarray:
            return budget.received_power_dbm(channel.path_gain_db(times))

        return power


def _group_compatible(protocols: Sequence[ProbingProtocol]) -> bool:
    """Whether one stacked evaluation can serve every session.

    The stacked kernel shares the round timeline and the register
    pipeline, so the group must be fault-free and agree on PHY, both
    transceivers, link budget and pacing.  Channels may differ freely
    (:func:`_group_path_gain` picks the fading evaluation from them), so
    any single fault-free protocol is compatible on its own -- the
    per-session fallback of :func:`run_fastpath_group` never recurses.
    """
    first = protocols[0]
    return all(
        protocol.fault_model is None
        and protocol.adversary is None
        and protocol.phy == first.phy
        and protocol.alice_device == first.alice_device
        and protocol.bob_device == first.bob_device
        and protocol.link_budget == first.link_budget
        and protocol.inter_round_gap_s == first.inter_round_gap_s
        for protocol in protocols
    )


def _group_path_gain(
    protocols: Sequence[ProbingProtocol], times_1d: np.ndarray
) -> np.ndarray:
    """``[n_sessions, len(times)]`` total path gains for the group.

    When every channel carries a homogeneous :class:`SpatialJakesFading`
    (per-session wavelengths may differ; path count / K-factor /
    precision may not), the fading term -- the dominant cost -- is
    evaluated for all sessions in one stacked trig pass, while path loss
    and shadowing stay per-session (cheap, and their lazy caches are
    stateful).  Row ``i`` is bit-identical to
    ``protocols[i].channel.path_gain_db(times_1d)`` because the
    composition order matches
    :meth:`~repro.channel.reciprocity.ReciprocalChannel.prefading_gain_db`
    and :func:`~repro.channel.fading.batched_spatial_gain_db` is
    row-exact.  Fading-free or mixed groups evaluate each row with
    ``path_gain_db`` itself.
    """
    fadings = [protocol.channel.fading for protocol in protocols]
    first = fadings[0]
    if not all(
        isinstance(fading, SpatialJakesFading)
        and fading.n_paths == first.n_paths
        and fading.rician_k == first.rician_k
        and fading.trig_precision == first.trig_precision
        for fading in fadings
    ):
        return np.stack(
            [protocol.channel.path_gain_db(times_1d) for protocol in protocols]
        )
    partials = np.empty((len(protocols), times_1d.size))
    displacements = np.empty_like(partials)
    for i, protocol in enumerate(protocols):
        partial, displacement = protocol.channel.prefading_gain_db(times_1d)
        partials[i] = partial
        displacements[i] = displacement
    return partials + batched_spatial_gain_db(fadings, displacements)


def _group_received_power(
    protocols: Sequence[ProbingProtocol],
    times_1d: np.ndarray,
    trajectory_of: Callable[[ProbingProtocol], object],
) -> np.ndarray:
    """``[n_sessions, len(times)]`` received powers at one endpoint.

    Mirrors :meth:`ProbingProtocol._receiver_power` per row: link-budget
    affine map over the (batched) path gain, then any per-session
    interference combined at the receiver's own positions.
    """
    gains = _group_path_gain(protocols, times_1d)
    powers = np.empty_like(gains)
    for i, protocol in enumerate(protocols):
        total = protocol.link_budget.received_power_dbm(gains[i])
        if protocol.interference:
            positions = trajectory_of(protocol).position_m(times_1d)
            for source in protocol.interference:
                total = combine_power_dbm(
                    total, source.power_dbm(times_1d, positions)
                )
        powers[i] = total
    return powers


def _overheard(
    protocol: ProbingProtocol,
    setup: EavesdropperSetup,
    seeds: SeedSequenceFactory,
    probe_times: np.ndarray,
    response_times: np.ndarray,
) -> EveTrace:
    """One eavesdropper's trace on the session's reception-time grids.

    Eve samples at exactly the legitimate receivers' instants, through
    Eve's own channels and device.  Per round the loop draws
    ``n_samples`` for the probe overhear, then ``n_samples`` for the
    response overhear, from Eve's own stream; one row-major
    ``[n_rounds, 2 * n_samples]`` draw replays it.
    """
    sampler = RegisterRssiSampler(protocol.phy, setup.device)
    n_rounds, n_samples = probe_times.shape
    z_eve = seeds.generator(f"eve-{setup.label}-rssi-noise").standard_normal(
        (n_rounds, 2 * n_samples)
    )

    def readings(channel: ReciprocalChannel, times: np.ndarray, noise: np.ndarray):
        power = protocol._eve_power(channel)(times.ravel())
        return sampler.readings_for_power(power.reshape(times.shape), noise)

    return EveTrace(
        of_alice_rssi=readings(
            setup.channel_from_alice, probe_times, z_eve[:, :n_samples]
        ),
        of_bob_rssi=readings(
            setup.channel_from_bob, response_times, z_eve[:, n_samples:]
        ),
    )


def run_fastpath_group(
    protocols: Sequence[ProbingProtocol],
    n_rounds: int,
    seeds: Sequence[SeedSequenceFactory],
    start_time_s: float = 0.0,
    eavesdroppers: Optional[Sequence[Sequence[EavesdropperSetup]]] = None,
) -> List[ProbeTrace]:
    """Run one fault-free probing session per protocol, stacked.

    The one fault-free probing engine: the ``[n_rounds, n_samples]``
    reception grids of a whole batch are stacked into
    ``[n_sessions, n_rounds, n_samples]`` so the channel evaluation and
    the register-reading pipeline each run once for the group.
    Per-session randomness is replayed row-major -- each session draws
    its own ``bob`` block then its own ``alice`` block from its own named
    streams, exactly the per-round loop's draw order -- so every returned
    :class:`ProbeTrace` is bit-identical to
    ``protocols[i].run_loop(n_rounds, seeds[i], eavesdroppers[i],
    start_time_s)`` (``tests/test_probing_cross_session.py`` pins this).

    Args:
        protocols: One protocol per session.
        n_rounds: Rounds every session probes.
        seeds: One seed factory per session.
        start_time_s: Protocol start time on the channels' clock.
        eavesdroppers: Optional per-session eavesdropper lists (``None``:
            nobody listens).

    A group whose protocols cannot share a timeline (mixed PHYs, devices,
    link budgets or pacing, or any fault model or adversary) falls back
    to per-session :meth:`ProbingProtocol.run`, which preserves
    correctness for any input and returns the traces in input order.
    """
    protocols = list(protocols)
    seeds = list(seeds)
    require(len(protocols) > 0, "run_fastpath_group needs at least one session")
    require(
        len(protocols) == len(seeds),
        "run_fastpath_group needs one seed factory per protocol",
    )
    eavesdroppers = (
        [()] * len(protocols) if eavesdroppers is None else list(eavesdroppers)
    )
    require(
        len(eavesdroppers) == len(protocols),
        "run_fastpath_group needs one eavesdropper list per protocol",
    )
    require_positive(n_rounds, "n_rounds")
    if not _group_compatible(protocols):
        return [
            protocol.run(n_rounds, session_seeds, session_eves, start_time_s)
            for protocol, session_seeds, session_eves in zip(
                protocols, seeds, eavesdroppers
            )
        ]

    first = protocols[0]
    airtime = first.phy.airtime_s
    alice_sampler = RegisterRssiSampler(first.phy, first.alice_device)
    bob_sampler = RegisterRssiSampler(first.phy, first.bob_device)
    n_samples = alice_sampler.n_samples
    n_sessions = len(protocols)

    # Shared round timeline.  The start times are affine in the round
    # index, but the loop's running-cursor additions (same association
    # order) are reproduced rather than closing the form, so the
    # timestamps -- and everything downstream -- match bit-for-bit.
    probe_starts = np.empty(n_rounds)
    response_starts = np.empty(n_rounds)
    cursor = float(start_time_s)
    for k in range(n_rounds):
        probe_starts[k] = cursor
        response_start = cursor + airtime + first.bob_device.processing_delay_s
        response_starts[k] = response_start
        cursor = (
            response_start
            + airtime
            + first.alice_device.processing_delay_s
            + first.inter_round_gap_s
        )
    probe_times = bob_sampler.reception_times(probe_starts)
    response_times = alice_sampler.reception_times(response_starts)

    # Each round consumes n_samples register-noise draws plus one
    # packet-RSSI draw per party, in that order; a row-major bulk draw
    # per session therefore replays the loop's streams exactly.
    z_bob = np.empty((n_sessions, n_rounds, n_samples + 1))
    z_alice = np.empty_like(z_bob)
    for i, session_seeds in enumerate(seeds):
        alice_noise = session_seeds.generator("alice-rssi-noise")
        bob_noise = session_seeds.generator("bob-rssi-noise")
        z_bob[i] = bob_noise.standard_normal((n_rounds, n_samples + 1))
        z_alice[i] = alice_noise.standard_normal((n_rounds, n_samples + 1))

    bob_power = _group_received_power(
        protocols, probe_times.ravel(), lambda p: p.channel.motion.trajectory_b
    )
    alice_power = _group_received_power(
        protocols, response_times.ravel(), lambda p: p.channel.motion.trajectory_a
    )
    bob_rssi = bob_sampler.readings_for_power(
        bob_power.reshape(n_sessions, n_rounds, n_samples),
        z_bob[:, :, :n_samples],
    )
    alice_rssi = alice_sampler.readings_for_power(
        alice_power.reshape(n_sessions, n_rounds, n_samples),
        z_alice[:, :, :n_samples],
    )
    bob_prssi = quantize_packet_rssi(
        bob_rssi.mean(axis=2)
        + first.bob_device.packet_rssi_noise_std_db * z_bob[:, :, n_samples],
        first.bob_device.rssi_resolution_db,
    )
    alice_prssi = quantize_packet_rssi(
        alice_rssi.mean(axis=2)
        + first.alice_device.packet_rssi_noise_std_db * z_alice[:, :, n_samples],
        first.alice_device.rssi_resolution_db,
    )
    eve_traces = [
        {
            setup.label: _overheard(
                protocol, setup, session_seeds, probe_times, response_times
            )
            for setup in session_eves
        }
        for protocol, session_seeds, session_eves in zip(
            protocols, seeds, eavesdroppers
        )
    ]

    probe_gain = _group_path_gain(protocols, probe_starts + airtime / 2.0)
    response_gain = _group_path_gain(protocols, response_starts + airtime / 2.0)
    valid = first.link_budget.is_decodable(
        probe_gain, first.phy
    ) & first.link_budget.is_decodable(response_gain, first.phy)

    return [
        ProbeTrace(
            phy=protocol.phy,
            alice_rssi=alice_rssi[i],
            bob_rssi=bob_rssi[i],
            round_start_s=probe_starts.copy(),
            valid=valid[i],
            eve=eve_traces[i],
            alice_prssi=alice_prssi[i],
            bob_prssi=bob_prssi[i],
        )
        for i, protocol in enumerate(protocols)
    ]
