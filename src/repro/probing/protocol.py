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

Two engines produce traces, and both measure through one register
pipeline, :func:`_measure_rounds` (read-time grids, one channel
evaluation, received power, register readings, packet-RSSI noise and
eavesdroppers):

- :func:`run_fastpath_group` is the fault-free engine.  Without faults
  every round is one attempt on a timeline fixed in advance
  (:func:`_success_timeline`), so it measures a whole batch of sessions
  at once, as ``[n_sessions, n_rounds, n_samples]`` grids with the
  decodability instants in the same channel evaluation.
  :meth:`ProbingProtocol.run` on a fault-free link is a one-session call
  to it.
- :meth:`ProbingProtocol.run_loop` is the ARQ engine, the only one that
  supports link faults and active attacks.  Retransmission timing
  depends on which packets were lost, but an attempt's outcome depends
  only on the gains at its mid-probe and mid-response instants and on
  fault and attack draws that never read a register.  So a cheap
  sequential pass decides every attempt first, and one stacked pass then
  measures each round's final attempt -- the only one a trace keeps.
  The sequential pass evaluates those instants a few rounds ahead along
  the success timeline (:data:`LOOKAHEAD_ROUNDS`).

Each engine replays the per-party noise streams row-major, so the
fault-free kernel is bit-identical to ``run_loop``, and ``run_loop`` to
the frozen per-attempt loop in ``tests/oracles/probing_loop.py``
(``tests/test_probing_loop_oracle.py``, ``test_probing_vectorized.py``
and ``test_probing_cross_session.py`` pin this).

Both engines take ``alice_reads``: measure only Alice's first reads of
each response, the ones her arRSSI window uses.  The register filter is
causal and the rest of the pipeline elementwise, so such a *windowed*
trace is the full trace with Alice's matrix cut to its first columns and
her packet RSSI NaN.  The key path probes this way
(``VehicleKeyPipeline.establish_key`` and ``collect_traces``);
``collect_trace`` keeps full traces for the experiments that read packet
RSSI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fading import batched_spatial_gain_db
from repro.channel.reciprocity import ReciprocalChannel
from repro.faults.adversary import ActiveAdversary
from repro.faults.link import LinkFaultModel
from repro.faults.retry import RetryPolicy
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import _SNR_LIMIT_DB, LinkBudget
from repro.lora.radio import TransceiverModel
from repro.lora.rssi import RegisterRssiSampler, quantize_packet_rssi
from repro.probing.trace import EveTrace, ProbeTrace
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require, require_positive

#: Rounds of its success timeline the ARQ decision pass evaluates after an
#: attempt off the previous one (a retransmission, or the first attempt
#: after a dropped round); each time they run out with the attempts still
#: on the timeline, it evaluates twice as many more.
LOOKAHEAD_ROUNDS = 8


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
        alice_reads: Optional[int] = None,
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
            alice_reads: Measure only Alice's first ``alice_reads``
                register reads of each response (``None``: all of them).
                The trace is then *windowed*: Alice's matrix is the full
                trace's first ``alice_reads`` columns exactly, her packet
                RSSI is NaN, and every other field is unchanged.
                Eavesdroppers overhear on Alice's full read grid, so they
                cannot be combined with a window.

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
            return self.run_loop(
                n_rounds, seeds, eavesdroppers, start_time_s, alice_reads
            )
        return run_fastpath_group(
            [self],
            n_rounds,
            [seeds],
            start_time_s=start_time_s,
            eavesdroppers=[eavesdroppers],
            alice_reads=alice_reads,
        )[0]

    def run_loop(
        self,
        n_rounds: int,
        seeds: SeedSequenceFactory,
        eavesdroppers: Sequence[EavesdropperSetup] = (),
        start_time_s: float = 0.0,
        alice_reads: Optional[int] = None,
    ) -> ProbeTrace:
        """The ARQ engine: :meth:`run` one attempt at a time, in two passes.

        The *timeline pass* decides each attempt in order from the SNR at
        its mid-probe and mid-response instants, with every fault, attack
        and backoff draw in the frozen loop's per-attempt order.  The
        SNRs and decodability come from a look-ahead along the
        all-success timeline (:func:`_success_timeline`): the first
        evaluation covers the whole burst, and an attempt off the
        timeline (a retransmission, or the first attempt after a dropped
        round) starts a new one from its own start and evaluates its
        first :data:`LOOKAHEAD_ROUNDS` rounds, twice as many more each
        time the attempts use them up.  Each evaluation is one
        ``path_gain_db`` call and one link-budget pass over its
        instants.  Gains are a pure function of time, so every decision
        is the one a fresh evaluation would give.  The *measurement pass*
        measures what the trace keeps, each round's final attempt, with
        the stacked kernel's register pipeline (:func:`_measure_rounds`),
        then applies the recorded register glitches and injected probes.
        With ``alice_reads`` it measures only Alice's window; her
        register glitches are still drawn over the whole reception, so
        the fault streams advance as on a full measurement, and are
        applied to the columns kept.

        Pinned bit for bit to the frozen per-attempt loop in
        ``tests/oracles/probing_loop.py``, and windowed to its first
        columns (``tests/test_probing_loop_oracle.py``).  Arguments and
        return value are exactly those of :meth:`run`.
        """
        require_positive(n_rounds, "n_rounds")
        _require_window(alice_reads, [self], [eavesdroppers])
        airtime = self.phy.airtime_s
        n_samples = self.phy.total_symbols
        sf = self.phy.spreading_factor
        faults = self.fault_model
        policy = self.retry_policy
        adversary = self.adversary
        arq = faults is not None or adversary is not None
        # Backoff jitter draws from its own named session stream, keeping
        # runs reproducible without perturbing the measurement streams.
        backoff_rng = seeds.generator("arq-backoff")

        round_start = np.empty(n_rounds)
        valid = np.ones(n_rounds, dtype=bool)
        retries = np.zeros(n_rounds, dtype=np.int32)
        dropped = np.zeros(n_rounds, dtype=bool)
        replays_rejected = np.zeros(n_rounds, dtype=np.int32)
        backoff_time = np.zeros(n_rounds, dtype=float)
        # Each round's final attempt, as the measurement pass needs it: its
        # probe and response start, Bob's and Alice's register glitches
        # and any injected probe.  Earlier attempts' entries are replaced.
        final_starts = np.empty((2, n_rounds))
        glitches: Tuple[list, list] = ([None] * n_rounds, [None] * n_rounds)
        injections: Dict[int, np.ndarray] = {}
        # The look-ahead: the success timeline's probe and response starts
        # from round ``timeline_round``, where the latest attempt off the
        # previous timeline started, and its first rounds' decisions
        # ``(probe_snr, response_snr, probe_ok, response_ok)``, evaluated
        # ``width`` rounds at a time.  The burst's first timeline is
        # evaluated whole.
        timeline_round, width, decisions = 0, n_rounds, []
        timeline = _success_timeline(self, start_time_s, n_rounds)
        snr_limit = _SNR_LIMIT_DB[sf]

        def attempt(k: int, attempt_start: float):
            """Decide one attempt of round ``k``, recording it as the final one.

            Returns ``(probe_ok, response_ok, response_start)``.  A register
            glitch's draws never depend on the readings, so it is decided
            here, in the stream order of the reception it hits.
            """
            nonlocal timeline_round, width, decisions, timeline
            i = k - timeline_round
            if timeline[0][i] != attempt_start:
                timeline_round, width, decisions, i = k, LOOKAHEAD_ROUNDS, [], 0
                timeline = _success_timeline(self, attempt_start, n_rounds - k)
            if i == len(decisions):
                snr = self.link_budget.snr_db(
                    self.channel.path_gain_db(
                        np.concatenate([starts[i : i + width] for starts in timeline])
                        + airtime / 2.0
                    ),
                    self.phy,
                ).reshape(2, -1)
                decisions += zip(*snr.tolist(), *(snr >= snr_limit).tolist())
                width *= 2
            probe_snr, response_snr, probe_ok, response_ok = decisions[i]
            response_start = (
                attempt_start + airtime + self.bob_device.processing_delay_s
            )
            final_starts[:, k] = attempt_start, response_start
            injections.pop(k, None)  # a retransmission replaces a poisoned row

            # --- Alice's probe, received by Bob.
            if faults is not None:
                glitches[0][k] = faults.register_glitch(n_samples)
            if faults is not None and probe_ok:
                probe_ok = not faults.packet_lost("a2b", probe_snr, sf)
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
                    injections[k] = adversary.injected_register_samples(n_samples)
                    probe_ok = True

            # --- Bob's response after his turnaround delay.
            if faults is not None:
                glitches[1][k] = faults.register_glitch(n_samples)
            if faults is not None and response_ok:
                response_ok = not faults.packet_lost("b2a", response_snr, sf)
            if adversary is not None and adversary.jams("b2a"):
                response_ok = False
            return probe_ok, response_ok, response_start

        cursor = float(start_time_s)
        for k in range(n_rounds):
            round_start[k] = cursor
            # --- ARQ: retransmit round k's probe until the acknowledging
            # response arrives or the retry budget runs out.  Without an
            # ARQ layer every round is a single attempt.
            attempt_start = cursor
            n_retries = 0
            while True:
                probe_ok, response_ok, response_start = attempt(k, attempt_start)
                if (probe_ok and response_ok) or not arq:
                    valid[k] = probe_ok and response_ok
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

        # --- Measurement pass over each round's final attempt.
        (bob_rssi, bob_z), (alice_rssi, alice_z), eve_traces, _ = _measure_rounds(
            [self],
            [seeds],
            [eavesdroppers],
            final_starts,
            np.cumsum(retries + 1) - 1,
            alice_reads=alice_reads,
        )
        bob_rssi, alice_rssi = bob_rssi[0], alice_rssi[0]
        if faults is not None:
            # A glitch's slice cuts itself to a windowed row.
            for readings, party_glitches, device in zip(
                (bob_rssi, alice_rssi), glitches, (self.bob_device, self.alice_device)
            ):
                for k, glitch in enumerate(party_glitches):
                    readings[k] = faults.apply_glitch(
                        readings[k], glitch, device.rssi_floor_dbm
                    )
        bob_prssi = _packet_rssi(bob_rssi, bob_z[0], self.bob_device)
        # A windowed matrix has no packet average; ProbeTrace fills in NaN.
        alice_prssi = None
        if alice_rssi.shape == bob_rssi.shape:
            alice_prssi = _packet_rssi(alice_rssi, alice_z[0], self.alice_device)
        injected = np.zeros(n_rounds, dtype=bool)
        for k, samples in injections.items():
            bob_rssi[k] = samples
            bob_prssi[k] = quantize_packet_rssi(
                float(np.mean(samples)), self.bob_device.rssi_resolution_db
            )
            injected[k] = True

        return ProbeTrace(
            phy=self.phy,
            alice_rssi=alice_rssi,
            bob_rssi=bob_rssi,
            round_start_s=round_start,
            valid=valid,
            eve=eve_traces[0],
            alice_prssi=alice_prssi,
            bob_prssi=bob_prssi,
            retries=retries,
            dropped=dropped,
            injected=injected,
            replays_rejected=replays_rejected,
            backoff_time_s=backoff_time,
            retry_limit=policy.max_retries if arq else None,
        )


def _success_timeline(
    protocol: ProbingProtocol, start_time_s: float, n_rounds: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Probe and response start times of rounds that succeed first time.

    The round timeline of a fault-free link, and the one an ARQ session
    keeps to while its attempts succeed.  The start times are affine in
    the round index, but the running cursor's additions are kept rather
    than closing the form: one sequential accumulate over the per-round
    addends ``[start | gap, airtime, turnaround, airtime, settle]``
    performs the same left-to-right additions as a loop carrying the
    cursor, so the timestamps -- and everything downstream -- match
    bit-for-bit.
    """
    airtime = protocol.phy.airtime_s
    addends = np.empty((n_rounds, 5))
    addends[:] = (
        protocol.inter_round_gap_s,
        airtime,
        protocol.bob_device.processing_delay_s,
        airtime,
        protocol.alice_device.processing_delay_s,
    )
    addends[0, 0] = start_time_s
    cursor = np.add.accumulate(addends.ravel()).reshape(n_rounds, 5)
    return cursor[:, 0], cursor[:, 2]


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

    When every channel carries a fading realization of one path count and
    K-factor (per-session wavelengths may differ), the fading term -- the
    dominant cost -- is evaluated for all sessions in one stacked trig
    pass, while path loss and shadowing stay per-session (cheap, and
    their lazy caches are stateful).  Row ``i`` is bit-identical to
    ``protocols[i].channel.path_gain_db(times_1d)``, which is
    :meth:`~repro.channel.reciprocity.ReciprocalChannel.prefading_gain_db`
    plus the fading term, because
    :func:`~repro.channel.fading.batched_spatial_gain_db` is row-exact.
    Fading-free or mixed groups evaluate each row with ``path_gain_db``
    itself.
    """
    fadings = [protocol.channel.fading for protocol in protocols]
    first = fadings[0]
    if not all(
        fading is not None
        and fading.n_paths == first.n_paths
        and fading.rician_k == first.rician_k
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
    protocols: Sequence[ProbingProtocol], gains: np.ndarray
) -> np.ndarray:
    """True received powers: row ``i`` is session ``i``'s link budget over its gains."""
    return np.stack(
        [
            protocol.link_budget.received_power_dbm(row)
            for protocol, row in zip(protocols, gains)
        ]
    )


def _final_rows(
    rng: np.random.Generator, final: np.ndarray, width: int
) -> np.ndarray:
    """The ``width`` draws of a noise stream each round's final attempt used.

    Every attempt consumes ``width`` draws, so a row-major
    ``[n_attempts, width]`` draw replays the stream and ``final`` (the
    final attempts' indices) picks the measured rows.
    """
    return rng.standard_normal((int(final[-1]) + 1, width))[final]


def _overheard(
    protocol: ProbingProtocol,
    setup: EavesdropperSetup,
    seeds: SeedSequenceFactory,
    read_times: Sequence[np.ndarray],
    final: np.ndarray,
):
    """One eavesdropper's ``(sampler, true power, standard noise)``.

    Eve samples at exactly the legitimate receivers' instants (the probe's
    and the response's ``read_times``), through her own channels and
    device; per attempt she draws the probe overhear's ``n_samples``, then
    the response's.  Both receptions stack on a leading axis of 2.
    """
    n_rounds, n_samples = read_times[0].shape
    power = np.stack(
        [
            protocol.link_budget.received_power_dbm(
                channel.path_gain_db(times.ravel())
            ).reshape(times.shape)
            for channel, times in zip(
                (setup.channel_from_alice, setup.channel_from_bob), read_times
            )
        ]
    )
    z_eve = _final_rows(
        seeds.generator(f"eve-{setup.label}-rssi-noise"), final, 2 * n_samples
    )
    noise = z_eve.reshape(n_rounds, 2, n_samples).swapaxes(0, 1)
    return RegisterRssiSampler(protocol.phy, setup.device), power, noise


def _measure_rounds(
    protocols: Sequence[ProbingProtocol],
    seeds: Sequence[SeedSequenceFactory],
    eavesdroppers: Sequence[Sequence[EavesdropperSetup]],
    starts: Sequence[np.ndarray],
    final: np.ndarray,
    decision_times: np.ndarray = (),
    alice_reads: Optional[int] = None,
):
    """The register pipeline of both probing engines.

    Measures each round's final attempt for every session of a compatible
    group (:func:`_group_compatible`): ``starts`` holds those attempts'
    ``[n_rounds]`` probe and response starts, ``final`` their indices
    among all attempts.  An attempt consumes ``n_samples + 1`` draws of
    each party's stream (register, then packet-RSSI noise) and
    ``2 * n_samples`` of each eavesdropper's.  One :func:`_group_path_gain`
    call serves both parties' reads and ``decision_times``; one
    ``readings_for_power`` call serves each party and each eavesdropper.

    ``alice_reads`` keeps only Alice's first reads of each reception
    (``None``: all ``n_samples``).  The register filter is causal and
    the rest of the pipeline elementwise, so those reads are exactly the
    full reception's first columns; her noise rows are still drawn
    whole, so every stream advances as on a full measurement.

    Returns Bob's and Alice's ``(readings, packet_z)``
    (``[n_sessions, n_rounds, reads]`` readings and the standard
    packet-RSSI noise for :func:`_packet_rssi`), one eavesdropper dict per
    session, and the ``[n_sessions, len(decision_times)]`` gains.
    """
    first = protocols[0]
    n_samples = first.phy.total_symbols
    parties = (("bob", first.bob_device), ("alice", first.alice_device))
    samplers = [RegisterRssiSampler(first.phy, device) for _, device in parties]
    read_times = [
        sampler.reception_times(party_starts)
        for sampler, party_starts in zip(samplers, starts)
    ]
    read_times[1] = read_times[1][:, :alice_reads]
    edges = np.cumsum([0] + [times.size for times in read_times])
    # Lazy channel state is order-invariant, so one evaluation serves
    # every instant the group needs.
    gains = _group_path_gain(
        protocols,
        np.concatenate([times.ravel() for times in read_times] + [decision_times]),
    )
    receptions, packet_z = [], []
    for i, (name, _) in enumerate(parties):
        z = np.stack(
            [
                _final_rows(s.generator(f"{name}-rssi-noise"), final, n_samples + 1)
                for s in seeds
            ]
        )
        power = _group_received_power(protocols, gains[:, edges[i] : edges[i + 1]])
        reads = z[..., : read_times[i].shape[1]]
        receptions.append((samplers[i], power.reshape(reads.shape), reads))
        packet_z.append(z[..., n_samples])
    listeners = []
    for i, (protocol, session_seeds, session_eves) in enumerate(
        zip(protocols, seeds, eavesdroppers)
    ):
        for setup in session_eves:
            receptions.append(
                _overheard(protocol, setup, session_seeds, read_times, final)
            )
            listeners.append((i, setup.label))
    readings = [
        sampler.readings_for_power(power, noise)
        for sampler, power, noise in receptions
    ]
    eve_traces: List[Dict[str, EveTrace]] = [{} for _ in protocols]
    for (i, label), (of_alice, of_bob) in zip(listeners, readings[2:]):
        eve_traces[i][label] = EveTrace(of_alice_rssi=of_alice, of_bob_rssi=of_bob)
    return (
        (readings[0], packet_z[0]),
        (readings[1], packet_z[1]),
        eve_traces,
        gains[:, edges[-1] :],
    )


def _require_window(
    alice_reads: Optional[int],
    protocols: Sequence[ProbingProtocol],
    eavesdroppers: Sequence[Sequence[EavesdropperSetup]],
) -> None:
    """Reject an ``alice_reads`` outside the packet, or one with eavesdroppers.

    Eavesdroppers overhear on Alice's full read grid (:func:`_overheard`),
    so no windowed session may carry one.
    """
    if alice_reads is None:
        return
    require(
        all(1 <= alice_reads <= p.phy.total_symbols for p in protocols),
        "alice_reads must lie in 1..phy.total_symbols",
    )
    require(
        not any(eavesdroppers),
        "eavesdroppers overhear Alice's full read grid; "
        "they cannot be combined with alice_reads",
    )


def _packet_rssi(readings: np.ndarray, packet_z: np.ndarray, device) -> np.ndarray:
    """Packet RSSI: the mean register read plus packet-RSSI noise, quantized."""
    return quantize_packet_rssi(
        readings.mean(axis=-1) + device.packet_rssi_noise_std_db * packet_z,
        device.rssi_resolution_db,
    )


def run_fastpath_group(
    protocols: Sequence[ProbingProtocol],
    n_rounds: int,
    seeds: Sequence[SeedSequenceFactory],
    start_time_s: float = 0.0,
    eavesdroppers: Optional[Sequence[Sequence[EavesdropperSetup]]] = None,
    alice_reads: Optional[int] = None,
) -> List[ProbeTrace]:
    """Run one fault-free probing session per protocol, stacked.

    The one fault-free probing engine: without faults every round is one
    attempt on the :func:`_success_timeline`, so the reception grids of a
    whole batch are stacked into ``[n_sessions, n_rounds, n_samples]``
    and the channel evaluation (register reads and decodability
    instants) and the register pipeline (:func:`_measure_rounds`) each
    run once for the group.  Per-session randomness is replayed
    row-major from each session's own named streams, exactly the
    per-round loop's draw order, so every returned :class:`ProbeTrace`
    is bit-identical to ``protocols[i].run_loop(n_rounds, seeds[i],
    eavesdroppers[i], start_time_s)`` and to the frozen loop it is
    pinned to (``tests/test_probing_cross_session.py``).

    Args:
        protocols: One protocol per session.
        n_rounds: Rounds every session probes.
        seeds: One seed factory per session.
        start_time_s: Protocol start time on the channels' clock.
        eavesdroppers: Optional per-session eavesdropper lists (``None``:
            nobody listens).
        alice_reads: Measure only Alice's first ``alice_reads`` register
            reads of each response (``None``: all of them).  The traces
            are then *windowed*: Alice's matrix is the full trace's first
            ``alice_reads`` columns exactly, her packet RSSI is NaN (the
            packet average needs every read), and every other field is
            unchanged.  Eavesdroppers overhear on Alice's full read grid,
            so they cannot be combined with a window.

    A group whose protocols cannot share a timeline (mixed PHYs, devices,
    link budgets or pacing, or any fault model or adversary) falls back
    to per-session :meth:`ProbingProtocol.run` with the same
    ``alice_reads``, which preserves correctness for any input and
    returns the traces in input order.
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
    _require_window(alice_reads, protocols, eavesdroppers)
    if not _group_compatible(protocols):
        return [
            protocol.run(
                n_rounds, session_seeds, session_eves, start_time_s, alice_reads
            )
            for protocol, session_seeds, session_eves in zip(
                protocols, seeds, eavesdroppers
            )
        ]

    first = protocols[0]
    starts = _success_timeline(first, start_time_s, n_rounds)
    (bob_rssi, bob_z), (alice_rssi, alice_z), eve_traces, decision_gains = (
        _measure_rounds(
            protocols,
            seeds,
            eavesdroppers,
            starts,
            np.arange(n_rounds),
            np.concatenate(starts) + first.phy.airtime_s / 2.0,
            alice_reads,
        )
    )
    bob_prssi = _packet_rssi(bob_rssi, bob_z, first.bob_device)
    # A windowed matrix has no packet average; ProbeTrace fills in NaN.
    alice_prssi = (
        _packet_rssi(alice_rssi, alice_z, first.alice_device)
        if alice_rssi.shape == bob_rssi.shape
        else [None] * len(protocols)
    )
    valid = first.link_budget.is_decodable(
        decision_gains[:, :n_rounds], first.phy
    ) & first.link_budget.is_decodable(decision_gains[:, n_rounds:], first.phy)

    return [
        ProbeTrace(
            phy=protocol.phy,
            alice_rssi=alice_rssi[i],
            bob_rssi=bob_rssi[i],
            round_start_s=starts[0].copy(),
            valid=valid[i],
            eve=eve_traces[i],
            alice_prssi=alice_prssi[i],
            bob_prssi=bob_prssi[i],
        )
        for i, protocol in enumerate(protocols)
    ]
