"""The frozen per-attempt probing loop: the ARQ engine's oracle.

:func:`reference_run_loop` is ``ProbingProtocol.run_loop`` as it stood
before each ARQ attempt evaluated the reciprocal channel once: every
attempt walks the channel stack four times (Bob's register reads, the
mid-probe decodability check, Alice's register reads, the mid-response
check), draws each reception's register noise and packet-RSSI noise
with separate generator calls, and glitches each reception's register
reads as they arrive.  The protocol's receiver-power, packet-RSSI and
eavesdropper-power helpers, a single-reception register sampler and the
index-loop register smoothing are inlined, so the oracle reads only the
channel, device, fault and adversary objects it is handed and never the
code it checks.

``tests/test_probing_loop_oracle.py`` pins ``run_loop`` to it bit for
bit; ``benchmarks/test_bench_probing.py``, ``test_bench_kernels.py`` and
``test_bench_chaos.py`` time it as their declared "frozen per-round
probing loop" reference.
"""

from typing import Dict, Sequence

import numpy as np

from repro.lora.rssi import quantize_packet_rssi
from repro.probing.trace import EveTrace, ProbeTrace
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_positive


def _register_readings(device, truth, noise):
    """Smooth, bias, corrupt and quantize true powers into readings."""
    alpha = device.rssi_smoothing_alpha
    if alpha < 1.0:
        smoothed = np.empty_like(truth)
        state = truth[..., 0].copy()
        for index in range(truth.shape[-1]):
            state = (1.0 - alpha) * state + alpha * truth[..., index]
            smoothed[..., index] = state
        truth = smoothed
    noisy = truth + device.rssi_offset_db + noise
    quantized = np.round(noisy / device.rssi_resolution_db) * device.rssi_resolution_db
    return np.maximum(quantized, device.rssi_floor_dbm)


def _sample(phy, device, received_power_dbm, reception_start_s, rng):
    """Register-RSSI vector for one packet reception."""
    times = reception_start_s + phy.symbol_time_s * (1.0 + np.arange(phy.total_symbols))
    truth = np.asarray(received_power_dbm(times), dtype=float)
    noise = rng.normal(0.0, device.rssi_noise_std_db, size=truth.shape)
    return _register_readings(device, truth, noise)


def _receiver_power(protocol, trajectory):
    def power(times):
        total = protocol.link_budget.received_power_dbm(
            protocol.channel.path_gain_db(times)
        )
        return total

    return power


def _packet_rssi(register_samples, device, rng):
    value = float(np.mean(register_samples))
    value += float(rng.normal(0.0, device.packet_rssi_noise_std_db))
    return quantize_packet_rssi(value, device.rssi_resolution_db)


def _eve_power(budget, channel):
    def power(times):
        return budget.received_power_dbm(channel.path_gain_db(times))

    return power


def reference_run_loop(
    protocol,
    n_rounds: int,
    seeds: SeedSequenceFactory,
    eavesdroppers: Sequence = (),
    start_time_s: float = 0.0,
) -> ProbeTrace:
    """``protocol.run_loop(n_rounds, seeds, eavesdroppers, start_time_s)``, frozen."""
    self = protocol
    require_positive(n_rounds, "n_rounds")
    airtime = self.phy.airtime_s

    alice_noise = seeds.generator("alice-rssi-noise")
    bob_noise = seeds.generator("bob-rssi-noise")
    eve_noise = {
        setup.label: seeds.generator(f"eve-{setup.label}-rssi-noise")
        for setup in eavesdroppers
    }

    n_samples = self.phy.total_symbols
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

    alice_power = _receiver_power(self, self.channel.motion.trajectory_a)
    bob_power = _receiver_power(self, self.channel.motion.trajectory_b)
    faults = self.fault_model
    policy = self.retry_policy
    adversary = self.adversary
    backoff_rng = seeds.generator("arq-backoff")
    sf = self.phy.spreading_factor

    def attempt(k, attempt_start):
        injected[k] = False
        # --- Alice's probe, received by Bob (and overheard by Eve).
        bob_rssi[k] = _sample(self.phy, self.bob_device, bob_power, attempt_start, bob_noise)
        if faults is not None:
            bob_rssi[k] = faults.apply_glitch(
                bob_rssi[k],
                faults.register_glitch(n_samples),
                self.bob_device.rssi_floor_dbm,
            )
        bob_prssi[k] = _packet_rssi(bob_rssi[k], self.bob_device, bob_noise)
        for setup in eavesdroppers:
            power = _eve_power(self.link_budget, setup.channel_from_alice)
            eve_of_alice[setup.label][k] = _sample(
                self.phy, setup.device, power, attempt_start, eve_noise[setup.label]
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
                probe_ok = False
            if adversary.replays_probe():
                replays_rejected[k] += 1
                probe_ok = False
            if adversary.injects_probe():
                bob_rssi[k] = adversary.injected_register_samples(n_samples)
                bob_prssi[k] = quantize_packet_rssi(
                    float(np.mean(bob_rssi[k])),
                    self.bob_device.rssi_resolution_db,
                )
                injected[k] = True
                probe_ok = True

        # --- Bob's response after his turnaround delay.
        response_start = attempt_start + airtime + self.bob_device.processing_delay_s
        alice_rssi[k] = _sample(
            self.phy, self.alice_device, alice_power, response_start, alice_noise
        )
        if faults is not None:
            alice_rssi[k] = faults.apply_glitch(
                alice_rssi[k],
                faults.register_glitch(n_samples),
                self.alice_device.rssi_floor_dbm,
            )
        alice_prssi[k] = _packet_rssi(alice_rssi[k], self.alice_device, alice_noise)
        for setup in eavesdroppers:
            power = _eve_power(self.link_budget, setup.channel_from_bob)
            eve_of_bob[setup.label][k] = _sample(
                self.phy, setup.device, power, response_start, eve_noise[setup.label]
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
                    response_start + airtime + self.alice_device.processing_delay_s
                )
                break
            if probe_ok:
                attempt_end = response_start + airtime
            else:
                attempt_end = attempt_start + airtime
            if n_retries >= policy.max_retries:
                valid[k] = False
                dropped[k] = True
                backoff_time[k] += policy.timeout_s
                next_free = (
                    attempt_end + policy.timeout_s + self.alice_device.processing_delay_s
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
            policy.max_retries if (faults is not None or adversary is not None) else None
        ),
    )
