"""Duty-cycle analysis: key rates under real regional regulations.

Not a paper figure -- the paper's key rates assume unrestricted probing --
but the quantitative form of its critique of interactive reconciliation:
under the 434 MHz band's 10% duty cycle (and the harsher EU868 1%),
every Cascade round trip costs an order of magnitude more wall-clock
time, while single-syndrome schemes (Vehicle-Key, LoRa-Key) only pay the
pacing on their probes.
"""

from __future__ import annotations

from repro.channel.scenario import ScenarioName
from repro.core.baselines import HanSystem, LoRaKeySystem, VehicleKeySystem
from repro.experiments.common import ExperimentResult, get_scale, get_trained_pipeline
from repro.lora.regional import ALL_PLANS, RegionalPlan, paced_duration_s
from repro.metrics.generation import key_generation_rate


def _paced_kgr(run_result, phy, plan: RegionalPlan) -> float:
    """KGR with both probing and reconciliation traffic legally paced."""
    round_airtime = phy.airtime_s
    n_probe_packets = 2 * int(round(run_result.probing_time_s / (2 * round_airtime)))
    probing = paced_duration_s(max(2, n_probe_packets), round_airtime, plan)
    message_airtime = phy.message_airtime_s(
        run_result.public_bytes, run_result.reconciliation_messages
    )
    reconciliation = paced_duration_s(
        run_result.reconciliation_messages, message_airtime, plan
    )
    return key_generation_rate(run_result.agreed_bits, probing, reconciliation)


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Key generation rate per system under each regional plan."""
    scale = get_scale(quick)
    pipeline = get_trained_pipeline(ScenarioName.V2V_URBAN, seed=seed, quick=quick)
    systems = [VehicleKeySystem(pipeline), LoRaKeySystem(seed=seed), HanSystem(seed=seed)]
    traces = [
        pipeline.collect_trace(f"duty-{index}", n_rounds=scale.session_rounds)
        for index in range(4 if quick else 8)
    ]
    result = ExperimentResult(
        experiment_id="duty-cycle",
        title="key generation rate under regional duty cycles",
        columns=["plan", "system", "kgr_bps"],
        notes=(
            "interactive reconciliation collapses under duty-cycle pacing; "
            "single-syndrome schemes only pay the probing slowdown"
        ),
    )
    runs = {system.name: system.run(traces) for system in systems}
    for plan in ALL_PLANS:
        for system in systems:
            result.add_row(
                plan=plan.name,
                system=system.name,
                kgr_bps=_paced_kgr(runs[system.name], pipeline.config.phy, plan),
            )
    return result
