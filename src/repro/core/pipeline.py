"""End-to-end Vehicle-Key pipeline: scenario to final 128-bit key.

Glues the substrates together:

1. **Data collection** -- probing episodes in a scenario; each episode
   realizes fresh trajectories and a fresh channel (the paper collected
   data "on different time of different days").
2. **Training** -- the BiLSTM prediction/quantization model on the
   episode windows, and the autoencoder reconciliation on synthetic
   mismatches matching the observed bit-disagreement rates.
3. **Key establishment** -- a fresh probing episode pushed through the
   authenticated :class:`~repro.core.session.KeyAgreementSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.mobility import RelativeMotion
from repro.channel.scenario import ScenarioConfig, ScenarioName, scenario_config
from repro.core.model import PredictionQuantizationModel
from repro.core.session import KeyAgreementSession, SessionResult, window_trace
from repro.exceptions import (
    InsufficientEntropyError,
    KeyEstablishmentError,
    RetryBudgetExhausted,
    SessionAborted,
)
from repro.faults.adversary import ActiveAdversary, AdversaryPlan, build_adversary
from repro.faults.link import LinkFaultModel
from repro.faults.messages import LossyMessageChannel
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD, TransceiverModel
from repro.metrics.generation import key_generation_rate
from repro.probing.dataset import DatasetSplits, KeyGenDataset, split_dataset
from repro.probing.features import FeatureConfig
from repro.probing.protocol import (
    EavesdropperSetup,
    ProbingProtocol,
    run_fastpath_group,
)
from repro.probing.trace import ProbeTrace
from repro.reconciliation.autoencoder import AutoencoderReconciliation
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of a Vehicle-Key deployment.

    Defaults follow the paper where it specifies values; ``hidden_units``
    defaults below the paper's 128 because the numpy BiLSTM is the
    training bottleneck and 64 units reproduce the same accuracy on the
    simulated channel (the paper-scale setting is one argument away).
    """

    scenario: ScenarioConfig = field(
        default_factory=lambda: scenario_config(ScenarioName.V2V_URBAN)
    )
    phy: LoRaPHYConfig = field(default_factory=LoRaPHYConfig)
    alice_device: TransceiverModel = DRAGINO_LORA_SHIELD
    bob_device: TransceiverModel = DRAGINO_LORA_SHIELD
    # values_per_packet=4 doubles the key rate over the probing default of
    # 2; the prediction model plus two-sided guards absorb the extra
    # decorrelation of the deeper arRSSI blocks.
    feature_config: FeatureConfig = field(
        default_factory=lambda: FeatureConfig(window_fraction=0.10, values_per_packet=4)
    )
    seq_len: int = 32
    hidden_units: int = 64
    key_bits: int = 64
    theta: float = 0.9
    code_dim: int = 48
    decoder_units: int = 192
    rounds_per_episode: int = 64
    session_rounds: int = 512
    final_key_bits: int = 128
    alice_confidence_margin: float = 0.20
    bob_guard_fraction: float = 0.35

    def __post_init__(self) -> None:
        require_positive(self.rounds_per_episode, "rounds_per_episode")

    @classmethod
    def paper_scale(cls, **overrides) -> "PipelineConfig":
        """The paper's exact architecture sizes (Sec. V-A2).

        128 BiLSTM hidden units per direction and 200 training epochs are
        the paper's settings; on this numpy substrate they cost several
        times the default profile for an accuracy difference within noise
        on the simulated channel.
        """
        overrides.setdefault("hidden_units", 128)
        return cls(**overrides)


class VehicleKeyPipeline:
    """Train and run Vehicle-Key in a simulated IoV scenario.

    Args:
        config: Pipeline configuration.
        seed: Root seed; every episode, model and noise stream derives
            from it deterministically.
    """

    def __init__(self, config: Optional[PipelineConfig] = None, seed: int = 0):
        self.config = config if config is not None else PipelineConfig()
        self.seeds = SeedSequenceFactory(seed)
        self.model = PredictionQuantizationModel(
            seq_len=self.config.seq_len,
            hidden_units=self.config.hidden_units,
            key_bits=self.config.key_bits,
            theta=self.config.theta,
            seed=self.seeds.generator("model-init"),
        )
        self.reconciler = AutoencoderReconciliation(
            key_bits=self.config.key_bits,
            code_dim=self.config.code_dim,
            decoder_units=self.config.decoder_units,
            seed=self.seeds.generator("reconciler-init"),
        )
        self.splits: Optional[DatasetSplits] = None
        self.training_report = None

    @classmethod
    def for_scenario(
        cls, name: ScenarioName, seed: int = 0, **overrides
    ) -> "VehicleKeyPipeline":
        """Pipeline preconfigured for one of the paper's four scenarios."""
        config = PipelineConfig(scenario=scenario_config(name), **overrides)
        return cls(config=config, seed=seed)

    # -- data collection ------------------------------------------------------
    def build_protocol(
        self,
        episode: str,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        adversary: Optional[ActiveAdversary] = None,
    ) -> Tuple[ProbingProtocol, SeedSequenceFactory, object, object]:
        """Fresh trajectories/channel/protocol for one probing episode."""
        episode_seeds = self.seeds.child(f"episode-{episode}")
        alice, bob = self.config.scenario.build_trajectories(episode_seeds)
        motion = RelativeMotion(alice, bob)
        channel = self.config.scenario.build_channel(episode_seeds, motion)
        # A null plan is the ideal link; skipping the fault model entirely
        # keeps the no-fault path bit-identical to the seed behaviour.
        fault_model = None
        if fault_plan is not None and not fault_plan.is_null:
            fault_model = LinkFaultModel(fault_plan, episode_seeds)
        protocol = ProbingProtocol(
            channel=channel,
            phy=self.config.phy,
            alice_device=self.config.alice_device,
            bob_device=self.config.bob_device,
            fault_model=fault_model,
            retry_policy=retry_policy,
            adversary=adversary,
        )
        return protocol, episode_seeds, (alice, bob), channel

    def collect_trace(
        self,
        episode: str,
        n_rounds: int = None,
        eavesdropper_builders: Sequence = (),
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        adversary: Optional[ActiveAdversary] = None,
    ) -> ProbeTrace:
        """Run one probing episode; returns its trace.

        Args:
            episode: Episode label (distinct labels give independent
                channel realizations).
            n_rounds: Rounds to probe (default: config.rounds_per_episode).
            eavesdropper_builders: Callables
                ``(scenario, seeds, channel, alice, bob) -> EavesdropperSetup``.
            fault_plan: Optional link-fault injection for this episode;
                the probing layer then runs its ARQ retry loop.
            retry_policy: ARQ budget/backoff used with a fault plan.
            adversary: Optional active attacker whose probing-layer
                attacks (jamming, replay, injection) are woven into the
                episode's ARQ loop.
        """
        protocol, episode_seeds, (alice, bob), channel = self.build_protocol(
            episode,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            adversary=adversary,
        )
        eavesdroppers: List[EavesdropperSetup] = [
            builder(self.config.scenario, episode_seeds, channel, alice, bob)
            for builder in eavesdropper_builders
        ]
        rounds = n_rounds if n_rounds is not None else self.config.rounds_per_episode
        return protocol.run(rounds, episode_seeds, eavesdroppers=eavesdroppers)

    def collect_traces(
        self,
        episodes: Sequence[str],
        n_rounds: int = None,
    ) -> List[ProbeTrace]:
        """Probe several independent episodes in one stacked evaluation.

        The cross-session form of :meth:`collect_trace` for key
        establishment: one protocol is built per episode label and the
        whole group runs through
        :func:`~repro.probing.protocol.run_fastpath_group`, which shares
        the round timeline and the trig-heavy fading batch across
        sessions.  The traces are *windowed*: trace ``i`` equals
        ``collect_trace(episodes[i], n_rounds=n_rounds)`` bit for bit,
        except that Alice's matrix keeps only the first
        ``feature_config.window_length(phy.total_symbols)`` columns, the
        reads her arRSSI window uses, and her packet RSSI is NaN.  The
        arRSSI sequences, and so every key, are the same.
        """
        labels = list(episodes)
        require(bool(labels), "collect_traces needs at least one episode")
        rounds = n_rounds if n_rounds is not None else self.config.rounds_per_episode
        protocols: List[ProbingProtocol] = []
        factories: List[SeedSequenceFactory] = []
        for label in labels:
            protocol, episode_seeds, _, _ = self.build_protocol(label)
            protocols.append(protocol)
            factories.append(episode_seeds)
        window = self.config.feature_config.window_length(self.config.phy.total_symbols)
        return run_fastpath_group(protocols, rounds, factories, alice_reads=window)

    def collect_dataset(
        self, n_episodes: int = 12, episode_prefix: str = "train"
    ) -> KeyGenDataset:
        """Windows from several independent episodes, concatenated.

        Windows never straddle episode boundaries; an episode too short
        for one window is skipped.

        Args:
            n_episodes: Independent probing episodes to collect.
            episode_prefix: Label prefix; episode ``i`` is seeded from
                ``{prefix}-{i}``.
        """
        require_positive(n_episodes, "n_episodes")
        parts: List[KeyGenDataset] = []
        for index in range(n_episodes):
            trace = self.collect_trace(f"{episode_prefix}-{index}")
            dataset = window_trace(
                trace, self.config.feature_config, self.config.seq_len
            )
            if dataset is not None:
                parts.append(dataset)
        require(bool(parts), "no episode produced a full window; check the link budget")
        return KeyGenDataset(
            alice=np.concatenate([p.alice for p in parts]),
            bob=np.concatenate([p.bob for p in parts]),
            alice_raw=np.concatenate([p.alice_raw for p in parts]),
            bob_raw=np.concatenate([p.bob_raw for p in parts]),
        )

    # -- training ---------------------------------------------------------------
    def train(
        self,
        n_episodes: int = 300,
        epochs: int = 200,
        reconciler_epochs: int = 60,
        dataset: KeyGenDataset = None,
        batch_size: int = 64,
        learning_rate: float = 1.5e-3,
        patience: int = 30,
        verbose: bool = False,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> "VehicleKeyPipeline":
        """Collect data (unless given) and train both learned components.

        The defaults reproduce the paper-scale setting (200 epochs with
        validation-based early stopping).  Pass smaller ``n_episodes`` /
        ``epochs`` for quick runs; the model degrades gracefully.

        ``checkpoint_dir`` enables crash-safe model training: the full
        training state is checkpointed every epoch and ``resume=True``
        continues an interrupted run bit-for-bit (see
        :meth:`PredictionQuantizationModel.fit`).  Resuming requires the
        same dataset; pass the one the interrupted run used (or rely on
        the deterministic episode seeding, which regenerates it).
        """
        from repro.nn.callbacks import EarlyStopping

        if dataset is None:
            dataset = self.collect_dataset(n_episodes)
        self.splits = split_dataset(
            dataset, seed=self.seeds.generator("split")
        )
        self.training_report = self.model.fit(
            self.splits.train,
            self.splits.validation,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            early_stopping=EarlyStopping(patience=patience),
            verbose=verbose,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        # Size the reconciler's training mismatches to what the model
        # actually leaves uncorrected, with headroom for harder sessions.
        observed_bdr = self._observed_disagreement(self.splits.validation)
        self.reconciler.fit(
            n_samples=40000,
            epochs=reconciler_epochs,
            mismatch_rate_range=(0.0, float(min(0.12, max(0.08, 1.5 * observed_bdr)))),
        )
        return self

    def _observed_disagreement(self, dataset: KeyGenDataset) -> float:
        if dataset is None or len(dataset) == 0:
            return 0.04
        alice = self.model.alice_bits(dataset.alice)
        bob = self.model.bob_bits(dataset.bob_raw)
        return float(np.mean(alice != bob))

    # -- key establishment ----------------------------------------------------------
    def build_session(self) -> KeyAgreementSession:
        """The authenticated session runner for this pipeline's models.

        The session carries the model's out-of-distribution inference
        guard (built from the training-window statistics embedded in the
        model); when live windows drift too far from the training
        distribution, key extraction degrades to the conventional
        quantizer path and the outcome reports it.
        """
        return KeyAgreementSession(
            model=self.model,
            reconciler=self.reconciler,
            feature_config=self.config.feature_config,
            final_key_bits=self.config.final_key_bits,
            alice_confidence_margin=self.config.alice_confidence_margin,
            bob_guard_fraction=self.config.bob_guard_fraction,
            inference_guard=self.model.inference_guard(),
        )

    def establish_key(
        self,
        episode: str = "live",
        n_rounds: int = None,
        trace: ProbeTrace = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        adversary_plan: Optional[AdversaryPlan] = None,
        max_attempts: int = 1,
        reprobe_airtime_budget_s: Optional[float] = None,
        raise_on_failure: bool = False,
    ) -> "KeyEstablishmentOutcome":
        """Probe a fresh episode and run the full key agreement.

        Args:
            episode: Episode label for the probing burst.
            n_rounds: Rounds per probing burst (default:
                ``config.session_rounds``).
            trace: Pre-collected trace to use for the first attempt
                instead of probing.
            fault_plan: Optional fault injection: link loss + register
                corruption during probing (absorbed by the ARQ layer) and
                drop/duplication/reorder on the syndrome exchange
                (absorbed by bounded re-requests).
            retry_policy: ARQ budget/backoff under the fault plan.
            adversary_plan: Optional active-attack plan.  A fresh seeded
                :class:`~repro.faults.adversary.ActiveAdversary` is built
                per probing attempt, attacking both the probing layer and
                the syndrome/confirmation exchange; attacks compose with
                ``fault_plan``.  An aborted session discards its suspect
                bits and re-syncs with a fresh probing burst on the next
                attempt (bounded by ``max_attempts``).  A null plan is
                bit-identical to no adversary.
            max_attempts: Probing bursts allowed before giving up.  When a
                session ends without enough verified bits, a fresh episode
                is probed and the surviving bits of all bursts are pooled.
                The default of 1 reproduces the seed's single-shot
                behaviour exactly.
            reprobe_airtime_budget_s: Optional wall-clock cap on the total
                probing time across re-probe attempts; once exceeded no
                further burst is probed and the outcome reports
                ``retry-budget-exhausted``.
            raise_on_failure: Raise :class:`InsufficientEntropyError` /
                :class:`RetryBudgetExhausted` /
                :class:`~repro.exceptions.SessionAborted` instead of
                returning a failed outcome.  A final-key mismatch always
                surfaces as ``success=False`` with
                ``failure_reason="key-mismatch"`` and is never returned
                as a silent pair of different keys.
        """
        require(max_attempts >= 1, "max_attempts must be >= 1")
        plan = fault_plan if fault_plan is not None and not fault_plan.is_null else None
        attack_plan = (
            adversary_plan
            if adversary_plan is not None and not adversary_plan.is_null
            else None
        )
        rounds = n_rounds if n_rounds is not None else self.config.session_rounds
        session = self.build_session()

        all_traces: List[ProbeTrace] = [] if trace is None else [trace]
        # ``pool`` holds the traces feeding the *current* session; an
        # abort empties it (desync recovery: suspect bits are discarded
        # and the next attempt re-syncs from a fresh burst) while
        # ``all_traces`` keeps everything for airtime accounting.
        pool: List[ProbeTrace] = list(all_traces)
        result: SessionResult = None
        budget_stopped = False
        attempts = 0
        aborted_attempts = 0
        adversary_events = None
        for attempt in range(max_attempts):
            attempts = attempt + 1
            label = episode if attempt == 0 else f"{episode}-reprobe-{attempt}"
            adversary = None
            if attack_plan is not None:
                adversary = build_adversary(
                    attack_plan, self.seeds.child(f"episode-{label}")
                )
            if attempt > 0 or not pool:
                collected = self.collect_trace(
                    label,
                    n_rounds=rounds,
                    fault_plan=plan,
                    retry_policy=retry_policy,
                    adversary=adversary,
                )
                pool.append(collected)
                all_traces.append(collected)
            channel = None
            if plan is not None and plan.messages.active:
                channel = LossyMessageChannel(
                    plan.messages,
                    self.seeds.child(f"episode-{label}").generator(
                        "fault-messages"
                    ),
                )
            run_kwargs = {"channel": channel}
            if adversary is not None:
                run_kwargs["adversary"] = adversary
            result = session.run(
                pool[0] if len(pool) == 1 else pool, **run_kwargs
            )
            if adversary is not None:
                counts = adversary.event_counts()
                if adversary_events is None:
                    adversary_events = counts
                else:
                    adversary_events = {
                        key: adversary_events.get(key, 0) + value
                        for key, value in counts.items()
                    }
            if result.abort is not None:
                aborted_attempts += 1
                pool = []
            if result.final_key_alice is not None:
                break
            probing_so_far = sum(t.duration_s for t in all_traces)
            if (
                reprobe_airtime_budget_s is not None
                and probing_so_far >= reprobe_airtime_budget_s
            ):
                budget_stopped = True
                break

        return self.build_outcome(
            result,
            all_traces,
            attempts=attempts,
            budget_stopped=budget_stopped,
            raise_on_failure=raise_on_failure,
            aborted_attempts=aborted_attempts,
            adversary_events=adversary_events,
        )

    def build_outcome(
        self,
        result: SessionResult,
        traces: Sequence[ProbeTrace],
        attempts: int = 1,
        budget_stopped: bool = False,
        raise_on_failure: bool = False,
        aborted_attempts: int = 0,
        adversary_events=None,
    ) -> "KeyEstablishmentOutcome":
        """Grade a completed session into a :class:`KeyEstablishmentOutcome`.

        Shared by :meth:`establish_key` and the batched multi-session
        engine so both report failures, airtime and key-generation rate
        identically.

        Args:
            result: The session's message-level result.
            traces: The probing traces the session consumed.
            attempts: Probing bursts that were run.
            budget_stopped: Whether a re-probe airtime budget cut the
                attempt loop short.
            raise_on_failure: Raise the typed establishment error instead
                of returning a failed outcome.
            aborted_attempts: Attempts ended by a session abort (desync
                recovery re-probed after each).
            adversary_events: Accumulated attack-event counters from the
                active adversary, when one was configured.
        """
        # A state-machine abort outranks every inferred failure: its slug
        # is the ground truth for why no key exists.
        failure_reason = None
        if result.abort is not None:
            failure_reason = result.abort.reason
        elif result.final_key_alice is None:
            exhausted = budget_stopped or attempts > 1
            failure_reason = (
                RetryBudgetExhausted.reason
                if exhausted
                else InsufficientEntropyError.reason
            )
        elif result.final_key_alice != result.final_key_bob:
            failure_reason = "key-mismatch"
        if raise_on_failure and failure_reason is not None:
            message = (
                f"key establishment failed after {attempts} attempt(s): "
                f"{failure_reason} ({result.agreed_bits} verified bits, "
                f"need {self.config.final_key_bits})"
            )
            if result.abort is not None:
                raise SessionAborted(message, abort=result.abort)
            if failure_reason == RetryBudgetExhausted.reason:
                raise RetryBudgetExhausted(message)
            if failure_reason == InsufficientEntropyError.reason:
                raise InsufficientEntropyError(message)
            raise KeyEstablishmentError(message)

        probing_time = sum(t.duration_s for t in traces)
        # Two batched mask-exchange messages plus the per-block syndromes.
        airtime = self.reconciliation_airtime_s(
            result.reconciliation_messages + 2, result.total_public_bytes
        )
        kgr = key_generation_rate(result.agreed_bits, probing_time, airtime)
        retry_limit = next(
            (t.retry_limit for t in traces if t.retry_limit is not None), None
        )
        max_round_retries = max((t.max_round_retries for t in traces), default=0)
        replays_rejected = sum(t.total_replays_rejected for t in traces)
        detections = (
            replays_rejected
            + result.rejected_messages
            + result.mac_failures
            + (1 if result.confirmed is False else 0)
        )
        return KeyEstablishmentOutcome(
            session=result,
            probing_time_s=probing_time,
            reconciliation_airtime_s=airtime,
            key_generation_rate_bps=kgr,
            failure_reason=failure_reason,
            attempts=attempts,
            total_retries=sum(t.total_retries for t in traces),
            dropped_rounds=sum(t.n_dropped_rounds for t in traces),
            retry_limit_per_round=retry_limit,
            max_round_retries=max_round_retries,
            retry_budget_remaining=(
                None if retry_limit is None else retry_limit - max_round_retries
            ),
            total_backoff_s=sum(t.total_backoff_s for t in traces),
            time_to_abort_s=(
                probing_time + airtime if result.abort is not None else None
            ),
            attack_detections=detections,
            adversary_events=adversary_events,
            aborted_attempts=aborted_attempts,
        )

    def fingerprint(self) -> str:
        """Short stable digest of this pipeline's configuration and seed.

        The secure-channel KDF binds traffic keys to it
        (:class:`repro.secure.kdf.ChannelContext.pipeline_fingerprint`),
        so keys established under one model/config generation never
        verify under another.  Hashes every :class:`PipelineConfig` field
        (recursively) plus the root seed; trained weights are deliberately
        excluded -- a hot-reloaded model of the same generation must not
        orphan live channels.
        """
        import hashlib
        import json
        from dataclasses import asdict

        payload = {"config": asdict(self.config), "seed": self.seeds.root_seed}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # -- persistence ------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist both trained components into ``directory``.

        Writes ``model.npz`` and ``reconciler.npz``; the configuration is
        code (callers reconstruct the pipeline with the same
        :class:`PipelineConfig` before loading).
        """
        from pathlib import Path

        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        self.model.save(target / "model.npz")
        self.reconciler.save(target / "reconciler.npz")

    def load(self, directory) -> "VehicleKeyPipeline":
        """Load components written by :meth:`save` (same config required)."""
        from pathlib import Path

        source = Path(directory)
        self.model.load(source / "model.npz")
        self.reconciler.load(source / "reconciler.npz")
        return self

    def reconciliation_airtime_s(self, messages: int, payload_bytes: int) -> float:
        """LoRa airtime consumed by reconciliation traffic."""
        return messages * self.config.phy.message_airtime_s(payload_bytes, messages)


@dataclass(frozen=True)
class KeyEstablishmentOutcome:
    """One full key establishment's report card.

    Attributes:
        session: The message-level session result.
        probing_time_s: Airtime spent probing.
        reconciliation_airtime_s: Airtime spent on reconciliation traffic.
        key_generation_rate_bps: Agreed key-material bits per protocol second.
        failure_reason: ``None`` on success; otherwise a machine-readable
            slug (``"insufficient-entropy"``, ``"retry-budget-exhausted"``,
            ``"key-mismatch"``, or one of the state-machine abort reasons
            in :data:`repro.core.statemachine.ABORT_REASONS`).
        attempts: Probing bursts consumed (1 unless re-probing fired).
        total_retries: ARQ retransmissions across all probing bursts.
        dropped_rounds: Probing rounds discarded after exhausting retries.
        retry_limit_per_round: The ARQ policy's per-round retry budget, or
            ``None`` when probing ran without an ARQ layer.
        max_round_retries: The worst single round's retransmission count.
        retry_budget_remaining: Unused retries in the worst round
            (``retry_limit_per_round - max_round_retries``); ``None``
            without ARQ.  Never negative on a budget-respecting run -- the
            chaos harness asserts exactly that.
        total_backoff_s: Wall-clock time spent in ARQ timeouts/backoff.
        time_to_abort_s: Protocol time elapsed when the state machine
            aborted (probing plus reconciliation airtime); ``None`` when
            the session completed.
        attack_detections: Detected attack events -- rejected replays,
            rejected/malformed messages, MAC failures and failed
            confirmations.
        adversary_events: Attack-event counters from the configured
            :class:`~repro.faults.adversary.ActiveAdversary` (``None``
            without one): what was actually *launched*, the denominator
            for detection rates.
        aborted_attempts: Attempts ended by a session abort before the
            final one.
    """

    session: SessionResult
    probing_time_s: float
    reconciliation_airtime_s: float
    key_generation_rate_bps: float
    failure_reason: Optional[str] = None
    attempts: int = 1
    total_retries: int = 0
    dropped_rounds: int = 0
    retry_limit_per_round: Optional[int] = None
    max_round_retries: int = 0
    retry_budget_remaining: Optional[int] = None
    total_backoff_s: float = 0.0
    time_to_abort_s: Optional[float] = None
    attack_detections: int = 0
    adversary_events: Optional[dict] = None
    aborted_attempts: int = 0

    @property
    def agreement_rate(self) -> float:
        """Post-reconciliation agreement in [0, 1]."""
        return self.session.reconciled_agreement.mean

    @property
    def raw_agreement_rate(self) -> float:
        """Pre-reconciliation agreement in [0, 1]."""
        return self.session.raw_agreement.mean

    @property
    def final_key(self) -> Optional[bytes]:
        """Alice's final key (``None`` if the session fell short of bits)."""
        return self.session.final_key_alice

    @property
    def success(self) -> bool:
        """Whether both parties ended with the same *confirmed* final key."""
        return self.failure_reason is None and self.session.keys_match

    @property
    def aborted(self) -> bool:
        """Whether the final session ended in a state-machine abort."""
        return self.session.abort is not None

    @property
    def abort_reason(self) -> Optional[str]:
        """The final session's abort slug, or ``None``."""
        return None if self.session.abort is None else self.session.abort.reason

    @property
    def degraded_mode(self) -> Optional[str]:
        """``None``, or the slug of the fallback mode the session used.

        ``"ood-quantizer-fallback"`` means the inference guard rejected
        live windows as out-of-distribution and Alice's bits came from
        her conventional quantizer instead of the learned model.
        """
        return self.session.degraded_mode

    @property
    def ood_windows(self) -> int:
        """Windows the inference guard flagged out-of-distribution."""
        return self.session.ood_windows
