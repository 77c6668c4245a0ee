"""Command-line interface.

Usage::

    python -m repro establish --scenario v2v-urban --seed 7
    python -m repro attack --attacker imitator --scenario v2v-rural
    python -m repro validate-channel
    python -m repro experiments fig12-13 --full
    python -m repro robustness --seed 3
    python -m repro chaos --sessions 200 --seed 0
    python -m repro chaos --server --sessions 200 --seed 0
    python -m repro chaos --restart --sessions 200 --seed 0
    python -m repro serve --port 7316 --load-dir artifacts/ --journal-dir wal/

``python -m repro experiments ...`` forwards to
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import argparse
import sys

from repro.channel.scenario import ScenarioName


def _scenario(value: str) -> ScenarioName:
    try:
        return ScenarioName(value)
    except ValueError:
        choices = ", ".join(s.value for s in ScenarioName)
        raise argparse.ArgumentTypeError(f"unknown scenario {value!r}; choose from {choices}")


def _cmd_establish(args) -> int:
    from repro.core.pipeline import VehicleKeyPipeline

    pipeline = VehicleKeyPipeline.for_scenario(args.scenario, seed=args.seed)
    if args.load_dir:
        print(f"loading trained components from {args.load_dir} ...")
        pipeline.load(args.load_dir)
    else:
        print(f"training Vehicle-Key for {args.scenario.value} (seed {args.seed}) ...")
        if args.resume and args.checkpoint_dir:
            print(f"resuming from checkpoint in {args.checkpoint_dir} (if present)")
        pipeline.train(
            n_episodes=args.episodes,
            epochs=args.epochs,
            reconciler_epochs=args.epochs // 3,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        if args.save_dir:
            pipeline.save(args.save_dir)
            print(f"saved trained components to {args.save_dir}")
    if args.sessions > 1:
        return _establish_batch(pipeline, args.sessions)
    outcome = pipeline.establish_key(episode="cli")
    session = outcome.session
    print(f"raw agreement        : {outcome.raw_agreement_rate:.2%}")
    print(f"reconciled agreement : {outcome.agreement_rate:.2%}")
    print(f"verified blocks      : {len(session.verified_blocks)}/{session.n_blocks}")
    print(f"key generation rate  : {outcome.key_generation_rate_bps:.3f} bit/s")
    if outcome.degraded_mode:
        print(
            f"degraded mode        : {outcome.degraded_mode} "
            f"({outcome.ood_windows} OOD windows)"
        )
    if outcome.success:
        print(f"final 128-bit key    : {outcome.final_key.hex()}")
        return 0
    print("final key            : (not enough verified bits this session)")
    return 1


def _establish_batch(pipeline, n_sessions: int) -> int:
    """Run ``n_sessions`` concurrent establishments through the batched engine."""
    from repro.core.batch import BatchedSessionRunner

    report = BatchedSessionRunner(pipeline, episode_prefix="cli").run(n_sessions)
    for index, outcome in enumerate(report.outcomes):
        status = "ok" if outcome.success else f"failed ({outcome.failure_reason})"
        key = outcome.final_key.hex() if outcome.success else "-"
        print(
            f"session {index:3d} : {status:32s} "
            f"raw {outcome.raw_agreement_rate:6.2%}  "
            f"kgr {outcome.key_generation_rate_bps:7.3f} bit/s  key {key}"
        )
    print(f"sessions             : {report.n_successful}/{report.n_sessions} successful")
    print(f"batch wall time      : {report.elapsed_s:.2f} s")
    print(f"throughput           : {report.sessions_per_sec:.2f} sessions/s")
    return 0 if report.n_successful == report.n_sessions else 1


def _cmd_attack(args) -> int:
    from repro.core.pipeline import VehicleKeyPipeline
    from repro.security.attacks import run_attack

    pipeline = VehicleKeyPipeline.for_scenario(args.scenario, seed=args.seed)
    print(f"training Vehicle-Key for {args.scenario.value} ...")
    pipeline.train(
        n_episodes=args.episodes, epochs=args.epochs, reconciler_epochs=args.epochs // 3
    )
    report = run_attack(pipeline, args.attacker, n_traces=2)
    print(f"attacker              : {report.attacker}")
    print(f"legitimate agreement  : {report.legitimate_agreement:.2%}")
    print(f"attacker agreement    : {report.eve_agreement:.2%}")
    print(f"attacker raw agreement: {report.eve_raw_agreement:.2%}")
    print(f"feature correlation   : {report.eve_feature_correlation:.3f}")
    return 0


def _cmd_validate_channel(args) -> int:
    from repro.channel.validation import validate_all

    reports = validate_all(seed=args.seed)
    failures = 0
    for report in reports.values():
        print(report)
        failures += not report.passed
    return 1 if failures else 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded = list(args.experiment_args)
    if args.full:
        forwarded.append("--full")
    if args.jobs != 1:
        forwarded.extend(["--jobs", str(args.jobs)])
    if args.cache_dir:
        forwarded.extend(["--cache-dir", args.cache_dir])
    return runner_main(forwarded)


def _cmd_robustness(args) -> int:
    from repro.experiments.runner import main as runner_main

    forwarded = ["robustness", "--seed", str(args.seed)]
    if args.full:
        forwarded.append("--full")
    return runner_main(forwarded)


def _cmd_chaos(args) -> int:
    """Run the chaos invariant harness; exit non-zero on any violation."""
    from repro.faults.chaos import build_chaos_pipeline, run_chaos

    print(f"training chaos pipeline for {args.scenario.value} ...")
    pipeline = build_chaos_pipeline(scenario=args.scenario)
    if args.restart:
        return _chaos_restart(pipeline, args)
    if args.server:
        return _chaos_server(pipeline, args)
    print(
        f"sweeping {args.sessions} random fault x attack combinations "
        f"(seed {args.seed}) ..."
    )
    report = run_chaos(
        pipeline,
        args.sessions,
        seed=args.seed,
        n_rounds=args.rounds,
        max_attempts=args.max_attempts,
        data_phase=not args.no_data_phase,
    )
    print(f"sessions             : {report.n_sessions}")
    print(f"  with faults        : {report.faulted_sessions}")
    print(f"  with attacks       : {report.attacked_sessions}")
    print(f"successful keys      : {report.successes}")
    print(f"degraded sessions    : {report.degraded_sessions}")
    print(f"structured aborts    : {report.aborts}  {report.abort_reasons}")
    print(f"failure reasons      : {report.failure_reasons}")
    print(f"secured sessions     : {report.secured_sessions}")
    print(f"records delivered    : {report.records_delivered}")
    print(f"payload failures     : {report.payload_failures}")
    print(
        f"rekeys / closes      : {report.rekeys_completed} rekeys, "
        f"{report.channels_closed} closed {report.close_reasons}"
    )
    return _print_verdict(report)


def _print_verdict(report) -> int:
    """Print a chaos report's per-invariant verdict; the exit status.

    Lists exactly the invariants the report's sweep checks, then every
    violation with the coordinates that reproduce it.
    """
    unit = "session" if report.sweep == "library" else "client"
    for invariant, count in report.violation_counts().items():
        print(f"invariant {invariant:32s}: {count} violation(s)")
    for violation in report.violations:
        print(
            f"VIOLATION [{violation.invariant}] {unit} {violation.session} "
            f"(seed {violation.seed}): {violation.detail}"
        )
    if report.ok:
        print("all invariants held")
        return 0
    print(f"{len(report.violations)} invariant violation(s)")
    return 1


def _chaos_server(pipeline, args) -> int:
    """Run the server-path chaos sweep; exit non-zero on any violation."""
    from repro.faults.chaos import run_server_chaos

    print(
        f"sweeping {args.sessions} concurrent clients against a live "
        f"server (seed {args.seed}) ..."
    )
    report = run_server_chaos(
        pipeline, n_clients=args.sessions, seed=args.seed, n_rounds=args.rounds
    )
    print(f"clients              : {report.n_sessions}  {report.behaviors}")
    print(f"terminal kinds       : {report.client_kinds}")
    print(f"results delivered    : {report.results} ({report.successes} confirmed keys)")
    print(f"structured aborts    : {report.aborts}  {report.metrics.get('aborted')}")
    print(f"shed at admission    : {report.rejections}")
    print(f"degraded sessions    : {report.degraded_sessions}")
    print(
        f"reaped               : {report.metrics.get('reaped_idle')} idle, "
        f"{report.metrics.get('reaped_deadline')} deadline"
    )
    print(
        f"drain                : {report.drain_delivered} delivered, "
        f"{report.drain_aborted} aborted, {report.leaked_sessions} leaked"
    )
    print(
        f"secured clients      : {report.secured_sessions} "
        f"({report.metrics.get('secure_records')} records, "
        f"{report.metrics.get('secure_echoed')} echoed)"
    )
    return _print_verdict(report)


def _chaos_restart(pipeline, args) -> int:
    """Run the kill/restart chaos sweep; exit non-zero on any violation."""
    from repro.faults.chaos import run_restart_chaos

    print(
        f"sweeping {args.sessions} clients against a server SIGKILLed at "
        f"seeded crashpoints (seed {args.seed}, {args.restarts} restart(s)) ..."
    )
    report = run_restart_chaos(
        pipeline,
        n_clients=args.sessions,
        seed=args.seed,
        n_rounds=args.rounds,
        journal_dir=args.journal_dir,
        restarts=args.restarts,
    )
    print(f"clients              : {report.n_sessions}  {report.behaviors}")
    print(f"terminal kinds       : {report.client_kinds}")
    print(
        f"server generations   : {report.generations} "
        f"({report.kills} SIGKILLed, plans {report.crash_plans})"
    )
    print(
        f"results delivered    : {report.results} ({report.successes} confirmed "
        f"keys, {report.resumed_results} on resumed connections)"
    )
    print(f"recovered aborts     : {report.recovered_aborts}")
    print(f"secured clients      : {report.secured_sessions}")
    print(f"resume probes        : {report.resume_probes} idempotent redeliveries")
    print(
        f"journal              : {report.journal_records} records, "
        f"{report.recoveries} recovery pass(es), "
        f"{report.orphans_recovered} orphan(s) aborted"
    )
    return _print_verdict(report)


def _cmd_serve(args) -> int:
    """Run the key-establishment session server until SIGTERM/SIGINT."""
    import asyncio

    from repro.core.pipeline import VehicleKeyPipeline
    from repro.server import KeyEstablishmentServer, ModelRegistry, ServerConfig

    pipeline = VehicleKeyPipeline.for_scenario(args.scenario, seed=args.seed)
    watch_dir = None
    if args.load_dir:
        print(f"loading trained components from {args.load_dir} ...")
        pipeline.load(args.load_dir)
        watch_dir = args.load_dir  # hot-reload newer generations from here
    else:
        print(f"training Vehicle-Key for {args.scenario.value} (seed {args.seed}) ...")
        pipeline.train(
            n_episodes=args.episodes,
            epochs=args.epochs,
            reconciler_epochs=args.epochs // 3,
        )
    registry = ModelRegistry(pipeline, directory=watch_dir)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        idle_timeout_s=args.idle_timeout,
        session_deadline_s=args.deadline,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        journal_dir=args.journal_dir,
        journal_fsync=args.journal_fsync,
    )
    server = KeyEstablishmentServer(registry, config)

    def on_ready() -> None:
        # Flushed: a supervisor reading stdout through a pipe takes this
        # line as the ready signal.
        where = args.unix if args.unix else f"{args.host}:{server.bound_port}"
        print(
            f"serving key establishment on {where} (SIGTERM drains gracefully)",
            flush=True,
        )

    report = asyncio.run(server.serve_forever(on_ready=on_ready))
    print(
        f"drained: {report.delivered} delivered, "
        f"{report.aborted_draining} aborted, {report.leaked} leaked"
    )
    print(f"final metrics: {server.metrics.snapshot()}")
    return 0 if report.leaked == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI's argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    establish = sub.add_parser("establish", help="train and run one key agreement")
    establish.add_argument("--scenario", type=_scenario, default=ScenarioName.V2V_URBAN)
    establish.add_argument("--seed", type=int, default=0)
    establish.add_argument("--episodes", type=int, default=200)
    establish.add_argument("--epochs", type=int, default=90)
    establish.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for crash-safe training checkpoints",
    )
    establish.add_argument(
        "--resume",
        action="store_true",
        help="resume training from --checkpoint-dir if a checkpoint exists",
    )
    establish.add_argument(
        "--save-dir",
        default=None,
        help="save the trained model and reconciler into this directory",
    )
    establish.add_argument(
        "--load-dir",
        default=None,
        help="skip training and load trained components from this directory",
    )
    establish.add_argument(
        "--sessions",
        type=int,
        default=1,
        help="run N concurrent key establishments through the batched engine",
    )
    establish.set_defaults(handler=_cmd_establish)

    attack = sub.add_parser("attack", help="evaluate an attacker")
    attack.add_argument("--attacker", choices=("eavesdropper", "imitator"), required=True)
    attack.add_argument("--scenario", type=_scenario, default=ScenarioName.V2V_URBAN)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--episodes", type=int, default=200)
    attack.add_argument("--epochs", type=int, default=90)
    attack.set_defaults(handler=_cmd_attack)

    validate = sub.add_parser(
        "validate-channel", help="statistical self-checks of the channel simulator"
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(handler=_cmd_validate_channel)

    experiments = sub.add_parser("experiments", help="regenerate paper tables/figures")
    experiments.add_argument("experiment_args", nargs="*")
    experiments.add_argument("--full", action="store_true")
    experiments.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the experiment fan-out",
    )
    experiments.add_argument(
        "--cache-dir", default=None,
        help="on-disk trained-pipeline cache shared by workers and reruns",
    )
    experiments.set_defaults(handler=_cmd_experiments)

    robustness = sub.add_parser(
        "robustness", help="key-rate/disagreement curves under injected packet loss"
    )
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument("--full", action="store_true")
    robustness.set_defaults(handler=_cmd_robustness)

    chaos = sub.add_parser(
        "chaos",
        help="sweep random fault x attack combinations against safety invariants",
    )
    chaos.add_argument("--scenario", type=_scenario, default=ScenarioName.V2I_URBAN)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--sessions", type=int, default=50,
        help="number of seeded random fault/attack combinations to run",
    )
    chaos.add_argument(
        "--rounds", type=int, default=None,
        help="probing rounds per session (default: the chaos pipeline's 96)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=2,
        help="probing bursts per session (>1 exercises abort re-sync)",
    )
    chaos.add_argument(
        "--server", action="store_true",
        help="sweep misbehaving concurrent clients against a live session "
        "server instead of the in-process pipeline",
    )
    chaos.add_argument(
        "--no-data-phase", action="store_true",
        help="skip the secure-channel data phase after successful sessions "
        "(library sweep only)",
    )
    chaos.add_argument(
        "--restart", action="store_true",
        help="kill/restart sweep: SIGKILL a forked server at seeded "
        "crashpoints mid-sweep, restart it against the same journal, and "
        "machine-check the crash-durability invariants",
    )
    chaos.add_argument(
        "--restarts", type=int, default=2,
        help="armed server generations (SIGKILLs) the --restart sweep plans",
    )
    chaos.add_argument(
        "--journal-dir", default=None,
        help="write-ahead journal directory for the --restart sweep "
        "(default: a fresh temporary directory)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    serve = sub.add_parser(
        "serve", help="run the fault-tolerant key-establishment session server"
    )
    serve.add_argument("--scenario", type=_scenario, default=ScenarioName.V2I_URBAN)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--episodes", type=int, default=200)
    serve.add_argument("--epochs", type=int, default=90)
    serve.add_argument(
        "--load-dir", default=None,
        help="load trained components from this directory and watch it for "
        "checksummed hot-reloads",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7316)
    serve.add_argument(
        "--unix", default=None, help="serve on a unix socket path instead of TCP"
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=30.0,
        help="seconds of peer silence before a session is reaped",
    )
    serve.add_argument(
        "--deadline", type=float, default=120.0,
        help="end-to-end seconds before a session is aborted",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded ingress queue; excess sessions are shed with retry-after",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="most sessions one batch tick may coalesce",
    )
    serve.add_argument(
        "--journal-dir", default=None,
        help="crash-durability write-ahead journal directory; enables "
        "recovery, resumption tokens and nonce-floor restoration",
    )
    serve.add_argument(
        "--journal-fsync", default="batch", choices=("always", "batch", "off"),
        help="journal fsync policy (critical records are always fsync'd "
        "in non-off modes)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
