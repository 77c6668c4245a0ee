"""Tests for the command-line interface (fast paths only)."""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_establish_defaults(self):
        args = build_parser().parse_args(["establish"])
        assert args.scenario.value == "v2v-urban"
        assert args.episodes == 200

    def test_scenario_parsing(self):
        args = build_parser().parse_args(["establish", "--scenario", "v2i-rural"])
        assert args.scenario.value == "v2i-rural"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["establish", "--scenario", "v2x-mars"])

    def test_attack_requires_attacker(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack"])


class TestCommands:
    def test_validate_channel_passes(self, capsys):
        assert main(["validate-channel", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rayleigh" in out

    def test_experiments_forwarding(self, capsys):
        assert main(["experiments", "fig04"]) == 0
        assert "fig04" in capsys.readouterr().out


class TestServe:
    def test_sigterm_on_ready_line_drains(self):
        """A supervisor reading stdout through a pipe may stop the server
        the moment it reports ready: the line must arrive, and the signal
        must drain the server, not kill it."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--episodes", "8", "--epochs", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("serving"):
                    proc.send_signal(signal.SIGTERM)
                    break
            rest, _ = proc.communicate(timeout=60.0)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, rest
        assert "drained: 0 delivered, 0 aborted, 0 leaked" in rest.splitlines()
