"""The key service runs without SciPy.

SciPy serves the experiments, the NIST battery and the channel
self-checks (``repro validate-channel``), not the key path.  A fresh
interpreter whose import system refuses every ``scipy`` module imports
the server, the CLI, the batch engine and the chaos harness, builds a
pipeline (which builds Bob's fixed quantizer thresholds), and runs a
batch of sessions on the trained tiny pipeline; its outcomes must equal
an in-process run's.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.batch import BatchedSessionRunner
from tests.test_batched_sessions import assert_outcomes_identical

SRC = Path(__file__).resolve().parent.parent / "src"
#: Two 48-round sessions that reach a final key on the tiny pipeline, so
#: the comparison covers the amplified keys as well as the bits before.
LABELS = ["keypath-2", "keypath-7"]
ROUNDS = 48

_CHILD = """
import importlib.abc, pickle, sys


class RefuseSciPy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"the key path imported {name}")
        return None


sys.meta_path.insert(0, RefuseSciPy())

import repro.cli, repro.faults.chaos, repro.server
from repro.channel.scenario import ScenarioName
from repro.core.batch import BatchedSessionRunner
from repro.core.pipeline import VehicleKeyPipeline

pipeline_path, outcomes_path, rounds, *labels = sys.argv[1:]
VehicleKeyPipeline.for_scenario(ScenarioName.V2V_URBAN)
with open(pipeline_path, "rb") as handle:
    pipeline = pickle.load(handle)
report = BatchedSessionRunner(pipeline, n_rounds=int(rounds)).run_episodes(labels)
with open(outcomes_path, "wb") as handle:
    pickle.dump(report.outcomes, handle)
"""


def test_key_path_runs_without_scipy(tiny_pipeline, tmp_path):
    pipeline_path, outcomes_path = tmp_path / "pipeline.pkl", tmp_path / "outcomes.pkl"
    pipeline_path.write_bytes(pickle.dumps(tiny_pipeline))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, str(pipeline_path), str(outcomes_path),
         str(ROUNDS), *LABELS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    outcomes = pickle.loads(outcomes_path.read_bytes())
    reference = BatchedSessionRunner(tiny_pipeline, n_rounds=ROUNDS).run_episodes(LABELS)
    assert len(outcomes) == len(LABELS)
    for outcome, expected in zip(outcomes, reference.outcomes):
        assert_outcomes_identical(outcome, expected)
