"""Model-registry hot-reload and corrupt-artifact rollback tests.

The registry's contract: a changed artifact set on disk is picked up
between ticks, but *only* after it verifies end to end (checksummed
artifact store, architecture match) into a fresh pipeline -- a corrupt
or truncated generation is counted, remembered and rolled back
atomically, and the serving pipeline keeps serving.
"""

import numpy as np
import pytest

from repro.server.registry import ARTIFACT_NAMES, ModelRegistry
from repro.utils.artifact import HEADER_KEY


@pytest.fixture()
def artifact_dir(tiny_pipeline, tmp_path):
    """A directory holding one good saved generation."""
    target = tmp_path / "artifacts"
    tiny_pipeline.save(target)
    return target


class TestReloadFastPath:
    def test_unwatched_registry_never_reloads(self, tiny_pipeline):
        registry = ModelRegistry(tiny_pipeline)
        assert registry.maybe_reload() is False
        assert registry.generation == 1
        assert registry.pipeline is tiny_pipeline

    def test_unchanged_artifacts_do_not_reload(self, tiny_pipeline, artifact_dir):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        assert registry.maybe_reload() is False
        assert registry.reloads == 0

    def test_incomplete_generation_is_not_a_candidate(
        self, tiny_pipeline, artifact_dir
    ):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        (artifact_dir / ARTIFACT_NAMES[1]).unlink()  # mid-write snapshot
        assert registry.maybe_reload() is False
        assert registry.reload_failures == 0
        assert registry.pipeline is tiny_pipeline


class TestReloadAndRollback:
    def test_changed_artifacts_swap_in(self, tiny_pipeline, artifact_dir):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        tiny_pipeline.save(artifact_dir)  # same weights, fresh mtime
        assert registry.maybe_reload() is True
        assert registry.generation == 2
        assert registry.reloads == 1
        assert registry.last_error is None
        # The swapped-in generation is a distinct, fully-loaded pipeline.
        assert registry.pipeline is not tiny_pipeline

    def test_corrupt_artifact_rolls_back_and_keeps_serving(
        self, tiny_pipeline, artifact_dir
    ):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        model_path = artifact_dir / ARTIFACT_NAMES[0]
        model_path.write_bytes(b"\x00garbage" * 64)
        assert registry.maybe_reload() is False
        assert registry.reload_failures == 1
        assert registry.last_error is not None
        assert registry.generation == 1
        assert registry.pipeline is tiny_pipeline  # rollback: old gen serves

    def test_headerless_artifact_is_rejected(self, tiny_pipeline, artifact_dir):
        """A plain ``.npz`` of the saved arrays carries nothing to verify.

        Swapped in, it would serve without its checksum, kind and
        architecture checks, and without the training statistics its
        inference guard is built from.
        """
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        model_path = artifact_dir / ARTIFACT_NAMES[0]
        with np.load(model_path) as saved:
            arrays = {key: saved[key] for key in saved.files if key != HEADER_KEY}
        with open(model_path, "wb") as handle:
            np.savez(handle, **arrays)
        assert registry.maybe_reload() is False
        assert registry.reload_failures == 1
        assert registry.last_error is not None
        assert registry.generation == 1
        assert registry.pipeline is tiny_pipeline
        assert registry.pipeline.model.inference_guard() is not None

    def test_unchanged_corrupt_set_is_not_reverified(
        self, tiny_pipeline, artifact_dir
    ):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        (artifact_dir / ARTIFACT_NAMES[0]).write_bytes(b"\x00garbage" * 64)
        assert registry.maybe_reload() is False
        assert registry.maybe_reload() is False  # fingerprint remembered
        assert registry.reload_failures == 1

    def test_recovery_after_corruption(self, tiny_pipeline, artifact_dir):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        (artifact_dir / ARTIFACT_NAMES[0]).write_bytes(b"\x00garbage" * 64)
        assert registry.maybe_reload() is False
        tiny_pipeline.save(artifact_dir)  # the fixed generation lands
        assert registry.maybe_reload() is True
        assert registry.generation == 2
        assert registry.last_error is None

    def test_truncated_artifact_rolls_back(self, tiny_pipeline, artifact_dir):
        registry = ModelRegistry(tiny_pipeline, directory=artifact_dir)
        model_path = artifact_dir / ARTIFACT_NAMES[0]
        model_path.write_bytes(model_path.read_bytes()[:-64])
        assert registry.maybe_reload() is False
        assert registry.reload_failures == 1
        assert registry.pipeline is tiny_pipeline
