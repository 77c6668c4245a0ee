"""The checksummed atomic artifact container."""

import json
import os

import numpy as np
import pytest

from repro.exceptions import ArtifactMismatchError, CorruptArtifactError
from repro.utils.artifact import (
    FORMAT_VERSION,
    HEADER_KEY,
    load_artifact,
    require_matching_architecture,
    save_artifact,
    write_atomically,
)


@pytest.fixture
def arrays():
    rng = np.random.default_rng(3)
    return {
        "weights": rng.normal(size=(4, 3)),
        "bias": rng.normal(size=(3,)),
        "counts": np.arange(5, dtype=np.int64),
    }


class TestRoundTrip:
    def test_arrays_and_metadata_survive(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing", metadata={"alpha": 3})
        artifact = load_artifact(path, kind="test-thing")
        assert artifact.kind == "test-thing"
        assert artifact.metadata == {"alpha": 3}
        assert artifact.format_version == FORMAT_VERSION
        for key, value in arrays.items():
            np.testing.assert_array_equal(artifact.arrays[key], value)

    def test_kind_is_optional_at_load(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        assert load_artifact(path).kind == "test-thing"

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_artifact(
                tmp_path / "x.npz", {HEADER_KEY: np.zeros(3)}, kind="test"
            )

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "absent.npz")


class TestAtomicity:
    def test_save_replaces_not_appends(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        save_artifact(path, {"only": np.ones(2)}, kind="test-thing")
        artifact = load_artifact(path, kind="test-thing")
        assert set(artifact.arrays) == {"only"}

    def test_no_temp_files_left_behind(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        assert os.listdir(tmp_path) == ["thing.npz"]

    def test_creates_parent_directories(self, arrays, tmp_path):
        path = tmp_path / "deep" / "nested" / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        assert load_artifact(path).kind == "test-thing"

    def test_failed_write_keeps_the_old_file(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        before = path.read_bytes()

        def write(handle):
            handle.write(b"half a file")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_atomically(path, write)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["thing.npz"]


class TestCorruptionDetection:
    def test_truncated_file(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)

    def test_flipped_payload_byte(self, arrays, tmp_path):
        # Store uncompressed so a payload byte maps 1:1 onto an array byte.
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        raw = {k: v for k, v in np.load(path).items()}
        np.savez(path, **raw)  # uncompressed rewrite, header intact
        data = bytearray(path.read_bytes())
        # Flip a byte in the middle of the file body (array data region).
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises((CorruptArtifactError, ArtifactMismatchError)):
            load_artifact(path)

    def test_tampered_array_fails_checksum(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        loaded = dict(np.load(path).items())
        tampered = loaded["weights"].copy()
        tampered.flat[0] += 1.0
        loaded["weights"] = tampered
        np.savez_compressed(path, **loaded)
        with pytest.raises(CorruptArtifactError, match="SHA-256"):
            load_artifact(path)

    def test_malformed_header(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        loaded = dict(np.load(path).items())
        loaded[HEADER_KEY] = np.frombuffer(b"not json at all", dtype=np.uint8)
        np.savez_compressed(path, **loaded)
        with pytest.raises(CorruptArtifactError, match="header"):
            load_artifact(path)

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "thing.npz"
        path.write_bytes(b"hello world")
        with pytest.raises(CorruptArtifactError):
            load_artifact(path)


class TestMismatchDetection:
    def test_wrong_kind(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        with pytest.raises(ArtifactMismatchError, match="expected"):
            load_artifact(path, kind="other-thing")

    def test_future_format_version(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(path, arrays, kind="test-thing")
        loaded = dict(np.load(path).items())
        header = json.loads(bytes(bytearray(loaded[HEADER_KEY])).decode())
        header["format_version"] = FORMAT_VERSION + 1
        loaded[HEADER_KEY] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **loaded)
        with pytest.raises(ArtifactMismatchError, match="format version"):
            load_artifact(path)

    def test_architecture_mismatch_lists_differences(self, arrays, tmp_path):
        path = tmp_path / "thing.npz"
        save_artifact(
            path,
            arrays,
            kind="test-thing",
            metadata={"architecture": {"units": 8, "depth": 2}},
        )
        artifact = load_artifact(path)
        with pytest.raises(ArtifactMismatchError, match="units"):
            require_matching_architecture(
                artifact, {"units": 16, "depth": 2}, path
            )
        require_matching_architecture(artifact, {"units": 8, "depth": 2}, path)


class TestHeaderlessRejected:
    @pytest.mark.parametrize("kind", [None, "whatever"])
    def test_plain_npz_rejected(self, arrays, tmp_path, kind):
        # Nothing in a plain .npz can be verified: no checksum, no kind,
        # no recorded architecture.
        path = tmp_path / "plain.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(ArtifactMismatchError, match="integrity header"):
            load_artifact(path, kind=kind)
