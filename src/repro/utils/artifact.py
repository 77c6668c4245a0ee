"""Crash-safe, checksummed artifact persistence.

Every learned or measured object this library persists (model weights,
reconciler weights, probe traces, datasets, training checkpoints) goes
through this module.  The on-disk container is still a NumPy ``.npz``,
with one reserved member:

- ``__artifact__`` -- a JSON header (stored as ``uint8`` bytes) carrying
  the format version, an artifact *kind* string, free-form metadata
  (architecture hyperparameters, training statistics, RNG state, ...),
  and a SHA-256 checksum over every payload array's name, dtype, shape
  and raw bytes.

Writes are atomic (:func:`write_atomically`): the file is serialized to
a temporary sibling, fsynced, and then ``os.replace``d over the
destination, so a crash mid-write never leaves a truncated artifact under
the real name.  Reads verify the header, the checksum and the expected
kind, raising the typed :class:`~repro.exceptions.CorruptArtifactError` /
:class:`~repro.exceptions.ArtifactMismatchError` instead of leaking raw
``zipfile``/``KeyError`` internals.  A plain ``.npz`` without the header
is rejected: nothing in it can be verified.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Union

import numpy as np

from repro.exceptions import ArtifactMismatchError, CorruptArtifactError

#: Reserved ``.npz`` member holding the JSON header.
HEADER_KEY = "__artifact__"

#: Current container format version.
FORMAT_VERSION = 1


def _checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 digest over the payload arrays, order-independent."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(repr(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Artifact:
    """A loaded artifact: payload arrays plus its verified header.

    Attributes:
        arrays: The payload arrays, keyed as written.
        kind: The artifact kind recorded at save time.
        metadata: Free-form JSON metadata recorded at save time.
        format_version: Container version.
    """

    arrays: Dict[str, np.ndarray]
    kind: str
    metadata: Dict
    format_version: int


def write_atomically(path: Union[str, Path], write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with what ``write`` writes, all or nothing.

    ``write`` fills a temporary file in the destination directory, which
    is flushed, fsynced and renamed over ``path`` -- a crash never leaves
    a half-written file under the final name.  On any failure the
    temporary file is removed and the exception re-raised.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_artifact(
    path: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    kind: str,
    metadata: Optional[Dict] = None,
) -> None:
    """Atomically write ``arrays`` as a checksummed artifact of ``kind``.

    The payload goes through :func:`write_atomically`: an interrupted
    save never corrupts an existing artifact and never leaves a
    half-written file under the final name.

    Args:
        path: Destination ``.npz`` path.
        arrays: Payload arrays; the key ``__artifact__`` is reserved.
        kind: Artifact kind slug checked again at load time.
        metadata: JSON-serializable metadata embedded in the header.
    """
    target = Path(path)
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    if HEADER_KEY in payload:
        raise ValueError(f"array key {HEADER_KEY!r} is reserved for the header")
    header = {
        "format_version": FORMAT_VERSION,
        "kind": str(kind),
        "checksum": _checksum(payload),
        "metadata": metadata if metadata is not None else {},
    }
    payload[HEADER_KEY] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    write_atomically(target, lambda handle: np.savez_compressed(handle, **payload))


def load_artifact(path: Union[str, Path], kind: Optional[str] = None) -> Artifact:
    """Load and verify an artifact written by :func:`save_artifact`.

    Args:
        path: Artifact path.
        kind: Expected kind; a stored kind that differs raises
            :class:`~repro.exceptions.ArtifactMismatchError`.

    Raises:
        CorruptArtifactError: The file is unreadable, truncated, carries
            a malformed header, or fails its checksum.
        ArtifactMismatchError: The stored kind differs from ``kind``, or
            the file is a plain ``.npz`` without the integrity header.
        FileNotFoundError: ``path`` does not exist.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no artifact at {source}")
    try:
        with np.load(source, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except Exception as exc:
        raise CorruptArtifactError(
            f"artifact {source} is unreadable (truncated or not an .npz): {exc}"
        ) from exc

    header_bytes = arrays.pop(HEADER_KEY, None)
    if header_bytes is None:
        raise ArtifactMismatchError(
            f"artifact {source} has no integrity header; a plain .npz "
            "cannot be verified and is not accepted"
        )

    try:
        header = json.loads(bytes(bytearray(header_bytes)).decode("utf-8"))
        stored_checksum = header["checksum"]
        stored_kind = header["kind"]
        version = int(header["format_version"])
        metadata = header.get("metadata", {})
    except Exception as exc:
        raise CorruptArtifactError(
            f"artifact {source} carries a malformed header: {exc}"
        ) from exc
    if version > FORMAT_VERSION:
        raise ArtifactMismatchError(
            f"artifact {source} uses format version {version}; this library "
            f"reads up to version {FORMAT_VERSION}"
        )
    if stored_checksum != _checksum(arrays):
        raise CorruptArtifactError(
            f"artifact {source} failed its SHA-256 payload check; the file "
            "was tampered with or corrupted after writing"
        )
    if kind is not None and stored_kind != kind:
        raise ArtifactMismatchError(
            f"artifact {source} holds a {stored_kind!r}, expected {kind!r}"
        )
    return Artifact(
        arrays=arrays,
        kind=stored_kind,
        metadata=metadata,
        format_version=version,
    )


def require_matching_architecture(
    artifact: Artifact, expected: Dict, path: Union[str, Path] = ""
) -> None:
    """Reject an artifact whose recorded architecture differs from ``expected``.

    Artifacts without an ``architecture`` metadata entry pass silently --
    there is nothing recorded to compare.

    Raises:
        ArtifactMismatchError: Listing every differing hyperparameter.
    """
    stored = artifact.metadata.get("architecture")
    if stored is None:
        return
    differences = []
    for key, want in expected.items():
        have = stored.get(key, "<absent>")
        if have != want:
            differences.append(f"{key}: stored {have!r} != expected {want!r}")
    if differences:
        raise ArtifactMismatchError(
            f"artifact {path} was written by a different architecture: "
            + "; ".join(differences)
        )
