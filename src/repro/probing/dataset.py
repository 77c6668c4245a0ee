"""Windowed datasets for training the prediction/quantization model.

The BiLSTM consumes fixed-length windows of Alice's arRSSI sequence and
predicts Bob's.  Each window is z-score normalized with its *own side's*
statistics -- neither party can use the other's raw measurements for
normalization without leaking them -- which also removes the slow path-loss
drift so the model learns the reciprocal small-scale structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive

_STD_FLOOR = 1e-6


def _window(sequence: np.ndarray, seq_len: int, stride: int) -> np.ndarray:
    n_windows = 1 + (len(sequence) - seq_len) // stride
    index = np.arange(seq_len) + stride * np.arange(n_windows)[:, None]
    return sequence[index]


def _normalize_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = rows.mean(axis=1, keepdims=True)
    std = np.maximum(rows.std(axis=1, keepdims=True), _STD_FLOOR)
    return (rows - mean) / std, mean, std


@dataclass
class KeyGenDataset:
    """Paired windows of Alice's and Bob's arRSSI sequences.

    Attributes:
        alice: ``[window, seq_len]`` normalized arRSSI windows (model input).
        bob: Same shape, Bob's normalized windows (regression target).
        alice_raw: Un-normalized Alice windows (dBm).
        bob_raw: Un-normalized Bob windows (dBm).
    """

    alice: np.ndarray
    bob: np.ndarray
    alice_raw: np.ndarray
    bob_raw: np.ndarray

    def __post_init__(self) -> None:
        shapes = {a.shape for a in (self.alice, self.bob, self.alice_raw, self.bob_raw)}
        require(len(shapes) == 1, "all dataset arrays must share one shape")
        require(self.alice.ndim == 2, "dataset arrays must be [window, seq_len]")

    def __len__(self) -> int:
        return int(self.alice.shape[0])

    @property
    def seq_len(self) -> int:
        """Window length in arRSSI samples."""
        return int(self.alice.shape[1])

    def subset(self, indices: np.ndarray) -> "KeyGenDataset":
        """A new dataset restricted to the given window indices."""
        return KeyGenDataset(
            alice=self.alice[indices],
            bob=self.bob[indices],
            alice_raw=self.alice_raw[indices],
            bob_raw=self.bob_raw[indices],
        )

    def take_fraction(self, fraction: float, seed: SeedLike = None) -> "KeyGenDataset":
        """A random subset with the given fraction of windows (>= 1 window).

        Used by the transfer-learning experiment's ``transfer-10%`` setting.
        """
        require(0 < fraction <= 1.0, "fraction must be in (0, 1]")
        rng = as_generator(seed)
        count = max(1, int(round(fraction * len(self))))
        indices = rng.permutation(len(self))[:count]
        return self.subset(np.sort(indices))

    #: Artifact kind of a saved dataset.
    ARTIFACT_KIND = "keygen-dataset"

    def save(self, path: Union[str, Path]) -> None:
        """Persist to a checksummed ``.npz`` artifact, written atomically."""
        from repro.utils.artifact import save_artifact

        save_artifact(
            path,
            {
                "alice": self.alice,
                "bob": self.bob,
                "alice_raw": self.alice_raw,
                "bob_raw": self.bob_raw,
            },
            kind=self.ARTIFACT_KIND,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "KeyGenDataset":
        """Load a dataset previously written by :meth:`save`.

        Raises :class:`~repro.exceptions.CorruptArtifactError` on a
        truncated or tampered file and
        :class:`~repro.exceptions.ArtifactMismatchError` on a plain
        ``.npz`` without the integrity header.
        """
        from repro.utils.artifact import load_artifact

        data = load_artifact(Path(path), kind=cls.ARTIFACT_KIND).arrays
        return cls(
            alice=data["alice"],
            bob=data["bob"],
            alice_raw=data["alice_raw"],
            bob_raw=data["bob_raw"],
        )


@dataclass
class DatasetSplits:
    """Random train/validation/test partition of a :class:`KeyGenDataset`."""

    train: KeyGenDataset
    validation: KeyGenDataset
    test: KeyGenDataset


def build_dataset(
    alice_sequence: np.ndarray,
    bob_sequence: np.ndarray,
    seq_len: int = 32,
    stride: int = None,
) -> KeyGenDataset:
    """Window two aligned arRSSI sequences into a training dataset.

    Args:
        alice_sequence: Alice's time-ordered arRSSI values.
        bob_sequence: Bob's, aligned index-for-index with Alice's.
        seq_len: Window length (the paper's model uses 32 BiLSTM steps).
        stride: Step between windows; defaults to ``seq_len`` (disjoint
            windows, so each key bit derives from fresh channel readings).
    """
    alice = np.asarray(alice_sequence, dtype=float)
    bob = np.asarray(bob_sequence, dtype=float)
    require(alice.shape == bob.shape, "sequences must be aligned and equal length")
    require(alice.ndim == 1, "sequences must be 1-D")
    require_positive(seq_len, "seq_len")
    if stride is None:
        stride = seq_len
    require_positive(stride, "stride")
    require(
        len(alice) >= seq_len,
        f"need at least seq_len={seq_len} samples, got {len(alice)}",
    )
    alice_raw = _window(alice, seq_len, stride)
    bob_raw = _window(bob, seq_len, stride)
    alice_norm, _, _ = _normalize_rows(alice_raw)
    bob_norm, _, _ = _normalize_rows(bob_raw)
    return KeyGenDataset(
        alice=alice_norm, bob=bob_norm, alice_raw=alice_raw, bob_raw=bob_raw
    )


def split_dataset(
    dataset: KeyGenDataset,
    fractions: Tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: SeedLike = None,
) -> DatasetSplits:
    """Random 70/15/15 split, as in the paper's Sec. V-A2.

    Every window lands in exactly one split; train is never empty.
    """
    require(len(fractions) == 3, "fractions must be (train, val, test)")
    require(abs(sum(fractions) - 1.0) < 1e-9, "fractions must sum to 1")
    rng = as_generator(seed)
    order = rng.permutation(len(dataset))
    n_train = max(1, int(round(fractions[0] * len(dataset))))
    n_val = int(round(fractions[1] * len(dataset)))
    n_val = min(n_val, max(0, len(dataset) - n_train))
    train_idx = np.sort(order[:n_train])
    val_idx = np.sort(order[n_train:n_train + n_val])
    test_idx = np.sort(order[n_train + n_val:])
    return DatasetSplits(
        train=dataset.subset(train_idx),
        validation=dataset.subset(val_idx),
        test=dataset.subset(test_idx),
    )
