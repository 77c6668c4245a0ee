"""KeyGenDataset generation determinism.

The training dataset must be a pure function of the pipeline's root
seed: the probing engine (the per-round loop oracle vs the stacked
fault-free kernel) is an implementation detail that may not leak a
single bit into the data, and collecting twice gives the same bytes.
"""

import numpy as np

from tests.conftest import make_tiny_pipeline


def dataset_bytes(dataset):
    """A canonical byte serialization of every array in the dataset."""
    return (
        np.ascontiguousarray(dataset.alice).tobytes()
        + np.ascontiguousarray(dataset.bob).tobytes()
        + np.ascontiguousarray(dataset.alice_raw).tobytes()
        + np.ascontiguousarray(dataset.bob_raw).tobytes()
    )


class TestProbingPathDeterminism:
    def test_loop_and_vectorized_probing_give_identical_datasets(self):
        fast = make_tiny_pipeline(seed=23).collect_dataset(n_episodes=3)
        # Fresh pipeline, same seed, but every episode probed through the
        # frozen per-round loop.
        slow_pipeline = make_tiny_pipeline(seed=23)
        from repro.probing.dataset import KeyGenDataset, build_dataset
        from repro.probing.features import arrssi_sequences

        parts = []
        for index in range(3):
            protocol, seeds, _, _ = slow_pipeline.build_protocol(f"train-{index}")
            trace = protocol.run_loop(
                slow_pipeline.config.rounds_per_episode, seeds
            )
            bob_seq, alice_seq = arrssi_sequences(
                trace, slow_pipeline.config.feature_config
            )
            if len(alice_seq) < slow_pipeline.config.seq_len:
                continue
            parts.append(
                build_dataset(
                    alice_seq, bob_seq, seq_len=slow_pipeline.config.seq_len
                )
            )
        slow = KeyGenDataset(
            alice=np.concatenate([p.alice for p in parts]),
            bob=np.concatenate([p.bob for p in parts]),
            alice_raw=np.concatenate([p.alice_raw for p in parts]),
            bob_raw=np.concatenate([p.bob_raw for p in parts]),
        )
        assert dataset_bytes(fast) == dataset_bytes(slow)


class TestParallelCollectionDeterminism:
    def test_repeat_collection_byte_identical(self):
        first = make_tiny_pipeline(seed=31).collect_dataset(n_episodes=2)
        second = make_tiny_pipeline(seed=31).collect_dataset(n_episodes=2)
        assert dataset_bytes(first) == dataset_bytes(second)
