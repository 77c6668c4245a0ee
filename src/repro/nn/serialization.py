"""Weight persistence for layer stacks.

Weights are stored in a checksummed :mod:`repro.utils.artifact` container
with keys ``<layer_index>:<layer_name>/<param_name>`` so load-time
mismatches are caught explicitly rather than silently reordered.  Loading
rejects stored keys that match no layer -- a checkpoint from a deeper or
renamed architecture fails loudly instead of half-applying.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer
from repro.utils.artifact import Artifact, load_artifact, save_artifact

#: Artifact kind written for a bare layer stack.
LAYER_STACK_KIND = "layer-stack"


def weight_arrays(layers: Sequence[Layer]) -> Dict[str, np.ndarray]:
    """All layers' parameters keyed ``<index>:<name>/<param>``."""
    arrays: Dict[str, np.ndarray] = {}
    for index, layer in enumerate(layers):
        if not layer.built:
            raise ConfigurationError(
                f"layer {layer.name!r} is not built; run a forward pass first"
            )
        for key, value in layer.parameters.items():
            arrays[f"{index}:{layer.name}/{key}"] = value
    return arrays


def save_weights(
    layers: Sequence[Layer],
    path: Union[str, Path],
    kind: str = LAYER_STACK_KIND,
    metadata: Optional[Dict] = None,
) -> None:
    """Write all layers' parameters to ``path`` as a checksummed artifact.

    Args:
        layers: Built layers to persist.
        path: Destination ``.npz`` path (written atomically).
        kind: Artifact kind recorded in the header.
        metadata: Extra JSON metadata (architecture, training stats, ...).
    """
    meta = dict(metadata) if metadata is not None else {}
    meta.setdefault(
        "layer_stack",
        [
            {"name": layer.name, "parameters": sorted(layer.parameters)}
            for layer in layers
        ],
    )
    save_artifact(Path(path), weight_arrays(layers), kind=kind, metadata=meta)


def assign_weights(layers: Sequence[Layer], stored: Dict[str, np.ndarray]) -> None:
    """Distribute stored arrays onto ``layers``; reject orphans and gaps.

    Every stored key must land on exactly one layer: missing weights for a
    parameterized layer and stored keys that match no layer both raise
    :class:`~repro.exceptions.ConfigurationError` (a stale checkpoint from
    a deeper architecture previously loaded without error).
    """
    consumed = set()
    for index, layer in enumerate(layers):
        prefix = f"{index}:{layer.name}/"
        weights = {
            key[len(prefix):]: value
            for key, value in stored.items()
            if key.startswith(prefix)
        }
        consumed.update(prefix + key for key in weights)
        if not layer.parameters:
            if weights:
                raise ConfigurationError(
                    f"stored weights exist for parameterless layer {layer.name!r}"
                )
            continue
        if not weights:
            raise ConfigurationError(
                f"no stored weights found for layer {index}:{layer.name!r}"
            )
        layer.set_weights(weights)
    orphans = sorted(set(stored) - consumed)
    if orphans:
        raise ConfigurationError(
            f"stored weights match no layer (stale or deeper-architecture "
            f"checkpoint): {orphans}"
        )


def load_weights(
    layers: Sequence[Layer],
    path: Union[str, Path],
    kind: str = LAYER_STACK_KIND,
) -> Artifact:
    """Load parameters written by :func:`save_weights` into ``layers``.

    Layers must already be built with matching shapes (run one forward
    pass on dummy data first, or build explicitly).  Returns the verified
    :class:`~repro.utils.artifact.Artifact` so callers can inspect its
    metadata (architecture, training statistics).
    """
    artifact = load_artifact(Path(path), kind=kind)
    assign_weights(layers, artifact.arrays)
    return artifact
