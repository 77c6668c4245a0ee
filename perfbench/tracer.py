"""In-memory span tracer for the benchmark's traced runs.

The tracer times public functions of the package by replacing them, for
the duration of a traced window, at the module or class attribute their
callers resolve (``repro.core.batch.build_dataset`` rather than
``repro.probing.dataset.build_dataset``, because ``core.batch`` imported
the name).  Nothing under ``src/`` changes; uninstalling restores the
original objects.

Each call becomes one span ``(id, layer, start, end, parent, label)``:
timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC``, shared by
every process on the host, so server-side spans join client-side
timestamps), ``parent`` is the enclosing traced call in the same thread
or asyncio task, and ``label`` is the episode label(s) of a batch call.
Spans stay in memory until the run ends and :func:`write_jsonl` saves them.  A layer's *self*
time is its spans' duration minus the time their direct children cover.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Wrapped attributes: ``(layer, module, class or None, attribute)``.
#: Several attributes may feed one layer (both windowing helpers, the
#: batch and the per-session copies of each import).
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("batch", "repro.core.batch", "BatchedSessionRunner", "run_episodes"),
    ("establish", "repro.core.pipeline", "VehicleKeyPipeline", "establish_key"),
    ("probing.fastpath", "repro.core.pipeline", None, "run_fastpath_group"),
    ("probing.run_loop", "repro.probing.protocol", "ProbingProtocol", "run_loop"),
    ("channel.batched_gain", "repro.probing.protocol", None, "batched_spatial_gain_db"),
    ("channel.path_gain", "repro.channel.reciprocity", "ReciprocalChannel", "path_gain_db"),
    ("channel.gain", "repro.channel.fading", "SpatialJakesFading", "gain_db"),
    ("window", "repro.core.batch", None, "arrssi_sequences"),
    ("window", "repro.core.batch", None, "build_dataset"),
    ("window", "repro.core.session", None, "arrssi_sequences"),
    ("window", "repro.core.session", None, "build_dataset"),
    ("predict", "repro.core.model", "PredictionQuantizationModel", "predict_bit_probabilities"),
    ("reconcile", "repro.reconciliation.autoencoder", "AutoencoderReconciliation", "bob_syndrome"),
    ("reconcile", "repro.reconciliation.autoencoder", "AutoencoderReconciliation", "alice_correct"),
    ("reconcile", "repro.core.session", None, "compute_mac"),
    ("reconcile", "repro.core.session", None, "verify_mac"),
    ("amplify", "repro.core.session", None, "amplify_to_bytes"),
    ("session", "repro.core.session", "KeyAgreementSession", "run"),
    ("framing.encode", "repro.server.framing", None, "encode_frame"),
    ("framing.decode", "repro.server.framing", None, "decode_body"),
    ("secure.open", "repro.secure.channel", "SecureChannel", "open_records"),
    ("secure.seal", "repro.secure.channel", "SecureChannel", "seal_records"),
    ("secure.derive", "repro.server.server", None, "derive_channel_keys"),
    ("secure.derive", "repro.secure.rekey", None, "derive_channel_keys"),
    ("secure.payload", "repro.secure.rekey", "ManagedSecureLink", "__init__"),
    ("secure.payload", "repro.secure.rekey", "ManagedSecureLink", "seal"),
    ("secure.payload", "repro.secure.rekey", "ManagedSecureLink", "seal_records"),
    ("secure.payload", "repro.secure.rekey", "ManagedSecureLink", "deliver"),
    ("secure.payload", "repro.secure.rekey", "ManagedSecureLink", "deliver_records"),
    ("journal.append", "repro.server.journal", "SessionJournal", "append"),
)

#: Every layer the tracer reports, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS))


def _batch_labels(args: tuple, kwargs: dict) -> Optional[str]:
    """Episode labels of a ``run_episodes(labels)`` call, comma-joined."""
    labels = kwargs.get("labels", args[1] if len(args) > 1 else None)
    return ",".join(labels) if labels is not None else None


class Tracer:
    """Span recorder over the wrapped public functions of :data:`TARGETS`.

    Args:
        on_result: Optional ``{layer: callback(args, result, is_root)}``
            hooks called after a wrapped call returns; ``is_root`` is
            whether the call had no traced parent.
    """

    def __init__(self, on_result: Optional[Dict[str, Callable]] = None):
        self.spans: List[tuple] = []
        self.on_result = dict(on_result or {})
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, original: Callable) -> Callable:
        spans = self.spans
        current = self._current
        ids = self._ids
        hook = self.on_result.get(layer)
        labelled = layer == "batch"
        clock = time.monotonic

        def traced(*args, **kwargs):
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                label = _batch_labels(args, kwargs) if labelled else None
                spans.append((span_id, layer, start, end, parent, label))
            if hook is not None:
                hook(args, result, parent is None)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> "Tracer":
        """Wrap every target (a no-op when already installed)."""
        if self._patches:
            return self
        for layer, module_name, class_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                owner, original = module, getattr(module, attribute)
            else:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(layer, original))
            self._patches.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def resolved(self, process: str) -> List[dict]:
        """Spans as dicts, each carrying its nearest ancestor's label."""
        by_id = {span[0]: span for span in self.spans}

        def label_of(span) -> Optional[str]:
            while span is not None:
                if span[5] is not None:
                    return span[5]
                span = by_id.get(span[4])
            return None

        return [
            {
                "id": span[0],
                "name": span[1],
                "start": span[2],
                "end": span[3],
                "parent": span[4],
                "label": label_of(span),
                "process": process,
            }
            for span in self.spans
        ]


def counting_hooks(counts: Dict[str, float]) -> Dict[str, Callable]:
    """Tracer hooks that count work items at three layer boundaries.

    Fills ``counts`` with journal ``appends`` and the ``fsyncs`` they
    triggered, model ``windows`` predicted, and for top-level
    ``establish_key`` calls the ``establishments``, ARQ ``retries`` and
    probing ``attempts`` their outcomes report.
    """
    counts.update(
        appends=0, fsyncs=0, windows=0, establishments=0, retries=0, attempts=0
    )

    def on_append(args, result, is_root):
        journal = args[0]
        counts["appends"] += 1
        # ``append`` resets its unsynced count exactly when it fsyncs.
        if journal.fsync != "off" and journal._unsynced == 0:
            counts["fsyncs"] += 1

    def on_predict(args, result, is_root):
        counts["windows"] += len(args[1])

    def on_establish(args, result, is_root):
        if is_root:
            counts["establishments"] += 1
            counts["retries"] += result.total_retries
            counts["attempts"] += result.attempts

    return {"journal.append": on_append, "predict": on_predict, "establish": on_establish}


def write_jsonl(path: str, rows: List[dict]) -> None:
    """Write spans (or any dict rows) as JSON lines."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def read_jsonl(path: str) -> List[dict]:
    """Rows written by :func:`write_jsonl`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_totals(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``total_s`` and ``self_s`` over one process's spans.

    Self time subtracts each span's direct children, which nest inside it
    in the same thread or task.  ``total_s`` counts only a layer's
    outermost spans, so a call nested in another call of the same layer
    (``ManagedSecureLink.seal_records`` sealing through ``seal``) is not
    counted twice.
    """
    child_time: Dict[int, float] = defaultdict(float)
    layer_of = {span["id"]: span["name"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for span in spans:
        duration = span["end"] - span["start"]
        entry = totals[span["name"]]
        entry["calls"] += 1
        if layer_of.get(span["parent"]) != span["name"]:
            entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
    return totals
