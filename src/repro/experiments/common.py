"""Shared experiment infrastructure: results, scales, pipeline caches."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.channel.scenario import ScenarioName
from repro.core.pipeline import PipelineConfig, VehicleKeyPipeline
from repro.exceptions import ReproError
from repro.utils.artifact import write_atomically
from repro.utils.validation import require


@dataclass
class ExperimentResult:
    """One table/figure's regenerated data.

    Attributes:
        experiment_id: Paper reference, e.g. ``"fig12"`` or ``"table1"``.
        title: Human-readable description.
        columns: Column names, defining row ordering.
        rows: One dict per reported row/series point.
        notes: Substitutions, caveats, paper-vs-measured commentary.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        """Append one row; keys must cover the declared columns."""
        missing = [c for c in self.columns if c not in values]
        require(not missing, f"row is missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> List:
        """All values of one column, in row order."""
        return [row[name] for row in self.rows]

    def to_payload(self) -> str:
        """Canonical JSON serialization of the full result.

        Key order and float formatting are deterministic, so two runs that
        produced the same numbers yield byte-identical payloads -- this is
        what the serial-vs-parallel runner equivalence test compares.
        """
        def scalar(value):
            # Normalize numpy scalars so the payload doesn't depend on
            # whether an experiment called float()/int() before add_row.
            if hasattr(value, "item"):
                return value.item()
            raise TypeError(f"cannot serialize {type(value).__name__}")

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "columns": self.columns,
                "rows": self.rows,
                "notes": self.notes,
            },
            sort_keys=True,
            default=scalar,
        )

    def to_table(self) -> str:
        """Render rows as an aligned text table (the paper-style output)."""
        def fmt(value):
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        widths = {
            c: max(len(c), *(len(fmt(row[c])) for row in self.rows)) if self.rows else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [f"== {self.experiment_id}: {self.title} ==", header,
                 "  ".join("-" * widths[c] for c in self.columns)]
        for row in self.rows:
            lines.append("  ".join(fmt(row[c]).ljust(widths[c]) for c in self.columns))
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs.

    ``quick`` targets benchmark runtimes (tens of seconds per
    experiment); ``full`` approaches paper scale.
    """

    train_episodes: int
    train_epochs: int
    reconciler_epochs: int
    session_rounds: int
    n_sessions: int
    n_seeds: int


_QUICK = Scale(
    train_episodes=220,
    train_epochs=90,
    reconciler_epochs=30,
    session_rounds=256,
    n_sessions=3,
    n_seeds=2,
)
_FULL = Scale(
    train_episodes=400,
    train_epochs=200,
    reconciler_epochs=60,
    session_rounds=512,
    n_sessions=8,
    n_seeds=4,
)


def get_scale(quick: bool) -> Scale:
    """The sizing preset for quick or full runs."""
    return _QUICK if quick else _FULL


_PIPELINE_CACHE: Dict[Tuple, VehicleKeyPipeline] = {}

#: Environment variable naming the on-disk trained-pipeline cache root.
#: When set (e.g. by ``repro experiments --cache-dir``), trained pipelines
#: are persisted there through the artifact container and later runs --
#: including parallel ``--jobs`` workers -- load them instead of retraining.
PIPELINE_CACHE_ENV = "REPRO_PIPELINE_CACHE"

#: Bump to invalidate every existing on-disk cache entry (e.g. after a
#: change to training semantics that is not visible in the config).
_CACHE_FORMAT_VERSION = 1

_COMPLETE_MARKER = "COMPLETE.json"


def pipeline_cache_root() -> Optional[Path]:
    """The on-disk pipeline cache root, or ``None`` when disabled."""
    root = os.environ.get(PIPELINE_CACHE_ENV, "").strip()
    return Path(root) if root else None


def pipeline_fingerprint(
    scenario: ScenarioName,
    seed: int,
    scale: Scale,
    config: PipelineConfig,
    cache_key_extra: str = "",
) -> str:
    """Deterministic name for one trained-pipeline cache entry.

    Hashes everything training depends on: the scenario, the training
    seed, the :class:`Scale` preset, every :class:`PipelineConfig` field
    (recursively, so device models and feature configs count), and the
    caller's ``cache_key_extra`` tag.  Any change to any of these yields
    a different fingerprint, so stale entries are never loaded -- they
    are simply orphaned on disk.
    """
    payload = {
        "format": _CACHE_FORMAT_VERSION,
        "scenario": scenario.value,
        "seed": int(seed),
        "scale": asdict(scale),
        "config": asdict(config),
        "extra": cache_key_extra,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _load_cached_pipeline(pipeline: VehicleKeyPipeline, entry: Path) -> bool:
    """Restore a pipeline from a cache entry; ``False`` on any problem.

    The completion marker is written only after both artifacts landed, so
    a crashed writer leaves an entry that is simply ignored; a corrupt or
    architecture-mismatched artifact falls back to retraining (which
    overwrites the entry atomically).
    """
    if not (entry / _COMPLETE_MARKER).is_file():
        return False
    try:
        pipeline.load(entry)
    except (ReproError, OSError, ValueError):
        return False
    return True


def _store_cached_pipeline(
    pipeline: VehicleKeyPipeline, entry: Path, fingerprint: str
) -> None:
    """Persist a freshly trained pipeline; never fails the training run."""
    try:
        entry.mkdir(parents=True, exist_ok=True)
        pipeline.save(entry)
        marker = json.dumps(
            {"fingerprint": fingerprint, "format": _CACHE_FORMAT_VERSION},
            sort_keys=True,
        )
        write_atomically(
            entry / _COMPLETE_MARKER,
            lambda handle: handle.write((marker + "\n").encode("utf-8")),
        )
    except OSError:
        # The cache is an optimization; a full disk or permission issue
        # must not take down the experiment that just finished training.
        pass


def get_trained_pipeline(
    scenario: ScenarioName,
    seed: int = 0,
    quick: bool = True,
    config: Optional[PipelineConfig] = None,
    cache_key_extra: str = "",
    checkpoint_dir: Optional[str] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> VehicleKeyPipeline:
    """A trained pipeline for a scenario, cached across experiments.

    Training dominates every learned experiment's runtime; Fig. 10, 12,
    13, 15 and the tables can share one trained pipeline per scenario.

    Two cache layers sit in front of training:

    1. an in-memory cache keyed on the call signature (process-local), and
    2. an optional on-disk cache (``cache_dir`` argument, or the
       ``REPRO_PIPELINE_CACHE`` environment variable) keyed on a
       fingerprint of the scenario, seed, scale, and full pipeline
       config.  Entries are the pipeline's own ``save()`` artifacts, so
       parallel ``--jobs`` workers and repeat runs skip retraining.
       Because session randomness comes from name-keyed seed streams, a
       loaded pipeline produces results identical to a freshly trained
       one.  Note the disk path does not restore ``splits`` or
       ``training_report`` (no experiment consumes them).

    ``checkpoint_dir`` enables crash-safe training for long full-scale
    runs: the model checkpoints every epoch and a rerun of the same
    experiment resumes from the last completed epoch instead of
    retraining from scratch.
    """
    key = (scenario, seed, quick, cache_key_extra)
    if key in _PIPELINE_CACHE:
        return _PIPELINE_CACHE[key]
    scale = get_scale(quick)
    if config is None:
        pipeline = VehicleKeyPipeline.for_scenario(scenario, seed=seed)
    else:
        pipeline = VehicleKeyPipeline(config, seed=seed)

    root = Path(cache_dir) if cache_dir is not None else pipeline_cache_root()
    entry = None
    if root is not None:
        fingerprint = pipeline_fingerprint(
            scenario, seed, scale, pipeline.config, cache_key_extra
        )
        entry = root / fingerprint
        if _load_cached_pipeline(pipeline, entry):
            _PIPELINE_CACHE[key] = pipeline
            return pipeline

    pipeline.train(
        n_episodes=scale.train_episodes,
        epochs=scale.train_epochs,
        reconciler_epochs=scale.reconciler_epochs,
        checkpoint_dir=checkpoint_dir,
        resume=checkpoint_dir is not None,
    )
    if entry is not None:
        _store_cached_pipeline(pipeline, entry, entry.name)
    _PIPELINE_CACHE[key] = pipeline
    return pipeline


def clear_pipeline_cache() -> None:
    """Drop all cached pipelines (frees memory between experiment sets)."""
    _PIPELINE_CACHE.clear()
