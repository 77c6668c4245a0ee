"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` wraps each ``TARGETS`` entry by name when a
traced run installs it, so a renamed or removed attribute breaks every
traced benchmark run.  This checks each name without installing
anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """``TARGETS`` of the tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, module_name, class_name, attribute in tracer_targets():
        module = importlib.import_module(module_name)
        if class_name is None:
            found = hasattr(module, attribute)
        else:
            owner = getattr(module, class_name, None)
            # The tracer reads the class __dict__, not inherited attributes.
            found = owner is not None and attribute in vars(owner)
        if not found:
            missing.append(f"{layer}: {module_name}.{class_name or ''}.{attribute}")
    assert missing == []
