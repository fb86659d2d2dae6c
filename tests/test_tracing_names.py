"""Every name the per-layer tracer wraps exists in the library.

``perfbench/tracing.py`` skips a listed name that is missing, so a
renamed function or method would read zero calls in its layer metric.
The module is compiled in memory; nothing under ``perfbench/`` is
written.
"""

import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    missing = [name for name, module, attr in tracing.FUNCTIONS if not callable(getattr(module, attr, None))]
    missing += [name for name, cls, attr in tracing.METHODS if attr not in vars(cls)]
    assert not missing, f"traced names with nothing to wrap: {missing}"
