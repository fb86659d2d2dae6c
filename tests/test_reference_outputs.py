"""Byte identity of each workload's output with the benchmark's reference files.

Every entry of the ``corpus-solve``, ``coset-solve``, ``set-algebra`` and
``witnesses`` universes is run through the op of
``perfbench/workloads.py``, and the digest of its canonical output is
compared with the first field of the entry's line in
``perfbench/reference/<workload>.txt``.  The benchmark itself checks only
a seeded draw of each universe; this checks all of it.  Nothing under
``perfbench/`` is written.
"""

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    """``perfbench/workloads.py`` as a module, compiled in memory (no bytecode file)."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["corpus-solve", "coset-solve", "set-algebra", "witnesses"])
def test_universe_matches_reference(name):
    wl = _load_workloads().WORKLOADS[name]
    reference = [line.split()[0] for line in (PERFBENCH / "reference" / f"{name}.txt").read_text().splitlines()]
    universe = wl.universe()
    assert len(universe) == len(reference)
    mismatched = [
        (i, entry)
        for i, (entry, digest) in enumerate(zip(universe, reference))
        if wl.digest(wl.op(wl.make_input(entry))) != digest
    ]
    assert not mismatched, f"{len(mismatched)} outputs differ from the reference, first: {mismatched[:5]}"
