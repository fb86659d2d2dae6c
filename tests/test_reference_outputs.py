"""Byte identity of each workload's output with the benchmark's reference files.

Every entry of the ``corpus-solve``, ``coset-solve``, ``set-algebra`` and
``witnesses`` universes is run through the op of
``perfbench/workloads.py``, and the digest of its canonical output is
compared with the first field of the entry's line in
``perfbench/reference/<workload>.txt``.  The benchmark itself checks only
a seeded draw of each universe; this checks all of it.  Nothing under
``perfbench/`` is written.

The solve universes also check the radius answers against the closed-form
solution sets of :func:`fgz.solver.exact_solution_set`.
"""

import sys
import types
from pathlib import Path

import pytest

from fgz.algset import subset
from fgz.onevar import OneVarWord
from fgz.solver import exact_solution_set

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


@pytest.mark.parametrize("name, covered, grown", [("corpus-solve", 19_779, 5), ("coset-solve", 8_480, 1_728)])
def test_radius_answer_lies_in_the_exact_set(name, covered, grown):
    """Each solve entry whose word has a closed-form solution set:
    the radius answer is a subset of the whole solution set, and equal to
    it but for ``grown`` entries, whose sets reach past the radius."""
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name]
    exact_sets = [(entry, exact_solution_set(OneVarWord.parse(entry, workloads.AB))) for entry in wl.universe()]
    exact_sets = [(entry, exact) for entry, exact in exact_sets if exact is not None]
    assert len(exact_sets) == covered
    answers = [(entry, wl.op(wl.make_input(entry)).result, exact) for entry, exact in exact_sets]
    outside = [entry for entry, answer, exact in answers if not subset(answer, exact)]
    assert not outside, f"{len(outside)} radius answers leave the exact set, first: {outside[:5]}"
    assert sum(answer != exact for _, answer, exact in answers) == grown
