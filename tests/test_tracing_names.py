"""Every name the per-layer tracer wraps exists in the library, and its
count hooks read what the library returns.

``perfbench/tracing.py`` skips a listed name that is missing, so a
renamed function or method would read zero calls in its layer metric.
A hook that reads a renamed attribute would crash a traced run instead,
so each hook is called on a real call's arguments and result.  The
module is compiled in memory; nothing under ``perfbench/`` is written.
"""

import types
from pathlib import Path

from fgz.algset import CyclicCoset
from fgz.onevar import OneVarWord, brute_solutions, reduce_parametric, substitute_line
from fgz.solver import SolveConfig, solve
from fgz.words import Alphabet, ball_size, parse_word

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


def test_every_hook_moves_its_counts():
    tracing = _load_tracing()
    ab = Alphabet(("a", "b"))
    one, a = parse_word("1", ab), parse_word("a", ab)
    word = OneVarWord.parse("x a x^-1 a^-1 x a^2 x^-1 a^-2", ab)  # escalates once at radii 0/2
    line = substitute_line(word, one, a)
    cfg = SolveConfig(discovery_radius=0, verify_radius=2)
    # (name, args, kwargs, the call's result, parent span), and the counts the hook moves
    calls = [
        (("onevar.brute_solutions", (word,), {"radius": 2}, brute_solutions(word, 2), None),
         {"ball_elements": ball_size(2, 2), "ball_solutions": 5}),
        (("onevar.reduce_parametric", (line,), {}, reduce_parametric(line), "solver.pairing"),
         {"lines_reduced": 1, "lines_vanishing": 1}),
        (("algset.CyclicCoset.make", (one, a), {}, CyclicCoset.make(one, a), "solver.pairing"), {"pairs_tried": 1}),
        (("algset.CyclicCoset.make", (one, a), {}, CyclicCoset.make(one, a), "solver.solve"), {}),
        (("onevar.substitute_line", (word, one, a), {}, line, "solver.pairing"), {"lines_tried": 1}),
        (("onevar.substitute_line", (word, one, a), {}, line, None), {}),
        (("solver.solve", (word, cfg), {}, solve(word, cfg), None),
         {"solves": 1, "escalations": 1, "escalated_solves": 1}),
    ]
    assert {call[0] for call, _ in calls} == set(tracing.HOOKS)
    for (name, args, kwargs, result, parent), expected in calls:
        counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
        tracing.HOOKS[name](counts, args, kwargs, result, parent)
        assert {k: v for k, v in counts.items() if v} == expected, name
