"""Per-layer tracing by wrapping fgz functions where their callers find them.

A wrapper replaces a module-level function at every binding in the loaded
``fgz`` modules (``fgz.solver`` imports ``brute_solutions`` under its own
name; ``algset.intersect`` calls the module global ``intersect_cosets``)
and a method on its class (``Word.__mul__``, ``Homomorphism.apply``), so
nested calls are traced as well.

Each call adds to its name's call count and self time: its duration minus
the time its traced callees took.  Calls of ``LEAVES``, the kernels that
run millions of times, keep only those sums.  Every other call also
records a span ``(op id, span id, parent span id, name, start, duration)``
while ``keep_spans`` is set.  Spans stay in memory until the run writes
them out.  Calls made outside an op (``active`` unset) are not traced.
"""

from __future__ import annotations

import functools
import sys
import time

from fgz import algset, embed, onevar, residual, solver, words

#: (layer metric name, module, function name); missing names are skipped
FUNCTIONS = (
    ("words.enumerate_ball", words, "enumerate_ball"),
    ("words.parse_word", words, "parse_word"),
    ("onevar.brute_solutions", onevar, "brute_solutions"),
    ("onevar.substitute_line", onevar, "substitute_line"),
    ("onevar.reduce_parametric", onevar, "reduce_parametric"),
    ("solver.solve", solver, "solve"),
    ("solver.verify_against_oracle", solver, "verify_against_oracle"),
    ("solver.pairing", solver, "_candidate_components"),
    ("algset.intersect_cosets", algset, "intersect_cosets"),
    ("algset.intersect", algset, "intersect"),
    ("algset.union", algset, "union"),
    ("algset.subset", algset, "subset"),
    ("algset.chain_check", algset, "chain_check"),
    ("algset.json", algset, "to_json_dict"),
    ("algset.json", algset, "from_json_dict"),
    ("algset.json", algset, "from_json_text"),
    ("embed.build_phi_g", embed, "build_phi_g"),
    ("embed.check_mono_on_ball", embed, "check_mono_on_ball"),
    ("residual.separate", residual, "separate"),
    ("residual.apply_perm_rep", residual, "apply_perm_rep"),
)

#: (layer metric name, class, attribute); classmethods are rewrapped as such
METHODS = (
    ("words.primitive_root", words.Word, "primitive_root"),
    ("words.mul", words.Word, "__mul__"),
    ("words.pow", words.Word, "__pow__"),
    ("onevar.evaluate", onevar.OneVarWord, "evaluate"),
    ("algset.member", algset.CyclicCoset, "member"),
    ("algset.member", algset.AlgebraicSet, "member"),
    ("algset.CyclicCoset.make", algset.CyclicCoset, "make"),
    ("algset.AlgebraicSet.of", algset.AlgebraicSet, "of"),
    ("embed.Homomorphism.apply", embed.Homomorphism, "apply"),
)

#: names whose calls keep sums only; they call no traced name but leaves
LEAVES = frozenset(
    {
        "words.primitive_root",
        "words.mul",
        "words.pow",
        "onevar.evaluate",
        "algset.member",
        "embed.Homomorphism.apply",
    }
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS + METHODS))


def _ball_size(rank: int, radius: int) -> int:
    return 1 + sum(2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, radius + 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_ball(counts, args, kwargs, result, parent):
    w, radius = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 1, "radius")
    counts["ball_elements"] += _ball_size(len(w.alphabet), radius)
    counts["ball_solutions"] += len(result)


def _count_line(counts, args, kwargs, result, parent):
    counts["lines_reduced"] += 1
    counts["lines_vanishing"] += result.all_integers


def _count_pair(counts, args, kwargs, result, parent):
    if parent == "solver.pairing":
        counts["pairs_tried"] += 1


def _count_substitution(counts, args, kwargs, result, parent):
    if parent == "solver.pairing":
        counts["lines_tried"] += 1


def _count_solve(counts, args, kwargs, result, parent):
    counts["solves"] += 1
    counts["escalations"] += result.escalations
    counts["escalated_solves"] += result.escalations > 0


HOOKS = {
    "onevar.brute_solutions": _count_ball,
    "onevar.reduce_parametric": _count_line,
    "algset.CyclicCoset.make": _count_pair,
    "onevar.substitute_line": _count_substitution,
    "solver.solve": _count_solve,
}

COUNT_NAMES = (
    "ball_elements",
    "ball_solutions",
    "lines_reduced",
    "lines_vanishing",
    "pairs_tried",
    "lines_tried",
    "solves",
    "escalations",
    "escalated_solves",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.op_id = 0
        #: name -> [calls, self seconds]
        self.stats = {name: [0, 0.0] for name in LAYER_NAMES}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        #: seconds covered by calls made directly from an op
        self.top_s = 0.0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_span = 0
        self._t0 = time.perf_counter()

    def install(self) -> None:
        """Wrap every listed function and method in the loaded fgz modules."""
        modules = [m for n, m in sys.modules.items() if n == "fgz" or n.startswith("fgz.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for name, cls, attr in METHODS:
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif raw is not None:
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name, fn):
        stats = self.stats[name]
        leaf = name in LEAVES
        hook = HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if leaf:
                frame = [name, 0.0, 0]
            else:
                tracer._next_span += 1
                frame = [name, 0.0, tracer._next_span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
                if not leaf and tracer.keep_spans:
                    parent = stack[-1][2] if stack else 0
                    tracer.spans.append(
                        (tracer.op_id, frame[2], parent, name, start - tracer._t0, elapsed)
                    )
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, stack[-1][0] if stack else None)
            return result

        return traced

    def snapshot(self) -> dict:
        """Every deterministic count: calls per name and the hook counts."""
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counts)
        return out
