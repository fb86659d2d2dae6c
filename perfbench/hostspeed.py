"""Host speed, measured by a fixed kernel run between the ops.

The host's speed for the same code swings by 1.5-2.5x, and a slow phase
can last tens of seconds, longer than a whole run.  The fastest of
several sweeps does not undo that.  So the ops are interleaved with
*calibration units*: a fixed piece of pure-Python work that does not call
the library.  The time a unit takes, divided by ``UNIT_S``, is the host's
slowdown at that moment, and the benchmark divides the op times measured
around it by that slowdown.  The times it reports are thus seconds on a host where
one unit takes ``UNIT_S``.

A unit is the free reduction of fixed integer words on one reused list:
the interpreter loop, list push/pop and integer compares that the word
kernels of the library also spend their time on.  It allocates no tuple,
list or other object the garbage collector tracks, so its time does not
depend on the heap the library has built, and a unit never triggers a
collection the ops caused.
"""

from __future__ import annotations

import random
import time

#: seconds one unit takes at the reference speed (close to the fastest this
#: kernel runs, about 92 us, on a 2-core Intel Xeon VM under CPython 3.11)
UNIT_S = 100e-6
#: op seconds between two calibration chunks
SEGMENT_S = 0.1
#: units in one calibration chunk (about 25 ms at the reference speed)
CHUNK_UNITS = 250


def _words():
    rng = random.Random(0)
    out = []
    for _ in range(41):
        word: list[int] = []
        for _ in range(rng.randint(8, 24)):
            word.append(rng.choice([v for v in (1, -1, 2, -2, 3, -3) if not word or v != -word[-1]]))
        out.append(tuple(word))
    return tuple(out[:-1]), out[-1]


_WORDS, _TAIL = _words()


def run_units(n: int) -> float:
    """Seconds that ``n`` calibration units take now."""
    stack: list[int] = []
    push, pop, clear = stack.append, stack.pop, stack.clear
    tail = _TAIL
    acc = 0
    start = time.perf_counter()
    for _ in range(n):
        for word in _WORDS:
            for v in word:
                if stack and stack[-1] == -v:
                    pop()
                else:
                    push(v)
            for v in tail:
                if stack and stack[-1] == -v:
                    pop()
                else:
                    push(v)
            acc += len(stack)
            clear()
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the work observable
        raise AssertionError
    return elapsed


def slowdown(units: int) -> float:
    """The host's slowdown now, from ``units`` calibration units."""
    return run_units(units) / (units * UNIT_S)


class Meter:
    """Slowdown of the host at each op of a sweep.

    Consecutive ops whose times add up to ``SEGMENT_S`` form a segment, and
    a chunk of ``CHUNK_UNITS`` calibration units runs after each segment
    (and once at the start).  Every op of a segment gets the mean slowdown
    of the chunks before and after it.  A chunk is long enough that the
    cold start after an op is lost in it; units run after every short op
    would measure that cold start instead of the host.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.last = slowdown(CHUNK_UNITS)
        self.ops = 0
        self.op_s = 0.0

    def after_op(self, seconds: float) -> None:
        self.ops += 1
        self.op_s += seconds
        if self.op_s >= SEGMENT_S:
            self._close()

    def _close(self) -> None:
        if self.ops:
            now = slowdown(CHUNK_UNITS)
            self.factors += [(self.last + now) / 2] * self.ops
            self.last = now
        self.ops = 0
        self.op_s = 0.0

    def take(self) -> list[float]:
        """The slowdown of every op since the last call, in op order."""
        self._close()
        out, self.factors = self.factors, []
        return out
