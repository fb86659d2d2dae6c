"""The four benchmark workloads: input universes, seeded draws, ops, outputs.

Each workload draws its inputs from a fixed, finite universe.  Its
reference file (``reference/<name>.txt``, written by
``make_reference.py`` at the seed commit) holds one line per universe
entry: the digest of the op's canonical output and the entry's cost key.
The outputs of any seed can thus be checked byte for byte.

The cost key is an integer that orders entries by the work their op does
at the seed commit: escalation rounds, solutions in the discovery ball
and body length for a solve, coset
count and length for a chain, rank and word length for a witness case.
A seed draws its pool by systematic sampling: the universe, sorted by cost
key, is cut into as many equal blocks as the pool has entries, and one
entry is drawn from each block.  Every seed thus gets the same cost mix,
and the spread between seeds measures the program rather than the draw.

Ops call the library only through module attributes (``solver.solve``,
``algset.union``, ...), so the wrappers that ``tracing`` installs see
every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from fgz import algset, embed, onevar, residual, solver, words

AB = words.Alphabet(("a", "b"))
ABC = words.Alphabet(("a", "b", "c"))
X = AB.extend("x")
VAR = 3  # int code of x in X


def ball_data(rank: int, radius: int) -> list[tuple[int, ...]]:
    """Reduced int-coded words of length <= radius, shortlex order."""
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    out = [()]
    layer = [()]
    for _ in range(radius):
        layer = [w + (v,) for w in layer for v in signed if not w or v != -w[-1]]
        out.extend(layer)
    return out


def reduce_data(parts) -> tuple[int, ...]:
    stack: list[int] = []
    for part in parts:
        for v in part:
            if stack and stack[-1] == -v:
                stack.pop()
            else:
                stack.append(v)
    return tuple(stack)


def inverse(data: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in reversed(data))


def random_data(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    data: list[int] = []
    for _ in range(length):
        data.append(rng.choice([v for v in signed if not data or v != -data[-1]]))
    return tuple(data)


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- solve

CORPUS_CFG = solver.SolveConfig(discovery_radius=3, verify_radius=5)
COSET_CFG = solver.SolveConfig(discovery_radius=4, verify_radius=6)


def corpus_universe() -> list[str]:
    """The acceptance corpus as equation texts (20,013 of them).

    Exhaustive bodies with <= 2 variable occurrences and coefficient
    segments of length <= 2, deduplicated, then 200 random bodies of <= 8
    letters over a, b, x.
    """
    coeffs = ball_data(2, 2)
    signs = ((VAR,), (-VAR,))
    seen: set[tuple[int, ...]] = set()
    bodies: list[tuple[int, ...]] = []

    def add(parts):
        body = reduce_data(parts)
        if body not in seen:
            seen.add(body)
            bodies.append(body)

    for c0 in coeffs:
        add([c0])
        for e1 in signs:
            for c1 in coeffs:
                add([c0, e1, c1])
                for e2 in signs:
                    for c2 in coeffs:
                        add([c0, e1, c1, e2, c2])
    rng = random.Random(1)
    bodies += [random_data(rng, 3, rng.randint(0, 8)) for _ in range(200)]
    return [str(words.Word(X, b)) for b in bodies]


def coset_universe() -> list[str]:
    """Conjugacy equations ``x u x^-1 v^-1`` with ``v = c u c^-1``.

    u runs over the nontrivial words of length <= 4 and c over the words
    of length <= 3 in a, b (8,480 equations).
    """
    out = []
    for u in ball_data(2, 4)[1:]:
        for c in ball_data(2, 3):
            v = reduce_data([c, u, inverse(c)])
            body = reduce_data([(VAR,), u, (-VAR,), inverse(v)])
            out.append(str(words.Word(X, body)))
    return out


def solve_op(cfg: solver.SolveConfig) -> Callable[[str], Any]:
    def op(text: str):
        return solver.solve(onevar.OneVarWord.parse(text, AB), cfg)

    return op


def solve_output(report) -> str:
    return canonical(report.to_json_dict())


# ---------------------------------------------------------- set algebra

CHAIN_UNIVERSE = 5000
CHAIN_LENGTH = 12


def _raw_set(rng: random.Random):
    points = [words.Word(AB, random_data(rng, 2, rng.randint(0, 6))) for _ in range(rng.randint(0, 2))]
    cosets = []
    for _ in range(rng.randint(0, 2)):
        rep = words.Word(AB, random_data(rng, 2, rng.randint(0, 6)))
        root = words.Word(AB, random_data(rng, 2, rng.randint(1, 6))).primitive_root().root
        cosets.append((rep, root))
    return points, cosets


def chain_input(index: int):
    """Twelve raw (points, cosets) sets; the first starts the chain."""
    rng = random.Random(f"set-algebra:{index}")
    return [_raw_set(rng) for _ in range(CHAIN_LENGTH)]


def chain_op(raw_sets):
    """Grow a descending chain by intersection, with union and subset on the way."""
    of = algset.AlgebraicSet.of
    current = of(AB, *raw_sets[0])
    chain = [current]
    unions = []
    subsets = []
    for raw in raw_sets[1:]:
        other = of(AB, *raw)
        unions.append(algset.union(current, other))
        subsets.append(algset.subset(other, current))
        current = algset.intersect(current, other)
        chain.append(current)
        if current.is_empty:
            break
    report = algset.chain_check(chain)
    trips = [algset.from_json_text(json.dumps(algset.to_json_dict(s)), AB) for s in chain]
    return chain, unions, subsets, report, trips


def _set_payload(s) -> dict:
    return {
        "points": [str(p) for p in s.points],
        "cosets": [[str(c.rep), str(c.root)] for c in s.cosets],
    }


def chain_output(result) -> str:
    chain, unions, subsets, report, trips = result
    return canonical(
        {
            "chain": [_set_payload(s) for s in chain],
            "unions": [_set_payload(s) for s in unions],
            "subsets": subsets,
            "report": [
                report.descending,
                report.strict_prefix_length,
                report.stabilization_index,
                report.measure_ok,
            ],
            "round_trip": [t == s for t, s in zip(trips, chain)],
        }
    )


# ------------------------------------------------------------ witnesses

WITNESS_UNIVERSE = 1000
WITNESS_RADIUS = 3
FRESH_LETTERS = ("d", "f", "g", "h", "k")


def witness_input(index: int):
    """(source, target, word): every third entry has rank 3, the rest rank 2.

    The target has 3-5 letters, shares 1..rank letters with the source
    and has enough fresh letters to host any support injectively.
    """
    rank = 3 if index % 3 == 2 else 2
    source = AB if rank == 2 else ABC
    rng = random.Random(f"witnesses:{index}")
    size = rng.randint(3, 5)
    common = rng.sample(source.names, rng.randint(1, min(rank, size)))
    fresh = rng.sample(FRESH_LETTERS, size - len(common))
    target = words.Alphabet(sorted(common + fresh))
    g = words.Word(source, random_data(rng, rank, rng.randint(1, 24)))
    return source, target, g


def witness_op(case):
    source, target, g = case
    report = embed.check_mono_on_ball(source, target, WITNESS_RADIUS)
    rep = residual.separate(g)
    return report, rep, residual.apply_perm_rep(rep, g)


def witness_output(result) -> str:
    report, rep, image = result
    return canonical(
        {
            "report": [
                report.index_count,
                report.ball_size,
                report.checked,
                report.injective,
                report.fixes_common_letters,
                list(report.failures),
            ],
            "degree": rep.degree,
            "letters": [p.cycle_notation() for p in rep.letter_images],
            "image": image.cycle_notation(),
        }
    )


# ------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    #: the universe entries, in reference-file order
    universe: Callable[[], Sequence[Any]]
    #: op input for a universe entry
    make_input: Callable[[Any], Any]
    op: Callable[[Any], Any]
    #: canonical output text of an op result
    output: Callable[[Any], str]
    #: cost key of an entry, from its op input and its seed-commit result
    cost_key: Callable[[Any, Any], int]
    pool_size: int
    #: (alphabet, radius) balls the ops walk, built during set-up
    balls: tuple[tuple[words.Alphabet, int], ...]

    def digest(self, result) -> str:
        """The reference-file digest of an op result."""
        return hashlib.sha256(self.output(result).encode()).hexdigest()[:8]

    def pool(self, seed: int, cost_keys: Sequence[int]) -> list[tuple[int, Any]]:
        """(universe index, op input) pairs drawn for ``seed``, one per cost block."""
        n, size = len(cost_keys), self.pool_size
        ordered = sorted(range(n), key=lambda i: (cost_keys[i], i))
        rng = random.Random(f"{self.name}:{seed}")
        picked = [ordered[rng.randrange(b * n // size, (b + 1) * n // size)] for b in range(size)]
        rng.shuffle(picked)
        universe = self.universe()
        return [(i, self.make_input(universe[i])) for i in picked]


def _identity(x):
    return x


def _solve_key(cfg: solver.SolveConfig) -> Callable[[str, Any], int]:
    """Escalation rounds, then solutions in the discovery ball, then body length."""

    def key(text, report) -> int:
        w = onevar.OneVarWord.parse(text, AB)
        found = len(onevar.brute_solutions(w, cfg.discovery_radius))
        return 10000 * report.escalations + 100 * min(found, 99) + len(w.body)

    return key


def _chain_key(raw_sets, result) -> int:
    length = len(result[0])
    return 100 * sum(len(cosets) for _, cosets in raw_sets[:length]) + length


def _witness_key(case, _) -> int:
    source, _, g = case
    return 100 * len(source) + len(g)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-solve", corpus_universe, _identity, solve_op(CORPUS_CFG),
                 solve_output, _solve_key(CORPUS_CFG), 2000, ((AB, 3), (AB, 5), (AB, 7))),
        Workload("coset-solve", coset_universe, _identity, solve_op(COSET_CFG),
                 solve_output, _solve_key(COSET_CFG), 30, ((AB, 4), (AB, 6), (AB, 8))),
        Workload("set-algebra", lambda: range(CHAIN_UNIVERSE), chain_input, chain_op,
                 chain_output, _chain_key, 1200, ()),
        Workload("witnesses", lambda: range(WITNESS_UNIVERSE), witness_input, witness_op,
                 witness_output, _witness_key, 72, ((AB, 3), (ABC, 3))),
    )
}
