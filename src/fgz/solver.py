"""Solve one-variable equations over a free group.

The solution set of ``w = 1`` is computed in coset normal form.  Each
round walks the verification ball once with the brute-force oracle,
which evaluates only the ball elements that the abelianization or the
image in the finite quotient PSL(2, 7) does not rule out.  The
solutions inside the smaller discovery ball are a prefix of that walk's
shortlex-ordered output; every pair of them proposes a cyclic line, and
each proposed line is verified symbolically by parametric reduction.
Lines that vanish identically become cosets; the rest contribute
isolated solutions.  The assembled set's members in the ball are then
compared, as a finite set, with the whole walk's solutions, escalating
the discovery radius on mismatch.

Soundness is unconditional: every emitted component is symbolically
verified.  Completeness is certified only relative to the verification
radius, which the report records; no effective bound on the number of
components in terms of the word length is known, so no global claim is
made.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, takewhile
from typing import Union

from .algset import WHOLE_GROUP, AlgebraicSet, CyclicCoset, _WholeGroupType, to_json_dict
from .errors import SolverError
from .onevar import OneVarWord, brute_solutions, reduce_parametric, substitute_line
from .words import Word

DEFAULT_DISCOVERY_RADIUS = 6
DEFAULT_MAX_ESCALATIONS = 3
DEFAULT_MAX_PAIRS = 5000


@dataclass(frozen=True)
class SolveConfig:
    discovery_radius: int = DEFAULT_DISCOVERY_RADIUS
    verify_radius: int | None = None
    max_escalations: int = DEFAULT_MAX_ESCALATIONS
    max_pairs: int = DEFAULT_MAX_PAIRS

    def __post_init__(self):
        for name in ("discovery_radius", "max_escalations", "max_pairs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.verify_radius is not None and self.verify_radius < self.discovery_radius:
            raise ValueError("verify_radius must be >= discovery_radius")

    @property
    def effective_verify_radius(self) -> int:
        if self.verify_radius is None:
            return self.discovery_radius + 2
        return self.verify_radius


@dataclass(frozen=True)
class OracleReport:
    """Discrepancies between a candidate set and the brute-force oracle."""

    match: bool
    missing: tuple[Word, ...]
    extra: tuple[Word, ...]
    radius: int


@dataclass(frozen=True)
class SolveReport:
    result: Union[AlgebraicSet, _WholeGroupType]
    complete_on_radius: int
    escalations: int
    sound: bool = True

    @property
    def whole_group(self) -> bool:
        return self.result is WHOLE_GROUP

    def to_json_dict(self) -> dict:
        d = to_json_dict(self.result)
        d["complete_on_radius"] = self.complete_on_radius
        d["sound"] = self.sound
        return d


def verify_against_oracle(
    w: OneVarWord, s: AlgebraicSet, radius: int, solutions: list[Word] | None = None
) -> OracleReport:
    """Compare ``s`` with the brute-force solutions on a ball.

    ``solutions`` is ``brute_solutions(w, radius)`` when the caller has it
    already.  The members of ``s`` in the ball are its short points and
    :meth:`CyclicCoset.elements_within` of each coset; as every solution
    lies in the ball, ``missing`` (solutions not members) and ``extra``
    (members not solutions) are exact.  Both are in shortlex order.
    """
    if solutions is None:
        solutions = brute_solutions(w, radius)
    members = {p for p in s.points if len(p) <= radius}
    for c in s.cosets:
        members.update(c.elements_within(radius))
    missing = tuple(g for g in solutions if g not in members)
    extra = tuple(sorted(members.difference(solutions), key=Word.sort_key))
    return OracleReport(not missing and not extra, missing, extra, radius)


def _candidate_components(
    w: OneVarWord, discovered: list[Word], max_pairs: int
) -> tuple[list[CyclicCoset], list[Word]]:
    """Turn ball solutions into verified cosets and extra verified points.

    Each unordered pair ``g, h`` of distinct solutions, g listed first,
    proposes the cyclic line through g in the direction of the primitive
    root r of ``g^-1 h``; lines are deduplicated by canonical coset before
    the symbolic check.  The reverse order would add nothing: with
    ``h = g r^k`` it proposes ``h<r^-1> = g<r>``, the same coset.
    """
    n = len(discovered)
    if n * (n - 1) > max_pairs:
        raise SolverError(
            f"oversize discovery: {n} ball solutions give {n * (n - 1) // 2} candidate pairs, and "
            f"n(n-1) = {n * (n - 1)} is over max_pairs = {max_pairs}; re-run with a smaller discovery radius"
        )
    cosets: list[CyclicCoset] = []
    extra_points: list[Word] = []
    seen_lines: set[CyclicCoset] = set()
    for g, h in combinations(discovered, 2):
        root = (~g * h).primitive_root().root
        line = CyclicCoset.make(g, root)
        if line in seen_lines:
            continue
        seen_lines.add(line)
        solutions = reduce_parametric(substitute_line(w, g, root))
        if solutions.all_integers:
            cosets.append(line)
        else:
            for m in solutions.values:
                candidate = g * root ** m
                if w.evaluate(candidate).is_identity:
                    extra_points.append(candidate)
    return cosets, extra_points


def solve(w: OneVarWord, cfg: SolveConfig | None = None) -> SolveReport:
    """Solution set of ``w = 1`` in coset normal form.

    Words without the variable are degenerate: the solution set is the
    whole group when the coefficient word is trivial and empty otherwise.

    Each round makes one oracle walk, at the verification radius.  Its
    solutions are in shortlex order, so the discovery solutions are the
    prefix of those with length at most the discovery radius; the whole
    walk then feeds verification.
    """
    cfg = cfg or SolveConfig()
    verify_radius = cfg.effective_verify_radius
    if not w.contains_variable:
        result = WHOLE_GROUP if w.body.is_identity else AlgebraicSet.empty(w.alphabet)
        return SolveReport(result, verify_radius, 0)

    discovery = cfg.discovery_radius
    gap = verify_radius - discovery
    last_report = None
    for escalation in range(cfg.max_escalations + 1):
        solutions = brute_solutions(w, discovery + gap)
        discovered = list(takewhile(lambda g: len(g) <= discovery, solutions))
        cosets, extra_points = _candidate_components(w, discovered, cfg.max_pairs)
        result = AlgebraicSet.of(w.alphabet, discovered + extra_points, cosets)
        last_report = verify_against_oracle(w, result, discovery + gap, solutions)
        if last_report.match:
            return SolveReport(result, last_report.radius, escalation)
        discovery += 2
    raise SolverError(
        "escalation exhausted with persistent oracle mismatch at radius "
        f"{last_report.radius}: missing={[str(g) for g in last_report.missing]} "
        f"extra={[str(g) for g in last_report.extra]}"
    )
