"""Solve one-variable equations over a free group.

The solution set of ``w = 1`` is computed in coset normal form, in
rounds at a discovery radius and a larger verification radius.  Each
round takes the solutions in the verification ball.  When the body's
cyclic core has the shape of a closed form, or the abelianization rules
the word out, :func:`exact_solution_set` gives the whole set (empty, one
point, or one cyclic coset) and the solutions are its members in the
ball.  Otherwise one walk of the ball with the brute-force oracle finds
them; it evaluates only the ball elements that the abelianization or the
image in the finite quotient PSL(2, 7) does not rule out.

The solutions inside the smaller discovery ball are a prefix of that
shortlex-ordered list.  From an oracle walk, every pair of them proposes
a cyclic line, and each proposed line is verified symbolically by
parametric reduction; lines that vanish identically become cosets, the
rest contribute isolated solutions; only pairing has a pair limit.  The
assembled set's members in the ball are then compared, as a finite set,
with the round's solutions, escalating the discovery radius on mismatch.
An exact set is itself the answer once two of its members lie in the
discovery ball, as pairing would prove exactly its coset and the
comparison could only match; with fewer, its discovered points are
compared.  Both paths give the same output.

Soundness is unconditional: every emitted component is proved, by
parametric reduction or by the closed forms.  Completeness is certified
only relative to the verification radius, which the report records; no
effective bound on the number of components in terms of the word length
is known for three or more occurrences in the core; no global claim is made.

A nonzero exponent sum sigma of the variable makes ``g -> w(g)`` injective,
so ``w = 1`` has at most one solution: the oracle walk stops at the first,
and pairing never forms a pair.  In the lower central series G_1 = F,
G_(i+1) = [G_i, F], each z in G_i is central modulo G_(i+1), so
``w(g z) = w(g) z^sigma`` modulo G_(i+1).  If ``w(g) = w(h)`` and
``z = g^-1 h`` lies in G_i, then z^sigma lies in G_(i+1), and so does z,
as ``G_i / G_(i+1)`` is free abelian.  From G_1 = F, z lies in every G_i,
whose intersection is trivial (Magnus; Magnus-Karrass-Solitar,
*Combinatorial Group Theory*, ch. 5), so g = h.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, takewhile

from .algset import AlgebraicSet, CyclicCoset, to_json_dict
from .errors import SolverError
from .onevar import OneVarWord, abelian_constraint, brute_solutions, reduce_parametric, substitute_line
from .words import Word, _invert_data, _letters_text

DEFAULT_DISCOVERY_RADIUS = 6
#: Escalations of the discovery radius, by 2 each, before a persistent oracle mismatch is an error.
MAX_ESCALATIONS = 3
#: Ordered pairs of discovered solutions that pairing may form; more is an "oversize discovery" error.
#: It cannot happen for a nonzero exponent sum of the variable, which allows one solution at most.
MAX_PAIRS = 5000


@dataclass(frozen=True)
class SolveConfig:
    """The discovery radius and the verification radius (default: discovery + 2)."""

    discovery_radius: int = DEFAULT_DISCOVERY_RADIUS
    verify_radius: int | None = None

    def __post_init__(self):
        if self.discovery_radius < 0:
            raise ValueError("discovery_radius must be >= 0")
        if self.verify_radius is None:
            object.__setattr__(self, "verify_radius", self.discovery_radius + 2)
        elif self.verify_radius < self.discovery_radius:
            raise ValueError("verify_radius must be >= discovery_radius")


@dataclass(frozen=True)
class OracleReport:
    """Discrepancies between a candidate set and the brute-force oracle."""

    match: bool
    missing: tuple[Word, ...]
    extra: tuple[Word, ...]
    radius: int


@dataclass(frozen=True)
class SolveReport:
    result: AlgebraicSet
    complete_on_radius: int
    escalations: int

    def to_json_dict(self) -> dict:
        d = to_json_dict(self.result)
        d["complete_on_radius"] = self.complete_on_radius
        d["sound"] = True
        return d


def verify_against_oracle(
    w: OneVarWord, s: AlgebraicSet, radius: int, solutions: list[Word] | None = None
) -> OracleReport:
    """Compare ``s`` with the brute-force solutions on a ball.

    ``solutions`` is ``brute_solutions(w, radius)`` when the caller has it
    already.  As every solution lies in the ball, ``missing`` (solutions
    not members) and ``extra`` (members not solutions) are exact.  Both
    are in shortlex order.
    """
    if solutions is None:
        solutions = brute_solutions(w, radius)
    members = s.members_within(radius)
    missing = tuple([g for g in solutions if g not in members])
    extra = tuple(sorted(members.difference(solutions), key=Word.sort_key))
    return OracleReport(not missing and not extra, missing, extra, radius)


def _root(d: Word, m: int) -> Word | None:
    """The m-th root of d, or None; unique, as a z with ``z^m = d`` commutes with d."""
    if m == 1 or d.is_identity:
        return d
    dec = d.primitive_root()
    return None if dec.exponent % m else dec.root ** (dec.exponent // m)


def exact_solution_set(w: OneVarWord) -> AlgebraicSet | None:
    """The whole solution set of ``w = 1`` when the body's cyclic core has a closed form, else None.

    None without the variable; the empty set at once if the abelianization
    rules the word out (:func:`abelian_constraint`).  Otherwise take the
    cyclic core of the body over the letters and x, invert it if it has no
    ``x^+1``, and rotate it to begin at a syllable ``x^m``, m > 0.  Each step
    keeps the solution set, as it conjugates or inverts ``w(g)``: the core v
    of ``u v u^-1`` by ``u(g)``, a rotation ``q p = p^-1 (p q) p`` by ``p(g)``.
    In a free group roots are unique (:func:`_root`), and cyclically reduced
    conjugates are rotations of each other (Lyndon-Schupp, *Combinatorial
    Group Theory*, ch. I).  So:

    - a core without x (m = 0) is a nontrivial coefficient word: empty;
    - ``x^m c``: x is the m-th root of c^-1, if any;
    - ``x c1 x c2``: ``y = x c1`` is the square root of ``c2^-1 c1``, if any;
    - ``x c1 x^-1 c2``: with ``d = c2^-1 = ud kd ud^-1`` and ``c1 = u1 k1 u1^-1``
      (k1, kd cyclically reduced), ``x c1 x^-1 = d`` is solvable exactly when
      kd is a rotation ``s t = t^-1 k1 t`` of ``k1 = t s``, which one string
      search finds in linear time.  The solutions are then ``x0<r>``, with
      ``x0 = ud t^-1 u1^-1`` and r the primitive root of c1, as ``x0^-1 x``
      must centralize c1.

    A core of no such shape that is a proper power ``v^k`` is split again as
    v, its primitive root, which keeps the start at ``x^m``: F is torsion-free,
    so ``v(g)^k = 1`` exactly when ``v(g) = 1``.  Other cores give None.
    """
    if not w.contains_variable:
        return None
    vc, alphabet = w._var_code, w.alphabet
    if abelian_constraint(w) is None:
        return AlgebraicSet.empty(alphabet)
    core = w.body.cyclic_decomposition().core.data
    if vc not in core:
        core = _invert_data(core)
    i = next((i for i, v in enumerate(core) if v == vc and core[i - 1] != vc), 0)
    core = core[i:] + core[:i]
    while True:
        m = next((j for j, v in enumerate(core) if v != vc), len(core))
        rest = core[m:]
        hits = [j for j, v in enumerate(rest) if abs(v) == vc]
        if not hits:
            x = _root(Word(alphabet, _invert_data(rest)), m) if m else None
            return AlgebraicSet(alphabet, () if x is None else (x,))
        if m == 1 and len(hits) == 1:
            break
        dec = Word(w.body.alphabet, core).primitive_root()
        if dec.exponent == 1:
            return None
        core = dec.root.data
    (j,) = hits
    c1, c2 = Word(alphabet, rest[:j]), Word(alphabet, rest[j + 1 :])
    if rest[j] == vc:
        y = _root(~c2 * c1, 2)
        return AlgebraicSet(alphabet, () if y is None else (y * ~c1,))
    c1_cyc, d_cyc = c1.cyclic_decomposition(), (~c2).cyclic_decomposition()
    k1, kd = c1_cyc.core.data, d_cyc.core.data
    shift = (_letters_text(k1) * 2).find(_letters_text(kd)) if len(k1) == len(kd) else -1
    if shift < 0:
        return AlgebraicSet.empty(alphabet)
    x0 = d_cyc.conjugator * ~Word(alphabet, k1[:shift]) * ~c1_cyc.conjugator
    return AlgebraicSet(alphabet, (), (CyclicCoset.make(x0, c1.primitive_root().root),))


def _candidate_components(w: OneVarWord, discovered: list[Word]) -> tuple[list[CyclicCoset], list[Word]]:
    """Turn ball solutions into verified cosets and extra verified points.

    Each unordered pair ``g, h`` of distinct solutions, g listed first,
    proposes the cyclic line through g in the direction of the primitive
    root r of ``g^-1 h``; lines are deduplicated by canonical coset before
    the symbolic check.  The reverse order would add nothing: with
    ``h = g r^k`` it proposes ``h<r^-1> = g<r>``, the same coset.  Other
    lines add ``g r^m`` for each m of :func:`reduce_parametric`, exactly
    where they vanish.  Over :data:`MAX_PAIRS` ordered pairs are refused.
    """
    n = len(discovered)
    if n * (n - 1) > MAX_PAIRS:
        raise SolverError(
            f"oversize discovery: {n} ball solutions give {n * (n - 1) // 2} candidate pairs, and "
            f"n(n-1) = {n * (n - 1)} is over MAX_PAIRS = {MAX_PAIRS}; re-run with a smaller discovery radius"
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
            extra_points.extend(g * root ** m for m in solutions.values)
    return cosets, extra_points


def solve(w: OneVarWord, cfg: SolveConfig | None = None) -> SolveReport:
    """Solution set of ``w = 1`` in coset normal form.

    Words without the variable are degenerate: the solution set is the
    whole group when the coefficient word is trivial and empty otherwise.

    Each round takes the solutions in the verification ball in shortlex
    order, so the discovery solutions are the prefix of those with length
    at most the discovery radius; the whole list then feeds verification.
    When :func:`exact_solution_set` knows the whole set, the solutions
    are its members in the ball, and the set is returned once two lie in
    the discovery ball; otherwise an oracle walk at the verification
    radius finds them and pairing, alone under :data:`MAX_PAIRS`, proposes
    the lines.  Both give the same output, as the oracle's solutions are
    the exact set's members and pairing proves exactly the exact set's
    coset.  Only the walk builds a ball, so only it refuses one.
    """
    cfg = cfg or SolveConfig()
    if not w.contains_variable:
        return SolveReport(AlgebraicSet(w.alphabet, whole_group=w.body.is_identity), cfg.verify_radius, 0)
    exact = exact_solution_set(w)

    discovery = cfg.discovery_radius
    gap = cfg.verify_radius - discovery
    last_report = None
    for escalation in range(MAX_ESCALATIONS + 1):
        radius = discovery + gap
        if exact is None:
            solutions = brute_solutions(w, radius)
        else:
            solutions = sorted(exact.members_within(radius), key=Word.sort_key)
        discovered = list(takewhile(lambda g: len(g) <= discovery, solutions))
        if exact is None:
            cosets, extra_points = _candidate_components(w, discovered)
            result = AlgebraicSet(w.alphabet, discovered + extra_points, cosets)
        elif len(discovered) > 1:
            # pairing would prove exactly this set, so the oracle check could only match
            return SolveReport(exact, radius, escalation)
        else:
            result = AlgebraicSet(w.alphabet, discovered)
        last_report = verify_against_oracle(w, result, radius, solutions)
        if last_report.match:
            return SolveReport(result, last_report.radius, escalation)
        discovery += 2
    raise SolverError(
        "escalation exhausted with persistent oracle mismatch at radius "
        f"{last_report.radius}: missing={[str(g) for g in last_report.missing]} "
        f"extra={[str(g) for g in last_report.extra]}; the discovery radius went from "
        f"{cfg.discovery_radius} to {discovery - 2} in MAX_ESCALATIONS = {MAX_ESCALATIONS} escalations; "
        "re-run with a larger --radius"
    )
