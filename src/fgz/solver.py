"""Solve one-variable equations over a free group.

The solution set of ``w = 1`` is computed in coset normal form, in
rounds at a discovery radius and a larger verification radius.  Each
round reads the solutions in the verification ball, as int data, from
one of two sources.  When the body's cyclic core has the shape of a
closed form, or the abelianization rules the word out,
:func:`exact_solution_set` gives the whole set (empty, one point, or one
cyclic coset) and the solutions are its members in the ball.  Otherwise
one walk of the ball with the brute-force oracle finds them; it
evaluates only the ball elements that the abelianization or the image in
the finite quotient PSL(2, 7) does not rule out.

The round keeps the solutions in the smaller discovery ball and returns
exactly when the list, as data, of the solutions its answer misses is
empty; otherwise the discovery radius escalates, and the last round's
list, in shortlex order, is the mismatch an exhausted escalation reports.
With fewer than two kept, whatever the source, they are the answer, as
points, and the list is the others.  So an empty exact set is the first
round's answer, at the verification radius, and is returned before any
round reads member data.  Two or more kept make an exact set the answer.
From an oracle walk, every pair of them proposes a cyclic line, and each
proposed line is verified symbolically by parametric reduction; lines
that vanish identically become cosets, the rest contribute isolated
solutions; only pairing has a pair limit.  The list is then the walk's
solutions outside the discovery ball that the assembled set rejects.
Nothing else can be missing, as the discovered solutions are its points,
and none of its members in the ball is other than a walk solution: its
points are walk solutions or zeros that parametric reduction found by
exact evaluation, and a coset joins only when its line's normalized
block form is empty.

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
from itertools import combinations

from .algset import AlgebraicSet, CyclicCoset, to_json_dict
from .errors import AlphabetError, SolverError
from .onevar import OneVarWord, abelian_constraint, brute_solutions, reduce_parametric, substitute_line
from .words import Word, _core_start, _invert_data, _letters_text, _reduce_data, _shortlex_key, _split_root

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


def verify_against_oracle(w: OneVarWord, s: AlgebraicSet, radius: int) -> OracleReport:
    """Compare ``s`` with the brute-force solutions on a ball.

    As every solution lies in the ball, ``missing`` (solutions not
    members) and ``extra`` (members not solutions) are exact.  Both are
    in shortlex order.  ``s`` must be over the alphabet of ``w``.
    """
    if s.alphabet != w.alphabet:
        raise AlphabetError("operands over different alphabets")
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
    ``x^+1``, and rotate it to the first start of a syllable ``x^m``, m > 0,
    taken cyclically.  Each step keeps the solution set, as it conjugates or
    inverts ``w(g)``: the core v of ``u v u^-1`` by ``u(g)``, a rotation
    ``q p = p^-1 (p q) p`` by ``p(g)``.
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
      ``x0 = ud t^-1 u1^-1`` and ``r = u1 k1[:p] u1^-1`` the primitive root
      of c1, p the least period of k1, as ``x0^-1 x`` must centralize c1.

    The counts of x and x^-1 in the core tell the shapes apart: all of them
    in the leading syllable make ``x^m c``, and two in two syllables make
    ``x c1 x c2`` or ``x c1 x^-1 c2``.

    A core of no such shape that is a proper power ``v^k`` is split again as
    v, its primitive root, which keeps the start at ``x^m``: F is torsion-free,
    so ``v(g)^k = 1`` exactly when ``v(g) = 1``.  Other cores give None.
    """
    if not w.contains_variable:
        return None
    vc, alphabet = w._var_code, w.alphabet
    if abelian_constraint(w) is None:
        return AlgebraicSet.empty(alphabet)
    data = w.body.data
    i = _core_start(data)
    core = data[i : len(data) - i]
    if vc not in core:
        core = _invert_data(core)
        if vc not in core:  # no x in the core: m = 0
            return AlgebraicSet.empty(alphabet)
    i = core.index(vc)
    if not i and core[-1] == vc:
        # the run at 0 wraps past the end, so the first start is the next x after it
        i = 1
        while i < len(core) and core[i] == vc:
            i += 1
        i = core.index(vc, i) if i < len(core) else 0
    core = core[i:] + core[:i]
    while True:
        plus, minus = core.count(vc), core.count(-vc)
        if not minus and core[:plus] == (vc,) * plus:
            # every occurrence is in the leading run: x^m c with m = plus
            x = _root(Word(alphabet, _invert_data(core[plus:])), plus)
            return AlgebraicSet.empty(alphabet) if x is None else AlgebraicSet(alphabet, (x,))
        if plus + minus == 2:
            break  # two occurrences in two runs: the leading run is one x
        dec = Word(w.body.alphabet, core).primitive_root()
        if dec.exponent == 1:
            return None
        core = dec.root.data
    j = core.index(-vc) if minus else core.index(vc, 1)
    c1, c2 = core[1:j], core[j + 1 :]
    if not minus:
        c1, c2 = Word(alphabet, c1), Word(alphabet, c2)
        y = _root(~c2 * c1, 2)
        return AlgebraicSet.empty(alphabet) if y is None else AlgebraicSet(alphabet, (y * ~c1,))
    s1, sd = _split_root(c1), _split_root(c2).inverse()
    k1, kd = s1.k, sd.k
    text = _letters_text(k1)
    twice = text + text
    shift = twice.find(_letters_text(kd)) if len(k1) == len(kd) else -1
    if shift < 0:
        return AlgebraicSet.empty(alphabet)
    x0 = Word(alphabet, _reduce_data((sd.u, _invert_data(k1[:shift]), s1.ui)))
    # the least period of k1, as _RootSplit.period finds it, on the text built once
    root = Word(alphabet, s1.u + k1[: twice.find(text, 1)] + s1.ui)
    return AlgebraicSet(alphabet, (), (CyclicCoset.make(x0, root),))


def _candidate_components(w: OneVarWord, discovered: list[Word]) -> tuple[list[CyclicCoset], list[Word]]:
    """Turn ball solutions into verified cosets and extra verified points.

    Each unordered pair ``g, h`` of distinct solutions, g listed first,
    proposes the cyclic line through g in the direction of the primitive
    root r of ``g^-1 h``; lines are deduplicated by canonical coset before
    the symbolic check.  The reverse order would add nothing: with
    ``h = g r^k`` it proposes ``h<r^-1> = g<r>``, the same coset.  Other
    lines add ``g r^m`` for each m of :func:`reduce_parametric`, exactly
    where they vanish, but none that is already a discovered solution.
    Over :data:`MAX_PAIRS` ordered pairs are refused.
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
    known = set(discovered)
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
            extra_points.extend([p for m in solutions.values if (p := g * root ** m) not in known])
    return cosets, extra_points


def solve(w: OneVarWord, cfg: SolveConfig | None = None) -> SolveReport:
    """Solution set of ``w = 1`` in coset normal form.

    Words without the variable are degenerate: the solution set is the
    whole group when the coefficient word is trivial and empty otherwise.

    Each round reads the solutions in the verification ball as data, from
    the :func:`exact_solution_set` or an oracle walk, and returns exactly
    when its answer misses none of them.  Fewer than two in the discovery
    ball are the answer, as points.  Two or more make an exact set the
    answer, or else the set that pairing, alone under :data:`MAX_PAIRS`,
    assembles: its points are walk solutions or zeros that exact evaluation
    found, and a coset joins only when its line's normalized block form is
    empty, so its members in the ball are walk solutions, and only the
    walk's solutions outside the discovery ball need a membership test.
    Only the walk builds a ball, so only it refuses one.  An empty exact
    set is its first round written out, with no member data read.
    """
    cfg = cfg or SolveConfig()
    if not w.contains_variable:
        return SolveReport(AlgebraicSet(w.alphabet, whole_group=w.body.is_identity), cfg.verify_radius, 0)
    exact, alphabet = exact_solution_set(w), w.alphabet
    if exact is not None and exact.is_empty:
        return SolveReport(exact, cfg.verify_radius, 0)

    discovery = cfg.discovery_radius
    gap = cfg.verify_radius - discovery
    for escalation in range(MAX_ESCALATIONS + 1):
        radius = discovery + gap
        # as data: an exact set's members become words only as the points the round returns or reports
        if exact is None:
            solutions = brute_solutions(w, radius)
            found = [g.data for g in solutions]
        else:
            found = exact._data_within(radius)
        discovered = [d for d in found if len(d) <= discovery]
        if len(discovered) < 2:
            missing = [d for d in found if len(d) > discovery]
            if not missing:
                return SolveReport(AlgebraicSet(alphabet, [Word(alphabet, d) for d in discovered]), radius, escalation)
        elif exact is not None:
            # pairing would prove exactly this set
            return SolveReport(exact, radius, escalation)
        else:
            points = solutions[: len(discovered)]  # the walk lists them in shortlex order
            cosets, extra_points = _candidate_components(w, points)
            result = AlgebraicSet(alphabet, points + extra_points, cosets)
            missing = [g.data for g in solutions[len(points) :] if not result.member(g)]
            if not missing:
                return SolveReport(result, radius, escalation)
        discovery += 2
    shown = [str(Word(alphabet, d)) for d in sorted(missing, key=_shortlex_key)]
    raise SolverError(
        f"escalation exhausted with persistent oracle mismatch at radius {radius}: missing={shown} extra=[]; "
        f"the discovery radius went from {cfg.discovery_radius} to {discovery - 2} in "
        f"MAX_ESCALATIONS = {MAX_ESCALATIONS} escalations; re-run with a larger --radius"
    )
