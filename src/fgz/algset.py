"""Closed sets: finite unions of points and cyclic cosets, and the whole group.

A cyclic coset ``a<r>`` is a left translate of a maximal cyclic subgroup;
its root must be primitive, so the subgroup is a full centralizer.  Every
value is canonical on construction, however it is built: a coset orients
its root and minimizes its representative, and a set merges its cosets,
drops points inside them and sorts both.  The named ways in from raw data
are :meth:`CyclicCoset.make` for a (rep, root) pair and
:meth:`AlgebraicSet.of` for points and such pairs.  Two cosets meet in
the labels shared by their folded graphs, at most one.  Canonical forms are
unique, which turns equality and inclusion into structural checks and
makes serialized output reproducible.  The lengths of a coset's elements
are bounded, and the walk over them stopped, in one place:
:meth:`CyclicCoset._data_within`.

The whole group F, the solution set of the trivial equation and the top of
the lattice of closed sets, is an :class:`AlgebraicSet` with ``whole_group``
set and no points or cosets.  At rank 1 a coset ``a<r>`` is all of Z, so a
rank-1 set with a coset becomes F, which then has one form too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Collection, Iterable, Sequence

from .errors import AlphabetError, BallLimitError, ParseError
from .words import (
    MAX_BALL_LETTERS, Alphabet, Word, _ball_data, _concat_data, _invert_data, _primitive_split, _RootSplit,
    _shortlex_less, parse_word,
)


@dataclass(frozen=True)
class CyclicCoset:
    """``rep * <root>``, canonical however it is built.

    The root must be primitive, as a proper power would give a coset of a
    non-maximal cyclic subgroup, not of a centralizer; of it and its inverse
    the shortlex lesser is kept.  The rep becomes the coset's shortlex least
    element, computed directly by :func:`_least_element`.
    """

    rep: Word
    root: Word
    #: the root's :class:`~fgz.words._RootSplit`, found once on construction
    _split: _RootSplit = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rep, root = self.rep, self.root
        if rep.alphabet is not root.alphabet and rep.alphabet != root.alphabet:
            raise AlphabetError("rep and root must share an alphabet")
        split = _primitive_split(root, "coset root must be nontrivial", "; only cosets of maximal cyclic subgroups"
                                 " (full centralizers) are representable - use the primitive root")
        if _shortlex_less((split.ki[0],), (split.k[0],)):
            # ``root^-1 = u k^-1 u^-1`` shares u and the length, so its core decides, and
            # its first letter alone: ``k^-1`` begins with ``-k[-1]``, which is not ``k[0]``
            # as k is cyclically reduced (nor is it when |k| = 1)
            split = split.inverse()
            object.__setattr__(self, "root", Word(root.alphabet, split.power(1)))
        object.__setattr__(self, "_split", split)
        object.__setattr__(self, "rep", _least_element(rep, split))

    @classmethod
    def make(cls, rep: Word, root: Word) -> "CyclicCoset":
        """The coset of a raw (representative, root) pair."""
        return cls(rep, root)

    def elements_within(self, length: int) -> list[Word]:
        """The elements ``rep * root^m`` of length at most ``length``, in order of m:
        the words of :meth:`_data_within`."""
        return [Word(self.alphabet, d) for d in self._data_within(length)]

    def _data_within(self, length: int) -> list[tuple[int, ...]]:
        """The data of the elements ``rep * root^m`` of length at most ``length``, in order of m.

        With ``root = u k u^-1``, k cyclically reduced, and m != 0,
        ``|rep root^m| >= |root^m| - |rep| = 2|u| + |m| |k| - |rep|``, so
        they lie in the window ``|m| <= (length + |rep| - 2|u|) // |k|``;
        a window of ``2 window + 1 <= 4 length + 1`` elements that may keep
        over :data:`~fgz.words.MAX_BALL_LETTERS` letters is refused first.

        The walk goes out from the rep, m = 1, 2, ... and m = -1, -2, ...,
        and stops each side at the first element longer than ``length``.
        This is exact because the rep is the shortlex least element.  Take
        ``p = rep u`` and t as in the lemma of :func:`_least_element`.  If
        t >= |k|, then ``p = p' k^-1`` is reduced, so ``rep = p' k^-1 u^-1``
        is reduced as written and ``rep root = p' u^-1`` is shorter; with k
        for ``root^-1`` likewise.  So t < |k| on both sides, q = 0, and by the
        lemma ``|rep root^m|`` rises strictly for m >= 1 and for m <= -1.
        The rep is also a shortest element, so a shorter ``length`` gives
        none.  Only *a* shortest one: in ``(a^-1)<a b>`` the element b at
        m = 1 ties a^-1 in length, and a^-1 is the rep as the shortlex lesser.
        """
        rep = self.rep.data
        if len(rep) > length:
            return []
        split = self._split
        window = max(0, (length + len(rep) - 2 * len(split.u)) // len(split.k))
        if (letters := (2 * window + 1) * length) > MAX_BALL_LETTERS:
            raise BallLimitError(
                f"coset {self} within length {length:,} has a window of {2 * window + 1:,} elements "
                f"that may keep {letters:,} letters, over the limit of {MAX_BALL_LETTERS:,}"
            )
        sides = []
        for step in (split.power(-1), self.root.data):
            side = []
            d = _concat_data(rep, step)
            while len(d) <= length:
                side.append(d)
                d = _concat_data(d, step)
            sides.append(side)
        below, above = sides
        return [*reversed(below), rep, *above]

    @property
    def alphabet(self) -> Alphabet:
        return self.root.alphabet

    def member(self, g: Word) -> bool:
        """True iff ``rep^-1 * g`` is a power ``root^m`` of the root (m = 0
        included), found by :meth:`~fgz.words._RootSplit.exponent`.

        The canonical form decides most words before ``rep^-1 g`` is built.
        The rep is a shortest element (:meth:`_data_within`), so a shorter g
        is no member; one of the same length may be (b in ``(a^-1)<a b>``).
        Otherwise ``g = rep root^m = p k^m u^-1`` with m != 0, for the split
        ``root = u k u^-1`` and ``p = rep u``.  By the argument of
        :meth:`_data_within` the seam ``p | k^m`` cancels t < |k| letters,
        so some of k^m is left, ending in ``k[-1]``, and it does not cancel
        against ``u^-1``, as ``u k u^-1`` is reduced.  So g ends in
        ``k[-1] u^-1`` for m > 0, and in ``k^-1[-1] u^-1`` for m < 0 likewise;
        a g that ends otherwise is no member.
        """
        rep, d = self.rep.data, g.data
        if len(d) < len(rep):
            return False
        if d == rep:
            return True
        _, ui, k, ki = self._split
        n = len(d) - len(ui)
        if n < 1 or (d[n - 1] != k[-1] and d[n - 1] != ki[-1]) or d[n:] != ui:
            return False
        return self._split.exponent(_concat_data(_invert_data(rep), d)) is not None

    def element(self, m: int) -> Word:
        """``rep * root^m``; a ``root^m`` over :data:`~fgz.words.MAX_PARSE_LETTERS` letters is refused."""
        return Word(self.alphabet, _concat_data(self.rep.data, self._split.checked_power(m)))

    def sort_key(self) -> tuple:
        """The shortlex keys of the rep and the root."""
        return self.rep.sort_key(), self.root.sort_key()

    def __str__(self) -> str:
        return f"({self.rep})<{self.root}>"


def _least_element(rep: Word, split: _RootSplit) -> Word:
    """The shortlex least element ``rep * root^m`` of ``rep<root>``, for the root's split.

    Write ``root = u k u^-1`` with k cyclically reduced and ``p = rep u``,
    so ``rep root^m = p k^m u^-1``.  Let t be the length of the longest
    suffix of p that is also a suffix of the infinite word ``... k^-1 k^-1``.
    For m >= 1 the seam ``p | k^m`` cancels min(t, m|k|) letters.  While
    m|k| < t, what is left of p ends in the inverse of k's first letter;
    while m|k| > t, the product ends in k's last letter.  As ``u k u^-1`` is
    reduced, neither cancels against ``u^-1``, which can cancel further
    only at m|k| = t.  So ``|rep root^m|`` falls strictly up to
    ``q = t // |k|`` and rises strictly from q + 1, and the least element
    with m >= 1 is ``rep root^q`` or ``rep root^(q+1)``.  When t = 0 every
    such element is longer than ``|p| + |u| >= |rep|``.  The same holds for
    ``root^-1 = u k^-1 u^-1``, with t measured against ``... k k``; p's last
    letter ends at most one of the two infinite words, so at most one t is
    nonzero.  The least element is the shortlex least of rep and these.
    """
    u, _, k, ki = split
    p = _concat_data(rep.data, u) if u else rep.data
    n, size = len(p), len(k)
    least = rep.data
    for sign, tail in ((1, ki), (-1, k)):
        t = 0
        while t < n and p[n - 1 - t] == tail[size - 1 - t % size]:
            t += 1
        if t:
            q = t // size
            for m in (q, q + 1):
                if _shortlex_less(d := _concat_data(rep.data, split.power(sign * m)), least):
                    least = d
    return rep if least is rep.data else Word(rep.alphabet, least)


@dataclass(frozen=True)
class AlgebraicSet:
    """Finite union of singleton points and cyclic cosets, or the whole group;
    canonical however it is built.

    The constructor takes points and :class:`CyclicCoset` values over
    ``alphabet``; duplicate cosets are merged, points inside a coset
    dropped, and both sorted.  :meth:`of` takes raw (rep, root) pairs.
    ``whole_group`` gives F, which keeps no points and no cosets.
    """

    alphabet: Alphabet
    points: tuple[Word, ...] = ()
    cosets: tuple[CyclicCoset, ...] = ()
    whole_group: bool = False

    def __post_init__(self):
        # each is read once, so any iterable will do
        alphabet, points, cosets = self.alphabet, tuple(self.points), tuple(self.cosets)
        for p in points:
            if p.alphabet is not alphabet and p.alphabet != alphabet:
                raise AlphabetError("point over a different alphabet")
        for c in cosets:
            if c.alphabet is not alphabet and c.alphabet != alphabet:
                raise AlphabetError("coset over a different alphabet")
        if self.whole_group or (cosets and len(alphabet) == 1):
            # at rank 1 the one maximal cyclic subgroup is F itself
            object.__setattr__(self, "whole_group", True)
            object.__setattr__(self, "points", ())
            object.__setattr__(self, "cosets", ())
            return
        # one component needs no merging; keys are built only to sort, and data tells equal values apart
        if len(cosets) > 1:
            cosets = tuple(sorted({(c.rep.data, c.root.data): c for c in cosets}.values(), key=CyclicCoset.sort_key))
        if points and cosets:
            kept = []
            for p in points:
                for c in cosets:
                    if c.member(p):
                        break
                else:
                    kept.append(p)
            points = tuple(kept)
        if len(points) > 1:
            points = tuple(sorted({p.data: p for p in points}.values(), key=Word.sort_key))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "cosets", cosets)

    @classmethod
    def of(
        cls, alphabet: Alphabet, points: Iterable[Word] = (), cosets: Iterable[tuple[Word, Word]] = ()
    ) -> "AlgebraicSet":
        """The set of ``points`` and of the cosets of raw (rep, root) pairs."""
        return cls(alphabet, points, [CyclicCoset.make(rep, root) for rep, root in cosets])

    @classmethod
    @lru_cache(maxsize=8)
    def empty(cls, alphabet: Alphabet) -> "AlgebraicSet":
        """The empty set; sets are immutable, so one per alphabet is shared."""
        return cls(alphabet)

    @property
    def is_empty(self) -> bool:
        return not (self.whole_group or self.points or self.cosets)

    def member(self, g: Word) -> bool:
        return self.whole_group or g in self.points or any(c.member(g) for c in self.cosets)

    def members_within(self, length: int) -> set[Word]:
        """Members of length at most ``length``: the words of :meth:`_data_within`."""
        return {Word(self.alphabet, d) for d in self._data_within(length)}

    def _data_within(self, length: int) -> Collection[tuple[int, ...]]:
        """The data of the members of length at most ``length``, each once:
        the short points and the :meth:`CyclicCoset._data_within` of each
        coset; for F, the ball, under the limits of
        :func:`~fgz.words.check_ball_limit`.  One component lists each
        member once, so only two or more are merged in a set: merging one
        as well made the coset-solve ops 10% slower."""
        if self.whole_group:
            if length < 0:
                raise ValueError("radius must be >= 0")
            return _ball_data(len(self.alphabet), length)
        parts = [[p.data for p in self.points if len(p) <= length]] if self.points else []
        parts += [c._data_within(length) for c in self.cosets]
        return parts[0] if len(parts) == 1 else {d for part in parts for d in part}

    def __contains__(self, g: Word) -> bool:
        return self.member(g)

    def __str__(self) -> str:
        if self.whole_group:
            return "whole group"
        if self.is_empty:
            return "empty"
        parts = [f"{{{', '.join(str(p) for p in self.points)}}}"] if self.points else []
        parts.extend(str(c) for c in self.cosets)
        return " u ".join(parts)


def _read(edges: list[list[int]], data: Sequence[int], v: int, n: int) -> tuple[int, int]:
    """Read ``data`` from vertex v of a folded graph; return the end vertex and the next fresh vertex.

    ``edges[x][w]`` ends the edge labelled x from w, -1 where there is none: one list per signed
    letter code, negative codes from the end.  Each letter follows the edge there or opens the
    fresh vertex n, n + 1, ... with the edge and its inverse, so the graph stays folded.
    """
    for x in data:
        w = edges[x][v]
        if w < 0:
            w, n = n, n + 1
            edges[x][v], edges[-x][w] = w, v
        v = w
    return v, n


def _coset_graph(c: CyclicCoset) -> tuple[list[list[int]], int]:
    """The folded graph of ``c``, edges as in :func:`_read`, and its start.

    For the split ``root = u k u^-1``, a stem reading u leaves the base 0 and
    a cycle reading k closes at |u|: folded, as ``u k u^-1`` is reduced and k
    cyclically reduced.  Reading ``rep^-1`` from 0 ends at the start.  A reduced word
    labels at most one path from a vertex, so the reduced paths from the start to 0
    read each element once.
    """
    u, _, k, _ = c._split
    edges = [*map(list.copy, [[-1] * (len(u) + len(k) + len(c.rep))] * (2 * len(c.alphabet) + 1))]
    v, n = _read(edges, u + k[:-1], 0, 1)
    edges[k[-1]][v], edges[-k[-1]][len(u)] = len(u), v
    return edges, _read(edges, _invert_data(c.rep.data), 0, n)[0]


def intersect_cosets(c1: CyclicCoset, c2: CyclicCoset) -> AlgebraicSet:
    """Intersection of two cosets over one alphabet, else AlphabetError: a coset, a singleton, or empty.

    Distinct cosets of one subgroup are disjoint.  Distinct canonical roots
    give distinct maximal cyclic subgroups, which meet in 1, so their cosets
    share at most one element: the label of a path from the starts to (0, 0)
    in the product of their :func:`_coset_graph`.  A path of the search tree,
    one predecessor per state, visits no state twice, so it does not turn
    back and reads a reduced word; with no path the cosets are disjoint.
    """
    if c2.alphabet != c1.alphabet:
        raise AlphabetError("operands over different alphabets")
    return AlgebraicSet(c1.alphabet, *_meet(c1, c2, _coset_graph))


def _meet(c1: CyclicCoset, c2: CyclicCoset, graph: Callable[[CyclicCoset], tuple]) -> tuple[tuple, tuple]:
    """The points and the cosets of the intersection of two cosets over one
    alphabet, as :func:`intersect_cosets` finds it; ``graph`` gives the
    :func:`_coset_graph` of a coset."""
    if c1 == c2:
        return (), (c1,)
    if c1.root == c2.root:
        return (), ()
    alphabet = c1.alphabet
    (g1, s1), (g2, s2) = graph(c1), graph(c2)
    letters = [*range(-len(alphabet), 0), *range(1, len(alphabet) + 1)]
    came: dict[tuple[int, int], tuple] = {(s1, s2): ()}
    todo = [(s1, s2)]
    while todo and (0, 0) not in came:
        state = v1, v2 = todo.pop()
        for x in letters:
            if (w1 := g1[x][v1]) >= 0 and (w2 := g2[x][v2]) >= 0 and (w1, w2) not in came:
                came[w1, w2] = (state, x)
                todo.append((w1, w2))
    if (step := came.get((0, 0))) is None:
        return (), ()
    data = []
    while step:
        data.append(step[1])
        step = came[step[0]]
    return (Word(alphabet, tuple(data[::-1])),), ()


def union(s1: AlgebraicSet, s2: AlgebraicSet) -> AlgebraicSet:
    if s1.alphabet != s2.alphabet:
        raise AlphabetError("operands over different alphabets")
    whole = s1.whole_group or s2.whole_group
    return AlgebraicSet(s1.alphabet, s1.points + s2.points, s1.cosets + s2.cosets, whole)


def intersect(s1: AlgebraicSet, s2: AlgebraicSet) -> AlgebraicSet:
    if s1.alphabet != s2.alphabet:
        raise AlphabetError("operands over different alphabets")
    if s1.whole_group or s2.whole_group:
        return s2 if s1.whole_group else s1
    points = [p for p in s1.points if s2.member(p)]
    points += [p for p in s2.points if s1.member(p)]
    cosets: list[CyclicCoset] = []
    # each coset's graph is built once, for the first pair that needs it
    graphs: dict[int, tuple] = {}

    def graph(c: CyclicCoset) -> tuple:
        if (found := graphs.get(id(c))) is None:
            found = graphs[id(c)] = _coset_graph(c)
        return found

    for c1 in s1.cosets:
        for c2 in s2.cosets:
            more_points, more_cosets = _meet(c1, c2, graph)
            points += more_points
            cosets += more_cosets
    return AlgebraicSet(s1.alphabet, points, cosets)


def subset(s1: AlgebraicSet, s2: AlgebraicSet) -> bool:
    """True iff s1 lies in s2.

    Every set lies in F, and F lies in no finite union of points and
    cosets: at rank 1 a set with a coset is F itself, and from rank 2 a
    cyclic subgroup has infinite index, while a group covered by finitely
    many cosets has one of finite index (B. H. Neumann).  A coset meets a
    coset other than itself in at most one element, so a coset of s1
    inside the finite union s2 must be one of its cosets, and canonical
    cosets are equal exactly when they are the same set.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetError("operands over different alphabets")
    if s1.whole_group or s2.whole_group:
        return s2.whole_group
    return all(s2.member(p) for p in s1.points) and all(c in s2.cosets for c in s1.cosets)


@dataclass(frozen=True)
class ChainReport:
    """Result of checking a descending chain of closed sets."""

    descending: bool
    strict_prefix_length: int
    stabilization_index: int
    measure_ok: bool


def chain_check(sets: Sequence[AlgebraicSet]) -> ChainReport:
    """Verify S0 >= S1 >= ... and locate where the chain stabilizes.

    ``strict_prefix_length`` counts the sets in the longest strictly
    decreasing initial run; ``stabilization_index`` is the first index
    after which all sets are equal.  Along every strict inclusion of
    canonical forms the measure (whole group, coset count, point count)
    must strictly lexicographically decrease; ``measure_ok`` records that
    check.
    """
    n = len(sets)
    if n == 0:
        return ChainReport(True, 0, 0, True)
    descending = True
    measure_ok = True
    strict = 1
    strict_run = True
    for i in range(n - 1):
        big, small = sets[i], sets[i + 1]
        step_subset = subset(small, big)
        if not step_subset:
            descending = False
        is_strict = step_subset and small != big
        if strict_run and is_strict:
            strict += 1
        else:
            strict_run = False
        if is_strict:
            m_big = (big.whole_group, len(big.cosets), len(big.points))
            m_small = (small.whole_group, len(small.cosets), len(small.points))
            if not m_small < m_big:
                measure_ok = False
    stab = n - 1
    while stab > 0 and sets[stab - 1] == sets[-1]:
        stab -= 1
    return ChainReport(descending, strict, stab, measure_ok)


def to_json_dict(s: AlgebraicSet) -> dict:
    """The documented JSON shape: points, cosets, whole_group."""
    return {
        "points": [str(p) for p in s.points],
        "cosets": [{"rep": str(c.rep), "root": str(c.root)} for c in s.cosets],
        "whole_group": s.whole_group,
    }


#: the keys a set object may hold: the schema's three, and the two that
#: ``solve`` adds to it, so that its output reads back as a set
_SET_KEYS = ("points", "cosets", "whole_group", "complete_on_radius", "sound")


def _json_keys(d: dict, known: tuple[str, ...], what: str) -> None:
    for key in d:
        if key not in known:
            raise ParseError(f"set JSON {what} has unknown key {key!r}")


def _json_list(d: dict, key: str) -> list:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"set JSON {key!r} must be a list, got {json.dumps(value)}")
    return value


def _json_word(text, alphabet: Alphabet) -> Word:
    if not isinstance(text, str):
        raise ParseError(f"set JSON words must be strings, got {json.dumps(text)}")
    return parse_word(text, alphabet)


def from_json_dict(d: object, alphabet: Alphabet) -> AlgebraicSet:
    """Read the documented JSON shape; any other shape raises :class:`ParseError`."""
    if not isinstance(d, dict):
        raise ParseError(f"set JSON must be an object, got {json.dumps(d)}")
    _json_keys(d, _SET_KEYS, "object")
    whole_group = d.get("whole_group", False)
    if not isinstance(whole_group, bool):
        raise ParseError(f"set JSON 'whole_group' must be a boolean, got {json.dumps(whole_group)}")
    points = [_json_word(t, alphabet) for t in _json_list(d, "points")]
    cosets = []
    for c in _json_list(d, "cosets"):
        if not isinstance(c, dict) or "rep" not in c or "root" not in c:
            raise ParseError(f"set JSON coset {json.dumps(c)} needs a 'rep' and a 'root'")
        _json_keys(c, ("rep", "root"), "coset")
        cosets.append((_json_word(c["rep"], alphabet), _json_word(c["root"], alphabet)))
    if whole_group:
        return AlgebraicSet(alphabet, whole_group=True)
    return AlgebraicSet.of(alphabet, points, cosets)


def from_json_text(text: str, alphabet: Alphabet) -> AlgebraicSet:
    try:
        d = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed set JSON: {exc}") from None
    return from_json_dict(d, alphabet)
