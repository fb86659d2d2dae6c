"""Closed sets: finite unions of points and cyclic cosets, and the whole group.

A cyclic coset ``a<r>`` is a left translate of a maximal cyclic subgroup;
its root must be primitive, so the subgroup is a full centralizer.  Every
value is canonical on construction, however it is built: a coset orients
its root and minimizes its representative, and a set merges its cosets,
drops points inside them and sorts both.  The named ways in from raw data
are :meth:`CyclicCoset.make` for a (rep, root) pair and
:meth:`AlgebraicSet.of` for points and such pairs.  Intersections are
exact, by the cyclic centralizers of a free group.  Canonical forms are
unique, which turns equality and inclusion into structural checks and
makes serialized output reproducible.  The lengths of a
coset's elements are bounded once, in :meth:`CyclicCoset.elements_within`.

The whole group F, the solution set of the trivial equation and the top of
the lattice of closed sets, is an :class:`AlgebraicSet` with ``whole_group``
set and no points or cosets.  At rank 1 a coset ``a<r>`` is all of Z, so a
rank-1 set with a coset becomes F, which then has one form too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Sequence

from .errors import AlphabetError, BallLimitError, ParseError, RootError
from .onevar import ParametricWord, PowerBlock, reduce_parametric
from .words import (
    MAX_BALL_LETTERS, Alphabet, Word, _concat_data, _invert_data, _reduce_data, enumerate_ball, parse_word
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

    def __post_init__(self):
        rep, root = self.rep, self.root
        if rep.alphabet != root.alphabet:
            raise AlphabetError("rep and root must share an alphabet")
        if root.is_identity:
            raise RootError("coset root must be nontrivial")
        dec = root.primitive_root()
        if dec.exponent != 1:
            raise RootError(
                f"root {root} is a proper power ({dec.root})^{dec.exponent}; "
                "only cosets of maximal cyclic subgroups (full centralizers) "
                "are representable - use the primitive root"
            )
        if ~root < root:
            root = ~root
            object.__setattr__(self, "root", root)
        object.__setattr__(self, "rep", _least_element(rep, root))

    @classmethod
    def make(cls, rep: Word, root: Word) -> "CyclicCoset":
        """The coset of a raw (representative, root) pair."""
        return cls(rep, root)

    def elements_within(self, length: int) -> list[Word]:
        """The elements ``rep * root^m`` of length at most ``length``, in order of m.

        With ``root = u core u^-1``, core cyclically reduced, and m != 0,
        ``|rep root^m| >= |root^m| - |rep| = 2|u| + |m| |core| - |rep|``,
        so they lie in the window ``|m| <= (length + |rep| - 2|u|) // |core|``,
        which always holds m = 0.  One running product walks it.  The rep is
        the shortest element, so a shorter ``length`` gives none.  Before the
        walk, a window of ``2 window + 1 <= 4 length + 1`` elements that may
        keep over :data:`~fgz.words.MAX_BALL_LETTERS` letters is refused.
        """
        if len(self.rep) > length:
            return []
        cyc = self.root.cyclic_decomposition()
        window = max(0, (length + len(self.rep) - 2 * len(cyc.conjugator)) // len(cyc.core))
        if (letters := (2 * window + 1) * length) > MAX_BALL_LETTERS:
            raise BallLimitError(
                f"coset {self} within length {length:,} has a window of {2 * window + 1:,} elements "
                f"that may keep {letters:,} letters, over the limit of {MAX_BALL_LETTERS:,}"
            )
        walk = accumulate(repeat(self.root, 2 * window), mul, initial=self.rep * self.root ** -window)
        return [g for g in walk if len(g) <= length]

    @property
    def alphabet(self) -> Alphabet:
        return self.root.alphabet

    def member(self, g: Word) -> bool:
        """True iff ``rep^-1 * g`` is a power of the root (zeroth included)."""
        h = ~self.rep * g
        if h.is_identity:
            return True
        dec = h.primitive_root()
        return dec.root == self.root or dec.root == ~self.root

    def element(self, m: int) -> Word:
        return self.rep * self.root ** m

    def sort_key(self) -> tuple:
        return (self.rep.sort_key(), self.root.sort_key())

    def __str__(self) -> str:
        return f"({self.rep})<{self.root}>"


def _least_element(rep: Word, root: Word) -> Word:
    """The shortlex least element ``rep * root^m`` of ``rep<root>``.

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
    cyc = root.cyclic_decomposition()
    u, k = cyc.conjugator.data, cyc.core.data
    p, u_inv = _concat_data(rep.data, u), _invert_data(u)
    n, size = len(p), len(k)
    k_inv = _invert_data(k)
    candidates = [rep]
    for core, tail in ((k, k_inv), (k_inv, k)):
        t = 0
        while t < n and p[n - 1 - t] == tail[size - 1 - t % size]:
            t += 1
        if t:
            q = t // size
            candidates += [Word(rep.alphabet, _reduce_data((p, core * m, u_inv))) for m in (q, q + 1)]
    return min(candidates, key=Word.sort_key)


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
        alphabet = self.alphabet
        for p in self.points:
            if p.alphabet != alphabet:
                raise AlphabetError("point over a different alphabet")
        canon: dict[tuple, CyclicCoset] = {}
        for c in self.cosets:
            if c.alphabet != alphabet:
                raise AlphabetError("coset over a different alphabet")
            canon[c.sort_key()] = c
        if self.whole_group or (canon and len(alphabet) == 1):
            # at rank 1 the one maximal cyclic subgroup is F itself
            object.__setattr__(self, "whole_group", True)
            object.__setattr__(self, "points", ())
            object.__setattr__(self, "cosets", ())
            return
        cosets = [canon[k] for k in sorted(canon)]
        kept: dict[tuple, Word] = {}
        for p in self.points:
            if not any(c.member(p) for c in cosets):
                kept[p.sort_key()] = p
        object.__setattr__(self, "points", tuple([kept[k] for k in sorted(kept)]))
        object.__setattr__(self, "cosets", tuple(cosets))

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
        """Members of length at most ``length``: the short points and the
        :meth:`CyclicCoset.elements_within` of each coset; for F, the ball,
        under the limits of :func:`~fgz.words.check_ball_limit`."""
        if self.whole_group:
            return set(enumerate_ball(self.alphabet, length))
        members = {p for p in self.points if len(p) <= length}
        for c in self.cosets:
            members.update(c.elements_within(length))
        return members

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


def intersect_cosets(c1: CyclicCoset, c2: CyclicCoset) -> AlgebraicSet:
    """Intersection of two cosets: a coset, a singleton, or empty.

    Equal cosets meet in themselves; distinct cosets of one subgroup are
    disjoint.  Otherwise ``c1.rep c1.root^n`` is in ``c2`` exactly when
    ``h c1.root^n``, ``h = c2.rep^-1 c1.rep``, commutes with ``c2.root``, as
    its centralizer is ``<c2.root>``.  :func:`reduce_parametric` gives the n
    exactly; two would put a power of ``c1.root`` in ``<c2.root>``.
    """
    alphabet = c1.alphabet
    if c1 == c2:
        return AlgebraicSet(alphabet, (), (c1,))
    if c1.root == c2.root:
        return AlgebraicSet.empty(alphabet)
    h, r1, r2 = ~c2.rep * c1.rep, c1.root, c2.root
    blocks = (h, PowerBlock(1, 0), r2, PowerBlock(-1, 0), ~h * ~r2)
    found = reduce_parametric(ParametricWord(alphabet, r1, blocks))
    if found.all_integers or len(found.values) > 1:
        raise AssertionError(f"{c1} and {c2} share {found}, but centralizers in a free group are cyclic")
    return AlgebraicSet(alphabet, tuple([c1.element(n) for n in found.values]))


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
    for c1 in s1.cosets:
        for c2 in s2.cosets:
            piece = intersect_cosets(c1, c2)
            points.extend(piece.points)
            cosets.extend(piece.cosets)
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
