"""Finite separation witnesses: map a nontrivial word to a symmetric group.

The word's prefixes become states 0..L; each letter contributes the
partial injection that advances the state along its occurrences, and the
partial maps complete to permutations.  The resulting homomorphism moves
state 0 to L on the input word, so the image of the word is not the
identity: every nontrivial element is separated from the identity in a
finite quotient.

The representation has degree L + 1, so the image of the word itself,
which the CLI prints, composes L permutations of degree L + 1: the work
grows as L^2.  :func:`separate` refuses words over
:data:`MAX_SEPARATE_LETTERS` letters before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetError, IdentityWordError, SeparationLimitError
from .words import Alphabet, Word, _signed_code_table

#: Most letters a word may have for :func:`separate`.  At the limit the CLI
#: call ``fgz separate`` takes about 2 s on a 2-core host.
MAX_SEPARATE_LETTERS = 7_500


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; ``images[i]`` is the image of i.

    Products compose left to right: ``(p * q)(i) == q(p(i))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple([other.images[v] for v in self.images]))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(tuple(out))

    def cycle_notation(self) -> str:
        seen = set()
        cycles = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cycle = [start]
            seen.add(start)
            i = self.images[start]
            while i not in seen:  # ends also on images that are not a permutation
                cycle.append(i)
                seen.add(i)
                i = self.images[i]
            cycles.append("(" + " ".join(str(c) for c in cycle) + ")")
        return "".join(cycles) or "()"

    def __repr__(self) -> str:
        return f"<Permutation {self.cycle_notation()}>"


@dataclass(frozen=True)
class PermRep:
    """One permutation per alphabet letter; extends freely to all words."""

    alphabet: Alphabet
    degree: int
    letter_images: tuple[Permutation, ...]

    def image_of_letter(self, name: str) -> Permutation:
        return self.letter_images[self.alphabet.index(name)]


def _code_images(rep: PermRep) -> list[tuple[int, ...]]:
    """Image tuples of the signed letter codes, a :func:`~fgz.words._signed_code_table`."""
    return [p.images for p in _signed_code_table(Permutation(()), rep.letter_images, Permutation.inverse)]


def apply_perm_rep(rep: PermRep, w: Word) -> Permutation:
    """Image of a word: the product of letter images in reading order, composed on one list."""
    if w.alphabet != rep.alphabet:
        raise AlphabetError("word is not over the representation's alphabet")
    table = _code_images(rep)
    images = list(range(rep.degree))
    for v in w.data:
        p = table[v]
        images = [p[i] for i in images]
    return Permutation(tuple(images))


def separate(g: Word) -> PermRep:
    """A permutation representation of degree |g| + 1 not killing g.

    States are the prefixes of g.  Letter maps send state i to i + 1 when
    the (i+1)-th signed letter is the letter itself, and i + 1 to i when
    it is the inverse; unmatched states pair up in increasing order.
    Because g is reduced the partial maps are injections, which is
    checked at runtime, as is the path from state 0 to state |g|; a failed
    check raises AssertionError, also under ``python -O``.
    Words over :data:`MAX_SEPARATE_LETTERS` letters raise
    :class:`~fgz.errors.SeparationLimitError` before anything is built.
    """
    if g.is_identity:
        raise IdentityWordError("cannot separate the identity from itself")
    if len(g) > MAX_SEPARATE_LETTERS:
        raise SeparationLimitError(
            f"word has {len(g):,} letters, over the separation limit of {MAX_SEPARATE_LETTERS:,}"
        )
    degree = len(g) + 1
    partial: list[dict[int, int]] = [{} for _ in g.alphabet.names]
    used: list[set[int]] = [set() for _ in g.alphabet.names]
    for pos, v in enumerate(g.data):
        src, dst = (pos, pos + 1) if v > 0 else (pos + 1, pos)
        m, targets = partial[abs(v) - 1], used[abs(v) - 1]
        if src in m:
            raise AssertionError("prefix-path map got two images for one state")
        if dst in targets:
            raise AssertionError("prefix-path map got two sources for one state")
        m[src] = dst
        targets.add(dst)
    perms = []
    for m, targets in zip(partial, used):
        free_sources = [i for i in range(degree) if i not in m]
        free_targets = [i for i in range(degree) if i not in targets]
        m.update(zip(free_sources, free_targets))
        perms.append(Permutation(tuple([m[i] for i in range(degree)])))
    rep = PermRep(g.alphabet, degree, tuple(perms))
    table = _code_images(rep)
    state = 0
    for v in g.data:
        state = table[v][state]
    if state != len(g):
        raise AssertionError("prefix path must lead from state 0 to state L")
    return rep
