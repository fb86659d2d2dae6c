"""Finite separation witnesses: map a nontrivial word to a symmetric group.

The states 0..L are the vertices of the trivial subgroup's folded graph with
the word read in from the base 0 (:func:`fgz.algset._read`).  Each letter's
edges are a partial injection, completed to a permutation.  The homomorphism
moves state 0 to L on the word, so its image is not the identity: every
nontrivial element is separated from the identity in a finite quotient.

The representation has degree L + 1, so the image of the word itself,
which the CLI prints, composes L permutations of degree L + 1: the work
grows as L^2.  :func:`separate` refuses words over
:data:`MAX_SEPARATE_LETTERS` letters before it builds anything.

Every finite image in the package goes through the tuple kernels here:
:func:`_perm_table` gives each signed letter code its image tuple, and
:func:`_fold` sends points through a word's letters in reading order.
The PSL(2, 7) filter of :mod:`fgz.onevar` uses them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algset import _read
from .errors import AlphabetError, IdentityWordError, SeparationLimitError
from .words import Alphabet, Word, _signed_code_table

#: Most letters a word may have for :func:`separate`.  At the limit the CLI
#: call ``fgz separate`` takes about 2 s on a 2-core host.
MAX_SEPARATE_LETTERS = 7_500


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; ``images[i]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

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


def _inverse(images: Sequence[int]) -> tuple[int, ...]:
    """The inverse of the permutation with these images."""
    out = [0] * len(images)
    for i, v in enumerate(images):
        out[v] = i
    return tuple(out)


def _perm_table(degree: int, perms: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Image tuples of the signed letter codes, a :func:`~fgz.words._signed_code_table`;
    ``perms[i]`` is the image tuple of letter i + 1."""
    return _signed_code_table(tuple(range(degree)), perms, _inverse)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """``p`` then ``q``: the image of a word whose prefix maps to p and whose rest maps to q."""
    return tuple([q[i] for i in p])


def _fold(table: Sequence[tuple[int, ...]], data: Sequence[int], images: list[int]) -> list[int]:
    """The points ``images`` sent through the letters of ``data`` in reading
    order, each letter's image tuple ``table[v]`` of :func:`_perm_table`, so
    that ``a b`` sends i to ``b(a(i))``; composed on one list."""
    for v in data:
        p = table[v]
        images = [p[i] for i in images]
    return images


def apply_perm_rep(rep: PermRep, w: Word) -> Permutation:
    """Image of a word: its letters' images applied in reading order (:func:`_fold`)."""
    if w.alphabet != rep.alphabet:
        raise AlphabetError("word is not over the representation's alphabet")
    table = _perm_table(rep.degree, [p.images for p in rep.letter_images])
    return Permutation(tuple(_fold(table, w.data, list(range(rep.degree)))))


def separate(g: Word) -> PermRep:
    """A permutation representation of degree |g| + 1 not killing g.

    States are the vertices of the trivial subgroup's folded graph with g
    read in from the base 0 by :func:`~fgz.algset._read`; free sources of a
    letter's edges pair with its free targets in increasing order.  Each
    letter of the reduced g opens a fresh state, and the permutations lead
    from state 0 to |g|; a failed check of either raises AssertionError,
    also under ``python -O``.  Words over :data:`MAX_SEPARATE_LETTERS`
    letters raise :class:`~fgz.errors.SeparationLimitError` before anything is built.
    """
    if g.is_identity:
        raise IdentityWordError("cannot separate the identity from itself")
    if len(g) > MAX_SEPARATE_LETTERS:
        raise SeparationLimitError(
            f"word has {len(g):,} letters, over the separation limit of {MAX_SEPARATE_LETTERS:,}"
        )
    degree = len(g) + 1
    edges = [*map(list.copy, [[-1] * degree] * (2 * len(g.alphabet) + 1))]
    if _read(edges, g.data, 0, 1) != (len(g), degree):
        raise AssertionError("reading g must open a fresh state at every letter")
    perms = []
    for x in range(1, len(g.alphabet) + 1):
        free_targets = iter([i for i, s in enumerate(edges[-x]) if s < 0])
        perms.append(tuple([d if d >= 0 else next(free_targets) for d in edges[x]]))
    if _fold(_perm_table(degree, perms), g.data, [0]) != [len(g)]:
        raise AssertionError("prefix path must lead from state 0 to state L")
    return PermRep(g.alphabet, degree, tuple([Permutation(p) for p in perms]))
