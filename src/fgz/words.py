"""Exact arithmetic in finitely generated free groups.

Elements are reduced words over a fixed ordered alphabet.  Internally a
word is a tuple of nonzero ints: the i-th alphabet letter is stored as
``i + 1`` and its inverse as ``-(i + 1)``, so a pair of adjacent letters
cancels exactly when the two ints sum to zero.  Reduced tuples are unique
per group element, which makes equality, hashing and ordering structural.

Two primitives reduce products: :func:`_reduce_data` for the product of
any number of reduced pieces, which every n-ary product in the package
goes through, and :func:`_concat_data` for the binary ``Word.__mul__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AlphabetError,
    BallLimitError,
    IdentityWordError,
    ParseError,
    WholeGroupError,
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TERM_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")

#: Names that may never be letters: they denote the identity in word text.
RESERVED_NAMES = ("1", "e")

#: Entries kept by each per-ball cache: distinct (rank, radius) pairs.
BALL_CACHE_SIZE = 8

#: Most letters a word may expand to before reduction, in parsing or in evaluation.
MAX_PARSE_LETTERS = 10**6

#: Most elements a ball may have; a larger one is refused before it is built.
MAX_BALL_ELEMENTS = 10**6

#: Most letters a ball's words may hold in total.  It binds only at rank 1,
#: where radius R holds R (R + 1) letters in just 2 R + 1 elements.
MAX_BALL_LETTERS = 10**7


class Alphabet:
    """Ordered finite set of generator names.

    The declaration order is canonical: it drives word ordering, ball
    enumeration and every tie-break downstream.
    """

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if name in RESERVED_NAMES:
                raise AlphabetError(f"letter name {name!r} is reserved for the identity")
            if not _IDENT_RE.match(name):
                raise AlphabetError(f"invalid letter name {name!r}")
            if name in seen:
                raise AlphabetError(f"duplicate letter {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self.names

    def __repr__(self):
        return f"Alphabet({', '.join(self.names)})"

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError(f"unknown identifier {name!r} (alphabet: {', '.join(self.names)})") from None

    def value(self, name: str, sign: int = 1) -> int:
        """Internal int code of a signed letter."""
        return (self.index(name) + 1) * (1 if sign > 0 else -1)

    def identity(self) -> "Word":
        return Word(self, ())

    def letter(self, name: str, sign: int = 1) -> "Word":
        return Word(self, (self.value(name, sign),))

    def extend(self, name: str) -> "Alphabet":
        """New alphabet with one extra letter appended (codes are stable)."""
        return Alphabet(self.names + (name,))


def _reduce_data(pieces: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Reduced product of int-coded pieces, each of them already reduced.

    The output stays reduced and so does each piece, so letters cancel
    only at the seam between the output and the next piece.
    """
    out: list[int] = []
    for p in pieces:
        if out and p and out[-1] == -p[0]:
            j, n = 1, len(p)
            out.pop()
            while out and j < n and out[-1] == -p[j]:
                out.pop()
                j += 1
            out.extend(p[j:])
        else:
            out.extend(p)
    return tuple(out)


def _concat_data(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two already-reduced sequences: cancel across the seam only."""
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _invert_data(a: tuple[int, ...]) -> tuple[int, ...]:
    # Hot kernels build tuples from lists: tuple() of a generator allocates
    # ten slots and resizes, which drains the interpreter's size-10 tuple
    # free list into the others, and those then hold memory until a full
    # garbage collection.
    return tuple([-v for v in reversed(a)])


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word; the element type of the free group on ``alphabet``.

    ``data`` must already be reduced.  Use :meth:`from_letters` or
    :func:`parse_word` to build words from arbitrary input.
    """

    alphabet: Alphabet
    data: tuple[int, ...] = ()

    @classmethod
    def from_letters(cls, alphabet: Alphabet, letters: Iterable[tuple[str, int]]) -> "Word":
        """Reduce a sequence of (name, sign) pairs into a word."""
        return cls(alphabet, _reduce_data([(alphabet.value(n, s),) for n, s in letters]))

    @property
    def is_identity(self) -> bool:
        return not self.data

    @property
    def signed_letters(self) -> tuple[tuple[str, int], ...]:
        names = self.alphabet.names
        return tuple((names[abs(v) - 1], 1 if v > 0 else -1) for v in self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def _check_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetError(
                f"operands over different alphabets: {self.alphabet!r} vs {other.alphabet!r}"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._check_same_alphabet(other)
        return Word(self.alphabet, _concat_data(self.data, other.data))

    def __invert__(self) -> "Word":
        return Word(self.alphabet, _invert_data(self.data))

    def __pow__(self, k: int) -> "Word":
        if k == 0 or not self.data:
            return Word(self.alphabet, ())
        dec = self.cyclic_decomposition()
        core = dec.core.data if k > 0 else _invert_data(dec.core.data)
        u = dec.conjugator.data
        # u . core^|k| . u^-1 is reduced as written (core cyclically reduced,
        # seams inherited from the reduced original).
        return Word(self.alphabet, u + core * abs(k) + _invert_data(u))

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * ~u

    def commutator(self, other: "Word") -> "Word":
        return self * other * ~self * ~other

    def support(self) -> frozenset[str]:
        """Letters occurring in the reduced form."""
        names = self.alphabet.names
        return frozenset(names[abs(v) - 1] for v in self.data)

    def sort_key(self) -> tuple:
        """Canonical order: length first, then letter index, then sign (+ before -)."""
        return (len(self.data), tuple([(abs(v) - 1, 0 if v > 0 else 1) for v in self.data]))

    def __lt__(self, other: "Word") -> bool:
        self._check_same_alphabet(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other

    def cyclic_decomposition(self) -> "CyclicDecomposition":
        """Split into ``u * core * u^-1`` with the core cyclically reduced."""
        data = self.data
        i, j = 0, len(data)
        while j - i >= 2 and data[i] == -data[j - 1]:
            i += 1
            j -= 1
        return CyclicDecomposition(Word(self.alphabet, data[:i]), Word(self.alphabet, data[i:j]))

    def primitive_root(self) -> "RootDecomposition":
        """The unique primitive r and k >= 1 with ``r**k == self``.

        Cyclically reduce, find the least p > 0 where the core recurs in the
        core twice over (a rotation by p, so p is a period), conjugate back.
        """
        if not self.data:
            raise IdentityWordError("the identity has no primitive root")
        dec = self.cyclic_decomposition()
        c, u = dec.core.data, dec.conjugator.data
        text = _letters_text(c)
        p = (text + text).find(text, 1)
        root = self if p == len(c) else Word(self.alphabet, u + c[:p] + _invert_data(u))
        return RootDecomposition(root, len(c) // p)

    def commutes_with(self, other: "Word") -> bool:
        """Two elements commute iff they are powers of one primitive word."""
        if not self.data or not other.data:
            return True
        r = self.primitive_root().root
        s = other.primitive_root().root
        return r == s or r == ~s

    def __str__(self) -> str:
        if not self.data:
            return "1"
        names = self.alphabet.names
        parts = []
        i = 0
        data = self.data
        while i < len(data):
            v = data[i]
            j = i
            while j < len(data) and data[j] == v:
                j += 1
            exp = (j - i) if v > 0 else -(j - i)
            name = names[abs(v) - 1]
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Word {str(self)!r}>"


@dataclass(frozen=True, slots=True)
class CyclicDecomposition:
    """``word == conjugator * core * conjugator^-1`` with core cyclically reduced."""

    conjugator: Word
    core: Word


@dataclass(frozen=True, slots=True)
class RootDecomposition:
    """``root ** exponent == word`` with root primitive (not a proper power)."""

    root: Word
    exponent: int


def _letters_text(data: tuple[int, ...]) -> str:
    """One character per letter code, distinct codes to distinct characters,
    so that rotation and period searches on words run as string searches."""
    return "".join([chr(v % 0x110000) for v in data])


def _signed_code_table(identity, images: Sequence, invert: Callable) -> list:
    """A table indexed by signed letter codes: entry v is the value of code v.

    ``images[i]`` is the value of code i + 1 and entry 0 is ``identity``;
    negative codes index from the end, where the inverses sit in reverse.
    """
    return [identity, *images, *[invert(x) for x in reversed(images)]]


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse word text: whitespace-separated IDENT or IDENT^INT terms.

    ``"1"`` or ``"e"`` alone denote the identity.  Exponents must be
    nonzero integers, and their absolute values may sum to at most
    :data:`MAX_PARSE_LETTERS`.  The result is reduced.

    >>> al = Alphabet(("a", "b"))
    >>> str(parse_word("a b^-1 a", al))
    'a b^-1 a'
    >>> str(parse_word("a a^-1", al))
    '1'
    """
    stripped = text.strip()
    if stripped in RESERVED_NAMES:
        return alphabet.identity()
    if not stripped:
        raise ParseError("empty word text (use '1' or 'e' for the identity)")
    pieces: list[tuple[int, ...]] = []
    total = 0
    for term in stripped.split():
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"malformed term {term!r}")
        name, exp_text = m.group(1), m.group(2)
        try:
            exp = 1 if exp_text is None else int(exp_text)
        except ValueError:  # more digits than int() converts: far over the limit
            raise ParseError(f"exponent of {name!r} is over the limit of {MAX_PARSE_LETTERS}") from None
        if exp == 0:
            raise ParseError(f"malformed exponent in {term!r}: must be nonzero")
        if (total := total + abs(exp)) > MAX_PARSE_LETTERS:
            raise ParseError(f"exponents sum to at least {total}, over the limit of {MAX_PARSE_LETTERS}")
        pieces.append((alphabet.value(name, 1 if exp > 0 else -1),) * abs(exp))
    return Word(alphabet, _reduce_data(pieces))


def centralizer(b: Word) -> Word:
    """Primitive r with ``<r>`` = all elements commuting with ``b``.

    The centralizer of a nontrivial element is the maximal cyclic
    subgroup around it, generated by the primitive root.
    """
    if b.is_identity:
        raise WholeGroupError("centralizer of identity is the whole group")
    return b.primitive_root().root


@lru_cache(maxsize=BALL_CACHE_SIZE)
def check_ball_limit(rank: int, radius: int) -> None:
    """Raise :class:`BallLimitError` if the radius ball is too big to walk.

    The ball is refused past :data:`MAX_BALL_ELEMENTS` elements, then past
    :data:`MAX_BALL_LETTERS` letters; at rank >= 2 both are counted to
    radius 64 at most, far past the limits.  Passing (rank, radius) pairs
    are cached, so a caller that checks without walking pays a lookup.
    """
    capped = min(radius, 64) if rank > 1 else radius
    more = "" if capped == radius else "more than "
    for count, unit, limit in (
        (ball_size(rank, capped), "elements", MAX_BALL_ELEMENTS),
        (_ball_letters(rank, capped), "letters", MAX_BALL_LETTERS),
    ):
        if count > limit:
            raise BallLimitError(
                f"ball of radius {radius} at rank {rank} has {more}{count:,} {unit}, over the limit of {limit:,}"
            )


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _ball_data(rank: int, radius: int) -> tuple[tuple[int, ...], ...]:
    """All reduced int-tuples of length <= radius, in shortlex order.

    Balls over the limits of :func:`check_ball_limit` are refused first.
    """
    check_ball_limit(rank, radius)
    if radius <= 0:
        return ((),)
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    out: list[tuple[int, ...]] = [()]
    layer: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in layer:
            last = w[-1] if w else 0
            for v in signed:
                if v != -last:
                    nxt.append(w + (v,))
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def _ball_layers(rank: int, radius: int) -> Iterator[tuple[int, int, int]]:
    """``(start, size, fan)`` for each layer of :func:`_ball_data` past the empty word.

    Layer i is ``ball[start:start + size]``, the words of length i.  The
    ball lists the children of each word of one layer together and in that
    layer's order (2 * rank children of the empty word, 2 * rank - 1 of any
    other), so ``ball[start + j]`` is the (j // fan)-th word of the layer
    before with one letter appended.  A walk that extends a value from
    prefix to word therefore keeps only one layer of values.
    """
    start, size, fan = 1, 2 * rank, 2 * rank
    for _ in range(radius):
        yield start, size, fan
        start += size
        fan = 2 * rank - 1
        size *= fan


def enumerate_ball(alphabet: Alphabet, radius: int) -> list[Word]:
    """All reduced words of length <= radius, each once, shortlex order.

    For rank k the count is 1 + sum_{i=1..R} 2k (2k-1)^(i-1).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return [Word(alphabet, d) for d in _ball_data(len(alphabet), radius)]


def ball_size(rank: int, radius: int) -> int:
    """Closed formula for the size of a reduced-word ball (the series in :func:`enumerate_ball`)."""
    if rank < 2 or radius <= 0:
        return 1 + 2 * rank * max(radius, 0)
    return 1 + rank * ((2 * rank - 1) ** radius - 1) // (rank - 1)


def _ball_letters(rank: int, radius: int) -> int:
    """Total letters of a ball's words: layer i holds 2k (2k-1)^(i-1) words of i letters."""
    if rank < 2:
        return rank * radius * (radius + 1)
    return sum(i * 2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, radius + 1))
