"""Exact arithmetic in finitely generated free groups.

Elements are reduced words over a fixed ordered alphabet.  Internally a
word is a tuple of nonzero ints: the i-th alphabet letter is stored as
``i + 1`` and its inverse as ``-(i + 1)``, so a pair of adjacent letters
cancels exactly when the two ints sum to zero.  Reduced tuples are unique
per group element, which makes equality, hashing and ordering structural.

Two primitives reduce products: :func:`_reduce_data` for the product of
any number of reduced pieces, which every n-ary product in the package
goes through, and :func:`_concat_data` for the binary ``Word.__mul__``;
:func:`parse_word` cancels each term against its output as it reads.
Powers of a root ``r = u k u^-1``, k cyclically reduced, are written once,
in its split :class:`_RootSplit`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    AlphabetError,
    BallLimitError,
    EvaluationLimitError,
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

#: Most letters a word may expand to before reduction, in parsing or in evaluation, or have as a power.
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

    __slots__ = ("names", "_codes")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        codes: dict[str, int] = {}
        for name in names:
            if name in RESERVED_NAMES:
                raise AlphabetError(f"letter name {name!r} is reserved for the identity")
            if not _IDENT_RE.match(name):
                raise AlphabetError(f"invalid letter name {name!r}")
            if name in codes:
                raise AlphabetError(f"duplicate letter {name!r}")
            codes[name] = len(codes) + 1
        object.__setattr__(self, "names", names)
        #: name -> int code of the letter, the one lookup table of parsing
        object.__setattr__(self, "_codes", codes)

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
            return self._codes[name] - 1
        except KeyError:
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

    ``data`` must already be reduced.  Use :func:`parse_word` to build
    words from arbitrary input.
    """

    alphabet: Alphabet
    data: tuple[int, ...] = ()

    @property
    def is_identity(self) -> bool:
        return not self.data

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

    def __pow__(self, m: int) -> "Word":
        """``self^m``; over :data:`MAX_PARSE_LETTERS` letters it is refused before it is built."""
        if m == 0 or not self.data:
            return Word(self.alphabet, ())
        return Word(self.alphabet, _split_root(self.data).checked_power(m))

    def support(self) -> frozenset[str]:
        """Letters occurring in the reduced form."""
        names = self.alphabet.names
        return frozenset(names[abs(v) - 1] for v in self.data)

    def sort_key(self) -> tuple:
        """Canonical order: length first, then letter index, then sign (+ before -): :func:`_shortlex_key`."""
        return _shortlex_key(self.data)

    def __lt__(self, other: "Word") -> bool:
        self._check_same_alphabet(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other

    def primitive_root(self) -> "RootDecomposition":
        """The unique primitive r and k >= 1 with ``r**k == self``.

        Split off the cyclic core, take its least period p (a rotation by
        p, :meth:`_RootSplit.period`), conjugate back.
        """
        if not self.data:
            raise IdentityWordError("the identity has no primitive root")
        u, ui, k, _ = split = _split_root(self.data)
        p = split.period()
        root = self if p == len(k) else Word(self.alphabet, u + k[:p] + ui)
        return RootDecomposition(root, len(k) // p)

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
class RootDecomposition:
    """``root ** exponent == word`` with root primitive (not a proper power)."""

    root: Word
    exponent: int


class _RootSplit(NamedTuple):
    """The data of u, ``u^-1``, k and ``k^-1`` for a root ``r = u k u^-1``, k cyclically reduced.

    For m > 0, ``r^m`` is ``u k^m u^-1`` and ``r^-m`` is ``u (k^-1)^m u^-1``,
    both reduced as written: k^m and (k^-1)^m are, as k is cyclically
    reduced, and their seams with u and u^-1 are those of the reduced words
    ``u k u^-1`` and ``u k^-1 u^-1``, the root and its inverse.  So a
    nontrivial power has exactly ``2|u| + |m| |k|`` letters.
    """

    u: tuple[int, ...]
    ui: tuple[int, ...]
    k: tuple[int, ...]
    ki: tuple[int, ...]

    def power(self, m: int) -> tuple[int, ...]:
        """The data of ``r^m``."""
        if m == 0:
            return ()
        return self.u + (self.k * m if m > 0 else self.ki * -m) + self.ui

    def checked_power(self, m: int) -> tuple[int, ...]:
        """The data of ``r^m``, refused over :data:`MAX_PARSE_LETTERS` letters before it is built."""
        if m and (size := 2 * len(self.u) + abs(m) * len(self.k)) > MAX_PARSE_LETTERS:
            raise EvaluationLimitError(f"a power has {size:,} letters, over the limit of {MAX_PARSE_LETTERS:,}")
        return self.power(m)

    def exponent(self, h: tuple[int, ...]) -> int | None:
        """The m with ``r^m == h`` for reduced data h, or None: h is a nontrivial
        power exactly when ``|h| - 2|u| = |m| |k|`` for some |m| > 0 and h is
        the power of that |m| or of -|m|.  No primitive root of h is needed."""
        if not h:
            return 0
        m, rem = divmod(len(h) - 2 * len(self.u), len(self.k))
        if rem or m <= 0:
            return None
        if h == self.power(m):
            return m
        return -m if h == self.power(-m) else None

    def inverse(self) -> "_RootSplit":
        """The split of ``r^-1 = u k^-1 u^-1``."""
        return _RootSplit(self.u, self.ui, self.ki, self.k)

    def period(self) -> int:
        """The least p > 0 with k a rotation of itself by p; r is primitive
        exactly when p = |k|.  The first recurrence of k in k twice over."""
        text = _letters_text(self.k)
        return (text + text).find(text, 1)


def _split_root(data: tuple[int, ...]) -> _RootSplit:
    """Split reduced data into ``u k u^-1`` with k cyclically reduced."""
    i, j = 0, len(data)
    while j - i >= 2 and data[i] == -data[j - 1]:
        i += 1
        j -= 1
    u, k = data[:i], data[i:j]
    return _RootSplit(u, _invert_data(u), k, _invert_data(k))


def _shortlex_key(data: tuple[int, ...]) -> tuple:
    """The shortlex sort key of reduced data: its length, then per letter
    its rank, code v as ``2|v| + (v < 0)``."""
    return (len(data), tuple([2 * abs(v) + (v < 0) for v in data]))


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

    ``"1"`` or ``"e"`` alone denote the identity.  INT is an optional ``-``
    and decimal digits, leading zeros allowed; it must be nonzero, and the
    absolute values may sum to at most :data:`MAX_PARSE_LETTERS`.  The
    result is reduced.

    One pass reads each term as its name, one lookup in the alphabet's
    table, and its digits, and cancels it against the reduced output so
    far.  A term it does not take, with an unknown name, a malformed or
    zero exponent or one over the limit, goes to :func:`_checked_term`,
    whose checks and messages are those of the grammar, and fails one of
    them.

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
    codes = alphabet._codes
    out: list[int] = []
    total = 0
    for term in stripped.split():
        name, caret, digits = term.partition("^")
        code = codes.get(name)
        exp = 1
        if caret:
            try:
                exp = int(digits) if digits.removeprefix("-").isdecimal() else 0
            except ValueError:  # more digits than int() converts
                exp = 0
        if code is None or not exp or total + abs(exp) > MAX_PARSE_LETTERS:
            code, exp = _checked_term(term, total, alphabet)
        count = abs(exp)
        total += count
        v = code if exp > 0 else -code
        while count and out and out[-1] == -v:
            out.pop()
            count -= 1
        out += (v,) * count
    return Word(alphabet, tuple(out))


def _checked_term(term: str, total: int, alphabet: Alphabet) -> tuple[int, int]:
    """The letter code and exponent of one term after terms whose exponents
    sum to ``total``, checked in order: its form, the size of its exponent,
    a zero exponent, the running sum, then its name."""
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
    return alphabet.index(name) + 1, exp


def centralizer(b: Word) -> Word:
    """Primitive r with ``<r>`` = all elements commuting with ``b``.

    The centralizer of a nontrivial element is the maximal cyclic
    subgroup around it, generated by the primitive root.
    """
    if b.is_identity:
        raise WholeGroupError("centralizer of identity is the whole group")
    return b.primitive_root().root


def check_ball_limit(rank: int, radius: int) -> None:
    """Raise :class:`BallLimitError` if the radius ball is too big to walk.

    The ball is refused past :data:`MAX_BALL_ELEMENTS` elements, then past
    :data:`MAX_BALL_LETTERS` letters; at rank >= 2 both are counted to
    radius 64 at most, far past the limits.
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


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _ball_steps(rank: int, radius: int) -> list[tuple[int, int]]:
    """Step i is ``(p, v)``: word i + 1 of :func:`_ball_data` is word p of
    the layer before it times the letter v.  Each layer is extended as the
    ball's is, so the steps list the words in ball order."""
    check_ball_limit(rank, radius)
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    steps, lasts = [], [0]
    for _ in range(radius):
        layer = [(p, v) for p, last in enumerate(lasts) for v in signed if v != -last]
        steps += layer
        lasts = [v for _, v in layer]
    return steps


def _ball_images(rank: int, radius: int, table: Sequence, op: Callable, identity) -> Iterator[list]:
    """The images of the words of :func:`_ball_data`, one list per layer, in ball order.

    A word's image is ``op(image of its prefix, table[its last letter])``,
    read off :func:`_ball_steps`, and the empty word's is ``identity``.
    """
    steps = iter(_ball_steps(rank, radius))
    layer, size = [identity], 2 * rank
    while layer:
        yield layer
        layer = [op(layer[p], table[v]) for p, v in islice(steps, size)]
        size *= 2 * rank - 1


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
