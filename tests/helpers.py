"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import random
import re
from functools import reduce
from itertools import accumulate, repeat

from hypothesis import strategies as st

from fgz.algset import AlgebraicSet, CyclicCoset
from fgz.errors import ParseError
from fgz.onevar import OneVarWord, ParametricWord, substitute_line
from fgz.residual import Permutation
from fgz.words import MAX_PARSE_LETTERS, RESERVED_NAMES, Alphabet, Word, _concat_data, _reduce_data, enumerate_ball

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def random_reduced_data(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """A uniformly chosen reduced int-tuple of exactly the given length."""
    data: list[int] = []
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    for _ in range(length):
        choices = [v for v in signed if not data or v != -data[-1]]
        data.append(rng.choice(choices))
    return tuple(data)


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0) -> Word:
    n = rng.randint(min_len, max_len)
    return Word(alphabet, random_reduced_data(rng, len(alphabet), n))


def random_unreduced_letters(rng: random.Random, alphabet: Alphabet, length: int):
    """A raw (name, sign) sequence, cancellations allowed."""
    out = []
    for _ in range(length):
        out.append((rng.choice(alphabet.names), rng.choice((1, -1))))
    return out


def word_from_letters(alphabet: Alphabet, letters) -> Word:
    """Reduce a raw (name, sign) sequence with the reduction kernel, one letter per piece."""
    return Word(alphabet, _reduce_data([(alphabet.value(n, s),) for n, s in letters]))


def signed_letters(word: Word) -> tuple[tuple[str, int], ...]:
    """The (name, sign) pairs of a word, in reading order."""
    names = word.alphabet.names
    return tuple((names[abs(v) - 1], 1 if v > 0 else -1) for v in word.data)


def planted_conjugacy_words(seed: int, count: int) -> list[tuple[OneVarWord, AlgebraicSet]]:
    """Distinct sigma = 0 words ``x c x^-1 d1 x c x^-1 d2`` over a, b, each with
    its whole solution set ``t<r>``, for drawn y (1-4 letters), t (0-4) and d1
    (0-3), ``c = t^-1 y t``, ``d2 = (y d1 y)^-1`` and r the primitive root of c.

    With ``z = x c x^-1``, ``w(g) = z d1 z d2`` vanishes exactly when z = y:
    as an equation in z it has exponent sum 2, so at most one solution
    (:mod:`fgz.solver`), and y is one.  ``g c g^-1 = y`` holds exactly when
    ``g t^-1`` centralizes y, that is when g lies in ``t<r>``."""
    rng = random.Random(seed)
    x = Word(AB.extend("x"), (3,))
    out: list[tuple[OneVarWord, AlgebraicSet]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < count:
        y, t, d1 = (random_word(rng, AB, top, min_len=low) for low, top in ((1, 4), (0, 4), (0, 3)))
        c = ~t * y * t
        cx, d1x, d2x = (Word(x.alphabet, g.data) for g in (c, d1, ~(y * d1 * y)))
        body = x * cx * ~x * d1x * x * cx * ~x * d2x
        if body.data not in seen:
            seen.add(body.data)
            out.append((OneVarWord.from_body(body), AlgebraicSet(AB, (), (CyclicCoset.make(t, c.primitive_root().root),))))
    return out


def random_lines(rng: random.Random, count: int) -> list[ParametricWord]:
    """Built lines: random one-variable words over a, b of up to 8 letters,
    with ``base * root^n`` substituted for a random base and primitive root."""
    lines = []
    for _ in range(count):
        word = OneVarWord.from_body(Word(AB.extend("x"), random_reduced_data(rng, 3, rng.randint(0, 8))))
        base = random_word(rng, AB, 3)
        root = random_word(rng, AB, 3, min_len=1).primitive_root().root
        lines.append(substitute_line(word, base, root))
    return lines


def reference_member(coset, g: Word) -> bool:
    """Coset membership by its definition: ``rep^-1 g`` is the identity or
    has the root or its inverse as primitive root."""
    h = ~coset.rep * g
    return h.is_identity or h.primitive_root().root in (coset.root, ~coset.root)


def reference_elements_within(coset, length: int) -> list[Word]:
    """The elements of a canonical coset of length at most ``length``, in
    order of m, by a walk over the whole window ``|m| <= window`` with
    ``window = (length + |rep| - 2|u|) // |k|`` for the root ``u k u^-1``:
    every ``rep root^m`` outside it is longer than ``length``."""
    if len(coset.rep) > length:
        return []
    split = coset._split
    window = max(0, (length + len(coset.rep) - 2 * len(split.u)) // len(split.k))
    start = _concat_data(coset.rep.data, split.power(-window))
    walk = accumulate(repeat(coset.root.data, 2 * window), _concat_data, initial=start)
    return [Word(coset.alphabet, d) for d in walk if len(d) <= length]


_TERM_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def reference_parse_word(text: str, alphabet: Alphabet) -> Word:
    """Word text parsed by the grammar's regex, one term at a time: each term
    is matched, checked and expanded, and the pieces are reduced at the end.
    ``\\d`` and ``int()`` take every Unicode decimal digit."""
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
        except ValueError:
            raise ParseError(f"exponent of {name!r} is over the limit of {MAX_PARSE_LETTERS}") from None
        if exp == 0:
            raise ParseError(f"malformed exponent in {term!r}: must be nonzero")
        if (total := total + abs(exp)) > MAX_PARSE_LETTERS:
            raise ParseError(f"exponents sum to at least {total}, over the limit of {MAX_PARSE_LETTERS}")
        pieces.append((alphabet.value(name, 1 if exp > 0 else -1),) * abs(exp))
    return Word(alphabet, _reduce_data(pieces))


def reference_sort_key(word: Word) -> tuple:
    """Shortlex by its definition: length, then per letter its alphabet index and sign, + before -."""
    return (len(word), [(abs(v) - 1, 0 if v > 0 else 1) for v in word.data])


def commutator(s: Word, t: Word) -> Word:
    return s * t * ~s * ~t


def with_inverted_variable(word: OneVarWord) -> OneVarWord:
    """The word with every variable occurrence replaced by its inverse."""
    vc = len(word.alphabet) + 1
    data = tuple([-v if abs(v) == vc else v for v in word.body.data])
    return OneVarWord(word.alphabet, word.variable, Word(word.body.alphabet, data))


def compose(degree: int, perms) -> Permutation:
    """Apply ``perms`` one after the other, left to right, point by point."""
    return Permutation(tuple([reduce(lambda i, p: p(i), perms, start) for start in range(degree)]))


def brute_reduce(alphabet: Alphabet, letters) -> Word:
    """Reduction oracle: cancel one adjacent inverse pair at a time, at a
    position chosen by scanning from a random offset, until none remain."""
    rng = random.Random(len(letters) * 7919 + 13)
    seq = [alphabet.value(n, s) for n, s in letters]
    while True:
        pairs = [i for i in range(len(seq) - 1) if seq[i] == -seq[i + 1]]
        if not pairs:
            return Word(alphabet, tuple(seq))
        i = rng.choice(pairs)
        del seq[i : i + 2]


@st.composite
def reduced_data(draw, rank: int, max_len: int, min_len: int = 0) -> tuple[int, ...]:
    """Strategy: a reduced int-tuple over ``rank`` letters, length in
    ``[min_len, max_len]``."""
    signed = [v for i in range(1, rank + 1) for v in (i, -i)]
    data: list[int] = []
    for _ in range(draw(st.integers(min_len, max_len))):
        data.append(draw(st.sampled_from([v for v in signed if not data or v != -data[-1]])))
    return tuple(data)


@st.composite
def one_var_words(draw, alphabet: Alphabet, max_occurrences: int = 3) -> OneVarWord:
    """Strategy: coefficient segments around up to ``max_occurrences``
    signed variable letters, so the exponent sum of the variable lies in
    ``[-max_occurrences, max_occurrences]``; zero occurrences give a
    variable-free body.  Half the draws are multiplied on the right by
    ``w(g)^-1`` for a drawn ``g``, which plants ``g`` as a solution."""
    rank = len(alphabet)
    var = rank + 1
    raw: list[int] = []
    for _ in range(draw(st.integers(0, max_occurrences))):
        raw += draw(reduced_data(rank, 3))
        raw.append(draw(st.sampled_from((var, -var))))
    raw += draw(reduced_data(rank, 3))
    extended = alphabet.extend("x")
    word = OneVarWord.from_body(Word(extended, _reduce_data([(v,) for v in raw])))
    if draw(st.booleans()):
        g = Word(alphabet, draw(reduced_data(rank, 4)))
        word = OneVarWord.from_body(word.body * Word(extended, (~word.evaluate(g)).data))
    return word


def plain_solutions(word: OneVarWord, radius: int) -> list[Word]:
    """Reference oracle: evaluate every ball element, no filtering."""
    return [g for g in enumerate_ball(word.alphabet, radius) if word.evaluate(g).is_identity]
