"""Embed a free group into a finite power of another free group, desk scale.

For each nontrivial index word g there is a homomorphism into the target
free group that fixes all letters common to both alphabets and does not
kill g: map the letters in g's support injectively into the target,
fixing those the target already contains.  Bundling one coordinate per
index word gives a map into a product whose restriction to any finite
ball is injective, with the coordinate at index g witnessing g itself.

The coordinate at g depends only on supp(g), so the product has at most
2^rank - 1 coordinate maps however large the index set is, and maps with
equal letter images are equal.  Two elements collide in the product
exactly when they collide under the distinct maps, which is how the ball
check computes it.  It works on the int-coded ball: for each distinct
map, one walk from prefix to word extends each element's image, held as
one int, by at most one letter, and one set of the images decides
injectivity; collisions are looked up only when it finds some.

The infinite target alphabet and index set are replaced by finite
surrogates; the target must merely be large enough to host an injection
of each index word's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .errors import AlphabetError, BallLimitError, IdentityWordError
from .words import (
    MAX_BALL_LETTERS, Alphabet, Word, _ball_data, _ball_images, _ball_letters, _invert_data, _reduce_data,
    _signed_code_table,
)


class Homomorphism:
    """Map between free groups defined letterwise on the source alphabet."""

    def __init__(self, source: Alphabet, target: Alphabet, letter_images: dict[str, Word]):
        missing = [n for n in source.names if n not in letter_images]
        if missing:
            raise AlphabetError(f"letter images missing for {missing}")
        extra = [n for n in letter_images if n not in source]
        if extra:
            raise AlphabetError(f"letter images given for {extra}, which are not in the source alphabet")
        for name, image in letter_images.items():
            if image.alphabet != target:
                raise AlphabetError(f"image of {name!r} is not over the target alphabet")
        self.source = source
        self.target = target
        self.letter_images = dict(letter_images)
        self._images = _signed_code_table((), [letter_images[n].data for n in source.names], _invert_data)

    def apply(self, word: Word) -> Word:
        """The image of ``word``: the reference that :func:`check_mono_on_ball`'s ball walk is tested against."""
        if word.alphabet != self.source:
            raise AlphabetError("word is not over the source alphabet")
        return Word(self.target, _reduce_data(map(self._images.__getitem__, word.data)))

    def __repr__(self) -> str:
        images = ", ".join(f"{n} -> {self.letter_images[n]}" for n in self.source.names)
        return f"<Homomorphism {images}>"


def _phi_images(source: Alphabet, target: Alphabet, support_codes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Each source letter's image, one target letter, under the map that fixes
    the common letters and is injective on the support, given as ascending codes.

    Support letters already in the target map to themselves; the
    remaining support letters take the smallest target letters not used
    by a fixed common letter, in canonical order, so a word over the
    support keeps its length.  Source letters outside both the support
    and the target take, in target order, the target letters outside the
    source that the support left unused, and the target's first letter
    once those run out.  So when the target hosts the whole source (no
    fewer target letters outside the source than source letters outside
    the target), the map is injective.
    """
    source_names, codes, source_codes = source.names, target._codes, source._codes
    outside = [c for y, c in codes.items() if y not in source_codes]
    needs_fresh = len([i for i in support_codes if source_names[i - 1] not in codes])
    # prefer target letters outside the common alphabet, then, once those
    # run out, common letters outside the support (those are fixed by other
    # source letters, which cannot break injectivity on the support)
    fresh_pool = outside
    if needs_fresh > len(outside):
        fresh_pool = outside + [c for y, c in codes.items() if y in source_codes and source_codes[y] not in support_codes]
        if needs_fresh > len(fresh_pool):
            raise AlphabetError(
                f"target alphabet {target.names} is too small: cannot map support "
                f"{tuple([source_names[i - 1] for i in support_codes])} injectively while fixing common letters"
            )
    fresh, spare = iter(fresh_pool), iter(outside[needs_fresh:])
    # codes are >= 1, so `or` falls through exactly on a letter outside the target
    return [(codes.get(x) or next(fresh if i in support_codes else spare, 1),) for i, x in enumerate(source_names, 1)]


def build_phi_g(g: Word, target: Alphabet) -> Homomorphism:
    """A homomorphism that fixes the common letters and does not kill g: :func:`_phi_images` on supp(g)."""
    if g.is_identity:
        raise IdentityWordError("index word must be nontrivial")
    images = _phi_images(g.alphabet, target, tuple(sorted({abs(v) for v in g.data})))
    return Homomorphism(g.alphabet, target, {x: Word(target, d) for x, d in zip(g.alphabet.names, images)})


def _step(letter: tuple[int, ...], m: int) -> tuple[int, int, int]:
    """The :func:`_seam` step of a ``letter`` of at most one letter over a
    target of m letters: ``(base, digit, inverse digit)`` with base 2m + 1,
    where code c > 0 has digit c and code c < 0 digit m - c.  The empty
    letter's step is ``(1, 0, 0)``: x % 1 is always 0, so x // 1 = x.
    A longer letter raises AssertionError: one seam cancels one letter at most."""
    if not letter:
        return (1, 0, 0)
    if len(letter) > 1:
        raise AssertionError("a coordinate map sends a letter to more than one letter")
    c = letter[0]
    return (2 * m + 1, c, m + c) if c > 0 else (2 * m + 1, m - c, -c)


def _inverse_step(step: tuple[int, int, int]) -> tuple[int, int, int]:
    """The :func:`_step` of the inverse letter: the digit and the inverse digit swap."""
    base, digit, inverse = step
    return (base, inverse, digit)


def _seam(image: int, step: tuple[int, int, int]) -> int:
    """The numeral of ``_concat_data(image, letter)`` for the numeral ``image``
    of a reduced word and the :func:`_step` of ``letter``: the last letter,
    ``image % base``, cancels against the inverse digit, or the digit is appended."""
    base, digit, inverse = step
    return image // base if image % base == inverse else image * base + digit


def _support_mask(data: tuple[int, ...]) -> int:
    """The letters of an int-coded word as a bitmask: bit i - 1 for codes i and -i."""
    return sum({1 << (abs(v) - 1) for v in data})


@dataclass(frozen=True)
class EmbedCheckReport:
    index_count: int
    ball_size: int
    checked: int
    injective: bool
    fixes_common_letters: bool
    failures: tuple[str, ...]


def check_mono_on_ball(source: Alphabet, target: Alphabet, radius: int) -> EmbedCheckReport:
    """Exhaustively verify the embedding's properties on a ball.

    The indices are the nontrivial ball words.  The coordinate map at g,
    ``build_phi_g(g, target)``, reads g only through supp(g), so its
    letter images are taken once per support S from :func:`_phi_images`,
    the rule ``build_phi_g`` wraps.  The supports are the letter sets of
    at most ``radius`` letters, taken by size, then in alphabet order.
    Each index coordinate is one of these maps and each map is some
    index's coordinate.

    Maps with equal letter images give equal images on every word, so
    the walk keeps one step table per distinct map, and ``slot`` sends
    each support, as a bitmask, to its map's coordinate.  The per-index
    tuple of images and the tuple over distinct maps determine each
    other: the first lists the second's entries through ``slot``, and
    every entry of the second occurs in the first.  So two ball elements
    share an image in the per-index product exactly when their tuples
    agree, the coordinate at index h is entry ``slot[supp(h)]``, and a
    support's map moves a common letter exactly when its letter images
    do: every collision, vanished witness and moved letter is found.

    An image is held as an int.  With m target letters and base
    B = 2m + 1, a reduced target word is its bijective base-B numeral,
    the last letter its least significant digit: code c > 0 has digit c,
    code c < 0 digit m - c, and the identity is 0.  No digit is 0 or
    reaches B, so distinct reduced words have distinct numerals, and
    ``x % B`` is the last letter of the word x codes.  For each distinct
    map, one walk over the int-coded ball, from prefix to word
    (:func:`~fgz.words._ball_images`), gives each element's image as
    :func:`_seam` of the prefix's image and the letter's :func:`_step`:
    it drops the last digit when it is the inverse of the letter's, and
    appends the letter's digit otherwise, which is the numeral of the
    value ``Homomorphism.apply`` gives, since each letter image has at
    most one letter (a longer one raises AssertionError).  The walks
    keep the ball's letters once per map at most, and more than
    :data:`~fgz.words.MAX_BALL_LETTERS` in all are refused before them.
    The images are injective exactly when one set of them has an entry
    per ball element; only when it has fewer are the colliding elements
    looked up.  A coordinate vanishes where its column holds 0.
    Failures are listed by ball index, which is shortlex order, so the
    report is the one a loop over ``enumerate_ball`` gives.  Words are
    built only for failure messages.

    Checks: the restriction of phi to the ball is injective; for every
    nontrivial h the coordinate at index h is nontrivial; every
    coordinate map fixes the letters common to both alphabets.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    rank = len(source)
    if not rank:
        raise AlphabetError("the source alphabet has no letters, so the index set is empty")
    ball = _ball_data(rank, radius)
    if len(ball) == 1:
        raise ValueError("index radius must be >= 1 so the index set is nonempty")
    # maps with equal letter images share one coordinate
    coords: dict[tuple[tuple[int, ...], ...], int] = {}
    slot: dict[int, int] = {}
    for codes in chain.from_iterable(combinations(range(1, rank + 1), n) for n in range(1, min(rank, radius) + 1)):
        phi = tuple(_phi_images(source, target, codes))
        slot[sum([1 << (c - 1) for c in codes])] = coords.setdefault(phi, len(coords))
    if (letters := _ball_letters(rank, radius)) * len(coords) > MAX_BALL_LETTERS:
        raise BallLimitError(
            f"{len(coords)} distinct coordinate maps of a ball of {letters:,} letters keep "
            f"{len(coords) * letters:,} image letters, over the limit of {MAX_BALL_LETTERS:,}"
        )
    m = len(target)
    tables = [_signed_code_table(_step((), m), [_step(d, m) for d in phi], _inverse_step) for phi in coords]
    columns = [list(chain.from_iterable(_ball_images(rank, radius, table, _seam, 0))) for table in tables]
    images = columns[0] if len(columns) == 1 else list(zip(*columns))  # one map: its coordinate
    collided: set[int] = set()
    if len(set(images)) < len(ball):
        # later entries overwrite earlier ones, so each image keeps its first index
        first = dict(zip(reversed(images), range(len(ball) - 1, -1, -1)))
        collided = {i for i, image in enumerate(images) if first[image] != i}
    vanished = {  # entry 0, the identity's, is 0 in every column
        i
        for c, column in enumerate(columns)
        if column.count(0) > 1
        for i, coord in enumerate(column)
        if not coord and i and slot[_support_mask(ball[i])] == c
    }
    failures: list[str] = []
    for i in sorted(collided | vanished):
        h = Word(source, ball[i])
        if i in collided:
            failures.append(f"not injective: {Word(source, ball[first[images[i]]])} and {h} share an image")
        if i in vanished:
            failures.append(f"witness coordinate vanished for {h}")
    target_codes = target._codes
    common = [x for x in source.names if x in target_codes]
    fixes = True
    for x in common:
        fixed, v = (target_codes[x],), source.index(x)
        moved = {c: phi[v] for c, phi in enumerate(coords) if phi[v] != fixed}
        if moved:
            fixes = False
            for gd in ball[1:]:
                if (c := slot[_support_mask(gd)]) in moved:
                    coord = Word(target, moved[c])
                    failures.append(f"coordinate {Word(source, gd)} moved common letter {x} to {coord}")
    return EmbedCheckReport(
        index_count=len(ball) - 1,
        ball_size=len(ball),
        checked=len(ball) + len(common),
        injective=not collided,
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )
