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
map, one walk from prefix to word extends each element's image by at
most one letter, and collisions are looked up by the image data.

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
    source_names, names = source.names, target.names
    support = [source_names[i - 1] for i in support_codes]
    needs_fresh = [x for x in support if x not in names]
    # prefer target letters outside the common alphabet, then common
    # letters outside the support (those are fixed by other source
    # letters, which cannot break injectivity on the support)
    outside = [y for y in names if y not in source_names]
    fresh_pool = outside + [y for y in names if y in source_names and y not in support]
    if len(needs_fresh) > len(fresh_pool):
        raise AlphabetError(
            f"target alphabet {tuple(names)} is too small: "
            f"cannot map support {tuple(support)} injectively while fixing common letters"
        )
    assignment = dict(zip(needs_fresh, fresh_pool))
    spare = iter(outside[len(needs_fresh):])
    images = []
    for x in source_names:
        y = x if x in names else assignment[x] if x in assignment else next(spare, names[0])
        images.append((names.index(y) + 1,))
    return images


def build_phi_g(g: Word, target: Alphabet) -> Homomorphism:
    """A homomorphism that fixes the common letters and does not kill g: :func:`_phi_images` on supp(g)."""
    if g.is_identity:
        raise IdentityWordError("index word must be nontrivial")
    images = _phi_images(g.alphabet, target, tuple(sorted({abs(v) for v in g.data})))
    return Homomorphism(g.alphabet, target, {x: Word(target, d) for x, d in zip(g.alphabet.names, images)})


def _seam(image: tuple[int, ...], letter: tuple[int, ...]) -> tuple[int, ...]:
    """``_concat_data(image, letter)`` for a reduced ``image`` and a ``letter`` of at most one letter."""
    return image[:-1] if image and letter and image[-1] == -letter[0] else image + letter


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
    the walk keeps one signed table per distinct map, and ``slot`` sends
    each support to its map's coordinate.  The per-index tuple of images
    and the tuple over distinct tables determine each other: the first
    lists the second's entries through ``slot``, and every entry of the
    second occurs in the first.  So two ball elements share an image in
    the per-index product exactly when their tuples agree, the
    coordinate at index h is entry ``slot[supp(h)]``, and a support's
    map moves a common letter exactly when its table does: every
    collision, vanished witness and moved letter is found.

    For each distinct table, one walk over the int-coded ball, from
    prefix to word (:func:`~fgz.words._ball_images`), gives each
    element's image as :func:`_seam` of the prefix's image and the
    letter's: the value ``Homomorphism.apply`` gives, since each table
    entry has at most one letter (a longer one raises AssertionError).
    So the walks keep the ball's letters once per table at most, and
    more than :data:`~fgz.words.MAX_BALL_LETTERS` in all are refused
    before them.  Failures are listed by ball index, which is shortlex
    order, so the report is the one a loop over ``enumerate_ball`` gives.
    Words are built only for failure messages.

    Checks: the restriction of phi to the ball is injective; for every
    nontrivial h the coordinate at index h is nontrivial; every
    coordinate map fixes the letters common to both alphabets.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    rank = len(source)
    ball = _ball_data(rank, radius)
    if len(ball) == 1:
        raise ValueError("index radius must be >= 1 so the index set is nonempty")
    # maps with equal letter images share one coordinate
    coords: dict[tuple[tuple[int, ...], ...], int] = {}
    slot: dict[int, int] = {}
    for codes in chain.from_iterable(combinations(range(1, rank + 1), n) for n in range(1, min(rank, radius) + 1)):
        phi = tuple(_phi_images(source, target, codes))
        slot[_support_mask(codes)] = coords.setdefault(phi, len(coords))
    if any(len(d) > 1 for phi in coords for d in phi):
        raise AssertionError("a coordinate map sends a letter to more than one letter")
    if (letters := _ball_letters(rank, radius)) * len(coords) > MAX_BALL_LETTERS:
        raise BallLimitError(
            f"{len(coords)} distinct coordinate maps of a ball of {letters:,} letters keep "
            f"{len(coords) * letters:,} image letters, over the limit of {MAX_BALL_LETTERS:,}"
        )
    tables = [_signed_code_table((), phi, _invert_data) for phi in coords]
    columns = [list(chain.from_iterable(_ball_images(rank, radius, table, _seam, ()))) for table in tables]
    images = columns[0] if len(columns) == 1 else list(zip(*columns))  # one map: its coordinate
    # later entries overwrite earlier ones, so each image keeps its first index
    first = dict(zip(reversed(images), range(len(ball) - 1, -1, -1)))
    collided = set() if len(first) == len(ball) else {i for i, image in enumerate(images) if first[image] != i}
    vanished = {  # entry 0, the identity's, is () in every column
        i
        for c, column in enumerate(columns)
        if column.count(()) > 1
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
    common = [x for x in source.names if x in set(target.names)]
    fixes = True
    for x in common:
        fixed, v = (target.value(x),), source.value(x)
        moved = {c: table[v] for c, table in enumerate(tables) if table[v] != fixed}
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
        injective=len(first) == len(ball),
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )
