"""Embed a free group into a finite power of another free group, desk scale.

For each nontrivial index word g there is a homomorphism into the target
free group that fixes all letters common to both alphabets and does not
kill g: map the letters in g's support injectively into the target,
fixing those the target already contains.  Bundling one coordinate per
index word gives a map into a product whose restriction to any finite
ball is injective, with the coordinate at index g witnessing g itself.

The coordinate at g depends only on supp(g), so the product has at most
2^rank - 1 distinct coordinate maps however large the index set is.  Two
elements collide in the product exactly when they collide under those
few maps, which is how the ball check computes it.  It works on the
int-coded ball: one walk from prefix to word extends each element's
support bitmask and its image under every map by one letter, and
collisions are looked up by the tuple of image data.

The infinite target alphabet and index set are replaced by finite
surrogates; the target must merely be large enough to host an injection
of each index word's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import AlphabetError, IdentityWordError
from .words import (
    Alphabet, Word, _ball_data, _ball_layers, _concat_data, _invert_data, _reduce_data, _signed_code_table
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
        if word.alphabet != self.source:
            raise AlphabetError("word is not over the source alphabet")
        return Word(self.target, _reduce_data(map(self._images.__getitem__, word.data)))

    def __repr__(self) -> str:
        images = ", ".join(f"{n} -> {self.letter_images[n]}" for n in self.source.names)
        return f"<Homomorphism {images}>"


def build_phi_g(g: Word, target: Alphabet) -> Homomorphism:
    """A homomorphism that fixes the common letters and does not kill g.

    Letters of g's support already in the target map to themselves; the
    remaining support letters take the smallest target letters not used
    by a fixed common letter, in canonical order.  The support is mapped
    injectively, so the image of g stays reduced of the same length.
    """
    if g.is_identity:
        raise IdentityWordError("index word must be nontrivial")
    source = g.alphabet
    target_set = set(target.names)
    source_set = set(source.names)
    support = sorted(g.support(), key=source.index)
    needs_fresh = [x for x in support if x not in target_set]
    support_set = set(support)
    # prefer target letters outside the common alphabet, then common
    # letters outside the support (those are fixed by other source
    # letters, which cannot break injectivity on the support)
    fresh_pool = [y for y in target.names if y not in source_set]
    fresh_pool += [y for y in target.names if y in source_set and y not in support_set]
    if len(needs_fresh) > len(fresh_pool):
        raise AlphabetError(
            f"target alphabet {tuple(target.names)} is too small: "
            f"cannot map support {tuple(support)} injectively while fixing common letters"
        )
    assignment = dict(zip(needs_fresh, fresh_pool))
    images: dict[str, Word] = {}
    for x in source.names:
        if x in target_set:
            images[x] = target.letter(x)
        elif x in assignment:
            images[x] = target.letter(assignment[x])
        else:
            images[x] = target.letter(target.names[0])
    return Homomorphism(source, target, images)


@dataclass(frozen=True)
class EmbedCheckReport:
    source: tuple[str, ...]
    target: tuple[str, ...]
    radius: int
    index_count: int
    ball_size: int
    checked: int
    injective: bool
    fixes_common_letters: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "indices": self.index_count,
            "ball": self.ball_size,
            "checked": self.checked,
            "failures": list(self.failures),
            "injective": self.injective,
            "fixes_common_letters": self.fixes_common_letters,
        }


def check_mono_on_ball(source: Alphabet, target: Alphabet, radius: int) -> EmbedCheckReport:
    """Exhaustively verify the embedding's properties on a ball.

    The indices are the nontrivial ball words.  The coordinate map at g,
    ``build_phi_g(g, target)``, reads g only through supp(g), so it is
    built once per support S, from S's first index word in shortlex
    order: S's letters in alphabet order.  The supports are the letter
    sets of at most ``radius`` letters, taken by size, then in alphabet
    order.  Each index coordinate is one of these maps and each map is
    some index's coordinate, so two ball elements share an image in the
    per-index product exactly when their tuples agree.

    One walk over the int-coded ball, from prefix to word
    (:func:`~fgz.words._ball_layers`), gives each element's support mask
    (the prefix's OR the letter's bit) and its image under each map (the
    prefix's times the letter's): the values ``Word.support`` and
    ``Homomorphism.apply`` give.  It visits the ball in shortlex order,
    so the report is the one a loop over ``enumerate_ball`` gives.
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
    sizes = range(1, min(rank, radius) + 1)
    firsts = [Word(source, codes) for n in sizes for codes in combinations(range(1, rank + 1), n)]
    homs = [build_phi_g(g, target) for g in firsts]
    slot = {sum([1 << (v - 1) for v in g.data]): i for i, g in enumerate(firsts)}
    tables = [hom._images for hom in homs]
    # a letter and its inverse share a support bit
    bits = _signed_code_table(0, [1 << i for i in range(rank)], lambda bit: bit)
    failures: list[str] = []
    identity = ((),) * len(homs)
    seen: dict[tuple[tuple[int, ...], ...], int] = {identity: 0}
    prev_masks, prev_images = [0], [identity]
    for start, size, fan in _ball_layers(rank, radius):
        masks, images = [], []
        for j in range(size):
            i, prefix, v = start + j, j // fan, ball[start + j][-1]
            mask = prev_masks[prefix] | bits[v]
            image = tuple([_concat_data(coord, table[v]) for coord, table in zip(prev_images[prefix], tables)])
            if image in seen:
                failures.append(f"not injective: {Word(source, ball[seen[image]])} and {Word(source, ball[i])} share an image")
            else:
                seen[image] = i
            if not image[slot[mask]]:
                failures.append(f"witness coordinate vanished for {Word(source, ball[i])}")
            masks.append(mask)
            images.append(image)
        prev_masks, prev_images = masks, images
    common = [x for x in source.names if x in set(target.names)]
    fixes = True
    for x in common:
        fixed, letter = target.letter(x), source.letter(x)
        moved = {g.support(): coord for g, hom in zip(firsts, homs) if (coord := hom.apply(letter)) != fixed}
        if moved:
            fixes = False
            for gd in ball[1:]:
                g = Word(source, gd)
                if g.support() in moved:
                    failures.append(f"coordinate {g} moved common letter {x} to {moved[g.support()]}")
    return EmbedCheckReport(
        source=source.names,
        target=target.names,
        radius=radius,
        index_count=len(ball) - 1,
        ball_size=len(ball),
        checked=len(ball) + len(common),
        injective=len(seen) == len(ball),
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )
