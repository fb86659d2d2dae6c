"""Embed a free group into a finite power of another free group, desk scale.

For each nontrivial index word g there is a homomorphism into the target
free group that fixes all letters common to both alphabets and does not
kill g: map the letters in g's support injectively into the target,
fixing those the target already contains.  Bundling one coordinate per
index word gives a map into a product whose restriction to any finite
ball is injective, with the coordinate at index g witnessing g itself.

The infinite target alphabet and index set are replaced by finite
surrogates; the target must merely be large enough to host an injection
of each index word's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import AlphabetError, IdentityWordError
from .words import Alphabet, Word, _invert_data, _reduce_data, enumerate_ball


class Homomorphism:
    """Map between free groups defined letterwise on the source alphabet."""

    def __init__(self, source: Alphabet, target: Alphabet, letter_images: dict[str, Word]):
        missing = [n for n in source.names if n not in letter_images]
        if missing:
            raise AlphabetError(f"letter images missing for {missing}")
        for name, image in letter_images.items():
            if image.alphabet != target:
                raise AlphabetError(f"image of {name!r} is not over the target alphabet")
        self.source = source
        self.target = target
        self.letter_images = dict(letter_images)
        # entry v is the image data of code v; inverses sit at the end in reverse
        images = [letter_images[n].data for n in source.names]
        self._images = [(), *images, *[_invert_data(d) for d in reversed(images)]]

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
class ProductElement:
    """One coordinate word per index word; the image of an element."""

    entries: tuple[tuple[Word, Word], ...]

    def coordinate(self, index: Word) -> Word:
        for g, image in self.entries:
            if g == index:
                return image
        raise KeyError(f"no coordinate at index {index}")


def build_phi(
    source: Alphabet, target: Alphabet, index_radius: int
) -> tuple[list[Word], Callable[[Word], ProductElement]]:
    """Index set (nontrivial ball words) and the diagonal coordinate map.

    The coordinate of ``phi(h)`` at index g is ``build_phi_g(g)(h)``; the
    coordinate at index h itself witnesses that nontrivial h survives.
    """
    indices = [g for g in enumerate_ball(source, index_radius) if not g.is_identity]
    if not indices:
        raise ValueError("index radius must be >= 1 so the index set is nonempty")
    homs = [(g, build_phi_g(g, target)) for g in indices]

    def phi(h: Word) -> ProductElement:
        return ProductElement(tuple((g, hom.apply(h)) for g, hom in homs))

    return indices, phi


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

    Checks: the restriction of phi to the ball is injective; for every
    nontrivial h the coordinate at index h is nontrivial; every
    coordinate map fixes the letters common to both alphabets.
    """
    indices, phi = build_phi(source, target, radius)
    ball = enumerate_ball(source, radius)
    failures: list[str] = []
    checked = 0
    images: dict[ProductElement, Word] = {}
    collision = False
    for h in ball:
        image = phi(h)
        checked += 1
        if image in images:
            collision = True
            failures.append(f"not injective: {images[image]} and {h} share an image")
        else:
            images[image] = h
        if not h.is_identity and image.coordinate(h).is_identity:
            failures.append(f"witness coordinate vanished for {h}")
    common = [x for x in source.names if x in set(target.names)]
    fixes = True
    for x in common:
        image = phi(source.letter(x))
        checked += 1
        for g, coord in image.entries:
            if coord != target.letter(x):
                fixes = False
                failures.append(f"coordinate {g} moved common letter {x} to {coord}")
    return EmbedCheckReport(
        source=source.names,
        target=target.names,
        radius=radius,
        index_count=len(indices),
        ball_size=len(ball),
        checked=checked,
        injective=not collision,
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )
