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
few maps, which is how the ball check computes it.

The infinite target alphabet and index set are replaced by finite
surrogates; the target must merely be large enough to host an injection
of each index word's support.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    built once per support, from the first index word in shortlex order
    with that support.  Each index coordinate is one of these maps and
    each map is some index's coordinate, so two ball elements share an
    image in the per-index product exactly when their tuples agree.

    Checks: the restriction of phi to the ball is injective; for every
    nontrivial h the coordinate at index h is nontrivial; every
    coordinate map fixes the letters common to both alphabets.
    """
    ball = enumerate_ball(source, radius)
    indices = [g for g in ball if not g.is_identity]
    if not indices:
        raise ValueError("index radius must be >= 1 so the index set is nonempty")
    homs: dict[frozenset[str], Homomorphism] = {}
    for g in indices:
        if g.support() not in homs:
            homs[g.support()] = build_phi_g(g, target)
    slot = {support: i for i, support in enumerate(homs)}
    failures: list[str] = []
    images: dict[tuple[Word, ...], Word] = {}
    for h in ball:
        image = tuple(hom.apply(h) for hom in homs.values())
        if image in images:
            failures.append(f"not injective: {images[image]} and {h} share an image")
        else:
            images[image] = h
        if not h.is_identity and image[slot[h.support()]].is_identity:
            failures.append(f"witness coordinate vanished for {h}")
    common = [x for x in source.names if x in set(target.names)]
    fixes = True
    for x in common:
        fixed = target.letter(x)
        moved = {s: hom.apply(source.letter(x)) for s, hom in homs.items()}
        for g in indices:
            coord = moved[g.support()]
            if coord != fixed:
                fixes = False
                failures.append(f"coordinate {g} moved common letter {x} to {coord}")
    return EmbedCheckReport(
        source=source.names,
        target=target.names,
        radius=radius,
        index_count=len(indices),
        ball_size=len(ball),
        checked=len(ball) + len(common),
        injective=len(images) == len(ball),
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )
