import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgz import embed
from fgz.embed import EmbedCheckReport, Homomorphism, _seam, build_phi_g, check_mono_on_ball
from fgz.errors import AlphabetError, BallLimitError, IdentityWordError
from fgz.words import MAX_BALL_LETTERS, Alphabet, Word, _ball_letters, _concat_data, enumerate_ball, parse_word

from helpers import AB, ABC, random_word, reduced_data, signed_letters

Y4 = Alphabet(("b", "c", "d", "f"))
CD = Alphabet(("c", "d"))


class TestHomomorphism:
    def test_apply_matches_product_of_letter_images(self):
        # images of any length, trivial and shared ones included, applied
        # to words with inverse letters
        rng = random.Random(43)
        inverse_letters = 0
        for _ in range(300):
            images = {x: random_word(rng, Y4, 4) for x in AB.names}
            hom = Homomorphism(AB, Y4, images)
            h = random_word(rng, AB, 8)
            expected = Y4.identity()
            for name, sign in signed_letters(h):
                expected = expected * (images[name] if sign > 0 else ~images[name])
                inverse_letters += sign < 0
            assert hom.apply(h) == expected
        assert inverse_letters > 500


    def test_apply_refuses_a_word_off_the_source(self):
        hom = Homomorphism(AB, Y4, {"a": Y4.letter("b"), "b": Y4.letter("c")})
        with pytest.raises(AlphabetError, match="^word is not over the source alphabet$"):
            hom.apply(parse_word("a", ABC))


class TestBuildPhiG:
    def test_fresh_letters_skip_common_ones(self):
        g = parse_word("a b a^-1", ABC)
        hom = build_phi_g(g, Y4)
        assert hom.letter_images["a"] == Y4.letter("d")
        assert hom.letter_images["b"] == Y4.letter("b")
        image = hom.apply(g)
        assert image == parse_word("d b d^-1", Y4)
        assert not image.is_identity

    def test_identity_when_alphabets_agree(self):
        g = parse_word("a b", AB)
        hom = build_phi_g(g, AB)
        assert all(hom.letter_images[x] == AB.letter(x) for x in AB.names)
        assert hom.apply(g) == g

    def test_single_letter_rename(self):
        one = Alphabet(("a",))
        other = Alphabet(("b",))
        hom = build_phi_g(parse_word("a^3", one), other)
        assert hom.apply(parse_word("a^3", one)) == parse_word("b^3", other)

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            build_phi_g(AB.identity(), Y4)

    def test_target_too_small(self):
        with pytest.raises(AlphabetError, match="too small"):
            build_phi_g(parse_word("a b", AB), Alphabet(("c",)))

    def test_common_letters_can_serve_as_fresh_pool(self):
        # support {a}; target shares b, which is outside the support and
        # may absorb the fresh assignment
        g = parse_word("a^2", AB)
        hom = build_phi_g(g, Alphabet(("b",)))
        assert hom.apply(g) == parse_word("b^2", Alphabet(("b",)))

    def test_image_of_g_keeps_length(self):
        rng = random.Random(51)
        for _ in range(100):
            g = random_word(rng, ABC, 8, min_len=1)
            hom = build_phi_g(g, Y4)
            image = hom.apply(g)
            assert not image.is_identity
            assert len(image) == len(g)
            for x in ABC.names:
                if x in set(Y4.names):
                    assert hom.letter_images[x] == Y4.letter(x)

    def test_homomorphism_law(self):
        rng = random.Random(52)
        for _ in range(100):
            g = random_word(rng, ABC, 6, min_len=1)
            hom = build_phi_g(g, Y4)
            u, v = random_word(rng, ABC, 6), random_word(rng, ABC, 6)
            assert hom.apply(u * v) == hom.apply(u) * hom.apply(v)

    def test_homomorphism_validation(self):
        with pytest.raises(AlphabetError):
            Homomorphism(AB, Y4, {"a": Y4.letter("c")})
        with pytest.raises(AlphabetError):
            Homomorphism(AB, Y4, {"a": Y4.letter("c"), "b": AB.letter("a")})

    def test_letter_outside_the_source_refused(self):
        images = {"a": CD.letter("c"), "b": CD.letter("d"), "z": CD.letter("c")}
        with pytest.raises(AlphabetError) as excinfo:
            Homomorphism(AB, CD, images)
        assert str(excinfo.value) == "letter images given for ['z'], which are not in the source alphabet"


def per_index_report(source: Alphabet, target: Alphabet, radius: int) -> EmbedCheckReport:
    """Reference: the per-index product, one ``build_phi_g`` per index word.

    The image of h is the tuple of its coordinates at every index word.
    """
    indices = [g for g in enumerate_ball(source, radius) if not g.is_identity]
    if not indices:
        raise ValueError("index radius must be >= 1 so the index set is nonempty")
    homs = [(g, build_phi_g(g, target)) for g in indices]
    ball = enumerate_ball(source, radius)
    failures: list[str] = []
    images: dict[tuple[Word, ...], Word] = {}
    for h in ball:
        image = tuple(hom.apply(h) for _, hom in homs)
        if image in images:
            failures.append(f"not injective: {images[image]} and {h} share an image")
        else:
            images[image] = h
        if not h.is_identity and image[indices.index(h)].is_identity:
            failures.append(f"witness coordinate vanished for {h}")
    common = [x for x in source.names if x in set(target.names)]
    fixes = True
    for x in common:
        for g, hom in homs:
            coord = hom.apply(source.letter(x))
            if coord != target.letter(x):
                fixes = False
                failures.append(f"coordinate {g} moved common letter {x} to {coord}")
    return EmbedCheckReport(
        index_count=len(indices),
        ball_size=len(ball),
        checked=len(ball) + len(common),
        injective=len(images) == len(ball),
        fixes_common_letters=fixes,
        failures=tuple(failures),
    )


class TestSupportLemma:
    """One coordinate map per support gives the per-index product's report."""

    @pytest.mark.parametrize(
        "source, target, radius",
        [
            (AB, CD, 1),
            (AB, CD, 2),
            (AB, CD, 3),
            (AB, AB, 2),
            (ABC, Y4, 2),
            (ABC, Y4, 3),
            (Alphabet(("a",)), Alphabet(("b",)), 4),
        ],
        ids=["ab-cd-1", "ab-cd-2", "ab-cd-3", "ab-ab-2", "abc-bcdf-2", "abc-bcdf-3", "a-b-4"],
    )
    def test_report_matches_per_index_product(self, source, target, radius):
        assert check_mono_on_ball(source, target, radius) == per_index_report(source, target, radius)

    def test_radius_one_is_injective(self):
        # the map for support {a} sends b to the spare target letter d, not to c
        report = check_mono_on_ball(AB, CD, 1)
        assert report.injective and report.failures == ()
        assert build_phi_g(parse_word("a", AB), CD).letter_images == {"a": CD.letter("c"), "b": CD.letter("d")}

    def test_target_too_small_message(self):
        small = Alphabet(("c",))
        with pytest.raises(AlphabetError, match="too small") as reference:
            per_index_report(AB, small, 2)
        with pytest.raises(AlphabetError) as got:
            check_mono_on_ball(AB, small, 2)
        assert str(got.value) == str(reference.value)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError, match="index radius must be >= 1"):
            check_mono_on_ball(AB, CD, 0)

    def test_coordinate_depends_only_on_support(self):
        rng = random.Random(71)
        first: dict[frozenset[str], Word] = {}
        for _ in range(500):
            g = random_word(rng, ABC, 8, min_len=1)
            h = first.setdefault(g.support(), g)
            assert build_phi_g(g, Y4).letter_images == build_phi_g(h, Y4).letter_images
        assert len(first) == 7


POOL = ("a", "b", "c", "d", "f", "g")


@st.composite
def embed_cases(draw):
    """Source of rank 1-3, a target of 1-5 letters that may share letters
    with it or be too small to host it, and a radius of 1-4 (1-3 at rank
    3, where the per-index reference takes seconds at radius 4)."""
    rank = draw(st.integers(1, 3))
    target = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5, unique=True))
    radius = draw(st.integers(1, 4 if rank < 3 else 3))
    return Alphabet(POOL[:rank]), Alphabet(target), radius


def same_report_or_error(source, target, radius):
    try:
        expected = per_index_report(source, target, radius)
    except AlphabetError as exc:
        with pytest.raises(AlphabetError) as got:
            check_mono_on_ball(source, target, radius)
        assert str(got.value) == str(exc)
        return None
    assert check_mono_on_ball(source, target, radius) == expected
    return expected


class TestBallWalk:
    """The prefix walk gives the per-index product's report, or its error."""

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(embed_cases())
    @example((AB, CD, 1))
    @example((ABC, Y4, 4))
    @example((ABC, Alphabet(("a", "d")), 2))
    @example((ABC, Alphabet(("c", "d", "f", "g", "h")), 3))
    def test_matches_per_index_product(self, case):
        same_report_or_error(*case)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(embed_cases())
    @example((AB, CD, 1))
    @example((ABC, Alphabet(("a", "d", "f")), 1))
    def test_injective_when_the_target_hosts_the_source(self, case):
        source, target = case[0], case[1]
        if len(set(source) - set(target)) > len(set(target) - set(source)):
            return
        report = check_mono_on_ball(*case)
        assert report.injective and report.failures == ()

    @pytest.mark.parametrize("source, target, radius", [(AB, AB, 3), (ABC, Y4, 2), (Alphabet(("a",)), CD, 3)])
    def test_failures_match_for_a_careless_map(self, monkeypatch, source, target, radius):
        # a coordinate map that kills the first support letter and sends
        # the others to the target's first letter breaks every check; the
        # check and the per-index reference (through build_phi_g) both read it
        def careless_phi_images(source, target, support_codes):
            return [() if v == support_codes[0] else (1,) for v in range(1, len(source) + 1)]

        monkeypatch.setattr(embed, "_phi_images", careless_phi_images)
        report = same_report_or_error(source, target, radius)
        kinds = {failure.split()[0] for failure in report.failures}
        assert kinds == ({"not", "witness", "coordinate"} if set(source) & set(target) else {"not", "witness"})

    def test_two_letter_images_are_refused(self, monkeypatch):
        # the walk's product, _seam, is exact only for images of at most one letter
        def two_letter_phi_images(source, target, support_codes):
            return [(1, 1)] * len(source)

        monkeypatch.setattr(embed, "_phi_images", two_letter_phi_images)
        monkeypatch.setattr(embed, "_seam", None)  # a walk would call it
        with pytest.raises(AssertionError, match="more than one letter"):
            check_mono_on_ball(AB, CD, 2)


class TestWalkCost:
    """The walk extends each nontrivial ball element once per distinct coordinate map."""

    @pytest.mark.parametrize(
        "source, target, radius, calls",
        [
            (ABC, Y4, 3, 186 * 1),
            (AB, CD, 3, 52 * 2),
            # a target that hosts the source gives 2^k - k distinct maps for
            # the k source letters outside it, once every support occurs
            (ABC, Alphabet(("a", "b", "c", "d")), 3, 186 * 1),
            (ABC, Alphabet(("c", "d", "f")), 3, 186 * 2),
            (ABC, Alphabet(("d", "f", "g")), 3, 186 * 5),
            (ABC, Alphabet(("d", "f", "g")), 1, 6 * 3),
        ],
    )
    def test_one_product_per_element_and_distinct_map(self, monkeypatch, source, target, radius, calls):
        counted = []

        def counting_seam(image, letter):
            counted.append(None)
            return _seam(image, letter)

        monkeypatch.setattr(embed, "_seam", counting_seam)
        check_mono_on_ball(source, target, radius)
        assert len(counted) == calls

    def test_image_letters_at_the_limit(self, monkeypatch):
        # a, b into c, d at radius 3: 2 distinct maps of a ball of 136 letters
        assert _ball_letters(2, 3) == 136
        monkeypatch.setattr("fgz.embed.MAX_BALL_LETTERS", 272)
        assert not check_mono_on_ball(AB, CD, 3).failures
        monkeypatch.setattr("fgz.embed.MAX_BALL_LETTERS", 271)
        message = "2 distinct coordinate maps of a ball of 136 letters keep 272 image letters, over the limit of 271"
        with pytest.raises(BallLimitError, match=message):
            check_mono_on_ball(AB, CD, 3)

    def test_too_many_image_letters_fail_before_the_walk(self, monkeypatch):
        # rank 12 into a disjoint target at radius 3: 296 distinct maps of
        # 39,216 ball letters; rank 11 keeps 229 x 30,052 = 6,881,908
        monkeypatch.setattr(embed, "_seam", None)  # a walk would call it
        source = Alphabet([f"s{i}" for i in range(12)])
        target = Alphabet([f"t{i}" for i in range(12)])
        assert _ball_letters(11, 3) * 229 <= MAX_BALL_LETTERS < _ball_letters(12, 3) * 296
        with pytest.raises(BallLimitError, match="296 distinct coordinate maps of a ball of 39,216 letters keep 11,607,936"):
            check_mono_on_ball(source, target, 3)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.integers(1, 3).flatmap(lambda rank: st.tuples(reduced_data(rank, 8), reduced_data(rank, 1))))
@example(((), ()))
@example(((1, -2), (2,)))
@example(((-1,), (1,)))
def test_seam_is_the_product_for_one_letter(pair):
    image, letter = pair
    assert _seam(image, letter) == _concat_data(image, letter)


class TestCheckMonoOnBall:
    def test_two_generators_into_four(self):
        report = check_mono_on_ball(AB, Alphabet(("c", "d", "f", "g")), 3)
        assert not report.failures and report.injective and report.fixes_common_letters
        assert report.index_count == 52 and report.ball_size == 53

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            check_mono_on_ball(AB, CD, -1)

    def test_rank_one(self):
        report = check_mono_on_ball(Alphabet(("a",)), Alphabet(("b",)), 4)
        assert not report.failures and report.injective

    def test_equal_alphabets(self):
        report = check_mono_on_ball(AB, AB, 2)
        assert not report.failures and report.injective and report.fixes_common_letters

    def test_overlapping_alphabets(self):
        report = check_mono_on_ball(ABC, Y4, 2)
        assert report.failures == ()
