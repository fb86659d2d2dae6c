import random

import pytest

from fgz.embed import Homomorphism, build_phi, build_phi_g, check_mono_on_ball
from fgz.errors import AlphabetError, IdentityWordError
from fgz.words import Alphabet, Word, enumerate_ball, parse_word

from helpers import AB, ABC, random_word

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
            for name, sign in h.signed_letters:
                expected = expected * (images[name] if sign > 0 else ~images[name])
                inverse_letters += sign < 0
            assert hom.apply(h) == expected
        assert inverse_letters > 500


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


class TestBuildPhi:
    def test_radius_one_witnesses(self):
        indices, phi = build_phi(AB, CD, 1)
        assert [str(g) for g in indices] == ["a", "a^-1", "b", "b^-1"]
        image = phi(AB.letter("a"))
        assert not image.coordinate(AB.letter("a")).is_identity

    def test_identity_alphabets_give_constant_tuple(self):
        indices, phi = build_phi(AB, AB, 2)
        for h in enumerate_ball(AB, 2):
            image = phi(h)
            assert all(coord.data == h.data for _, coord in image.entries)

    def test_target_too_small_for_some_index(self):
        with pytest.raises(AlphabetError, match="too small"):
            build_phi(AB, Alphabet(("c",)), 2)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError):
            build_phi(AB, CD, 0)


class TestCheckMonoOnBall:
    def test_two_generators_into_four(self):
        report = check_mono_on_ball(AB, Alphabet(("c", "d", "f", "g")), 3)
        assert report.passed and report.injective and report.fixes_common_letters
        assert report.index_count == 52 and report.ball_size == 53

    def test_rank_one(self):
        report = check_mono_on_ball(Alphabet(("a",)), Alphabet(("b",)), 4)
        assert report.passed and report.injective

    def test_equal_alphabets(self):
        report = check_mono_on_ball(AB, AB, 2)
        assert report.passed and report.injective and report.fixes_common_letters

    def test_overlapping_alphabets(self):
        report = check_mono_on_ball(ABC, Y4, 2)
        assert report.passed
        assert report.to_json_dict()["failures"] == []
