import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgz import onevar
from fgz.errors import AlphabetError, RootError
from fgz.onevar import (
    ConcreteBlock,
    LineSolutionSet,
    OneVarWord,
    ParametricWord,
    PowerBlock,
    _ball_buckets,
    brute_solutions,
    reduce_parametric,
    substitute_line,
)
from fgz.words import BALL_CACHE_SIZE, Alphabet, Word, _ball_data, parse_word

from helpers import AB, ABC, one_var_words, plain_solutions, random_reduced_data, random_word

X = AB.extend("x")


def ov(text):
    return OneVarWord.parse(text, AB)


def w(text):
    return parse_word(text, AB)


class TestOneVarWord:
    def test_variable_collision(self):
        with pytest.raises(AlphabetError):
            OneVarWord.parse("a", Alphabet(("a", "x")))

    def test_variable_override(self):
        word = OneVarWord.parse("t a t^-1", AB, variable="t")
        assert word.contains_variable
        assert word.evaluate(w("b")) == w("b a b^-1")

    def test_coefficient_word(self):
        assert ov("a b").coefficient_word() == w("a b")
        with pytest.raises(ValueError):
            ov("x a").coefficient_word()

    def test_variable_parses_like_a_letter(self):
        assert ov("x x^-1 a").body == ov("a").body
        assert ov("x^2").body.data == (3, 3)


class TestEvaluate:
    def test_commutator_with_power(self):
        assert ov("x a x^-1 a^-1").evaluate(w("a^3")).is_identity

    def test_square(self):
        assert ov("x^2").evaluate(w("a b")) == w("a b a b")

    def test_cancellation(self):
        assert ov("a x b").evaluate(w("a^-1")) == w("b")

    def test_alphabet_check(self):
        with pytest.raises(AlphabetError):
            ov("x").evaluate(Alphabet(("c",)).letter("c"))

    def test_homomorphism_law_exhaustive(self):
        from fgz.words import _ball_data

        points = [w("a b"), w("b^-1")]
        for data in _ball_data(3, 6):
            body = Word(X, data)
            word = OneVarWord.from_body(body)
            mid = len(data) // 2
            left = OneVarWord.from_body(Word(X, data[:mid]))
            right = OneVarWord.from_body(Word(X, data[mid:]))
            for g in points:
                assert word.evaluate(g) == left.evaluate(g) * right.evaluate(g)

    def test_inverted_variable(self):
        rng = random.Random(21)
        for _ in range(100):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(0, 8)))
            word = OneVarWord.from_body(body)
            flipped = word.with_inverted_variable()
            g = random_word(rng, AB, 4)
            assert flipped.evaluate(g) == word.evaluate(~g)


class TestBruteSolutions:
    def test_commutator_solutions_are_powers(self):
        sols = brute_solutions(ov("x a x^-1 a^-1"), 3)
        assert set(sols) == {w("a") ** k for k in range(-3, 4)}

    def test_unique_solution(self):
        assert brute_solutions(ov("x a^-1"), 2) == [w("a")]

    def test_no_solution_for_proper_power_equation(self):
        assert brute_solutions(ov("x^2 a"), 4) == []

    def test_monotone_in_radius(self):
        rng = random.Random(22)
        for _ in range(30):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(1, 6)))
            word = OneVarWord.from_body(body)
            bigger = {g for g in brute_solutions(word, 4) if len(g) <= 3}
            assert bigger == set(brute_solutions(word, 3))

    def test_conjugation_invariance(self):
        rng = random.Random(23)
        for _ in range(30):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(1, 5)))
            word = OneVarWord.from_body(body)
            u = OneVarWord.from_body(Word(X, random_reduced_data(rng, 3, rng.randint(0, 3))))
            conjugated = u * word * ~u
            assert brute_solutions(word, 3) == brute_solutions(conjugated, 3)

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(
        word=st.sampled_from((AB, ABC)).flatmap(one_var_words),
        radius=st.integers(0, 5),
    )
    @example(word=ov("x^2 a"), radius=4)
    @example(word=ov("x^3 a^3 b^-2"), radius=5)
    @example(word=ov("x^-2 a^-2 b^4"), radius=5)
    @example(word=ov("a b a^-1 b^-1"), radius=3)
    @example(word=ov("a a^-1"), radius=2)
    def test_filter_matches_plain_evaluation(self, word, radius):
        assert brute_solutions(word, radius) == plain_solutions(word, radius)

    def test_abelianization_rules_out_without_walking(self, monkeypatch):
        def no_walk(rank, radius):
            raise AssertionError("walked the ball")

        _ball_buckets(2, 5)
        monkeypatch.setattr(onevar, "_ball_data", no_walk)
        assert brute_solutions(ov("x a^-1"), 5) == [w("a")]  # one bucket, from the cache
        monkeypatch.setattr(onevar, "_ball_buckets", no_walk)
        assert brute_solutions(ov("x a x^-1 b"), 5) == []  # sigma = 0, ab(c) != 0
        assert brute_solutions(ov("x^2 a b^2"), 5) == []  # sigma = 2 does not divide ab(c)

    def test_ball_caches_stay_bounded(self):
        word = OneVarWord.parse("x a^-1", Alphabet(("a",)))
        for radius in range(3 * BALL_CACHE_SIZE):
            assert [str(g) for g in brute_solutions(word, radius)] == (["a"] if radius else [])
        for cache in (_ball_data, _ball_buckets):
            info = cache.cache_info()
            assert info.maxsize == BALL_CACHE_SIZE
            assert info.currsize <= BALL_CACHE_SIZE


class TestSubstituteLine:
    def test_whole_line_solves_commutator(self):
        pw = substitute_line(ov("x a x^-1 a^-1"), w("1"), w("a"))
        assert pw.blocks == ()
        for n in range(-5, 6):
            assert pw.at(n).is_identity

    def test_no_cancellation_blocks(self):
        pw = substitute_line(ov("x b x^-1 b^-1"), w("1"), w("a"))
        assert pw.blocks == (
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("b")),
            PowerBlock(w("a"), -1, 0),
            ConcreteBlock(w("b^-1")),
        )

    def test_exponent_shift(self):
        pw = substitute_line(ov("x a^-1"), w("1"), w("a"))
        assert pw.blocks == (PowerBlock(w("a"), 1, -1),)

    def test_rejects_bad_directions(self):
        with pytest.raises(RootError):
            substitute_line(ov("x"), w("1"), w("1"))
        with pytest.raises(RootError):
            substitute_line(ov("x"), w("1"), w("a^2"))

    def test_agrees_with_evaluate(self):
        rng = random.Random(24)
        for _ in range(60):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(0, 7)))
            word = OneVarWord.from_body(body)
            base = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            pw = substitute_line(word, base, root)
            for n in range(-4, 5):
                assert pw.at(n) == word.evaluate(base * root ** n)


class TestNormalization:
    def test_invariants(self):
        rng = random.Random(25)
        for _ in range(80):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(0, 7)))
            word = OneVarWord.from_body(body)
            base = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            pw = substitute_line(word, base, root)
            for i, block in enumerate(pw.blocks):
                if isinstance(block, ConcreteBlock):
                    assert block.word.data
                    if i + 1 < len(pw.blocks):
                        assert not isinstance(pw.blocks[i + 1], ConcreteBlock)
                else:
                    assert block.root.primitive_root().exponent == 1
                    assert not (block.alpha == 0 and block.beta == 0)
                    core = block.root.cyclic_decomposition().core
                    assert core == block.root
                    assert block.root <= ~block.root

    def test_idempotent(self):
        blocks = (
            ConcreteBlock(w("a b")),
            PowerBlock(w("b a b^-1"), 2, 1),
            ConcreteBlock(w("b a^-1")),
        )
        once = ParametricWord.of(AB, blocks)
        twice = ParametricWord.of(AB, once.blocks)
        assert once == twice

    def test_conjugate_roots_merge(self):
        # u r^n u^-1 followed by (u r u^-1)^-n collapses for every n
        blocks = (
            ConcreteBlock(w("b")),
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("b^-1")),
            PowerBlock(w("b a b^-1"), -1, 0),
        )
        pw = ParametricWord.of(AB, blocks)
        assert pw.blocks == ()

    def test_orientation_flip(self):
        pw = ParametricWord.of(AB, (PowerBlock(w("a^-1"), 1, 2),))
        assert pw.blocks == (PowerBlock(w("a"), -1, -2),)


class TestReduceParametric:
    def test_all_integers(self):
        blocks = (
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("a")),
            PowerBlock(w("a"), -1, 0),
            ConcreteBlock(w("a^-1")),
        )
        result = reduce_parametric(ParametricWord.of(AB, blocks))
        assert result == LineSolutionSet.everything()
        pw = ParametricWord.of(AB, blocks)
        for n in range(-5, 6):
            assert pw.at(n).is_identity

    def test_single_exceptional_point(self):
        blocks = (
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("b")),
            PowerBlock(w("a"), -1, 0),
            ConcreteBlock(w("b^-1")),
        )
        assert reduce_parametric(ParametricWord.of(AB, blocks)) == LineSolutionSet.finite([0])

    def test_shifted_root(self):
        pw = ParametricWord.of(AB, (PowerBlock(w("a"), 1, -1),))
        assert reduce_parametric(pw) == LineSolutionSet.finite([1])

    def test_pure_concrete_never_vanishes(self):
        pw = ParametricWord.of(AB, (ConcreteBlock(w("a b")),))
        assert reduce_parametric(pw) == LineSolutionSet.finite([])

    def test_matches_concrete_evaluation(self):
        rng = random.Random(26)
        for _ in range(120):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(0, 8)))
            word = OneVarWord.from_body(body)
            base = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            solutions = reduce_parametric(substitute_line(word, base, root))
            for n in range(-6, 7):
                expected = word.evaluate(base * root ** n).is_identity
                assert (n in solutions) == expected, (word, base, root, n)

    def test_membership(self):
        assert 5 in LineSolutionSet.everything()
        finite = LineSolutionSet.finite([3, -1, 3])
        assert finite.values == (-1, 3)
        assert 3 in finite and 0 not in finite
