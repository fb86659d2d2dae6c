import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgz import onevar
from fgz.errors import AlphabetError, RootError
from fgz.onevar import (
    ConcreteBlock,
    LineSolutionSet,
    OneVarWord,
    ParametricWord,
    PowerBlock,
    QUOTIENT_ORDER,
    _ball_buckets,
    _letter_images,
    _merge,
    _normalize_blocks,
    _quotient,
    _quotient_buckets,
    _quotient_survivors,
    brute_solutions,
    reduce_parametric,
    substitute_line,
)
from fgz.words import (
    BALL_CACHE_SIZE,
    Alphabet,
    Word,
    _ball_data,
    _concat_data,
    _reduce_data,
    parse_word,
)

from helpers import (
    AB,
    ABC,
    one_var_words,
    plain_solutions,
    random_reduced_data,
    random_word,
    reduced_data,
)

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

    def test_segments_split_the_body_once(self):
        word = ov("a x b^2 x^-1 a")
        assert word._segments == ((1,), ((True, (2, 2)), (False, (1,))))
        assert word._segments is word._segments
        assert ov("a b")._segments == ((1, 2), ())
        # the cached split takes no part in equality, hashing or repr
        assert word == ov("a x b^2 x^-1 a") and hash(word) == hash(ov("a x b^2 x^-1 a"))
        assert repr(word) == "<OneVarWord 'a x b^2 x^-1 a' var='x'>"


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
        commutator = OneVarWord.parse("x a x^-1 a^-1", Alphabet(("a",)))
        for radius in range(3 * BALL_CACHE_SIZE):
            assert [str(g) for g in brute_solutions(word, radius)] == (["a"] if radius else [])
            assert len(brute_solutions(commutator, radius)) == 2 * radius + 1
        for cache in (_ball_data, _ball_buckets, _quotient_buckets):
            info = cache.cache_info()
            assert info.maxsize == BALL_CACHE_SIZE
            assert info.currsize <= BALL_CACHE_SIZE


N = QUOTIENT_ORDER


def image(data, rank):
    """Image in PSL(2, 7) of an int-coded word, one letter at a time."""
    mul = _quotient()[0]
    letters = _letter_images(rank)
    h = 0
    for v in data:
        h = mul[N * h + letters[v]]
    return h


def quotient_value(word: OneVarWord, h: int) -> int:
    """w(h) in PSL(2, 7): the image of the body with the variable sent to h."""
    mul, inv, _ = _quotient()
    letters = _letter_images(len(word.alphabet))
    vc = word._var_code
    out = 0
    for v in word.body.data:
        step = h if v == vc else inv[h] if v == -vc else letters[v]
        out = mul[N * out + step]
    return out


@st.composite
def balanced_words(draw, rank: int) -> OneVarWord:
    """Strategy: sigma = 0, ab(c) = 0 bodies.

    Either the conjugacy shape ``x u x^-1 c u^-1 c^-1`` (solution c
    planted) or a commutator ``[s, t]`` of one-variable words, which half
    the time gets ``w(g)^-1`` appended to plant g; that keeps sigma and
    ab(c) at zero.
    """
    alphabet = Alphabet("abcd"[:rank])
    extended = alphabet.extend("x")
    var = rank + 1
    if draw(st.booleans()):
        u = draw(reduced_data(rank, 4, min_len=1))
        c = draw(reduced_data(rank, 3))
        raw = [var, *u, -var, *c, *[-v for v in reversed(u)], *[-v for v in reversed(c)]]
        return OneVarWord.from_body(Word(extended, _reduce_data([(v,) for v in raw])))
    s = Word(extended, draw(reduced_data(var, 3)))
    t = Word(extended, draw(reduced_data(var, 3)))
    word = OneVarWord.from_body(s.commutator(t))
    if draw(st.booleans()):
        g = Word(alphabet, draw(reduced_data(rank, 4)))
        word = OneVarWord.from_body(word.body * Word(extended, (~word.evaluate(g)).data))
    return word


class TestQuotientFilter:
    def test_table_is_a_group(self):
        mul, inv, _ = _quotient()
        assert len(mul) == N * N and len(inv) == N
        for g in range(N):
            row = mul[N * g : N * g + N]
            assert sorted(row) == list(range(N))  # a Latin square: closed, cancellative
            assert mul[g] == g and row[0] == g  # 0 is the identity
            assert row[inv[g]] == 0 and mul[N * inv[g] + g] == 0
        rng = random.Random(31)
        for _ in range(5000):
            f, g, h = rng.randrange(N), rng.randrange(N), rng.randrange(N)
            assert mul[N * mul[N * f + g] + h] == mul[N * f + mul[N * g + h]]

    def test_no_letter_maps_to_identity(self):
        letters = _letter_images(9)
        assert all(letters[v] and letters[-v] for v in range(1, 10))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_image_is_a_homomorphism(self, rank):
        mul = _quotient()[0]
        rng = random.Random(32 + rank)
        for _ in range(300):
            u = random_reduced_data(rng, rank, rng.randint(0, 10))
            v = random_reduced_data(rng, rank, rng.randint(0, 10))
            assert image(_concat_data(u, v), rank) == mul[N * image(u, rank) + image(v, rank)]

    def test_buckets_partition_the_ball_by_image(self):
        for rank, radius in ((2, 5), (3, 3), (4, 2)):
            buckets = _quotient_buckets(rank, radius)
            assert sum(map(len, buckets.values())) == len(_ball_data(rank, radius))
            for h, bucket in buckets.items():
                assert all(image(gd, rank) == h for gd in bucket)
                keys = [Word(Alphabet("abcd"[:rank]), gd).sort_key() for gd in bucket]
                assert keys == sorted(keys)

    def test_rank_two_kernel_has_no_short_words(self):
        assert _quotient_buckets(2, 5)[0] == ((),)
        kernel = _quotient_buckets(2, 6)[0]
        ab3 = parse_word("a b a b a b", AB).data
        assert len(kernel) > 1 and ab3 in kernel

    @pytest.mark.parametrize("rank", [3, 4])
    def test_higher_rank_kernel_has_no_words_shorter_than_five(self, rank):
        assert _quotient_buckets(rank, 4)[0] == ((),)
        assert len(_quotient_buckets(rank, 5)[0]) > 1

    @settings(deadline=None, derandomize=True, max_examples=120)
    @given(
        word=st.sampled_from((2, 3, 4)).flatmap(balanced_words),
        radius=st.integers(0, 6),
    )
    @example(word=ov("x a x^-1 a^-1"), radius=6)
    @example(word=ov("x b a b^-1 x^-1 a^-1"), radius=6)
    @example(word=ov("x x^-1"), radius=3)
    @example(word=ov("a b a b a b a a^-1 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1"), radius=3)
    def test_filter_matches_plain_evaluation(self, word, radius):
        assert brute_solutions(word, radius) == plain_solutions(word, radius)

    # the commutator with a, and x u x^-1 v^-1 with u = a b^-1, v = (b a) u (b a)^-1
    @pytest.mark.parametrize(
        "text, solution", [("x a x^-1 a^-1", "a^8"), ("x a b^-1 x^-1 b a b a^-2 b^-1", "b a")]
    )
    def test_few_ball_elements_reach_evaluation(self, text, solution):
        word = ov(text)
        buckets = _quotient_buckets(2, 8)
        evaluated = sum(len(b) for h, b in buckets.items() if quotient_value(word, h) == 0)
        assert evaluated == sum(map(len, _quotient_survivors(word._segments, 2, 8)))
        assert evaluated < 0.1 * len(_ball_data(2, 8))
        assert w(solution) in brute_solutions(word, 8)


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


def fixpoint_normalized(alphabet, blocks):
    """Reference for ``_normalize_blocks``: its first pass (roots assumed
    valid), then merge passes over the whole list until one changes
    nothing, as a ``ParametricWord`` that skips constructor normalization."""
    items = []
    for block in blocks:
        if isinstance(block, ConcreteBlock):
            if block.word.data:
                items.append(block)
            continue
        root, alpha, beta = block.root, block.alpha, block.beta
        cyc = root.cyclic_decomposition()
        core = cyc.core
        if ~core < core:
            core, alpha, beta = ~core, -alpha, -beta
        u = cyc.conjugator
        items += [ConcreteBlock(u), PowerBlock(core, alpha, beta), ConcreteBlock(~u)]
    changed = True
    while changed:
        changed = False
        out = []
        for item in items:
            if isinstance(item, PowerBlock) and item.alpha == 0:
                item = ConcreteBlock(item.root ** item.beta)
                changed = True
            if isinstance(item, ConcreteBlock) and not item.word.data:
                changed = True
                continue
            if out:
                last = out[-1]
                if isinstance(last, ConcreteBlock) and isinstance(item, ConcreteBlock):
                    merged = last.word * item.word
                    if merged.data:
                        out[-1] = ConcreteBlock(merged)
                    else:
                        out.pop()
                    changed = True
                    continue
                if isinstance(last, PowerBlock) and isinstance(item, PowerBlock) and last.root == item.root:
                    out[-1] = PowerBlock(last.root, last.alpha + item.alpha, last.beta + item.beta)
                    changed = True
                    continue
                if isinstance(last, PowerBlock) and isinstance(item, ConcreteBlock):
                    k = onevar._exact_power_exponent(item.word, last.root)
                    if k is not None:
                        out[-1] = PowerBlock(last.root, last.alpha, last.beta + k)
                        changed = True
                        continue
                if isinstance(last, ConcreteBlock) and isinstance(item, PowerBlock):
                    k = onevar._exact_power_exponent(last.word, item.root)
                    if k is not None:
                        out[-1] = PowerBlock(item.root, item.alpha, item.beta + k)
                        changed = True
                        continue
            out.append(item)
        items = out
    pw = object.__new__(ParametricWord)
    object.__setattr__(pw, "alphabet", alphabet)
    object.__setattr__(pw, "blocks", tuple(items))
    return pw


#: primitive roots in both orientations; "b a b^-1" and "a b a^-1" are
#: conjugates of letters, so the first pass splices their conjugators out
ROOT_POOL = tuple(
    parse_word(t, AB) for t in ("a", "a^-1", "b", "b^-1", "a b", "b^-1 a^-1", "a b^-1", "b a b^-1", "a b a^-1")
)


@st.composite
def raw_blocks(draw):
    """Raw block sequences built from pieces that exercise each merge rule:
    free powers and concretes, a concrete that is an exact power of the
    root of the power it precedes or follows, and two powers whose alphas
    cancel between concretes."""
    small = st.integers(-2, 2)
    concrete = reduced_data(2, 3).map(lambda d: ConcreteBlock(Word(AB, d)))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        root = draw(st.sampled_from(ROOT_POOL))
        power = PowerBlock(root, draw(small), draw(small))
        kind = draw(st.sampled_from(("power", "concrete", "left", "right", "cancel")))
        if kind == "power":
            blocks.append(power)
        elif kind == "concrete":
            blocks.append(draw(concrete))
        elif kind == "left":
            blocks += [ConcreteBlock(root ** draw(small)), power]
        elif kind == "right":
            blocks += [power, ConcreteBlock(root ** draw(small))]
        else:
            flipped = draw(st.booleans())
            partner = PowerBlock(~root if flipped else root, power.alpha if flipped else -power.alpha, draw(small))
            blocks += [draw(concrete), power, partner, draw(concrete)]
    return blocks


class TestSeamMerge:
    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(raw=raw_blocks())
    def test_matches_fixpoint_reference(self, raw):
        pw = ParametricWord(AB, raw)
        assert reduce_parametric(pw) == reduce_parametric(fixpoint_normalized(AB, raw))
        for n in range(-6, 7):
            expected = AB.identity()
            for b in raw:
                expected = expected * (b.word if isinstance(b, ConcreteBlock) else b.root ** b.exponent_at(n))
            assert pw.at(n) == expected

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(raw=raw_blocks())
    def test_no_adjacent_blocks_merge(self, raw):
        blocks = ParametricWord(AB, raw).blocks
        assert all(_merge(left, right) is None for left, right in zip(blocks, blocks[1:]))
        assert _normalize_blocks(AB, blocks) == blocks
        assert fixpoint_normalized(AB, blocks).blocks == blocks


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
                    data = (block.root.data, (~block.root).data)
                    assert all(block.root <= Word(AB, d[i:] + d[:i]) for d in data for i in range(len(d)))

    def test_idempotent(self):
        blocks = (
            ConcreteBlock(w("a b")),
            PowerBlock(w("b a b^-1"), 2, 1),
            ConcreteBlock(w("b a^-1")),
        )
        once = ParametricWord(AB, blocks)
        twice = ParametricWord(AB, once.blocks)
        assert once == twice

    def test_conjugate_roots_merge(self):
        # u r^n u^-1 followed by (u r u^-1)^-n collapses for every n
        blocks = (
            ConcreteBlock(w("b")),
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("b^-1")),
            PowerBlock(w("b a b^-1"), -1, 0),
        )
        pw = ParametricWord(AB, blocks)
        assert pw.blocks == ()

    def test_rotated_roots_merge(self):
        # b a = a^-1 (a b) a, so (a b)^n a (b a)^-n a^-1 collapses for every n
        blocks = (
            PowerBlock(w("a b"), 1, 0),
            ConcreteBlock(w("a")),
            PowerBlock(w("b a"), -1, 0),
            ConcreteBlock(w("a^-1")),
        )
        assert ParametricWord(AB, blocks).blocks == ()
        pw = ParametricWord(AB, (PowerBlock(w("a^-1 b^-1"), 1, 0),))
        assert pw.blocks == (ConcreteBlock(w("b")), PowerBlock(w("a b"), -1, 0), ConcreteBlock(w("b^-1")))

    def test_orientation_flip(self):
        pw = ParametricWord(AB, (PowerBlock(w("a^-1"), 1, 2),))
        assert pw.blocks == (PowerBlock(w("a"), -1, -2),)

    def test_constructor_normalizes(self):
        # raw blocks: empty and adjacent concretes, conjugated and
        # inverse-oriented roots, zero exponents
        rng = random.Random(44)
        for _ in range(300):
            raw = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.5:
                    raw.append(ConcreteBlock(random_word(rng, AB, 3)))
                else:
                    root = random_word(rng, AB, 4, min_len=1).primitive_root().root
                    raw.append(PowerBlock(root, rng.randint(-2, 2), rng.randint(-2, 2)))
            pw = ParametricWord(AB, tuple(raw))
            assert pw.blocks == _normalize_blocks(AB, raw)
            assert ParametricWord(AB, pw.blocks) == pw
            for n in range(-3, 4):
                expected = AB.identity()
                for b in raw:
                    value = b.word if isinstance(b, ConcreteBlock) else b.root ** b.exponent_at(n)
                    expected = expected * value
                assert pw.at(n) == expected


class TestReduceParametric:
    def test_all_integers(self):
        blocks = (
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("a")),
            PowerBlock(w("a"), -1, 0),
            ConcreteBlock(w("a^-1")),
        )
        result = reduce_parametric(ParametricWord(AB, blocks))
        assert result == LineSolutionSet.everything()
        pw = ParametricWord(AB, blocks)
        for n in range(-5, 6):
            assert pw.at(n).is_identity

    def test_single_exceptional_point(self):
        blocks = (
            PowerBlock(w("a"), 1, 0),
            ConcreteBlock(w("b")),
            PowerBlock(w("a"), -1, 0),
            ConcreteBlock(w("b^-1")),
        )
        assert reduce_parametric(ParametricWord(AB, blocks)) == LineSolutionSet.finite([0])

    def test_shifted_root(self):
        pw = ParametricWord(AB, (PowerBlock(w("a"), 1, -1),))
        assert reduce_parametric(pw) == LineSolutionSet.finite([1])

    def test_pure_concrete_never_vanishes(self):
        pw = ParametricWord(AB, (ConcreteBlock(w("a b")),))
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

    def test_rotated_root_solution(self):
        # (a b)^n a (b a)^(-2n+3) a^-1 = (a b)^(3-n): the two roots are
        # rotations of one another, and a bound that took them for
        # unrelated roots missed n = 3
        blocks = (
            PowerBlock(w("a b"), 1, 0),
            ConcreteBlock(w("a")),
            PowerBlock(w("b a"), -2, 3),
            ConcreteBlock(w("a^-1")),
        )
        assert reduce_parametric(ParametricWord(AB, blocks)) == LineSolutionSet.finite([3])

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_conjugate_roots_match_evaluation(self, data):
        # powers of rotations and inverses of one root r = x y, each as
        # x (y x)^e x^-1, mixed with powers of r and a few loose concretes
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        root = Word(alphabet, data.draw(reduced_data(len(alphabet), 4, min_len=1))).primitive_root().root
        r = root.cyclic_decomposition().core
        blocks = []
        for _ in range(data.draw(st.integers(1, 5))):
            i = data.draw(st.integers(0, len(r) - 1))
            x, rotation = Word(alphabet, r.data[:i]), Word(alphabet, r.data[i:] + r.data[:i])
            if data.draw(st.booleans()):
                rotation = ~rotation
            power = PowerBlock(rotation, data.draw(st.sampled_from((1, -1, 2, -2, 3))), data.draw(st.integers(-9, 9)))
            if data.draw(st.integers(0, 4)) == 0:
                x = Word(alphabet, data.draw(reduced_data(len(alphabet), 2)))
            blocks += [ConcreteBlock(x), power, ConcreteBlock(~x)]
        pw = ParametricWord(alphabet, blocks)
        solutions = reduce_parametric(pw)
        assert all(pw.at(n).is_identity for n in solutions.values)
        window = range(-60, 61)
        assert [n for n in window if n in solutions] == [n for n in window if pw.at(n).is_identity]

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_solution_at_the_room_of_two_concretes(self, data):
        # P^-1 r^e S^-1 for a cut P S of r^k off a period boundary: the one
        # solution e = k eats both concretes whole, |e| |r| = room exactly.
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        root = Word(alphabet, data.draw(reduced_data(len(alphabet), 5, min_len=2))).primitive_root().root
        core = root.cyclic_decomposition().core
        assume(len(core) >= 2)
        k = data.draw(st.integers(1, 8))
        cut = len(core) * data.draw(st.integers(0, k - 1)) + data.draw(st.integers(1, len(core) - 1))
        power = core ** k
        prefix, suffix = Word(alphabet, power.data[:cut]), Word(alphabet, power.data[cut:])
        alpha, n_star = data.draw(st.sampled_from((1, -1, 2, -2))), data.draw(st.integers(-5, 5))
        blocks = (ConcreteBlock(~prefix), PowerBlock(core, alpha, k - alpha * n_star), ConcreteBlock(~suffix))
        pw = ParametricWord(alphabet, blocks)
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.data())
    def test_solution_at_the_room_of_an_adjacent_power(self, data):
        # x^e (x^-k t)^f t^-1 vanishes only at e = k, f = 1, where x^e and
        # x^-k t share the factor x^k of length |x| + |x^-k t| - 2: the room.
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        x, t = data.draw(st.permutations(range(1, len(alphabet) + 1)))[:2]
        x, t = x * data.draw(st.sampled_from((1, -1))), t * data.draw(st.sampled_from((1, -1)))
        k, n_star = data.draw(st.integers(1, 6)), data.draw(st.integers(-5, 5))
        a1, a2 = data.draw(st.sampled_from((1, -1, 2))), data.draw(st.sampled_from((1, -1, 2)))
        s = Word(alphabet, (-x,) * k + (t,))
        blocks = (
            PowerBlock(Word(alphabet, (x,)), a1, k - a1 * n_star),
            PowerBlock(s, a2, 1 - a2 * n_star),
            ConcreteBlock(Word(alphabet, (-t,))),
        )
        pw = ParametricWord(alphabet, blocks)
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.data())
    def test_solution_at_the_room_across_a_concrete(self, data):
        # (x^k t)^e t^-1 x^f vanishes only at e = 1, f = -k, where x^k t is
        # eaten by t^-1 and then by x^-k: the room |t| + |x^k t| + |x| - 2.
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        x, t = data.draw(st.permutations(range(1, len(alphabet) + 1)))[:2]
        x, t = x * data.draw(st.sampled_from((1, -1))), t * data.draw(st.sampled_from((1, -1)))
        k, n_star = data.draw(st.integers(2, 6)), data.draw(st.integers(-5, 5))
        a1, a2 = data.draw(st.sampled_from((1, -1, 2))), data.draw(st.sampled_from((1, -1, 2)))
        blocks = (
            PowerBlock(Word(alphabet, (x,) * k + (t,)), a1, 1 - a1 * n_star),
            ConcreteBlock(Word(alphabet, (-t,))),
            PowerBlock(Word(alphabet, (x,)), a2, -k - a2 * n_star),
        )
        pw = ParametricWord(alphabet, blocks)
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    def test_does_not_normalize_again(self, monkeypatch):
        rng = random.Random(45)
        cases = []
        for _ in range(80):
            word = OneVarWord.from_body(Word(X, random_reduced_data(rng, 3, rng.randint(0, 8))))
            base = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            pw = substitute_line(word, base, root)
            cases.append((pw, reduce_parametric(pw)))

        def normalize(*args):
            raise AssertionError("reduce_parametric normalized its input again")

        monkeypatch.setattr(onevar, "_normalize_blocks", normalize)
        for pw, expected in cases:
            assert reduce_parametric(pw) == expected

    def test_membership(self):
        assert 5 in LineSolutionSet.everything()
        finite = LineSolutionSet.finite([3, -1, 3])
        assert finite.values == (-1, 3)
        assert 3 in finite and 0 not in finite
