import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgz import onevar
from fgz.errors import AlphabetError, EvaluationLimitError, RootError
from fgz.onevar import (
    LineSolutionSet,
    OneVarWord,
    ParametricWord,
    PowerBlock,
    QUOTIENT_ORDER,
    _ball_buckets,
    _merge,
    _normalize_blocks,
    _QUOTIENT_MATRICES,
    _mobius,
    _quotient_buckets,
    _quotient_survivors,
    _quotient_table,
    brute_solutions,
    reduce_parametric,
    substitute_line,
)
from fgz.residual import Permutation, PermRep, _compose, _fold, _inverse, _perm_table, apply_perm_rep
from fgz.words import (
    BALL_CACHE_SIZE,
    Alphabet,
    Word,
    _ball_data,
    _ball_steps,
    _concat_data,
    _reduce_data,
    _RootSplit,
    _split_root,
    parse_word,
)

from helpers import (
    AB,
    ABC,
    commutator,
    one_var_words,
    plain_solutions,
    random_lines,
    random_reduced_data,
    random_word,
    reduced_data,
    with_inverted_variable,
)

X = AB.extend("x")


def ov(text):
    return OneVarWord.parse(text, AB)


def w(text):
    return parse_word(text, AB)


class TestOneVarWord:
    def test_variable_collision(self):
        with pytest.raises(AlphabetError, match="variable 'x' collides"):
            OneVarWord.parse("a", Alphabet(("a", "x")))

    def test_body_over_the_extended_alphabet(self):
        with pytest.raises(AlphabetError, match="^body must be over the alphabet extended by the variable$"):
            OneVarWord(AB, "x", w("a"))
        with pytest.raises(AlphabetError, match="^expected 'x' as the last letter of the extended alphabet$"):
            OneVarWord.from_body(Word(ABC, (3,)))

    def test_a_body_over_no_letters_has_no_variable(self):
        with pytest.raises(AlphabetError, match="^expected 'x' as the last letter of the extended alphabet$"):
            OneVarWord.from_body(Word(Alphabet(()), ()))

    def test_variable_override(self):
        word = OneVarWord.parse("t a t^-1", AB, variable="t")
        assert word.contains_variable
        assert word.evaluate(w("b")) == w("b a b^-1")

    def test_parses_share_one_extended_alphabet(self):
        assert ov("x a").body.alphabet is ov("b x^-1").body.alphabet

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

    def test_size_before_reduction_is_limited(self):
        # |w| - k + k |g| letters: 1,999 - 999 + 999 * 1,000 = 1,000,000 is at the limit
        assert ov("a^1000 x^999").evaluate(w("a^1000")) == w("a^1000000")
        with pytest.raises(EvaluationLimitError, match="1,000,001 letters before reduction, over the evaluation limit"):
            ov("a^1001 x^999").evaluate(w("a^1000"))
        # the limit counts letters before reduction, even where the result is one letter
        with pytest.raises(EvaluationLimitError, match="1,200,001 letters"):
            ov("x a x^-1").evaluate(w("a^600000"))

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
            flipped = with_inverted_variable(word)
            g = random_word(rng, AB, 4)
            assert flipped.evaluate(g) == word.evaluate(~g)


class TestBruteSolutions:
    def test_commutator_solutions_are_powers(self):
        sols = brute_solutions(ov("x a x^-1 a^-1"), 3)
        assert set(sols) == {w("a") ** k for k in range(-3, 4)}

    def test_unique_solution(self):
        assert brute_solutions(ov("x a^-1"), 2) == [w("a")]

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            brute_solutions(ov("x a^-1"), -1)

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
            u = Word(X, random_reduced_data(rng, 3, rng.randint(0, 3)))
            conjugated = OneVarWord.from_body(u * word.body * ~u)
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

    def test_nonzero_exponent_sum_stops_at_the_first_solution(self, monkeypatch):
        # sigma != 0 allows one solution at most; the bucket ab(g) = (1, 0) at
        # radius 5 has 19 elements, and its shortlex first, a, solves x a^-1
        calls = []

        def counting(segments, gd):
            calls.append(gd)
            return substitute(segments, gd)

        substitute = onevar._substitute
        monkeypatch.setattr(onevar, "_substitute", counting)
        assert brute_solutions(ov("x a^-1"), 5) == [w("a")]
        assert calls == [(1,)]

    def test_evaluation_size_is_limited(self, monkeypatch):
        # |w| - k + k * radius letters: 999,999 - 1 + 2 = 1,000,000 is at the limit
        word = ov("x a^-1 b^499998 a b^-499998")
        assert brute_solutions(word, 2) == []

        def no_walk(*args):
            raise AssertionError("walked the ball")

        monkeypatch.setattr(onevar, "_ball_buckets", no_walk)
        monkeypatch.setattr(onevar, "_quotient_survivors", no_walk)
        with pytest.raises(EvaluationLimitError, match="1,000,001 letters before reduction, over the evaluation limit"):
            brute_solutions(word, 3)
        # a word the abelianization rules out is answered, whatever its size:
        # 999,999 - 2 + 2 * 3 = 1,000,003 letters, but sigma = 2 does not divide ab(c)
        assert brute_solutions(ov("x^2 a b^499997 a^2 b^-499997"), 3) == []

    def test_ball_caches_stay_bounded(self):
        word = OneVarWord.parse("x a^-1", Alphabet(("a",)))
        commutator = OneVarWord.parse("x a x^-1 a^-1", Alphabet(("a",)))
        for radius in range(3 * BALL_CACHE_SIZE):
            assert [str(g) for g in brute_solutions(word, radius)] == (["a"] if radius else [])
            assert len(brute_solutions(commutator, radius)) == 2 * radius + 1
        for cache in (_ball_data, _ball_steps, _ball_buckets, _quotient_buckets):
            info = cache.cache_info()
            assert info.maxsize == BALL_CACHE_SIZE
            assert info.currsize <= BALL_CACHE_SIZE


IDENTITY = tuple(range(8))


def image(data, rank):
    """Image in PSL(2, 7) of an int-coded word, folded one letter at a time."""
    return tuple(_fold(_quotient_table(rank), data, list(IDENTITY)))


def quotient_value(word: OneVarWord, h: tuple[int, ...]) -> tuple[int, ...]:
    """w(h) in PSL(2, 7): the image of the body with the variable sent to h."""
    rank = len(word.alphabet)
    letters = _quotient_table(rank)[1:rank + 1]
    return tuple(_fold(_perm_table(8, [*letters, h]), word.body.data, list(IDENTITY)))


def buckets_by_image(rank, radius):
    return {h: bucket for h, _, bucket in _quotient_buckets(rank, radius)}


@st.composite
def words_with_ranks(draw):
    rank = draw(st.sampled_from((2, 3, 4)))
    return rank, draw(reduced_data(rank, 4))


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
    word = OneVarWord.from_body(commutator(s, t))
    if draw(st.booleans()):
        g = Word(alphabet, draw(reduced_data(rank, 4)))
        word = OneVarWord.from_body(word.body * Word(extended, (~word.evaluate(g)).data))
    return word


class TestQuotientFilter:
    def test_letters_generate_a_group_of_order_168(self):
        letters = _quotient_table(4)[1:5]
        elements, frontier = {IDENTITY}, [IDENTITY]
        while frontier:
            frontier = [q for p in frontier for t in letters if (q := _compose(p, t)) not in elements]
            elements.update(frontier)
        assert len(elements) == QUOTIENT_ORDER
        # closed under inverses, with the inverse on both sides
        assert all(_inverse(p) in elements and _compose(p, _inverse(p)) == IDENTITY for p in elements)
        assert all(_compose(_inverse(p), p) == IDENTITY for p in elements)

    def test_no_letter_maps_to_identity(self):
        letters = _quotient_table(9)
        assert letters[0] == IDENTITY
        assert all(letters[v] != IDENTITY and letters[-v] != IDENTITY for v in range(1, 10))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_image_is_a_homomorphism(self, rank):
        rng = random.Random(32 + rank)
        for _ in range(300):
            u = random_reduced_data(rng, rank, rng.randint(0, 10))
            v = random_reduced_data(rng, rank, rng.randint(0, 10))
            assert image(_concat_data(u, v), rank) == _compose(image(u, rank), image(v, rank))

    @pytest.mark.parametrize("rank", [2, 5])
    def test_image_is_the_inverse_of_the_matrix_product(self, rank):
        # a word's buckets are those of its matrices' product: the image is
        # the inverse of that product's Mobius permutation
        def mat_mul(m, n):
            return tuple([tuple([sum(m[i][k] * n[k][j] for k in range(2)) % 7 for j in range(2)]) for i in range(2)])

        def matrix(v):
            (p, q), (r, s) = _QUOTIENT_MATRICES[(abs(v) - 1) % 4]
            return ((p, q), (r, s)) if v > 0 else ((s, -q % 7), (-r % 7, p))

        rng = random.Random(35 + rank)
        for _ in range(200):
            gd = random_reduced_data(rng, rank, rng.randint(0, 10))
            product = ((1, 0), (0, 1))
            for v in gd:
                product = mat_mul(product, matrix(v))
            assert image(gd, rank) == _inverse(_mobius(product))

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(case=words_with_ranks())
    def test_one_composition_convention(self, case):
        # the witness layer and the filter's ball walk give a word one image
        rank, gd = case
        alphabet = Alphabet("abcd"[:rank])
        letters = _quotient_table(rank)[1:rank + 1]
        rep = PermRep(alphabet, 8, tuple([Permutation(p) for p in letters]))
        (h,) = [h for h, bucket in buckets_by_image(rank, 4).items() if gd in bucket]
        assert apply_perm_rep(rep, Word(alphabet, gd)).images == h == image(gd, rank)

    def test_buckets_partition_the_ball_by_image(self):
        for rank, radius in ((2, 5), (3, 3), (4, 2)):
            buckets = _quotient_buckets(rank, radius)
            assert sum(len(bucket) for _, _, bucket in buckets) == len(_ball_data(rank, radius))
            assert len({h for h, _, _ in buckets}) == len(buckets)
            for h, hi, bucket in buckets:
                assert hi == _inverse(h)
                assert all(image(gd, rank) == h for gd in bucket)
                keys = [Word(Alphabet("abcd"[:rank]), gd).sort_key() for gd in bucket]
                assert keys == sorted(keys)

    def test_rank_two_kernel_has_no_short_words(self):
        assert buckets_by_image(2, 5)[IDENTITY] == ((),)
        kernel = buckets_by_image(2, 6)[IDENTITY]
        ab3 = parse_word("a b a b a b", AB).data
        assert len(kernel) > 1 and ab3 in kernel

    @pytest.mark.parametrize("rank", [3, 4])
    def test_higher_rank_kernel_has_no_words_shorter_than_five(self, rank):
        assert buckets_by_image(rank, 4)[IDENTITY] == ((),)
        assert len(buckets_by_image(rank, 5)[IDENTITY]) > 1

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
        buckets = buckets_by_image(2, 8)
        evaluated = sum(len(b) for h, b in buckets.items() if quotient_value(word, h) == IDENTITY)
        assert evaluated == sum(map(len, _quotient_survivors(word._segments, 2, 8)))
        assert evaluated < 0.1 * len(_ball_data(2, 8))
        assert w(solution) in brute_solutions(word, 8)


class TestSubstituteLine:
    def test_whole_line_solves_commutator(self):
        pw = substitute_line(ov("x a x^-1 a^-1"), w("1"), w("a"))
        assert pw.blocks == ()
        for n in range(-5, 6):
            assert pw.at(n).is_identity

    def test_base_and_root_over_the_coefficient_alphabet(self):
        message = "^base and root must be over the coefficient alphabet$"
        for base, root in ((Word(ABC, ()), w("a")), (w("1"), Word(ABC, (1,)))):
            with pytest.raises(AlphabetError, match=message):
                substitute_line(ov("x a x^-1 a^-1"), base, root)

    def test_no_cancellation_blocks(self):
        pw = substitute_line(ov("x b x^-1 b^-1"), w("1"), w("a"))
        assert pw.root == w("a")
        assert pw.blocks == (
            PowerBlock(1, 0),
            w("b"),
            PowerBlock(-1, 0),
            w("b^-1"),
        )

    def test_exponent_shift(self):
        pw = substitute_line(ov("x a^-1"), w("1"), w("a"))
        assert pw.blocks == (PowerBlock(1, -1),)

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


def fixpoint_normalized(alphabet, root, blocks):
    """Reference for ``ParametricWord`` normalization: the cyclic core c of
    ``root = u c u^-1`` (root assumed valid) with ``u . power . u^-1``
    spliced for each power, then merge passes over the whole list until
    one changes nothing, as a ``ParametricWord`` that skips constructor
    normalization."""
    u, ui, c, ci = _split_root(root.data)
    core = _RootSplit((), (), c, ci)
    items = []
    for block in blocks:
        if isinstance(block, Word):
            items.append(block)
        else:
            items += [Word(alphabet, u), block, Word(alphabet, ui)]
    changed = True
    while changed:
        changed = False
        out = []
        for item in items:
            if isinstance(item, PowerBlock) and item.alpha == 0:
                item = Word(alphabet, core.power(item.beta))
                changed = True
            if isinstance(item, Word) and not item.data:
                changed = True
                continue
            if out:
                last = out[-1]
                if isinstance(last, Word) and isinstance(item, Word):
                    merged = last * item
                    if merged.data:
                        out[-1] = merged
                    else:
                        out.pop()
                    changed = True
                    continue
                if isinstance(last, PowerBlock) and isinstance(item, PowerBlock):
                    out[-1] = PowerBlock(last.alpha + item.alpha, last.beta + item.beta)
                    changed = True
                    continue
                if isinstance(last, PowerBlock) and isinstance(item, Word):
                    k = core.exponent(item.data)
                    if k is not None:
                        out[-1] = PowerBlock(last.alpha, last.beta + k)
                        changed = True
                        continue
                if isinstance(last, Word) and isinstance(item, PowerBlock):
                    k = core.exponent(last.data)
                    if k is not None:
                        out[-1] = PowerBlock(item.alpha, item.beta + k)
                        changed = True
                        continue
            out.append(item)
        items = out
    pw = object.__new__(ParametricWord)
    object.__setattr__(pw, "alphabet", alphabet)
    object.__setattr__(pw, "root", Word(alphabet, c))
    object.__setattr__(pw, "blocks", tuple(items))
    object.__setattr__(pw, "_split", core)
    return pw


#: primitive roots in both orientations; "b a b^-1" and "a b a^-1" are
#: conjugates of letters, so normalization splices their conjugators out
ROOT_POOL = tuple(
    parse_word(t, AB) for t in ("a", "a^-1", "b", "b^-1", "a b", "b^-1 a^-1", "a b^-1", "b a b^-1", "a b a^-1")
)


@st.composite
def raw_blocks(draw):
    """A root from ``ROOT_POOL`` and raw blocks built from pieces that
    exercise each merge rule: free powers and concretes, a concrete that
    is an exact power of the root before or after a power, and two powers
    whose alphas cancel between concretes."""
    small = st.integers(-2, 2)
    root = draw(st.sampled_from(ROOT_POOL))
    concrete = reduced_data(2, 3).map(lambda d: Word(AB, d))
    blocks = []
    for _ in range(draw(st.integers(0, 5))):
        power = PowerBlock(draw(small), draw(small))
        kind = draw(st.sampled_from(("power", "concrete", "left", "right", "cancel")))
        if kind == "power":
            blocks.append(power)
        elif kind == "concrete":
            blocks.append(draw(concrete))
        elif kind == "left":
            blocks += [root ** draw(small), power]
        elif kind == "right":
            blocks += [power, root ** draw(small)]
        else:
            blocks += [draw(concrete), power, PowerBlock(-power.alpha, draw(small)), draw(concrete)]
    return root, blocks


def raw_value(root, blocks, n):
    """The raw blocks multiplied out at n, without normalization."""
    value = root.alphabet.identity()
    for b in blocks:
        value = value * (b if isinstance(b, Word) else root ** b.exponent_at(n))
    return value


class TestExactPowerExponent:
    """``_RootSplit.exponent`` on the cyclically reduced roots that normalized lines have."""

    @pytest.mark.parametrize("root", ["a", "a b", "a b^-1 a^2", "b a^-1 b^-1 a^2 b"])
    def test_powers_of_either_sign(self, root):
        r = w(root)
        split = _split_root(r.data)
        for k in range(1, 9):
            assert split.exponent((r ** k).data) == k
            assert split.exponent((r ** -k).data) == -k

    @pytest.mark.parametrize("root", ["a b", "a b^-1 a^2", "b a^-1 b^-1 a^2 b"])
    def test_rotations_and_other_lengths_are_not_powers(self, root):
        # a primitive root of two or more letters: its powers have no
        # rotation by one letter that equals them, and a prefix one letter
        # short has a length that |root| does not divide
        split = _split_root(w(root).data)
        for k in range(1, 9):
            data = split.power(k)
            assert split.exponent(data[1:] + data[:1]) is None
            assert split.exponent(data[:-1]) is None
            assert split.exponent((~Word(AB, data[1:] + data[:1])).data) is None


class TestSeamMerge:
    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(raw=raw_blocks())
    def test_matches_fixpoint_reference(self, raw):
        root, blocks = raw
        pw = ParametricWord(AB, root, blocks)
        assert reduce_parametric(pw) == reduce_parametric(fixpoint_normalized(AB, root, blocks))
        for n in range(-6, 7):
            assert pw.at(n) == raw_value(root, blocks, n)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(raw=raw_blocks())
    def test_no_adjacent_blocks_merge(self, raw):
        pw = ParametricWord(AB, *raw)
        blocks = pw.blocks
        assert all(_merge(left, right, pw._split) is None for left, right in zip(blocks, blocks[1:]))
        assert _normalize_blocks(AB, pw._split, blocks) == (pw._split, blocks)
        assert fixpoint_normalized(AB, pw.root, blocks).blocks == blocks


class TestNormalization:
    def test_invariants(self):
        rng = random.Random(25)
        for _ in range(80):
            body = Word(X, random_reduced_data(rng, 3, rng.randint(0, 7)))
            word = OneVarWord.from_body(body)
            base = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            pw = substitute_line(word, base, root)
            assert pw.root.data == _split_root(root.data).k
            kinds = [isinstance(block, Word) for block in pw.blocks]
            assert all(left != right for left, right in zip(kinds, kinds[1:]))
            for block in pw.blocks:
                if isinstance(block, Word):
                    assert block.data
                else:
                    assert block.alpha != 0

    def test_idempotent(self):
        blocks = (
            w("a b"),
            PowerBlock(2, 1),
            w("b a^-1"),
        )
        once = ParametricWord(AB, w("b a b^-1"), blocks)
        twice = ParametricWord(AB, once.root, once.blocks)
        assert once == twice

    def test_conjugated_root_is_spliced(self):
        # (b a b^-1)^n b a^-1 = b a^n b^-1 b a^-1 = b a^(n-1)
        pw = ParametricWord(AB, w("b a b^-1"), (PowerBlock(1, 0), w("b a^-1")))
        assert pw.root == w("a")
        assert pw.blocks == (w("b"), PowerBlock(1, -1))

    @pytest.mark.parametrize("root", ["b a", "a^-1", "b^-1 a^-1"])
    def test_cyclically_reduced_root_is_kept(self, root):
        pw = ParametricWord(AB, w(root), (PowerBlock(1, 2),))
        assert (pw.root, pw.blocks) == (w(root), (PowerBlock(1, 2),))

    def test_rejects_bad_roots(self):
        with pytest.raises(RootError, match="^root of a parametric word must be nontrivial$"):
            ParametricWord(AB, w("1"), ())
        with pytest.raises(RootError, match=r"^root b a\^2 b\^-1 is a proper power \(b a b\^-1\)\^2$"):
            ParametricWord(AB, w("b a^2 b^-1"), (PowerBlock(1, 0),))

    def test_constructor_normalizes(self):
        # raw blocks around one root: empty and adjacent concretes, a
        # conjugated root, zero exponents
        rng = random.Random(44)
        for _ in range(300):
            root = random_word(rng, AB, 4, min_len=1).primitive_root().root
            raw = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.5:
                    raw.append(random_word(rng, AB, 3))
                else:
                    raw.append(PowerBlock(rng.randint(-2, 2), rng.randint(-2, 2)))
            pw = ParametricWord(AB, root, tuple(raw))
            assert (pw._split, pw.blocks) == _normalize_blocks(AB, _split_root(root.data), raw)
            assert ParametricWord(AB, pw.root, pw.blocks) == pw
            for n in range(-3, 4):
                assert pw.at(n) == raw_value(root, raw, n)


class TestReduceParametric:
    def test_all_integers(self):
        blocks = (
            PowerBlock(1, 0),
            w("a"),
            PowerBlock(-1, 0),
            w("a^-1"),
        )
        pw = ParametricWord(AB, w("a"), blocks)
        assert reduce_parametric(pw) == LineSolutionSet.everything()
        for n in range(-5, 6):
            assert pw.at(n).is_identity

    def test_single_exceptional_point(self):
        blocks = (
            PowerBlock(1, 0),
            w("b"),
            PowerBlock(-1, 0),
            w("b^-1"),
        )
        assert reduce_parametric(ParametricWord(AB, w("a"), blocks)) == LineSolutionSet.finite([0])

    def test_shifted_root(self):
        pw = ParametricWord(AB, w("a"), (PowerBlock(1, -1),))
        assert reduce_parametric(pw) == LineSolutionSet.finite([1])

    def test_pure_concrete_never_vanishes(self):
        pw = ParametricWord(AB, w("a"), (w("a b"),))
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

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.data())
    def test_conjugate_roots_match_evaluation(self, data):
        # powers of one root, possibly conjugated, with cyclic core r = x y,
        # each as x r^e x^-1 = (y x)^e conjugated, x drawn from the
        # prefixes of r and r^-1; one concrete in five is loose instead
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        root = Word(alphabet, data.draw(reduced_data(len(alphabet), 4, min_len=1))).primitive_root().root
        r = Word(alphabet, _split_root(root.data).k)
        blocks = []
        for _ in range(data.draw(st.integers(1, 5))):
            side = r if data.draw(st.booleans()) else ~r
            x = Word(alphabet, side.data[: data.draw(st.integers(0, len(r) - 1))])
            y = ~x
            if data.draw(st.integers(0, 4)) == 0:
                x = Word(alphabet, data.draw(reduced_data(len(alphabet), 2)))
            if data.draw(st.integers(0, 4)) == 0:
                y = Word(alphabet, data.draw(reduced_data(len(alphabet), 2)))
            power = PowerBlock(data.draw(st.sampled_from((1, -1, 2, -2, 3))), data.draw(st.integers(-9, 9)))
            blocks += [x, power, y]
        pw = ParametricWord(alphabet, root, blocks)
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
        core = Word(alphabet, _split_root(root.data).k)
        assume(len(core) >= 2)
        k = data.draw(st.integers(1, 8))
        cut = len(core) * data.draw(st.integers(0, k - 1)) + data.draw(st.integers(1, len(core) - 1))
        power = core ** k
        prefix, suffix = Word(alphabet, power.data[:cut]), Word(alphabet, power.data[cut:])
        alpha, n_star = data.draw(st.sampled_from((1, -1, 2, -2))), data.draw(st.integers(-5, 5))
        blocks = (~prefix, PowerBlock(alpha, k - alpha * n_star), ~suffix)
        pw = ParametricWord(alphabet, core, blocks)
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        case=st.sampled_from(
            (
                # root, c0, e1, c1, e2, c2 with c0 r^e1 c1 r^e2 c2 = 1
                ("a b a b a^-1 b^-1", "b^-1 a^-1 b^-1 a^-1", 1, "a^-1", 1, "b a b^-1"),
                ("b^-1 a^-4", "a^-1 b a^4 b a^4 b", 3, "a", -1, "b^-1"),
                ("c a^3", "c^-1", 1, "a^-1", -1, "c a"),
            )
        ),
        alphas=st.sampled_from(((1, 1), (2, -1), (-1, 2), (-2, -1))),
        n_star=st.integers(-5, 5),
    )
    def test_solution_beyond_the_room_of_the_concretes(self, case, alphas, n_star):
        # Each power is longer than the concretes next to it: the two
        # powers also cancel against each other across c1, which only the
        # |r| - 1 term of the room covers.
        root, c0, e1, c1, e2, c2 = case
        r, c0, c1, c2 = (parse_word(t, ABC) for t in (root, c0, c1, c2))
        assert abs(e1) * len(r) > len(c0) + len(c1) and abs(e2) * len(r) > len(c1) + len(c2)
        a1, a2 = alphas
        blocks = (
            c0,
            PowerBlock(a1, e1 - a1 * n_star),
            c1,
            PowerBlock(a2, e2 - a2 * n_star),
            c2,
        )
        pw = ParametricWord(ABC, r, blocks)
        assert pw.blocks == blocks
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(
        k=st.integers(3, 7),
        e=st.integers(1, 5),
        alphas=st.sampled_from(((1, 1), (2, -1), (-1, 2), (-2, -1))),
        n_star=st.integers(-5, 5),
    )
    def test_solution_at_the_room_with_a_power_beyond(self, k, e, alphas, n_star):
        # c0 r^e a r^-1 b^-1 = 1 with r = b^-1 a^-k, c0 = a^-1 b (a^k b)^(e-1):
        # a^-1 cancels the a that r^-1 keeps after eating k - 1 letters of r^e
        # across c1 = a.  For both powers |e| = room // |r| with the |r| - 1
        # term, and the concretes alone leave room for fewer whole periods.
        r, c1, c2 = w(f"b^-1 a^-{k}"), w("a"), w("b^-1")
        c0 = w("a^-1 b") * w(f"a^{k} b") ** (e - 1)
        term = len(r) - 1
        assert len(c0) + len(c1) < e * len(r) <= len(c0) + len(c1) + term < (e + 1) * len(r)
        assert len(c1) + len(c2) < len(r) <= len(c1) + len(c2) + term < 2 * len(r)
        a1, a2 = alphas
        blocks = (
            c0,
            PowerBlock(a1, e - a1 * n_star),
            c1,
            PowerBlock(a2, -1 - a2 * n_star),
            c2,
        )
        pw = ParametricWord(AB, r, blocks)
        assert pw.blocks == blocks
        assert reduce_parametric(pw) == LineSolutionSet.finite([n_star])
        assert [n for n in range(n_star - 12, n_star + 13) if pw.at(n).is_identity] == [n_star]

    def test_does_not_normalize_again(self, monkeypatch):
        cases = [(pw, reduce_parametric(pw)) for pw in random_lines(random.Random(45), 80)]

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
