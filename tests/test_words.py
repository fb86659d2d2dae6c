import random
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgz.errors import (
    AlphabetError,
    BallLimitError,
    EvaluationLimitError,
    IdentityWordError,
    ParseError,
    WholeGroupError,
)
from fgz.words import (
    MAX_BALL_ELEMENTS,
    MAX_BALL_LETTERS,
    MAX_PARSE_LETTERS,
    Alphabet,
    Word,
    _ball_data,
    _ball_images,
    _ball_letters,
    _ball_steps,
    _concat_data,
    _invert_data,
    _reduce_data,
    _signed_code_table,
    _split_root,
    ball_size,
    centralizer,
    enumerate_ball,
    parse_word,
)

from helpers import (
    AB,
    brute_reduce,
    random_unreduced_letters,
    random_word,
    reduced_data,
    reference_parse_word,
    reference_sort_key,
    signed_letters,
    word_from_letters,
)


def w(text, alphabet=AB):
    return parse_word(text, alphabet)


def in_centralizer(g, h):
    """g lies in ``<centralizer(h)>``: it is trivial or shares h's primitive root up to inversion."""
    root = centralizer(h)
    return g.is_identity or g.primitive_root().root in (root, ~root)


def parse_outcome(parse, text):
    """The data that ``parse`` gives for ``text`` over AB, or its ParseError text."""
    try:
        return parse(text, AB).data
    except ParseError as exc:
        return str(exc)


#: exponent suffixes at the edges of the grammar's INT: bad forms, zeros,
#: leading zeros, non-ASCII decimal digits (which \d and int() take) and a
#: superscript (which they do not), and exponents past int()'s digit limit
EXPONENT_EDGES = (
    "", "^", "^-", "^+1", "^1^2", "^1_0", "^--1", "^007", "^-007", "^0", "^-0", "^00",
    "^\u0661", "^-\u0661\u0662", "^\u0660", "^\u00b2", "^1\u00b2",
    "^" + "9" * 5000, "^-" + "0" * 4999 + "1",
)
#: exponents whose sums land on either side of MAX_PARSE_LETTERS
LIMIT_EXPONENTS = (MAX_PARSE_LETTERS // 2, MAX_PARSE_LETTERS // 2 + 1, MAX_PARSE_LETTERS, MAX_PARSE_LETTERS + 1)


@st.composite
def term_texts(draw):
    """Word text: 0-5 terms joined by spaces, tabs or no-break spaces.  A
    term is a known name with no exponent or a small one, or, one time in
    three, a name that may be unknown or malformed with an edge exponent."""
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 2)):
            terms.append(draw(st.sampled_from(("a", "b"))) + draw(st.sampled_from(("", "^-2", "^-1", "^2", "^3"))))
            continue
        name = draw(st.sampled_from(("a", "b", "q", "e", "1", "ab", "a_1", "A", "\u00e9", "")))
        exponent = draw(st.one_of(
            st.sampled_from(EXPONENT_EDGES),
            st.sampled_from(LIMIT_EXPONENTS).flatmap(lambda e: st.sampled_from((f"^{e}", f"^-{e}"))),
        ))
        terms.append(name + exponent)
    separator = draw(st.sampled_from((" ", "\t", "\u00a0", " \u00a0 ")))
    pad = draw(st.sampled_from(("", " ", "\t")))
    return pad + separator.join(terms) + pad


def as_letters(data):
    """(name, sign) pairs of int codes over AB."""
    return [(AB.names[abs(v) - 1], 1 if v > 0 else -1) for v in data]


class TestAlphabet:
    def test_reserved_names_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "e"))
        with pytest.raises(AlphabetError):
            Alphabet(("1",))

    def test_bad_identifiers_rejected(self):
        for bad in ("", "2x", "a b", "a-b", "^"):
            with pytest.raises(AlphabetError):
                Alphabet((bad,))

    def test_duplicates_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(("a", "b", "a"))

    def test_order_is_declaration_order(self):
        al = Alphabet(("z", "a"))
        assert al.index("z") == 0
        assert al.letter("z") < al.letter("a")


class TestParse:
    def test_direct_transcription(self):
        assert signed_letters(w("a b^-1 a")) == (("a", 1), ("b", -1), ("a", 1))

    def test_cancellation(self):
        assert w("a a^-1").is_identity

    def test_exponent_expansion(self):
        assert w("a^-3").data == w("a^-1 a^-1 a^-1").data

    def test_identity_spellings(self):
        assert w("1").is_identity
        assert w("e").is_identity

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            w("a q")

    def test_zero_exponent(self):
        with pytest.raises(ParseError):
            w("a^0")

    def test_malformed_terms(self):
        for bad in ("a^", "a^+2", "a^2.5", "2a", ""):
            with pytest.raises(ParseError):
                w(bad)

    def test_letter_limit_edge(self):
        half = MAX_PARSE_LETTERS // 2
        at_limit = f"a^{half} b^-{MAX_PARSE_LETTERS - half}"
        assert len(w(at_limit)) == MAX_PARSE_LETTERS
        assert len(w(f"b^{half} b^-{MAX_PARSE_LETTERS - half}")) == MAX_PARSE_LETTERS - 2 * half
        with pytest.raises(ParseError, match=f"over the limit of {MAX_PARSE_LETTERS}"):
            w(f"a^{half} b^-{MAX_PARSE_LETTERS - half + 1}")

    def test_huge_exponents_fail_before_expanding(self):
        start = time.perf_counter()
        for text in ("a^100000000", "a^-100000000 b", "a^" + "9" * 5000):
            with pytest.raises(ParseError, match="over the limit of"):
                w(text)
        assert time.perf_counter() - start < 5

    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(term_texts())
    @example("a^\u0661 b^-\u0660\u0662")
    @example(f"a^{MAX_PARSE_LETTERS // 2} q^{MAX_PARSE_LETTERS // 2 + 1}")
    @example(f"q^{MAX_PARSE_LETTERS + 1}")
    @example("q^" + "9" * 5000)
    @example("a\u00a0b^-2\tb^2 a^-1")
    @example(f"a^{MAX_PARSE_LETTERS // 2} a^-{MAX_PARSE_LETTERS // 2}")
    def test_matches_the_reference_parser(self, text):
        assert parse_outcome(parse_word, text) == parse_outcome(reference_parse_word, text)

    def test_round_trip_and_collapse(self):
        assert str(w("a a a")) == "a^3"
        assert str(w("a^-1 a^-1 b")) == "a^-2 b"
        assert str(w("1")) == "1"
        rng = random.Random(101)
        for _ in range(200):
            word = random_word(rng, AB, 8)
            assert parse_word(str(word), AB) == word


class TestReduce:
    def test_inverse_pair(self):
        assert word_from_letters(AB, [("a", 1), ("a", -1)]).is_identity

    def test_inner_cancellation(self):
        word = word_from_letters(AB, [("a", 1), ("b", 1), ("b", -1), ("a", 1)])
        assert word == w("a^2")

    def test_nested_cancellation(self):
        word = word_from_letters(AB, [("b", -1), ("a", 1), ("a", -1), ("b", 1)])
        assert word.is_identity

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            letters = random_unreduced_letters(rng, AB, rng.randint(0, 12))
            once = word_from_letters(AB, letters)
            again = word_from_letters(AB, signed_letters(once))
            assert once == again

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(data=st.data())
    def test_kernel_matches_oracle_on_reduced_pieces(self, data):
        # pieces are reduced; some undo the previous piece or a suffix of
        # the product so far, so whole pieces and multi-piece seams cancel
        pieces: list[tuple[int, ...]] = []
        for _ in range(data.draw(st.integers(0, 6))):
            kind = data.draw(st.sampled_from(("fresh", "undo", "undo-suffix")))
            if kind == "fresh" or not pieces:
                pieces.append(data.draw(reduced_data(2, 5)))
            elif kind == "undo":
                pieces.append(tuple(-v for v in reversed(pieces[-1])))
            else:
                so_far = brute_reduce(AB, as_letters(v for p in pieces for v in p)).data
                k = data.draw(st.integers(0, len(so_far)))
                pieces.append(tuple(-v for v in reversed(so_far[len(so_far) - k :])))
        expected = brute_reduce(AB, as_letters(v for p in pieces for v in p))
        assert Word(AB, _reduce_data(pieces)) == expected

    def test_confluence_against_random_order_oracle(self):
        rng = random.Random(8)
        for _ in range(300):
            letters = random_unreduced_letters(rng, AB, rng.randint(0, 12))
            assert word_from_letters(AB, letters) == brute_reduce(AB, letters)


class TestGroupOps:
    def test_multiply(self):
        assert w("a b") * w("b^-1 a") == w("a^2")

    def test_invert(self):
        assert ~w("a b^-1") == w("b a^-1")

    def test_alphabet_mismatch(self):
        other = Alphabet(("a", "c"))
        with pytest.raises(AlphabetError):
            w("a") * other.letter("c")

    def test_axioms_exhaustive_on_radius_3_ball(self):
        ball = enumerate_ball(AB, 3)
        e = AB.identity()
        products = {}
        for u in ball:
            assert (u * ~u).is_identity and (~u * u).is_identity
            assert u * e == u and e * u == u
            for v in ball:
                uv = u * v
                products[(u.data, v.data)] = uv
                assert len(uv) <= len(u) + len(v)
                assert (len(uv) - len(u) - len(v)) % 2 == 0
        for u in ball:
            for v in ball:
                uv = products[(u.data, v.data)]
                for t in enumerate_ball(AB, 2):
                    assert uv * t == u * (v * t)

    def test_powers(self):
        g = w("b a b^-1")
        assert g ** 0 == AB.identity()
        assert g ** 3 == w("b a^3 b^-1")
        assert g ** -2 == w("b a^-2 b^-1")
        rng = random.Random(9)
        for _ in range(100):
            word = random_word(rng, AB, 5)
            k = rng.randint(-6, 6)
            expected = AB.identity()
            step = word if k >= 0 else ~word
            for _ in range(abs(k)):
                expected = expected * step
            assert word ** k == expected

    def test_power_limit(self):
        # (b a^2 b^-1)^m has 2 + 2 |m| letters: the limit at |m| = (MAX - 2) / 2
        g = w("b a^2 b^-1")
        edge = (MAX_PARSE_LETTERS - 2) // 2
        assert len(g ** edge) == len(g ** -edge) == MAX_PARSE_LETTERS
        for m in (edge + 1, -edge - 1, 10**9):
            with pytest.raises(EvaluationLimitError, match=f"over the limit of {MAX_PARSE_LETTERS:,}"):
                g ** m
        with pytest.raises(EvaluationLimitError, match="1,000,002 letters"):
            g ** (edge + 1)

    def test_sort_key_orders_as_index_sign_pairs(self):
        rng = random.Random(12)
        for rank in (1, 2, 3):
            alphabet = Alphabet("abc"[:rank])
            words = [random_word(rng, alphabet, 5) for _ in range(300)]
            assert sorted(words, key=Word.sort_key) == sorted(words, key=reference_sort_key)


class TestCyclicReduce:
    @pytest.mark.parametrize(
        "text,conj,core",
        [("b a b^-1", "b", "a"), ("a b a b", "1", "a b a b"), ("a^-1 b a", "a^-1", "b")],
    )
    def test_examples(self, text, conj, core):
        split = _split_root(w(text).data)
        assert split.u == w(conj).data and split.ui == (~w(conj)).data
        assert split.k == w(core).data and split.ki == (~w(core)).data

    def test_properties(self):
        rng = random.Random(10)
        for _ in range(300):
            word = random_word(rng, AB, 8)
            u, ui, k, _ = _split_root(word.data)
            assert _reduce_data((u, k, ui)) == u + k + ui == word.data
            if len(k) >= 2:
                assert k[0] != -k[-1]


#: roots with and without a conjugator, with cores of one to four letters
SPLIT_ROOTS = ("a", "b^-1", "a b", "b a b^-1", "b^2 a^-1 b^-2", "a b a^-1 b^-1 a^-1", "b^-1 a b^2 a b")


class TestRootSplit:
    @pytest.mark.parametrize("root", SPLIT_ROOTS)
    def test_power_is_the_product_of_copies(self, root):
        r = w(root)
        split = _split_root(r.data)
        for m in range(-6, 7):
            copies = [(r if m > 0 else ~r).data] * abs(m)
            assert split.power(m) == _reduce_data(copies)
            assert split.exponent(split.power(m)) == m
            assert split.inverse().power(m) == split.power(-m)

    @pytest.mark.parametrize("root", SPLIT_ROOTS)
    def test_rotations_and_truncations_are_not_powers(self, root):
        # a power of a letter less one letter is the next lower power
        split = _split_root(w(root).data)
        letter = not split.u and len(split.k) == 1
        for m in range(1, 7):
            for sign in (1, -1):
                data = split.power(sign * m)
                assert split.exponent(data[:-1]) == split.exponent(data[1:]) == (sign * (m - 1) if letter else None)
                if len(split.k) > 1:
                    # a rotation of the core's power, conjugated back by u
                    core = data[len(split.u) : len(data) - len(split.u)]
                    rotated = split.u + core[1:] + core[:1] + split.ui
                    assert split.exponent(rotated) is None

    def test_period_tests_primitivity(self):
        assert _split_root(w("b a b^-1 a b^-2").data).period() == 2
        assert _split_root(w("b a b^-1 a b a b^-1 a").data).period() == 4
        assert _split_root(w("a b^-1 a^2").data).period() == 4
        for word in enumerate_ball(AB, 5)[1:]:
            split = _split_root(word.data)
            assert (split.period() == len(split.k)) == (word.primitive_root().exponent == 1)


def primitive_root_oracle(word):
    """Enumerate every candidate root r with |r| <= |word| and test r^k == word
    by repeated multiplication; return the pair with the shortest root."""
    assert not word.is_identity
    best = None
    for r in enumerate_ball(word.alphabet, len(word)):
        if r.is_identity:
            continue
        p = r
        k = 1
        while len(p) <= len(word):
            if p == word:
                if best is None or len(r) < len(best[0]):
                    best = (r, k)
                break
            p = p * r
            k += 1
    return best


class TestPrimitiveRoot:
    def test_visible_periodicity(self):
        dec = w("a b a b a b").primitive_root()
        assert (dec.root, dec.exponent) == (w("a b"), 3)

    def test_primitive_input(self):
        dec = w("a").primitive_root()
        assert (dec.root, dec.exponent) == (w("a"), 1)

    def test_conjugated_power(self):
        dec = w("b a^2 b^-1").primitive_root()
        assert (dec.root, dec.exponent) == (w("b a b^-1"), 2)
        oracle_root, oracle_exp = primitive_root_oracle(w("b a^2 b^-1"))
        assert {oracle_root, ~oracle_root} == {dec.root, ~dec.root}
        assert oracle_exp == dec.exponent

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            w("1").primitive_root()

    def test_root_power_reconstructs(self):
        rng = random.Random(11)
        for _ in range(300):
            word = random_word(rng, AB, 8, min_len=1)
            dec = word.primitive_root()
            assert dec.root ** dec.exponent == word
            assert dec.exponent >= 1

    def test_exhaustive_oracle_up_to_length_6(self):
        for word in enumerate_ball(AB, 6):
            if word.is_identity:
                continue
            dec = word.primitive_root()
            oracle_root, oracle_exp = primitive_root_oracle(word)
            # the oracle's shortest root generates the same cyclic subgroup
            assert oracle_exp == dec.exponent
            assert len(oracle_root) == len(dec.root)
            assert oracle_root in (dec.root, ~dec.root)

    def test_core_length_divides(self):
        rng = random.Random(13)
        for _ in range(200):
            word = random_word(rng, AB, 8, min_len=1)
            core = _split_root(word.data).k
            root_core = _split_root(word.primitive_root().root.data).k
            assert len(core) % len(root_core) == 0


class TestCommutes:
    """Elements commute exactly when one lies in the other's centralizer,
    the fact behind coset membership."""

    def test_powers_of_one_letter(self):
        assert in_centralizer(w("a^2"), w("a^-3"))

    def test_distinct_generators(self):
        assert not in_centralizer(w("a"), w("b"))

    def test_conjugated_powers(self):
        assert in_centralizer(w("b a^2 b^-1"), w("b a b^-1"))

    def test_agrees_with_direct_comparison_on_ball(self):
        ball = enumerate_ball(AB, 3)
        for g in ball:
            for h in ball[1:]:
                assert in_centralizer(g, h) == (g * h == h * g)


class TestCentralizer:
    def test_proper_power(self):
        root = centralizer(w("a^2"))
        assert root == w("a")
        # strictly larger than the cyclic subgroup generated by a^2
        assert w("a") == root ** 1 and w("a") != w("a^2") ** 1

    def test_primitive_element(self):
        assert centralizer(w("a b")) == w("a b")

    def test_identity_is_whole_group(self):
        with pytest.raises(WholeGroupError):
            centralizer(w("1"))

    def test_membership_matches_commutation_on_ball(self):
        for b_text in ("a", "a^2", "a b", "b a b^-1"):
            b = w(b_text)
            root = centralizer(b)
            assert b in {root ** k for k in range(-5, 6)}
            for g in enumerate_ball(AB, 4):
                in_subgroup = g.is_identity or g.primitive_root().root in (root, ~root)
                assert in_subgroup == (g * b == b * g)


class TestSupport:
    def test_examples(self):
        assert w("a b^-1 a").support() == {"a", "b"}
        assert w("1").support() == frozenset()
        assert parse_word("c^2", Alphabet(("a", "b", "c"))).support() == {"c"}

    def test_subadditive_under_product(self):
        rng = random.Random(14)
        for _ in range(200):
            g, h = random_word(rng, AB, 6), random_word(rng, AB, 6)
            assert (g * h).support() <= g.support() | h.support()


class TestEnumerateBall:
    def test_rank_one_radius_two(self):
        al = Alphabet(("a",))
        ball = enumerate_ball(al, 2)
        assert {str(x) for x in ball} == {"1", "a", "a^-1", "a^2", "a^-2"}

    def test_counts(self):
        assert len(enumerate_ball(AB, 1)) == 5
        assert len(enumerate_ball(AB, 3)) == 53
        for radius in range(6):
            assert len(enumerate_ball(AB, radius)) == ball_size(2, radius)

    def test_unique_reduced_shortlex(self):
        ball = enumerate_ball(AB, 4)
        assert len({x.data for x in ball}) == len(ball)
        keys = [x.sort_key() for x in ball]
        assert keys == sorted(keys)
        for x in ball:
            assert all(x.data[i] != -x.data[i + 1] for i in range(len(x) - 1))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            enumerate_ball(AB, -1)

    def test_ball_size_closed_form_matches_the_series(self):
        for rank in range(5):
            for radius in range(-1, 30):
                series = 1 + sum(2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, radius + 1))
                assert ball_size(rank, radius) == series

    def test_ball_at_the_limit(self):
        # rank 1: 2 r + 1 elements, so radius 499,999 is the largest allowed
        assert ball_size(1, 499_999) <= MAX_BALL_ELEMENTS < ball_size(1, 500_000)
        with pytest.raises(BallLimitError, match="has 1,000,001 elements, over the limit of 1,000,000"):
            enumerate_ball(Alphabet(("a",)), 500_000)
        assert ball_size(2, 11) <= MAX_BALL_ELEMENTS < ball_size(2, 12)
        with pytest.raises(BallLimitError, match="radius 12 at rank 2 has 1,062,881 elements"):
            enumerate_ball(AB, 12)

    def test_ball_letters_at_the_limit(self):
        # rank 1: radius R holds R (R + 1) letters, so radius 3,161 is the
        # largest allowed; neither edge ball is built
        assert _ball_letters(1, 3161) <= MAX_BALL_LETTERS < _ball_letters(1, 3162)
        with pytest.raises(BallLimitError, match="rank 1 has 10,001,406 letters, over the limit of 10,000,000"):
            enumerate_ball(Alphabet(("a",)), 3162)
        with pytest.raises(BallLimitError, match="has 249,999,500,000 letters"):
            enumerate_ball(Alphabet(("a",)), 499_999)
        # every ball of rank >= 2 that the element limit allows is under it
        for rank in range(2, 12):
            radius = max(r for r in range(64) if ball_size(rank, r) <= MAX_BALL_ELEMENTS)
            assert _ball_letters(rank, radius) <= MAX_BALL_LETTERS
        assert _ball_letters(2, 11) == 3_720_088

    def test_ball_letters_count_the_words(self):
        for rank in range(0, 4):
            for radius in range(0, 5):
                assert _ball_letters(rank, radius) == sum(len(d) for d in _ball_data(rank, radius))

    def test_ball_images_of_the_letters_are_the_ball(self):
        # each letter's image is the letter itself, so each word's image is
        # the word, and the walk gives the ball back layer by layer
        for rank in range(0, 4):
            for radius in range(0, 5):
                ball = _ball_data(rank, radius)
                letters = _signed_code_table((), [(v,) for v in range(1, rank + 1)], _invert_data)
                layers = list(_ball_images(rank, radius, letters, _concat_data, ()))
                assert [d for layer in layers for d in layer] == list(ball)
                assert all(len(d) == n for n, layer in enumerate(layers) for d in layer)

    def test_ball_steps_rebuild_the_ball(self):
        # step i extends word p of the layer before word i + 1 by letter v
        for rank in range(0, 4):
            for radius in range(0, 5):
                steps = iter(_ball_steps(rank, radius))
                layer = rebuilt = [()]
                for n in range(1, radius + 1):
                    size = ball_size(rank, n) - ball_size(rank, n - 1)
                    layer = [layer[p] + (v,) for p, v in islice(steps, size)]
                    rebuilt = rebuilt + layer
                assert rebuilt == list(_ball_data(rank, radius))
                assert next(steps, None) is None

    def test_huge_radius_fails_at_once(self):
        start = time.perf_counter()
        with pytest.raises(BallLimitError, match="radius 1000000000 at rank 2 has more than"):
            enumerate_ball(AB, 10**9)
        with pytest.raises(BallLimitError, match="radius 1000000000 at rank 1 has 2,000,000,001"):
            enumerate_ball(Alphabet(("a",)), 10**9)
        assert time.perf_counter() - start < 1
