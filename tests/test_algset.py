import random
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgz import algset
from fgz.algset import (
    AlgebraicSet,
    ChainReport,
    CyclicCoset,
    chain_check,
    from_json_dict,
    intersect,
    intersect_cosets,
    subset,
    to_json_dict,
    union,
)
from fgz.errors import AlphabetError, BallLimitError, EvaluationLimitError, ParseError, RootError
from fgz.onevar import ParametricWord, PowerBlock, _line_candidates, reduce_parametric
from fgz.words import (
    MAX_BALL_LETTERS, MAX_PARSE_LETTERS, Alphabet, Word, _invert_data, _RootSplit, _shortlex_less, _split_root,
    enumerate_ball, parse_word,
)

from helpers import AB, ABC, random_lines, random_reduced_data, random_word, reduced_data, reference_elements_within, reference_member
from test_reference_outputs import _load_workloads

WHOLE = AlgebraicSet(AB, whole_group=True)


def w(text):
    return parse_word(text, AB)


def coset(rep, root):
    return CyclicCoset.make(w(rep), w(root))


def aset(points=(), cosets=()):
    return AlgebraicSet.of(AB, [w(p) for p in points], [(w(rep), w(root)) for rep, root in cosets])


def ball_restriction(s, radius=5):
    return frozenset(g for g in enumerate_ball(AB, radius) if s.member(g))


def random_algset(rng):
    n_points = rng.randint(0, 2)
    n_cosets = rng.randint(0, 2)
    points = [random_word(rng, AB, 3) for _ in range(n_points)]
    cosets = []
    for _ in range(n_cosets):
        rep = random_word(rng, AB, 3)
        root = random_word(rng, AB, 3, min_len=1).primitive_root().root
        cosets.append(CyclicCoset.make(rep, root))
    return AlgebraicSet(AB, points, cosets)


def span_make(rep, root):
    """Reference canonicalization: the raw pair of the least ``rep * root^m``
    over an unproved span of m, one fresh power per m, and the lesser
    orientation of the root.  ``root`` must be primitive."""
    if ~root < root:
        root = ~root
    span = len(rep) + len(root) + 2
    return min((rep * root ** m for m in range(-span, span + 1)), key=Word.sort_key), root


def span_intersect(c1, c2):
    """Reference intersection of cosets: the raw ``(points, cosets)`` fields,
    by membership of c1's elements over an unproved span."""
    if c1 == c2:
        return (), (c1,)
    if c1.root == c2.root:
        return (), ()
    span = len(c1.rep) + len(c2.rep) + 2 * (len(c1.root) + len(c2.root)) + 4
    for m in range(-span, span + 1):
        if c2.member(c1.element(m)):
            return (c1.element(m),), ()
    return (), ()


@st.composite
def primitive_roots(draw, alphabet):
    """A primitive root; half of them are a letter conjugated by a word of
    length 1-4 (core length 1 with a nonempty conjugator)."""
    rank = len(alphabet)
    if draw(st.booleans()):
        u = Word(alphabet, draw(reduced_data(rank, 4, min_len=1)))
        letter = draw(st.sampled_from([v for i in range(1, rank + 1) for v in (i, -i)]))
        return u * Word(alphabet, (letter,)) * ~u
    return Word(alphabet, draw(reduced_data(rank, 5, min_len=1))).primitive_root().root


@st.composite
def raw_cosets(draw, alphabet, root=None):
    """A raw ``(rep, root)`` pair: the rep is a short word times a power
    ``root^k``, |k| <= 9, so some reps are long multiples of the root and
    some are shorter than the root's conjugator."""
    if root is None:
        root = draw(primitive_roots(alphabet))
    rep = Word(alphabet, draw(reduced_data(len(alphabet), 4))) * root ** draw(st.integers(-9, 9))
    return rep, root


@st.composite
def cosets_with_lengths(draw):
    """A canonical coset over an alphabet of rank 2 or 3, its root
    conjugated by a word of length 0-3, and a length from ``|rep| - 1`` to
    ``|rep| + 3 |root|``."""
    alphabet = draw(st.sampled_from((AB, ABC)))
    v = Word(alphabet, draw(reduced_data(len(alphabet), 3)))
    c = CyclicCoset.make(*draw(raw_cosets(alphabet, v * draw(primitive_roots(alphabet)) * ~v)))
    return c, len(c.rep) + draw(st.integers(-1, 3 * len(c.root)))


@st.composite
def coset_pairs(draw):
    """Two canonical cosets over one alphabet of rank 2 or 3, with equal,
    inverse-oriented or distinct roots; half of the second reps are
    elements of the first coset, so that many pairs meet."""
    alphabet = draw(st.sampled_from((AB, ABC)))
    rep1, root1 = draw(raw_cosets(alphabet))
    kind = draw(st.sampled_from(("equal", "inverse", "distinct")))
    root2 = {"equal": root1, "inverse": ~root1, "distinct": None}[kind]
    rep2, root2 = draw(raw_cosets(alphabet, root2))
    if draw(st.booleans()):
        rep2 = rep1 * root1 ** draw(st.integers(-4, 4)) * root2 ** draw(st.integers(-4, 4))
    return CyclicCoset.make(rep1, root1), CyclicCoset.make(rep2, root2)


@st.composite
def member_cases(draw):
    """A canonical coset over an alphabet of rank 2 or 3, an exponent m,
    |m| <= 12, and a short tail, often empty, for the word
    ``g = rep root^m tail``."""
    alphabet = draw(st.sampled_from((AB, ABC)))
    c = CyclicCoset.make(*draw(raw_cosets(alphabet)))
    tail = draw(st.one_of(st.just(()), reduced_data(len(alphabet), 3)))
    return c, draw(st.integers(-12, 12)), Word(alphabet, tail)


class TestCyclicCoset:
    def test_member_subgroup(self):
        assert coset("1", "a").member(w("a^5"))

    def test_member_translate(self):
        assert coset("b", "a").member(w("b a^-2"))

    def test_rep_and_root_share_an_alphabet(self):
        with pytest.raises(AlphabetError, match="^rep and root must share an alphabet$"):
            CyclicCoset(Word(ABC, ()), w("a"))

    def test_non_member(self):
        c = coset("1", "a b")
        assert not c.member(w("b a"))
        for k in range(-3, 4):
            assert w("a b") ** k != w("b a")

    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(member_cases())
    @example((coset("1", "b^2 a b^-2"), 1, w("1")))  # nonempty conjugator u = b^2, m = 1
    @example((coset("1", "b^2 a b^-2"), -1, w("1")))  # m = -1: the inverse core
    @example((coset("a", "b^2 a b^-2"), 9, w("1")))  # |m| >= 8 under a conjugator
    @example((coset("b", "b^2 a b^-2"), -8, w("1")))
    @example((coset("1", "a b"), -11, w("1")))  # core of two letters, no conjugator
    @example((coset("a b", "b a b^-1 a"), 0, w("1")))  # h is the identity
    @example((coset("1", "b^2 a b^-2"), 0, w("b^2 a^3 b^2")))  # near miss: 2|u| + 3|k| letters, no power
    @example((coset("1", "a b"), 0, w("b a b a")))  # near miss: a rotation of root^2
    # near miss c a b b a c^-1 under u = c: its middle a b b a has 2|k| letters and begins with k = a b
    @example((CyclicCoset.make(Word(ABC, (3,)), Word(ABC, (3, 1, 2, -3))), 0, Word(ABC, (3, 1, 2, 2, 1, -3))))
    @example((coset("b", "a b a^-1"), 0, w("1")))  # g is the rep, under a conjugator
    @example((coset("a^-1", "a b"), 1, w("1")))  # b: a member as long as its rep a^-1
    @example((coset("a^-1", "a b"), 0, w("a b^-1")))  # b^-1: a non-member as long as the rep
    @example((coset("1", "b^2 a b^-2"), 0, w("b^-2")))  # |g| = |u|: no letter before u^-1
    @example((coset("1", "b^2 a b^-2"), 0, w("b a")))  # |g| > |u|, but g does not end in u^-1
    @example((coset("1", "b^2 a b^-2"), 0, w("a^2 b a b^-2")))  # near miss ending in k[-1] u^-1
    @example((coset("1", "b^2 a b^-2"), -2, w("1")))  # m < 0: g ends in k^-1[-1] u^-1
    @example((coset("a^-1", "a b"), -1, w("1")))  # m < 0 with no conjugator: a^-1 b^-1 a^-1
    def test_member_matches_primitive_root_reference(self, case):
        c, m, tail = case
        g = c.element(m) * tail
        assert c.member(g) == reference_member(c, g)

    def test_member_reads_rep_inverse_g_once_reduced(self, monkeypatch):
        # only a g that the canonical form leaves open reaches the split's
        # exponent: not shorter than the rep, not the rep, and ending in the
        # last letter of k or of k^-1 before u^-1.  The common prefix of rep
        # and g cancels first, so exponent gets the reduced rep^-1 g, one call per such g
        c = coset("a b", "b a b a b^-1")
        _, ui, k, ki = c._split
        ball = enumerate_ball(AB, 6)
        expected = [reference_member(c, g) for g in ball]
        open_words = [
            g for g in ball
            if len(g) >= len(c.rep) and g != c.rep and g.data[-len(ui) - 1 :] in (k[-1:] + ui, ki[-1:] + ui)
        ]
        calls = []
        exponent = _RootSplit.exponent
        monkeypatch.setattr(_RootSplit, "exponent", lambda split, h: calls.append(h) or exponent(split, h))
        assert [c.member(g) for g in ball] == expected and any(expected)
        assert calls == [(~c.rep * g).data for g in open_words]
        assert len(calls) < len(ball)

    def test_member_decides_at_the_edges_of_the_canonical_form(self, monkeypatch):
        # the rep itself, a word shorter than it, and one not ending in
        # k[-1] u^-1 or k^-1[-1] u^-1 are decided with no exponent call; in
        # (a^-1)<a b> the member b = element(1) ties the rep in length
        c = coset("a^-1", "a b")
        assert (c.rep, c.root, c.element(1)) == (w("a^-1"), w("a b"), w("b"))
        conjugated = coset("1", "b^2 a b^-2")
        calls = []
        exponent = _RootSplit.exponent
        monkeypatch.setattr(_RootSplit, "exponent", lambda split, h: calls.append(h) or exponent(split, h))
        assert c.member(c.rep) and conjugated.member(conjugated.rep)
        assert not any(conjugated.member(w(g)) for g in ("b^-2", "b^2", "b a", "a b^-1", "b^2 a^2 b^-1"))
        assert not coset("a^2", "b").member(w("a"))
        assert not coset("1", "a^2 b a^-1").member(w("a^-1"))  # g = u^-1 ends in k^-1[-1], but has no room for it
        assert calls == []
        assert not conjugated.member(w("a^2 b a b^-2")) and calls == [w("a^2 b a b^-2").data]

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(st.integers(1, 3).flatmap(lambda rank: reduced_data(rank, 8, min_len=1)).filter(lambda k: k[0] != -k[-1]))
    def test_orientation_reads_the_first_letters(self, k):
        # for cyclically reduced k, k^-1 begins with -k[-1], never k[0], so
        # the first letters decide the shortlex order of the equal-length cores
        ki = _invert_data(k)
        assert ki[0] != k[0]
        assert _shortlex_less((ki[0],), (k[0],)) == _shortlex_less(ki, k)
        alphabet = Alphabet("abc"[: max(map(abs, k))])
        root = Word(alphabet, k).primitive_root().root
        assert CyclicCoset.make(alphabet.identity(), root).root == min(root, ~root, key=Word.sort_key)

    def test_member_and_line_reduction_stay_on_data(self, monkeypatch):
        # once a coset or a line is built, membership and line reduction
        # take no primitive root and no Word power: they compare int tuples
        rng = random.Random(47)
        cosets = [c for _ in range(60) for c in random_algset(rng).cosets]
        ball = enumerate_ball(AB, 4)
        expected = [[reference_member(c, g) for g in ball] for c in cosets]
        lines = random_lines(random.Random(45), 80)
        solved = [reduce_parametric(pw) for pw in lines]

        def refuse(*args):
            raise AssertionError("a hot kernel left the int data")

        monkeypatch.setattr(Word, "primitive_root", refuse)
        monkeypatch.setattr(Word, "__pow__", refuse)
        assert [[c.member(g) for g in ball] for c in cosets] == expected
        assert [reduce_parametric(pw) for pw in lines] == solved

    def test_rejects_trivial_root(self):
        with pytest.raises(RootError) as excinfo:
            coset("a", "1")
        assert str(excinfo.value) == "coset root must be nontrivial"

    def test_rejects_proper_power_root(self):
        with pytest.raises(RootError) as excinfo:
            coset("1", "a^2")
        assert str(excinfo.value) == (
            "root a^2 is a proper power (a)^2; only cosets of maximal cyclic subgroups (full centralizers) "
            "are representable - use the primitive root"
        )

    def test_canonical_orientation_and_rep(self):
        c = CyclicCoset.make(w("a^3"), w("a^-1"))
        assert c == coset("1", "a")
        c2 = CyclicCoset.make(w("a^2 b^-1"), w("b a^-1 b^-1"))
        assert c2.root == w("b a b^-1")
        assert c2.rep == w("b^-1") or len(c2.rep) <= 2
        # same coset however it is written
        assert CyclicCoset.make(c2.element(3), ~c2.root) == c2

    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(st.sampled_from((AB, ABC)).flatmap(raw_cosets))
    @example((w("b"), w("a b")))  # t = 1 for root^-1: a^-1 at m = -1 ties b in length and wins
    @example((w("a"), w("b^2 a^-1 b^-2")))  # |rep| < |u| and t = 0 both ways: rep stays
    @example((w("b a^7"), w("a^-1")))  # long multiple of a letter root, inverse orientation: q = 7
    @example((w("b a b^-1 a"), w("b a^-1 b^-1")))  # core length 1 under a conjugator, t = 0
    @example((w("a^-3 b^-1"), w("b a b^-1")))  # u^-1 cancels further at m |k| = t = 3: b^-1
    @example((w("a^-1 b^-1 a^-1"), w("a b")))  # t = 3 over |k| = 2: a^-1 at q = 1 ties b at q + 1
    @example((w("a^4"), w("a^-1")))  # root a: t = 4 against ... a a, so 1 at m = -4
    def test_make_matches_span_reference(self, raw):
        rep, root = raw
        c = CyclicCoset.make(rep, root)
        assert (c.rep, c.root) == span_make(rep, root)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.sampled_from((AB, ABC)).flatmap(raw_cosets), st.integers(0, 6))
    def test_inverse_root_gives_the_same_coset(self, raw, length):
        # one of the two is built from the inverse of its kept root, which
        # swaps the core and its inverse in the root's split
        rep, root = raw
        c, flipped = CyclicCoset.make(rep, root), CyclicCoset.make(rep, ~root)
        assert c == flipped and str(c) == str(flipped)
        assert c._split == flipped._split == _split_root(c.root.data)
        assert [flipped.element(m) for m in range(-6, 7)] == [c.element(m) for m in range(-6, 7)]
        assert flipped.elements_within(length) == c.elements_within(length)
        for g in enumerate_ball(c.alphabet, 3) + [c.element(m) for m in range(-6, 7)]:
            assert flipped.member(g) == c.member(g) == reference_member(c, g)

    def test_least_element_edges(self):
        # the length falls to m = t / |k| = 2, where u^-1 cancels as well
        assert str(CyclicCoset.make(w("b a^-2 b^-1"), w("b a b^-1"))) == "(1)<b a b^-1>"
        # a tie in length, won in the root^-1 direction
        assert str(CyclicCoset.make(w("b"), w("a b"))) == "(a^-1)<a b>"

    def test_long_reps_in_linear_time(self):
        # the least element is found without walking the coset: a walk over
        # elements of length up to |rep| would take about |rep|^2 letter steps
        a, b = (1,), (2,)
        start = time.perf_counter()
        assert CyclicCoset.make(Word(AB, b + a * 100_000), w("a")) == coset("b", "a")
        assert CyclicCoset.make(Word(AB, a * 100_000 + b), w("a")).rep == Word(AB, a * 100_000 + b)
        assert CyclicCoset.make(Word(AB, b * 100_000), w("a")).rep == Word(AB, b * 100_000)
        assert str(CyclicCoset.make(Word(AB, (2, 1) * 50_000 + (2,)), w("a b"))) == "(a^-1)<a b>"
        assert time.perf_counter() - start < 1

    def test_membership_against_ball_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            rep = random_word(rng, AB, 3)
            root = random_word(rng, AB, 3, min_len=1).primitive_root().root
            c = CyclicCoset.make(rep, root)
            line = {c.element(m) for m in range(-8, 9)}
            for g in enumerate_ball(AB, 4):
                assert c.member(g) == (g in line)

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(st.sampled_from((AB, ABC)).flatmap(raw_cosets), st.integers(0, 9))
    # window (4 + 1 - 2) // 1 = 3, and rep * root^3 = a^3 b^-1 has length 4
    @example((w("b^-1"), w("b a b^-1")), 4)  # farthest elements at m = +-window, |u| = 1
    @example((w("1"), w("a")), 4)  # farthest elements a^4, a^-4 at m = +-window
    @example((w("a"), w("b^2 a b^-2")), 3)  # |u| > |rep|: window 0, rep alone
    @example((w("a b"), w("b^2 a b^-2")), 1)  # window 0 and rep too long: nothing
    def test_elements_within_matches_brute_filter(self, raw, length):
        # on canonical cosets, as the constructor builds no other; the raw
        # reps of make go through the window in test_make_matches_span_reference.
        # The filter spans twice the widest window.
        rep, root = raw
        c = CyclicCoset(rep, root)
        span = 2 * (length + len(rep)) + 2
        brute = [c.element(m) for m in range(-span, span + 1) if len(c.element(m)) <= length]
        assert c.elements_within(length) == brute

    @settings(deadline=None, derandomize=True, max_examples=500)
    @given(cosets_with_lengths())
    @example((coset("b^-1", "b a b^-1"), 10))  # a core of one letter: a^m b^-1 for |m| <= 9
    @example((coset("b a^-1", "a b"), 2))  # the rep ends in k^-1's last letter: b^2 at m = 1 ties its length
    @example((coset("b a^-1", "a b"), 1))  # shorter than the rep: nothing
    @example((coset("1", "a"), 0))  # the identity rep alone
    @example((coset("1", "b a b a b^-1"), 7))  # the identity rep under a conjugated, longer root
    def test_outward_walk_matches_the_window_walk(self, case):
        c, length = case
        assert c.elements_within(length) == reference_elements_within(c, length)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_element_refuses_a_power_over_the_letter_limit(self, sign):
        # root^m of b a b^-1 has 2 + |m| letters, as Word.__pow__ counts them
        c = coset("1", "b a b^-1")
        edge = sign * (MAX_PARSE_LETTERS - 2)
        assert c.element(edge) == c.root ** edge and len(c.element(edge)) == MAX_PARSE_LETTERS
        message = f"a power has {MAX_PARSE_LETTERS + 1:,} letters, over the limit of {MAX_PARSE_LETTERS:,}"
        for power in (c.element, c.root.__pow__):
            with pytest.raises(EvaluationLimitError) as info:
                power(edge + sign)
            assert str(info.value) == message

    def test_elements_within_refuses_a_window_over_the_letter_limit(self):
        # (1)<a> within length L has the window |m| <= L: 2L + 1 elements
        # that may keep (2L + 1) L letters
        c = CyclicCoset.make(w("1"), w("a"))
        assert 4471 * 2235 <= MAX_BALL_LETTERS < 4473 * 2236
        assert len(c.elements_within(2235)) == 4471
        message = "coset \\(1\\)<a> within length 2,236 has a window of 4,473 elements that may keep 10,001,628 letters"
        with pytest.raises(BallLimitError, match=message + ", over the limit of 10,000,000"):
            c.elements_within(2236)
        with pytest.raises(BallLimitError, match="within length 1,000,000,000,000 has a window of 2,000,000,000,001"):
            c.elements_within(10**12)
        assert CyclicCoset.make(w("a"), w("b")).elements_within(0) == []


class TestAlgebraicSet:
    def test_member_examples(self):
        s = aset(points=("a^2",), cosets=(("1", "b"),))
        assert s.member(w("b^-4"))
        assert not s.member(w("a"))
        assert not AlgebraicSet.empty(AB).member(w("1"))
        assert w("b^-4") in s and w("a") not in s

    def test_cosets_over_another_alphabet_are_refused(self):
        with pytest.raises(AlphabetError, match="^coset over a different alphabet$"):
            AlgebraicSet(AB, (), (CyclicCoset.make(Word(ABC, ()), Word(ABC, (3,))),))

    def test_canonicalize_absorbs_points(self):
        s = AlgebraicSet.of(
            AB,
            points=[w("a^2"), w("a^-1")],
            cosets=[(w("a^3"), w("a^-1"))],
        )
        assert s.points == ()
        assert s.cosets == (coset("1", "a"),)

    def test_canonicalize_empty(self):
        s = AlgebraicSet.of(AB)
        assert s.is_empty

    def test_canonicalize_idempotent(self):
        rng = random.Random(32)
        for _ in range(50):
            s = random_algset(rng)
            again = AlgebraicSet(AB, s.points, s.cosets)
            assert again == s
            assert s == again

    def test_coset_values_are_not_canonicalized_again(self, monkeypatch):
        c = coset("b a^3", "a^-1")

        def post_init(self):
            raise AssertionError("AlgebraicSet canonicalized a CyclicCoset again")

        monkeypatch.setattr(CyclicCoset, "__post_init__", post_init)
        assert AlgebraicSet(AB, cosets=[c]).cosets == (c,)

    def test_raw_constructors_build_canonical_values(self):
        # one set, written with a non-minimal rep and with a raw pair
        raw = AlgebraicSet(AB, (), (CyclicCoset(w("a^-4"), w("a")),))
        made = AlgebraicSet.of(AB, cosets=[(w("1"), w("a"))])
        assert raw == made and subset(raw, made) and subset(made, raw)
        assert hash(raw) == hash(made)
        assert to_json_dict(raw) == to_json_dict(made)
        assert AlgebraicSet(AB, (w("a^2"), w("b"), w("b")), (coset("1", "a"),)).points == (w("b"),)
        with pytest.raises(RootError, match="proper power"):
            CyclicCoset(w("1"), w("a^2"))

    @pytest.mark.parametrize("once", [iter, lambda items: (x for x in items)], ids=["iterator", "generator"])
    def test_one_shot_iterables_are_read_once(self, once):
        # a^3 lies in (1)<a>, so the points are read for the alphabet check and again for the filter
        points = [w("b^2"), w("a^3"), w("a b"), w("b^2")]
        pairs = [(w("b a"), w("a")), (w("1"), w("a^-1")), (w("b"), w("a b"))]
        cosets = [CyclicCoset.make(rep, root) for rep, root in pairs]
        expected = AlgebraicSet(AB, tuple(points), tuple(cosets))
        assert (len(expected.points), len(expected.cosets)) == (2, 3)
        assert AlgebraicSet(AB, once(points), once(cosets)) == expected
        assert AlgebraicSet.of(AB, once(points), once(pairs)) == expected
        assert AlgebraicSet(AB, once(points)) == AlgebraicSet(AB, points)
        assert AlgebraicSet.of(AB, once(points)).points == (w("a b"), w("b^2"), w("a^3"))

    def test_an_equal_alphabet_object_is_the_same_alphabet(self):
        # the alphabet checks test identity first, and equal names after it
        twin = Alphabet(("a", "b"))
        assert twin == AB and twin is not AB

        def tw(text):
            return parse_word(text, twin)

        assert CyclicCoset(tw("b a^3"), w("a^-1")) == CyclicCoset(w("b a^3"), tw("a^-1")) == coset("b", "a")
        expected = aset(points=("b^2", "a b"), cosets=(("b", "a"), ("1", "a b")))
        assert AlgebraicSet(twin, (w("a b"), tw("b^2")), (coset("b", "a"), CyclicCoset.make(tw("1"), tw("a b")))) == expected
        assert AlgebraicSet(AB, (tw("a b"), tw("b^2")), (CyclicCoset.make(tw("b"), tw("a")), coset("1", "a b"))) == expected
        assert AlgebraicSet.of(twin, [w("a b"), tw("b^2")], [(tw("b"), w("a")), (w("1"), tw("a b"))]) == expected
        other = Alphabet(("a", "c"))
        with pytest.raises(AlphabetError, match="^rep and root must share an alphabet$"):
            CyclicCoset(tw("b"), parse_word("a", other))
        with pytest.raises(AlphabetError, match="^point over a different alphabet$"):
            AlgebraicSet(twin, (parse_word("c", other),))
        with pytest.raises(AlphabetError, match="^coset over a different alphabet$"):
            AlgebraicSet(twin, (), (CyclicCoset.make(parse_word("c", other), parse_word("a", other)),))

    def test_duplicate_cosets_merge(self):
        s = AlgebraicSet.of(AB, cosets=[(w("1"), w("a")), (w("a^2"), w("a^-1"))])
        assert len(s.cosets) == 1


class TestIntersectCosets:
    def test_distinct_subgroups_share_identity(self):
        out = intersect_cosets(coset("1", "a"), coset("1", "b"))
        assert out == aset(points=("1",))

    def test_disjoint_translates(self):
        out = intersect_cosets(coset("a", "b"), coset("b", "a"))
        assert out.is_empty
        ball = enumerate_ball(AB, 6)
        c1, c2 = coset("a", "b"), coset("b", "a")
        assert not [g for g in ball if c1.member(g) and c2.member(g)]

    def test_identical_cosets(self):
        c = coset("a", "b")
        assert intersect_cosets(c, c) == aset(cosets=(("a", "b"),))

    def test_same_subgroup_distinct_cosets(self):
        assert intersect_cosets(coset("1", "a"), coset("b", "a")).is_empty

    def test_at_most_one_common_element(self):
        rng = random.Random(33)
        ball = enumerate_ball(AB, 5)
        for _ in range(40):
            c1 = CyclicCoset.make(random_word(rng, AB, 2), random_word(rng, AB, 2, min_len=1).primitive_root().root)
            c2 = CyclicCoset.make(random_word(rng, AB, 2), random_word(rng, AB, 2, min_len=1).primitive_root().root)
            if c1 == c2:
                continue
            common = [g for g in ball if c1.member(g) and c2.member(g)]
            assert len(common) <= 1
            piece = intersect_cosets(c1, c2)
            for g in common:
                assert piece.member(g)


    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(coset_pairs())
    @example((coset("1", "a"), coset("1", "b")))
    @example((coset("a", "b"), coset("b", "a")))
    @example((coset("b", "a b"), coset("a^-1", "a")))
    def test_matches_span_reference(self, pair):
        c1, c2 = pair
        for first, second in ((c1, c2), (c2, c1)):
            out = intersect_cosets(first, second)
            assert (out.points, out.cosets) == span_intersect(first, second)

    @pytest.mark.parametrize("m", (1, 2, 5, 8))
    def test_common_element_at_either_end_of_the_window(self, m):
        # (1)<a b^2> meets (a b^2)^m <b> at n = m, the last candidate of the
        # commutator line's window, and (1)<a^2 b^-1> meets (a^2 b^-1)^-m <a>
        # at n = -m, the first; a window narrower by one misses either point
        for root1, root2, n, end in (("a b^2", "b", m, max), ("a^2 b^-1", "a", -m, min)):
            c1 = coset("1", root1)
            c2 = CyclicCoset.make(w(root1) ** n, w(root2))
            h = ~c2.rep * c1.rep
            line = ParametricWord(AB, c1.root, (h, PowerBlock(1, 0), c2.root, PowerBlock(-1, 0), ~h * ~c2.root))
            assert end(_line_candidates(line)) == n
            point = AlgebraicSet(AB, (w(root1) ** n,))
            assert intersect_cosets(c1, c2) == point == intersect_cosets(c2, c1)

    @pytest.mark.parametrize(
        "rep1, root1, t, sign, m, tail, meet",
        [
            ("1", "a", "b", 1, 11, "1", True),
            ("b", "a b^-1", "b a", -1, 4, "1", True),
            ("a", "a^2 b", "a^-1 b", 1, -3, "1", True),
            ("1", "a^2 b", "b^2", -1, -5, "1", True),
            ("1", "a b", "b", -1, 2, "b^2", False),
            ("b", "a b^-1", "a", 1, 0, "a b", False),
        ],
    )
    def test_conjugate_roots(self, rep1, root1, t, sign, m, tail, meet):
        # c2's root is t root1^sign t^-1 and its rep is rep1 root1^m tail:
        # the cosets meet in rep1 root1^m when the tail is trivial, else not at all
        r1 = w(root1)
        c1 = CyclicCoset.make(w(rep1), r1)
        c2 = CyclicCoset.make(w(rep1) * r1 ** m * w(tail), w(t) * r1 ** sign * ~w(t))
        expected = AlgebraicSet(AB, (w(rep1) * r1 ** m,) if meet else ())
        assert intersect_cosets(c1, c2) == expected == intersect_cosets(c2, c1)
        assert (expected.points, ()) == span_intersect(c1, c2)

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(st.just(rank), reduced_data(rank, 24), st.integers(0, 24))))
    def test_read_opens_a_vertex_per_letter_and_follows_back_edges(self, case):
        # on the one-vertex graph a reduced word opens one vertex per letter,
        # its prefix path; the inverse of a suffix read on runs back along it
        rank, data, back = case
        n = len(data)
        back = min(back, n)
        edges = [[-1] * (n + 1) for _ in range(2 * rank + 1)]
        assert algset._read(edges, data + _invert_data(data[n - back:]), 0, 1) == (n - back, n + 1)
        set_edges = {(x, v): e for x in range(-rank, rank + 1) if x for v, e in enumerate(edges[x]) if e >= 0}
        assert set_edges == {(x, i): i + 1 for i, x in enumerate(data)} | {(-x, i + 1): i for i, x in enumerate(data)}

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(cosets_with_lengths())
    @example((coset("b^-1", "b a b^-1"), 6))  # the rep runs back along the stem: the start is on the cycle
    @example((coset("b a^-1", "a b"), 4))  # the rep's last letter runs back along the cycle
    @example((coset("a", "b"), 0))  # shorter than the rep: nothing
    def test_coset_graph_reads_the_coset(self, case):
        # the non-backtracking paths from the start to the base, up to the
        # length, read the coset's elements within it, each once
        c, length = case
        edges, start = algset._coset_graph(c)
        letters = [x for i in range(1, len(c.alphabet) + 1) for x in (i, -i)]
        read, paths = [], [(start, ())]
        while paths:
            v, label = paths.pop()
            if v == 0 and len(label) <= length:
                read.append(label)
            if len(label) < length:
                paths += [(edges[x][v], label + (x,)) for x in letters if edges[x][v] >= 0 and (not label or x != -label[-1])]
        assert sorted(read) == sorted(g.data for g in c.elements_within(length))

    def test_long_reps_in_linear_time(self):
        # the product search visits each state once, and with one cycle in
        # each graph the states reachable from the starts grow linearly
        rng = random.Random(27)
        x = Word(AB, random_reduced_data(rng, 2, 20_000))
        point = x * w("a b") ** 3000
        cases = [
            (CyclicCoset.make(x, w("a b")), CyclicCoset.make(point, w("b")), AlgebraicSet(AB, (point,))),
            (CyclicCoset.make(x, w("a b")), CyclicCoset.make(Word(AB, random_reduced_data(rng, 2, 20_000)), w("b")),
             AlgebraicSet.empty(AB)),
        ]
        assert all(len(c1.rep) >= 19_990 and len(c2.rep) >= 19_990 for c1, c2, _ in cases)
        start = time.perf_counter()
        for c1, c2, expected in cases:
            assert intersect_cosets(c1, c2) == expected == intersect_cosets(c2, c1)
        assert time.perf_counter() - start < 1


class TestSetOps:
    def test_union_absorbs_point(self):
        assert union(aset(cosets=(("1", "a"),)), aset(points=("a^3",))) == aset(cosets=(("1", "a"),))

    def test_intersect_examples(self):
        s_ab = aset(cosets=(("1", "a"), ("1", "b")))
        s_a = aset(cosets=(("1", "a"),))
        assert intersect(s_ab, s_a) == s_a
        assert intersect(s_a, aset(points=("a^2", "b"))) == aset(points=("a^2",))

    def test_subset_examples(self):
        assert not subset(aset(cosets=(("a", "b"),)), aset(cosets=(("1", "b"),)))
        assert union(aset(points=("a^2",)), aset(cosets=(("1", "a"),))) == aset(cosets=(("1", "a"),))
        assert subset(aset(points=("1", "a")), aset(cosets=(("1", "a"),)))

    def test_intersect_builds_each_coset_graph_once(self, monkeypatch):
        # two cosets a side: four pairs, each coset in two of them
        s1 = aset(cosets=(("1", "a"), ("b", "a b")))
        s2 = aset(cosets=(("1", "b"), ("a", "b a^2")))
        expected = reduce(union, [intersect_cosets(c1, c2) for c1 in s1.cosets for c2 in s2.cosets])
        assert str(expected) == "{1, a, b}"
        built = []
        coset_graph = algset._coset_graph
        monkeypatch.setattr(algset, "_coset_graph", lambda c: built.append(c) or coset_graph(c))
        assert intersect(s1, s2) == expected
        assert sorted(built, key=CyclicCoset.sort_key) == sorted(s1.cosets + s2.cosets, key=CyclicCoset.sort_key)

    def test_alphabet_mismatch(self):
        from fgz.words import Alphabet

        other = AlgebraicSet.empty(Alphabet(("c",)))
        with pytest.raises(AlphabetError):
            union(aset(), other)
        for op in (intersect, subset):
            with pytest.raises(AlphabetError, match="^operands over different alphabets$"):
                op(aset(), other)

    def test_coset_alphabet_mismatch(self):
        # the cosets share the element a, but a letter code names a different
        # letter over each alphabet
        c1 = coset("a", "b")
        c2 = CyclicCoset.make(Word(Alphabet(("b", "a")), ()), parse_word("a", Alphabet(("b", "a"))))
        for first, second in ((c1, c2), (c2, c1)):
            with pytest.raises(AlphabetError, match="^operands over different alphabets$"):
                intersect_cosets(first, second)

    def test_commutative_associative_absorb(self):
        rng = random.Random(34)
        for _ in range(40):
            s1, s2, s3 = (random_algset(rng) for _ in range(3))
            assert union(s1, s2) == union(s2, s1)
            assert intersect(s1, s2) == intersect(s2, s1)
            assert union(union(s1, s2), s3) == union(s1, union(s2, s3))
            assert intersect(intersect(s1, s2), s3) == intersect(s1, intersect(s2, s3))
            assert union(s1, s1) == s1
            assert intersect(s1, s1) == s1

    def test_extensional_against_ball_oracle(self):
        rng = random.Random(35)
        for _ in range(60):
            s1, s2 = random_algset(rng), random_algset(rng)
            r1, r2 = ball_restriction(s1), ball_restriction(s2)
            assert ball_restriction(union(s1, s2)) == r1 | r2
            assert ball_restriction(intersect(s1, s2)) == r1 & r2
            if subset(s1, s2):
                assert r1 <= r2
            if s1 == s2:
                assert r1 == r2

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(coset_pairs())
    def test_subset_matches_membership_reference(self, pair):
        # reference: a coset lies in another when the roots agree up to
        # orientation and the second contains the first one's rep
        c1, c2 = pair
        contained = c1.root in (c2.root, ~c2.root) and c2.member(c1.rep)
        s1, s2 = AlgebraicSet(c1.alphabet, cosets=(c1,)), AlgebraicSet(c1.alphabet, cosets=(c2,))
        assert subset(s1, s2) == contained
        assert subset(s1, union(s2, AlgebraicSet(c1.alphabet, points=(c1.rep,)))) == contained

    def test_subset_false_has_witness(self):
        rng = random.Random(36)
        for _ in range(60):
            s1, s2 = random_algset(rng), random_algset(rng)
            if subset(s1, s2) or s1.is_empty:
                continue
            witnesses = list(s1.points)
            span = len(s2.points) + len(s2.cosets) + 1
            for c in s1.cosets:
                witnesses.extend(c.element(m) for m in range(-span, span + 1))
            assert any(not s2.member(g) for g in witnesses)


class TestChainCheck:
    def test_strictly_decreasing(self):
        chain = [
            aset(cosets=(("1", "a"), ("1", "b"))),
            aset(cosets=(("1", "a"),)),
            aset(points=("1",)),
        ]
        report = chain_check(chain)
        assert report == ChainReport(True, 3, 2, True)

    def test_constant(self):
        s = aset(cosets=(("1", "a"),))
        assert chain_check([s, s, s]) == ChainReport(True, 1, 0, True)

    def test_not_descending(self):
        report = chain_check([aset(points=("a",)), aset(cosets=(("1", "a"),))])
        assert not report.descending

    def test_empty_chain(self):
        assert chain_check([]) == ChainReport(True, 0, 0, True)

    def test_random_intersection_chains(self):
        rng = random.Random(37)
        for _ in range(60):
            current = random_algset(rng)
            chain = [current]
            for _ in range(6):
                current = intersect(current, random_algset(rng))
                chain.append(current)
            report = chain_check(chain)
            assert report.descending
            assert report.measure_ok

    def test_subcomponent_chains_obey_length_bound(self):
        # dropping whole components one at a time cannot run longer than
        # the component count plus one
        rng = random.Random(38)
        for _ in range(60):
            current = random_algset(rng)
            head_size = len(current.cosets) + len(current.points)
            chain = [current]
            while not current.is_empty:
                components = [("p", p) for p in current.points]
                components += [("c", c) for c in current.cosets]
                components.pop(rng.randrange(len(components)))
                current = AlgebraicSet(
                    AB,
                    [x for kind, x in components if kind == "p"],
                    [x for kind, x in components if kind == "c"],
                )
                chain.append(current)
            report = chain_check(chain)
            assert report.descending and report.measure_ok
            assert report.strict_prefix_length <= head_size + 1


class TestWholeGroup:
    """F is the top of the lattice of closed sets."""

    def test_top_of_the_lattice_on_universe_sets(self):
        # the first set of each of the first 200 chains of the set-algebra benchmark universe
        chain_input = _load_workloads().chain_input
        for i in range(200):
            s = AlgebraicSet.of(AB, *chain_input(i)[0])
            assert union(WHOLE, s) == WHOLE == union(s, WHOLE)
            assert intersect(WHOLE, s) == s == intersect(s, WHOLE)
            assert subset(s, WHOLE) and not subset(WHOLE, s)
            assert chain_check([WHOLE, s]) == ChainReport(True, 2, 1, True)

    def test_a_chain_may_start_at_the_whole_group(self):
        chain = [WHOLE, aset(cosets=(("1", "a"), ("1", "b"))), aset(cosets=(("1", "a"),)), aset(points=("1",))]
        assert chain_check(chain) == ChainReport(True, 4, 3, True)
        assert chain_check([WHOLE, WHOLE]) == ChainReport(True, 1, 0, True)

    def test_canonical_form_keeps_no_components(self):
        s = AlgebraicSet(AB, (w("a"),), (coset("1", "b"),), whole_group=True)
        assert s == WHOLE and s.points == () and s.cosets == ()
        assert s.member(w("b a^-2")) and not s.is_empty and str(s) == "whole group"

    def test_points_over_another_alphabet_are_refused(self):
        # the whole-group forms check each point's alphabet like any other set
        foreign = (Word(ABC, (3,)),)
        with pytest.raises(AlphabetError, match="point over a different alphabet"):
            AlgebraicSet(AB, foreign, whole_group=True)
        one = Alphabet(("a",))
        with pytest.raises(AlphabetError, match="point over a different alphabet"):
            AlgebraicSet(one, foreign, (CyclicCoset.make(parse_word("a", one), parse_word("a", one)),))

    def test_member_data_lists_each_member_once(self):
        # (1)<a> and (1)<b> share the identity, which is also a point
        s = aset(points=("1", "a b", "b^2 a"), cosets=(("1", "a"), ("1", "b"), ("b", "a b")))
        for radius in range(6):
            ball = enumerate_ball(AB, radius)
            assert sorted(s._data_within(radius)) == sorted(g.data for g in ball if s.member(g))
            assert sorted(WHOLE._data_within(radius)) == sorted(g.data for g in ball)
            assert s.members_within(radius) == {g for g in ball if s.member(g)}

    def test_members_within_is_the_ball(self):
        for radius in range(5):
            assert WHOLE.members_within(radius) == set(enumerate_ball(AB, radius))
        with pytest.raises(BallLimitError):
            WHOLE.members_within(12)  # 1,062,881 elements at rank 2
        with pytest.raises(ValueError, match="^radius must be >= 0$"):
            WHOLE.members_within(-1)

    def test_rank_one_forms_agree(self):
        # at rank 1 every coset a<r> is all of Z, so a set with a coset is F
        one = Alphabet(("a",))
        whole = AlgebraicSet(one, whole_group=True)
        coset_form = AlgebraicSet.of(one, [parse_word("a^5", one)], [(parse_word("a^3", one), parse_word("a^-1", one))])
        assert coset_form == whole and coset_form.cosets == () and coset_form.points == ()
        assert subset(coset_form, whole) and subset(whole, coset_form)
        assert not subset(whole, AlgebraicSet.of(one, [parse_word("a", one)]))


class TestSerialization:
    def test_round_trip(self):
        s = aset(points=("a^2",), cosets=(("b^-1", "b a b^-1"),))
        d = to_json_dict(s)
        assert d["whole_group"] is False
        assert from_json_dict(d, AB) == s

    def test_whole_group(self):
        d = to_json_dict(WHOLE)
        assert d == {"points": [], "cosets": [], "whole_group": True}
        assert from_json_dict(d, AB) == WHOLE

    def test_non_canonical_input_normalizes(self):
        d = {"points": ["a"], "cosets": [{"rep": "a^3", "root": "a^-1"}], "whole_group": False}
        assert from_json_dict(d, AB) == aset(cosets=(("1", "a"),))

    def test_components_must_be_lists(self):
        with pytest.raises(ParseError, match="^set JSON 'points' must be a list, got \"a\"$"):
            from_json_dict({"points": "a"}, AB)
