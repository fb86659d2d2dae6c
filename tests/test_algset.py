import random
import time

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
from fgz.errors import AlphabetError, BallLimitError, RootError
from fgz.onevar import LineSolutionSet
from fgz.words import Alphabet, Word, enumerate_ball, parse_word

from helpers import AB, ABC, random_word, reduced_data
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


class TestCyclicCoset:
    def test_member_subgroup(self):
        assert coset("1", "a").member(w("a^5"))

    def test_member_translate(self):
        assert coset("b", "a").member(w("b a^-2"))

    def test_non_member(self):
        c = coset("1", "a b")
        assert not c.member(w("b a"))
        for k in range(-3, 4):
            assert w("a b") ** k != w("b a")

    def test_rejects_trivial_root(self):
        with pytest.raises(RootError):
            coset("a", "1")

    def test_rejects_proper_power_root(self):
        with pytest.raises(RootError, match="proper power"):
            coset("1", "a^2")

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


class TestAlgebraicSet:
    def test_member_examples(self):
        s = aset(points=("a^2",), cosets=(("1", "b"),))
        assert s.member(w("b^-4"))
        assert not s.member(w("a"))
        assert not AlgebraicSet.empty(AB).member(w("1"))

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

    @pytest.mark.parametrize("found", [LineSolutionSet.finite([0, 1]), LineSolutionSet.everything()])
    def test_more_than_one_common_element_is_refused(self, monkeypatch, found):
        monkeypatch.setattr(algset, "reduce_parametric", lambda pw: found)
        with pytest.raises(AssertionError, match="centralizers in a free group are cyclic"):
            intersect_cosets(coset("1", "a"), coset("1", "b"))


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

    def test_alphabet_mismatch(self):
        from fgz.words import Alphabet

        other = AlgebraicSet.empty(Alphabet(("c",)))
        with pytest.raises(AlphabetError):
            union(aset(), other)

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

    def test_members_within_is_the_ball(self):
        for radius in range(5):
            assert WHOLE.members_within(radius) == set(enumerate_ball(AB, radius))
        with pytest.raises(BallLimitError):
            WHOLE.members_within(12)  # 1,062,881 elements at rank 2

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
