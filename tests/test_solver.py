import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fgz import solver as solver_module
from fgz.algset import AlgebraicSet, CyclicCoset
from fgz.errors import BallLimitError, SolverError
from fgz.onevar import OneVarWord, brute_solutions, reduce_parametric, substitute_line
from fgz.solver import (
    OracleReport,
    SolveConfig,
    _candidate_components,
    exact_solution_set,
    solve,
    verify_against_oracle,
)
from fgz.words import Alphabet, Word, _reduce_data, enumerate_ball, parse_word

from helpers import (
    AB,
    ABC,
    one_var_words,
    plain_solutions,
    random_reduced_data,
    reduced_data,
    with_inverted_variable,
)
from test_reference_outputs import _load_workloads

X = AB.extend("x")


def ov(text):
    return OneVarWord.parse(text, AB)


def w(text):
    return parse_word(text, AB)


def coset(rep, root):
    return CyclicCoset.make(w(rep), w(root))


FAST = SolveConfig(discovery_radius=3, verify_radius=5)


def full_ball_oracle(w, s, radius):
    """Reference for verify_against_oracle: test membership of every ball element."""
    solutions = plain_solutions(w, radius)
    missing = tuple(g for g in solutions if not s.member(g))
    extra = tuple(g for g in enumerate_ball(AB, radius) if s.member(g) and g not in solutions)
    return OracleReport(not missing and not extra, missing, extra, radius)


@st.composite
def raw_cosets(draw, radius):
    """A coset ``rep<root>`` from a raw pair whose ``rep`` may be longer than
    the coset's least element.  Half the roots are conjugates of a letter
    (core length 1) and half the raw reps have length ``radius``: the
    configuration where the sweep's bound on m is tightest."""
    if draw(st.booleans()):
        u = Word(AB, draw(reduced_data(2, 3)))
        root = u * Word(AB, (draw(st.sampled_from((1, -1, 2, -2))),)) * ~u
    else:
        root = Word(AB, draw(reduced_data(2, 4, min_len=1))).primitive_root().root
    if draw(st.booleans()):
        rep = Word(AB, draw(reduced_data(2, radius, min_len=radius)))
    else:
        rep = Word(AB, draw(reduced_data(2, radius + 2))) * root ** draw(st.integers(-3, 3))
    return CyclicCoset(rep, root)


@st.composite
def oracle_cases(draw):
    radius = draw(st.integers(0, 5))
    word = draw(one_var_words(AB))
    points = draw(st.lists(reduced_data(2, radius + 1), max_size=4))
    cosets = draw(st.lists(raw_cosets(radius), max_size=3))
    s = AlgebraicSet(AB, tuple(Word(AB, d) for d in points), tuple(cosets))
    if draw(st.booleans()) and word.contains_variable:
        solved = solve(word, SolveConfig(discovery_radius=2, verify_radius=4)).result
        s = AlgebraicSet(AB, s.points + solved.points, s.cosets + solved.cosets)
    return word, s, radius


class TestWorkedInstances:
    def test_commutator_gives_centralizer(self):
        report = solve(ov("x a x^-1 a^-1"))
        assert report.result == AlgebraicSet(AB, cosets=[coset("1", "a")])
        assert verify_against_oracle(ov("x a x^-1 a^-1"), report.result, 5).match

    def test_unique_point(self):
        report = solve(ov("x a^-1"))
        assert report.result == AlgebraicSet.of(AB, points=[w("a")])

    def test_translated_centralizer(self):
        report = solve(ov("x b a b^-1 x^-1 a^-1"))
        assert report.result == AlgebraicSet(AB, cosets=[coset("b^-1", "b a b^-1")])

    def test_no_solutions(self):
        report = solve(ov("x^2 a"))
        assert report.result.is_empty

    def test_reports_are_sound_and_radius_stamped(self):
        report = solve(ov("x a x^-1 a^-1"))
        assert report.to_json_dict()["sound"] is True
        assert report.complete_on_radius == 8 and report.escalations == 0


class TestDegenerateWords:
    def test_trivial_coefficient_word_solves_everywhere(self):
        report = solve(ov("a a^-1"))
        assert report.result == AlgebraicSet(AB, whole_group=True)
        assert report.result.whole_group
        assert report.to_json_dict()["whole_group"] is True

    def test_nontrivial_coefficient_word_never_solves(self):
        report = solve(ov("a b"))
        assert report.result == AlgebraicSet.empty(AB)
        assert not report.result.whole_group


class TestVerifyAgainstOracle:
    def test_match(self):
        s = AlgebraicSet(AB, cosets=[coset("1", "a")])
        assert verify_against_oracle(ov("x a x^-1 a^-1"), s, 4).match

    def test_match_point(self):
        s = AlgebraicSet.of(AB, points=[w("a")])
        assert verify_against_oracle(ov("x a^-1"), s, 4).match

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(oracle_cases())
    def test_matches_full_ball_sweep(self, case):
        word, s, radius = case
        assert verify_against_oracle(word, s, radius) == full_ball_oracle(word, s, radius)

    def test_sweep_reaches_the_bound_on_m(self):
        # a^-4 <a> is 1 <a>; at R = 4 it holds a^m for |m| <= 4, both ends of the window on m
        s = AlgebraicSet.of(AB, cosets=[(w("a^-4"), w("a"))])
        report = verify_against_oracle(ov("x b x^-1 b^-1"), s, 4)
        assert report == full_ball_oracle(ov("x b x^-1 b^-1"), s, 4)
        assert report.extra == tuple(w(f"a^{m}") for k in range(1, 5) for m in (k, -k))

    def test_deliberately_wrong_set(self):
        s = AlgebraicSet.of(AB, points=[w("1")])
        report = verify_against_oracle(ov("x a x^-1 a^-1"), s, 2)
        assert not report.match
        assert w("a") in report.missing
        assert not report.extra


class TestSolvePipeline:
    def test_escalation_recovers_from_tiny_discovery(self):
        cfg = SolveConfig(discovery_radius=0, verify_radius=2)
        report = solve(ov("x a x^-1 a^-1"), cfg)
        assert report.escalations >= 1
        assert report.result == AlgebraicSet(AB, cosets=[coset("1", "a")])

    def test_discovery_includes_its_boundary(self):
        report = solve(ov("x a^-3"), FAST)
        assert report.escalations == 0
        assert report.result == AlgebraicSet.of(AB, points=[w("a^3")])

    def test_escalation_disabled_raises(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_ESCALATIONS", 0)
        cfg = SolveConfig(discovery_radius=0, verify_radius=2)
        with pytest.raises(SolverError, match="mismatch"):
            solve(ov("x a x^-1 a^-1"), cfg)

    def test_exhausted_escalation_names_its_knobs(self, monkeypatch):
        # a^5 lies in each verification ball but never in the discovery ball
        monkeypatch.setattr(solver_module, "MAX_ESCALATIONS", 1)
        cfg = SolveConfig(discovery_radius=0, verify_radius=6)
        message = (
            "escalation exhausted with persistent oracle mismatch at radius 8: missing=['a^5'] extra=[]; "
            "the discovery radius went from 0 to 2 in MAX_ESCALATIONS = 1 escalations; "
            "re-run with a larger --radius"
        )
        with pytest.raises(SolverError, match="mismatch") as info:
            solve(ov("x a^-5"), cfg)
        assert str(info.value) == message
        assert solve(ov("x a^-5"), SolveConfig(discovery_radius=3, verify_radius=5)).escalations == 1

    def test_oversize_discovery(self, monkeypatch):
        # four occurrences and no proper power, so pairing runs: a^m for |m| <= 6 are 13 solutions
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 10)
        message = r"oversize discovery: 13 ball solutions .* is over MAX_PAIRS = 10; re-run with a smaller discovery radius"
        with pytest.raises(SolverError, match=message):
            solve(ov("x a x^-1 a^-1 x a^2 x^-1 a^-2"), SolveConfig(discovery_radius=6))

    def test_an_exact_set_forms_no_pairs(self, monkeypatch):
        # 13 discovered solutions, yet no pair limit applies
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 0)
        report = solve(ov("x a x^-1 a^-1"))
        assert report.result == AlgebraicSet(AB, cosets=[coset("1", "a")])

    def test_an_exact_set_is_answered_without_the_oracle_check(self, monkeypatch):
        word = ov("x a x^-1 a^-1")

        def refuse(*args, **kwargs):
            raise AssertionError("verify_against_oracle called")

        monkeypatch.setattr(solver_module, "verify_against_oracle", refuse)
        report = solve(word, FAST)
        assert report.result == exact_solution_set(word)
        assert (report.complete_on_radius, report.escalations) == (5, 0)

    def test_only_the_radius_path_refuses_its_ball(self):
        # a closed form builds no ball: only the members it lists are bounded
        commutator = ov("x a x^-1 a^-1")
        report = solve(commutator, SolveConfig(discovery_radius=12))
        assert (report.result, report.complete_on_radius) == (AlgebraicSet(AB, cosets=[coset("1", "a")]), 14)
        abcd = Alphabet(("a", "b", "c", "d"))
        report = solve(OneVarWord.parse("x a^-1", abcd))  # a ball of 7,686,401 elements at radius 8
        assert (report.result, report.complete_on_radius) == (AlgebraicSet.of(abcd, points=[parse_word("a", abcd)]), 8)
        not_conjugate = ov("x a b a^-1 b^-1 x^-1 a b a^-1 b^-1")  # admitted, yet no solution
        report = solve(not_conjugate, SolveConfig(discovery_radius=12))
        assert report.result.is_empty and report.complete_on_radius == 14
        with pytest.raises(BallLimitError, match="ball of radius 8 at rank 4 has 7,686,401 elements"):
            solve(OneVarWord.parse("x a x^-1 a^-1 x a^2 x^-1 a^-2", abcd))
        start = time.perf_counter()
        with pytest.raises(BallLimitError, match=r"coset \(1\)<a> within length 1,000,000,002 has a window of 2,000,000,005"):
            solve(commutator, SolveConfig(discovery_radius=10**9))
        assert time.perf_counter() - start < 1
        # ruled out by the abelianization: the empty set lists no members
        assert solve(ov("x a x^-1 b^-1"), SolveConfig(discovery_radius=10**9)).result.is_empty

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(discovery_radius=4, verify_radius=2)
        with pytest.raises(ValueError):
            SolveConfig(discovery_radius=-1)
        assert SolveConfig(discovery_radius=3).verify_radius == 5
        assert SolveConfig(discovery_radius=3, verify_radius=3).verify_radius == 3
        assert solve(ov("x a^-1"), SolveConfig(discovery_radius=1)).result == AlgebraicSet.of(AB, points=[w("a")])

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(word=one_var_words(AB), radius=st.integers(0, 4))
    def test_zero_gap_verifies_on_the_discovery_ball(self, word, radius):
        # every solution in the ball is discovered and every component is
        # verified, so a zero gap never escalates
        if not word.contains_variable:
            return
        report = solve(word, SolveConfig(discovery_radius=radius, verify_radius=radius))
        assert (report.complete_on_radius, report.escalations) == (radius, 0)
        assert full_ball_oracle(word, report.result, radius).match

    def test_result_holds_beyond_verify_radius(self):
        word = ov("x a^4 x a^-6")
        report = solve(word, SolveConfig(discovery_radius=3, verify_radius=5))
        oracle = verify_against_oracle(word, report.result, 7)
        assert oracle.match


@st.composite
def planted_words(draw, alphabet):
    """Strategy: ``c0 x^e1 c1 [x^e2 c2]``, half of them with opposite signs,
    three times in four made to vanish at a drawn g.  Planted words have a
    solution, and with opposite signs their solution set is a coset."""
    rank = len(alphabet)
    var = rank + 1
    sign = draw(st.sampled_from((var, -var)))
    signs = draw(st.sampled_from(((sign,), (sign, -sign), (sign, -sign), (sign, sign))))
    raw = list(draw(reduced_data(rank, 3)))
    for v in signs:
        raw.append(v)
        raw += draw(reduced_data(rank, 3))
    extended = alphabet.extend("x")
    word = OneVarWord.from_body(Word(extended, _reduce_data([(v,) for v in raw])))
    if draw(st.integers(0, 3)):
        g = Word(alphabet, draw(reduced_data(rank, 4)))
        word = OneVarWord.from_body(word.body * Word(extended, (~word.evaluate(g)).data))
    return word


class TestExactSolutionSet:
    @pytest.mark.parametrize(
        "text, points, cosets",
        [
            ("x a^-1", ["a"], []),
            ("a x b", ["a^-1 b^-1"], []),
            ("x^-1 a b", ["a b"], []),
            ("x^2 a^-2", ["a"], []),
            ("x a x a^-3", ["a"], []),
            ("x^-2 b^2", ["b"], []),
            ("x^2 a b a^-1 b", [], []),  # admitted, but d is no square
            ("x a x^-1 a^-1", [], [("1", "a")]),
            ("x a b x^-1 a^-1 b^-1", [], [("a^-1", "a b")]),  # a rotation by one letter
            ("x^-1 a x b a^-1 b^-1", [], [("b^-1", "b a b^-1")]),
            ("x a b a^-1 b^-1 x^-1 a b a^-1 b^-1", [], []),  # admitted, but not conjugate
            ("x a x^-1 b^-1", [], []),  # ruled out by the abelianization
            ("x^3 a^6", ["a^-2"], []),  # one syllable: the cube root of a^-6
            ("x^-3 a^6", ["a^2"], []),  # inverted to x^3 a^-6
            ("x^4 a b^-1 a^-1 b", [], []),  # admitted, but no fourth power
            ("a x b x^-2 a^-1", ["b"], []),  # cyclic core b x^-1
            ("x a x^-1", [], []),  # core a, without x
            ("x a b a^-1 b^-1 x^-1", [], []),  # core without x, admitted
            ("x a x b x", [], []),  # three occurrences, ruled out by the abelianization
            ("x a x a x a", ["a^-1"], []),  # the cube of x a, which is 1 exactly when x a is
            ("x a x^-1 a^-1 x a x^-1 a^-1", [], [("1", "a")]),  # the square of a commutator
        ],
    )
    def test_closed_forms(self, text, points, cosets):
        expected = AlgebraicSet.of(AB, [w(p) for p in points], [(w(r), w(t)) for r, t in cosets])
        assert exact_solution_set(ov(text)) == expected

    def test_none_without_a_closed_form(self):
        assert exact_solution_set(ov("x a x^-1 a^-1 x a^2 x^-1 a^-2")) is None  # four occurrences, no proper power
        assert exact_solution_set(ov("x^2 a x a^2")) is None  # a syllable x^2 and one more occurrence
        assert exact_solution_set(ov("a b")) is None

    def test_one_long_syllable_in_linear_time(self):
        word = ov("x^500000 a^500000")
        start = time.perf_counter()
        assert exact_solution_set(word) == AlgebraicSet(AB, (w("a^-1"),))
        assert time.perf_counter() - start < 1

    def test_long_cores_are_matched_in_linear_time(self):
        # cores of 100,002 letters: trying each rotation in turn would compare
        # about 10^10 letters
        c1 = (1, 2) * 50_000 + (1, -2)
        start = time.perf_counter()
        for d, conjugate in ((c1[50_001:] + c1[:50_001], True), ((1, 2) * 50_000 + (-2, 1), False)):
            word = OneVarWord.from_body(Word(X, (3, *c1, -3, *(-v for v in reversed(d)))))
            exact = exact_solution_set(word)
            assert len(exact.cosets) == conjugate and not exact.points
            assert all(word.evaluate(c.element(m)).is_identity for c in exact.cosets for m in (-1, 0, 1))
        assert time.perf_counter() - start < 5

    def test_sets_beyond_the_radius_answer(self):
        # the next element of the coset, a^6 b, has length 7: past verify radius 6
        word = ov("x a^3 b x^-1 a^3 b^-1 a^-6")
        assert exact_solution_set(word) == AlgebraicSet(AB, cosets=[coset("a^3", "a^3 b")])
        assert solve(word, SolveConfig(discovery_radius=4, verify_radius=6)).result == AlgebraicSet.of(
            AB, points=[w("a^3")]
        )
        word = ov("a^4 b^-2 x b^-1")
        assert exact_solution_set(word) == AlgebraicSet.of(AB, points=[w("b^2 a^-4 b")])
        assert solve(word, FAST).result.is_empty

    def test_set_components_are_the_sets_of_their_equations(self):
        # a point p is the solution set of x p^-1, and a coset rep<root> that
        # of [rep^-1 x, root] = rep^-1 x root x^-1 rep root^-1; taken from the
        # raw sets of every 10th chain of the benchmark's set-algebra universe
        workloads = _load_workloads()
        xw = Word(X, (3,))  # the letter codes of AB are those of X
        checked, mismatched = [0, 0], []
        for index in range(0, workloads.CHAIN_UNIVERSE, 10):
            for points, cosets in workloads.chain_input(index):
                for p in points:
                    checked[0] += 1
                    if exact_solution_set(OneVarWord.from_body(xw * ~Word(X, p.data))) != AlgebraicSet(AB, (p,)):
                        mismatched.append(str(p))
                for rep, root in cosets:
                    checked[1] += 1
                    r, t = Word(X, rep.data), Word(X, root.data)
                    body = ~r * xw * t * ~xw * r * ~t
                    if exact_solution_set(OneVarWord.from_body(body)) != AlgebraicSet.of(AB, cosets=[(rep, root)]):
                        mismatched.append(f"({rep})<{root}>")
        assert checked == [6020, 5976]
        assert not mismatched, f"{len(mismatched)} components differ from their equation's set: {mismatched[:5]}"

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(data=st.data())
    def test_members_in_the_ball_are_the_oracle_solutions(self, data):
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        word = data.draw(planted_words(alphabet))
        exact = exact_solution_set(word)
        if exact is None:  # the two occurrences cancelled
            assert not word.contains_variable
            return
        radius = 5 if alphabet is AB else 4
        assert sorted(exact.members_within(radius), key=Word.sort_key) == brute_solutions(word, radius)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(data=st.data())
    def test_conjugated_bodies_keep_the_set(self, data):
        # p w p^-1 for p over the letters and x: three or more occurrences,
        # but the cyclic core, and so the solution set, of w
        alphabet = data.draw(st.sampled_from((AB, ABC)))
        word = data.draw(planted_words(alphabet))
        var = len(alphabet) + 1
        pieces = [data.draw(reduced_data(var, 3)), (data.draw(st.sampled_from((var, -var))),)]
        p = Word(word.body.alphabet, _reduce_data(pieces + [data.draw(reduced_data(var, 3))]))
        conjugated = OneVarWord.from_body(p * word.body * ~p)
        assume(word.contains_variable and sum(abs(v) == var for v in conjugated.body.data) >= 3)
        exact = exact_solution_set(conjugated)
        assert exact == exact_solution_set(word)
        assert sorted(exact.members_within(4), key=Word.sort_key) == brute_solutions(conjugated, 4)


def ordered_pair_components(w, discovered):
    """Reference for ``_candidate_components``: every ordered pair of
    distinct solutions proposes its line, deduplicated by canonical coset."""
    cosets, extra_points, seen = [], [], set()
    for g in discovered:
        for h in discovered:
            if g == h:
                continue
            root = (~g * h).primitive_root().root
            line = CyclicCoset.make(g, root)
            if line in seen:
                continue
            seen.add(line)
            solutions = reduce_parametric(substitute_line(w, g, root))
            if solutions.all_integers:
                cosets.append(line)
            else:
                for m in solutions.values:
                    candidate = g * root ** m
                    if w.evaluate(candidate).is_identity:
                        extra_points.append(candidate)
    return cosets, extra_points


class TestCandidatePairing:
    def test_each_unordered_pair_makes_one_line(self, monkeypatch):
        word = ov("x a x^-1 a^-1")
        discovered = brute_solutions(word, 3)
        n = len(discovered)
        monkeypatch.setattr(solver_module, "MAX_PAIRS", n * (n - 1))
        made = []
        make = CyclicCoset.make.__func__

        def counting_make(cls, rep, root):
            made.append((rep, root))
            return make(cls, rep, root)

        monkeypatch.setattr(CyclicCoset, "make", classmethod(counting_make))
        cosets, extra_points = _candidate_components(word, discovered)
        assert n == 7 and len(made) <= n * (n - 1) // 2
        assert (cosets, extra_points) == ([coset("1", "a")], [])

    @settings(deadline=None, derandomize=True, max_examples=80)
    @given(word=one_var_words(AB), radius=st.integers(0, 3))
    def test_matches_ordered_pairs(self, word, radius):
        # same lines in the same order, each through the same base
        discovered = brute_solutions(word, radius)
        n = len(discovered)
        expected = ordered_pair_components(word, discovered)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_module, "MAX_PAIRS", n * (n - 1))
            assert _candidate_components(word, discovered) == expected

    def test_pair_limit_counts_ordered_pairs(self, monkeypatch):
        word = ov("x a x^-1 a^-1")
        discovered = brute_solutions(word, 3)
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 42)
        _candidate_components(word, discovered)
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 41)
        message = r"7 ball solutions give 21 candidate pairs, and n\(n-1\) = 42 is over MAX_PAIRS = 41"
        with pytest.raises(SolverError, match=message):
            _candidate_components(word, discovered)


def exponent_sum(word: OneVarWord) -> int:
    vc = len(word.alphabet) + 1
    return sum(1 if v > 0 else -1 for v in word.body.data if abs(v) == vc)


class TestNonzeroExponentSum:
    """For sigma != 0, ``g -> w(g)`` is injective (module docstring), so pairing never gets a pair."""

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(word=one_var_words(AB, max_occurrences=5).filter(lambda word: exponent_sum(word) != 0))
    def test_at_most_one_solution(self, word):
        found = plain_solutions(word, 4)
        assert len(found) <= 1
        assert brute_solutions(word, 4) == found


class TestSolveProperties:
    def _random_onevar(self, rng, max_len=8):
        return OneVarWord.from_body(Word(X, random_reduced_data(rng, 3, rng.randint(0, max_len))))

    def test_soundness_every_component_verifies(self):
        rng = random.Random(41)
        for _ in range(40):
            word = self._random_onevar(rng)
            if not word.contains_variable:
                continue
            report = solve(word, FAST)
            for p in report.result.points:
                assert word.evaluate(p).is_identity
            for c in report.result.cosets:
                line = reduce_parametric(substitute_line(word, c.rep, c.root))
                assert line.all_integers

    def test_shape_conformance(self):
        rng = random.Random(42)
        for _ in range(40):
            word = self._random_onevar(rng)
            if not word.contains_variable:
                continue
            result = solve(word, FAST).result
            assert result == AlgebraicSet(AB, result.points, result.cosets)
            for c in result.cosets:
                assert CyclicCoset.make(c.rep, c.root) == c
                assert c.root.primitive_root().exponent == 1
                assert c.root <= ~c.root

    def test_conjugation_equivariance(self):
        rng = random.Random(43)
        ball = enumerate_ball(AB, 4)
        for _ in range(25):
            word = self._random_onevar(rng, max_len=6)
            if not word.contains_variable:
                continue
            u = Word(X, random_reduced_data(rng, 3, rng.randint(0, 3)))
            conjugated = OneVarWord.from_body(u * word.body * ~u)
            s1 = solve(word, FAST).result
            s2 = solve(conjugated, FAST).result
            for g in ball:
                assert s1.member(g) == s2.member(g)

    def test_inverted_variable_gives_inverse_image(self):
        rng = random.Random(44)
        ball = enumerate_ball(AB, 4)
        for _ in range(25):
            word = self._random_onevar(rng, max_len=6)
            if not word.contains_variable:
                continue
            flipped = with_inverted_variable(word)
            s1 = solve(word, FAST).result
            s2 = solve(flipped, FAST).result
            for g in ball:
                assert s2.member(g) == s1.member(~g)

    def test_matches_oracle_on_random_words(self):
        rng = random.Random(45)
        for _ in range(60):
            word = self._random_onevar(rng)
            if not word.contains_variable:
                continue
            report = solve(word, FAST)
            oracle = verify_against_oracle(word, report.result, 5)
            assert oracle.match, (word, oracle)
