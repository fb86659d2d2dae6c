import copy
import hashlib
import json
import pickle
import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgz import solver as solver_module
from fgz.algset import AlgebraicSet, CyclicCoset, subset
from fgz.errors import AlphabetError, BallLimitError, SolverError
from fgz.onevar import OneVarWord, abelian_constraint, brute_solutions, reduce_parametric, substitute_line
from fgz.solver import (
    OracleReport,
    SolveConfig,
    _candidate_components,
    _root,
    exact_solution_set,
    solve,
    verify_against_oracle,
)
from fgz.words import (
    Alphabet, Word, _core_start, _invert_data, _letters_text, _reduce_data, _split_root, enumerate_ball, parse_word,
)

from helpers import (
    AB,
    ABC,
    one_var_words,
    plain_solutions,
    planted_conjugacy_words,
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

    def test_a_set_over_another_alphabet_is_refused(self):
        word = OneVarWord.parse("x a", Alphabet(("a",)))
        with pytest.raises(AlphabetError, match="^operands over different alphabets$"):
            verify_against_oracle(word, AlgebraicSet.empty(Alphabet(("b",))), 2)


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
        # the members of (1)<a> in the verification ball and not in the discovery ball, in shortlex order
        monkeypatch.setattr(solver_module, "MAX_ESCALATIONS", 0)
        cfg = SolveConfig(discovery_radius=0, verify_radius=2)
        message = (
            "escalation exhausted with persistent oracle mismatch at radius 2: "
            "missing=['a', 'a^-1', 'a^2', 'a^-2'] extra=[]; the discovery radius went from 0 to 0 "
            "in MAX_ESCALATIONS = 0 escalations; re-run with a larger --radius"
        )
        with pytest.raises(SolverError, match="mismatch") as info:
            solve(ov("x a x^-1 a^-1"), cfg)
        assert str(info.value) == message

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

    def test_the_exact_round_proves_no_root_and_checks_no_oracle(self, monkeypatch):
        # every 10th coset-solve entry, answered alike with both calls refused
        wl = _load_workloads().WORKLOADS["coset-solve"]
        entries = wl.universe()[::10]
        expected = [wl.op(wl.make_input(entry)) for entry in entries]

        def refuse(*args, **kwargs):
            raise AssertionError("called on the exact path")

        monkeypatch.setattr(Word, "primitive_root", refuse)
        monkeypatch.setattr(solver_module, "verify_against_oracle", refuse)
        assert [wl.op(wl.make_input(entry)) for entry in entries] == expected

    def test_the_exact_round_builds_no_member_words(self, monkeypatch):
        # rank-2 closed forms of each shape, some escalating: the round
        # decides on member data, and no member list of words is built
        wl = _load_workloads().WORKLOADS["coset-solve"]
        texts = wl.universe()[::40] + ["x a^-3", "x a x b", "x^2 a^-2 b^-2", "x a^3 b^3 x^-1 b^-1 a^-3 b^-2"]
        cases = [(ov(text), cfg) for text in texts for cfg in (SolveConfig(0, 2), SolveConfig(1, 3), FAST)]
        expected = [solve(word, cfg) for word, cfg in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("member words built on the exact path")

        monkeypatch.setattr(AlgebraicSet, "members_within", refuse)
        monkeypatch.setattr(CyclicCoset, "elements_within", refuse)
        assert [solve(word, cfg) for word, cfg in cases] == expected

    def test_an_escalating_round_builds_no_report(self, monkeypatch):
        # a round that escalates keeps its data: the report is built only when escalation is exhausted
        workloads = _load_workloads()
        wl = workloads.WORKLOADS["coset-solve"]
        cases = [(ov("x a x^-1 a^-1"), SolveConfig(0, 2)), (ov("x a^-5"), FAST)]
        cases += [(ov(text), workloads.COSET_CFG) for text in wl.universe()[::40]]
        expected = [solve(word, cfg) for word, cfg in cases]
        cases = [case for case, report in zip(cases, expected) if report.escalations]
        expected = [report for report in expected if report.escalations]
        assert len(cases) == 2 + 80  # 80 of the 212 coset-solve entries escalate

        def refuse(*args, **kwargs):
            raise AssertionError("an OracleReport built on an escalating round")

        monkeypatch.setattr(solver_module, "OracleReport", refuse)
        assert [solve(word, cfg) for word, cfg in cases] == expected

    @pytest.mark.parametrize(
        "discovery, verify, answer, radius, escalations",
        [
            (0, 0, "{1}", 0, 0),  # the identity alone in both balls: the point
            (0, 2, "whole group", 4, 1),  # a^+-1 and a^+-2 to verify: escalate
            (1, 3, "whole group", 3, 0),  # three discovered: F
        ],
    )
    def test_a_rank_one_exact_set_is_the_whole_group(self, discovery, verify, answer, radius, escalations):
        # at rank 1 the coset (1)<a> of x a x^-1 a^-1 is F, whose members are the ball
        word = OneVarWord.parse("x a x^-1 a^-1", Alphabet(("a",)))
        assert exact_solution_set(word).whole_group
        report = solve(word, SolveConfig(discovery, verify))
        assert (str(report.result), report.complete_on_radius, report.escalations) == (answer, radius, escalations)

    # the members of (b^2)<a^3 b^3> by length: b^2, b^-1 a^-3, then 8 letters and more
    @pytest.mark.parametrize(
        "discovery, verify, answer, radius, escalations",
        [
            (1, 1, "empty", 1, 0),  # no member in either ball: the empty set
            (1, 3, "(b^2)<a^3 b^3>", 7, 2),  # none, then one, discovered with more to verify
            (2, 3, "{b^2}", 3, 0),  # one member in all: the point
            (2, 4, "(b^2)<a^3 b^3>", 6, 1),  # one discovered and b^-1 a^-3 to verify: escalate
            (4, 4, "(b^2)<a^3 b^3>", 4, 0),  # two discovered: the coset
        ],
    )
    def test_the_exact_round_decides_by_member_counts(self, discovery, verify, answer, radius, escalations):
        report = solve(ov("x a^3 b^3 x^-1 b^-1 a^-3 b^-2"), SolveConfig(discovery, verify))
        assert (str(report.result), report.complete_on_radius, report.escalations) == (answer, radius, escalations)

    def test_the_radius_path_decides_rounds_of_at_most_one_by_counts(self, monkeypatch):
        # the corpus words without a closed form all have sigma != 0, so at
        # most one solution: no round forms a pair or checks the oracle
        workloads = _load_workloads()
        words = [ov(text) for text in workloads.corpus_universe()]
        words = [word for word in words if word.contains_variable and exact_solution_set(word) is None]
        expected = [solve(word, workloads.CORPUS_CFG) for word in words]
        late = ov("x b x^-1 b x b")  # its one solution b^-3 lies past discovery radius 2
        assert exact_solution_set(late) is None

        def refuse(*args, **kwargs):
            raise AssertionError("called in a round with fewer than two discovered solutions")

        monkeypatch.setattr(solver_module, "verify_against_oracle", refuse)
        monkeypatch.setattr(solver_module, "_candidate_components", refuse)
        assert len(words) == 16 and [solve(word, workloads.CORPUS_CFG) for word in words] == expected
        report = solve(late, SolveConfig(2, 4))
        assert (str(report.result), report.complete_on_radius, report.escalations) == ("{b^-3}", 6, 1)
        monkeypatch.setattr(solver_module, "MAX_ESCALATIONS", 0)
        message = (
            "escalation exhausted with persistent oracle mismatch at radius 4: missing=['b^-3'] extra=[]; "
            "the discovery radius went from 2 to 2 in MAX_ESCALATIONS = 0 escalations; re-run with a larger --radius"
        )
        with pytest.raises(SolverError, match="mismatch") as info:
            solve(late, SolveConfig(2, 4))
        assert str(info.value) == message

    def test_a_pairing_round_reports_the_walk_solutions_it_misses(self, monkeypatch):
        # sigma = 0 and no closed form: 1 and b^-1 are discovered at radius 1,
        # and pairing's line (1)<b> misses a b a^-1, a point of its own
        word = ov("a b x a^-1 x a b^-1 x^-1 a^-1 x^-1")
        assert exact_solution_set(word) is None
        report = solve(word, SolveConfig(1, 3))
        assert (str(report.result), report.complete_on_radius, report.escalations) == ("{1, b^-1, a b a^-1}", 5, 1)
        monkeypatch.setattr(solver_module, "MAX_ESCALATIONS", 0)
        message = (
            "escalation exhausted with persistent oracle mismatch at radius 3: missing=['a b a^-1'] extra=[]; "
            "the discovery radius went from 1 to 1 in MAX_ESCALATIONS = 0 escalations; re-run with a larger --radius"
        )
        with pytest.raises(SolverError, match="mismatch") as info:
            solve(word, SolveConfig(1, 3))
        assert str(info.value) == message

    def test_a_pairing_round_needs_no_oracle_comparison(self, planted, monkeypatch):
        # the round tests the walk's solutions for membership: no member of the set is listed
        nested = ov("x a x^-1 a^-1 x b x^-1 b^-1 a x a^-1 x^-1 b x b^-1 x^-1")
        cases = [(word, FAST) for word, _, _ in planted] + [(nested, SolveConfig(2, 4))]
        expected = [report for _, _, report in planted] + [solve(nested, SolveConfig(2, 4))]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle comparison ran in a pairing round")

        monkeypatch.setattr(solver_module, "verify_against_oracle", refuse)
        monkeypatch.setattr(AlgebraicSet, "members_within", refuse)
        monkeypatch.setattr(CyclicCoset, "elements_within", refuse)
        assert [solve(word, cfg) for word, cfg in cases] == expected

    @pytest.mark.parametrize(
        "text, rejected",
        [
            ("x a x^-1 b", True),  # ruled out by the abelianization
            ("x^2 a^2 b^2", False),  # sigma = 2, and b^-2 a^-2 has no square root
            ("x a^2 b^2 x^-1 b^-1 a^-1 b^-1 a^-1", False),  # sigma = 0, and a b a b is no rotation of a^2 b^2
        ],
    )
    def test_an_empty_exact_set_is_answered_before_any_round(self, monkeypatch, text, rejected):
        def refuse(*args, **kwargs):
            raise AssertionError("a round ran for an empty exact set")

        monkeypatch.setattr(AlgebraicSet, "_data_within", refuse)
        monkeypatch.setattr(CyclicCoset, "_data_within", refuse)
        monkeypatch.setattr(solver_module, "brute_solutions", refuse)
        word = ov(text)
        assert (abelian_constraint(word) is None) == rejected
        report = solve(word, SolveConfig(3, 5))
        assert report.result is AlgebraicSet.empty(AB)
        assert (report.complete_on_radius, report.escalations) == (5, 0)
        assert report.to_json_dict() == {
            "points": [], "cosets": [], "whole_group": False, "complete_on_radius": 5, "sound": True
        }

    def test_census_of_solve_paths(self):
        # the path each workload word takes; a change of path changes these counts on purpose
        def census(texts):
            paths = Counter()
            for text in texts:
                word = ov(text)
                if not word.contains_variable:
                    paths["variable-free"] += 1
                elif abelian_constraint(word) is None:
                    paths["rejected"] += 1
                else:
                    exact = exact_solution_set(word)
                    paths["radius" if exact is None else "empty" if exact.is_empty else "closed form"] += 1
            return dict(paths)

        workloads = _load_workloads()
        assert census(workloads.corpus_universe()) == {
            "variable-free": 218, "rejected": 15917, "empty": 1620, "closed form": 2242, "radius": 16
        }
        assert census(workloads.coset_universe()) == {"closed form": 8480}

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


class TestCopies:
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_values_holding_an_alphabet_copy_and_pickle(self, clone):
        """An alphabet copies by rebuilding from its names, so it and a word,
        a set with a coset and a solve report copy, each equal to its original."""
        report = solve(ov("x a x^-1 a^-1"), FAST)
        points_and_coset = AlgebraicSet.of(AB, points=[w("b")], cosets=[(w("b"), w("a"))])
        assert report.result.cosets and points_and_coset.cosets
        for value, alphabet_of in (
            (AB, lambda alphabet: alphabet),
            (w("a b^-1 a"), lambda word: word.alphabet),
            (points_and_coset, lambda s: s.alphabet),
            (report, lambda r: r.result.alphabet),
        ):
            twin = clone(value)
            assert twin == value
            assert parse_word("a^-1 b", alphabet_of(twin)).data == (-1, 2)


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


def parent_exact_solution_set(w):
    """Reference for :func:`exact_solution_set`: the same rules, with the
    core's shape read by per-letter scans and each split built in full."""
    if not w.contains_variable:
        return None
    vc, alphabet = w._var_code, w.alphabet
    if abelian_constraint(w) is None:
        return AlgebraicSet.empty(alphabet)
    core = _split_root(w.body.data).k
    if vc not in core:
        core = _invert_data(core)
    i = next((i for i, v in enumerate(core) if v == vc and core[i - 1] != vc), 0)
    core = core[i:] + core[:i]
    while True:
        m = next((j for j, v in enumerate(core) if v != vc), len(core))
        rest = core[m:]
        hits = [j for j, v in enumerate(rest) if abs(v) == vc]
        if not hits:
            x = _root(Word(alphabet, _invert_data(rest)), m) if m else None
            return AlgebraicSet.empty(alphabet) if x is None else AlgebraicSet(alphabet, (x,))
        if m == 1 and len(hits) == 1:
            break
        dec = Word(w.body.alphabet, core).primitive_root()
        if dec.exponent == 1:
            return None
        core = dec.root.data
    (j,) = hits
    c1, c2 = rest[:j], rest[j + 1 :]
    if rest[j] == vc:
        c1, c2 = Word(alphabet, c1), Word(alphabet, c2)
        y = _root(~c2 * c1, 2)
        return AlgebraicSet.empty(alphabet) if y is None else AlgebraicSet(alphabet, (y * ~c1,))
    s1, sd = _split_root(c1), _split_root(_invert_data(c2))
    k1, kd = s1.k, sd.k
    shift = (_letters_text(k1) * 2).find(_letters_text(kd)) if len(k1) == len(kd) else -1
    if shift < 0:
        return AlgebraicSet.empty(alphabet)
    x0 = Word(alphabet, _reduce_data((sd.u, _invert_data(k1[:shift]), s1.ui)))
    root = Word(alphabet, s1.u + k1[: s1.period()] + s1.ui)
    return AlgebraicSet(alphabet, (), (CyclicCoset.make(x0, root),))


@st.composite
def shaped_words(draw):
    """Strategy: one-variable words at rank 2 or 3 whose cyclic cores take
    each turn of the shape reader: a syllable ``x^m c``, ``x c1 x c2``,
    ``x c1 x^-1 c2`` with conjugate cores, with cores of one abelianization
    but in another order, or with free coefficients, a core with no x left,
    ``x^m`` alone, or any word.  Three in four of the shapes with no solution
    built in are planted to vanish at a drawn point, so the abelianization
    lets them through.  The core is then raised to a power,
    rotated (so an x-run may wrap past its end), conjugated and, half the
    time, inverted."""
    alphabet = draw(st.sampled_from((AB, ABC)))
    rank = len(alphabet)
    var = rank + 1
    extended = alphabet.extend("x")
    shape = draw(st.sampled_from(("syllable", "square", "conjugacy", "conjugate", "shuffled", "no x", "alone", "any")))
    planted = shape in ("syllable", "square", "conjugacy", "alone", "any") and draw(st.integers(0, 3))
    if shape == "syllable":
        pieces = [(var,) * draw(st.integers(1, 3)), draw(reduced_data(rank, 4))]
    elif shape == "square":
        pieces = [(var,), draw(reduced_data(rank, 3)), (var,), draw(reduced_data(rank, 3))]
    elif shape == "conjugacy":
        pieces = [(var,), draw(reduced_data(rank, 4)), (-var,), draw(reduced_data(rank, 5))]
    elif shape == "conjugate":  # c2^-1 = z^-1 c1 z, so the solutions are z^-1 <c1>
        c1, z = draw(reduced_data(rank, 4, min_len=1)), draw(reduced_data(rank, 3))
        pieces = [(var,), c1, (-var,), _invert_data(z), _invert_data(c1), z]
    elif shape == "shuffled":  # c2^-1 has the letters of c1 in another order
        c1 = draw(reduced_data(rank, 5, min_len=2))
        pieces = [(var,), c1, (-var,), _invert_data(_reduce_data([(v,) for v in draw(st.permutations(c1))]))]
    elif shape == "no x":  # [s, t], conjugated below by a word with x
        s, t = draw(reduced_data(rank, 2, min_len=1)), draw(reduced_data(rank, 2, min_len=1))
        pieces = [s, t, _invert_data(s), _invert_data(t)]
    elif shape == "alone":
        pieces = [(var,) * draw(st.integers(1, 4))]
    else:
        pieces = [draw(reduced_data(var, 8))]
    body = _reduce_data(pieces)
    if planted and (var in body or -var in body):
        g = Word(alphabet, draw(reduced_data(rank, 3)))
        body = _reduce_data([body, _invert_data(OneVarWord.from_body(Word(extended, body)).evaluate(g).data)])
    i = _core_start(body)
    core = _reduce_data([body[i : len(body) - i]] * draw(st.integers(1, 3)))
    if core:
        r = draw(st.integers(0, len(core) - 1))
        core = core[r:] + core[:r]
    p = draw(reduced_data(var, 3))
    if shape == "no x":
        p = _reduce_data([(draw(st.sampled_from((var, -var))),), p])
    body = _reduce_data([p, core, _invert_data(p)])
    if draw(st.booleans()):
        body = _invert_data(body)
    return OneVarWord.from_body(Word(extended, body))


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

    @settings(deadline=None, derandomize=True, max_examples=600)
    @given(word=shaped_words())
    @example(word=ov("x a^3 x^2"))  # an x-run that wraps past the end of the core: x^3 a^3
    @example(word=ov("x^-1 b^2 a x^-2"))  # the same with x^-1
    @example(word=ov("x a^2 x^-1 a^-2 x"))  # a wrapped run with more occurrences
    @example(word=ov("x a x^-1"))  # no x left in the core
    @example(word=ov("x^3"))  # x^m alone
    @example(word=ov("x a x a x a"))  # a proper power (x a)^3
    @example(word=ov("a^-1 x^-1 a^-1 x^-1"))  # (x a)^-2
    @example(word=ov("x a b x^-1 a^-1 b^-1"))  # conjugate cores of equal length, rotated by one letter
    @example(word=ov("x a^2 b x^-1 b a b^-1 a^-1 b^-1 a^-2"))  # admitted, cores of lengths 3 and 7
    def test_shape_reader_matches_the_reference(self, word):
        assert exact_solution_set(word) == parent_exact_solution_set(word)

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
    distinct solutions proposes its line, deduplicated by canonical coset;
    a zero of a line that does not vanish is added unless it was discovered."""
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
                    if w.evaluate(candidate).is_identity and candidate not in discovered:
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

    def test_a_line_that_does_not_vanish_adds_its_zeros(self):
        # [[x, a], [x, b]] vanishes on three cosets; the other lines through
        # its 11 discovered solutions vanish at 64 points, 10 of them
        # distinct, all discovered already, so pairing adds none of them
        word = ov("x a x^-1 a^-1 x b x^-1 b^-1 a x a^-1 x^-1 b x b^-1 x^-1")
        report = solve(word, SolveConfig(2, 4))
        assert (str(report.result), report.complete_on_radius, report.escalations) == (
            "(1)<a> u (1)<b> u (1)<a^-1 b>", 4, 0
        )
        discovered = [g for g in brute_solutions(word, 4) if len(g) <= 2]
        cosets, extra_points = _candidate_components(word, discovered)
        assert len(discovered) == 11 and cosets == list(report.result.cosets)
        lines = {CyclicCoset.make(g, (~g * h).primitive_root().root) for g, h in combinations(discovered, 2)}
        zeros = [
            c.rep * c.root ** m
            for c in lines - set(cosets)
            for m in reduce_parametric(substitute_line(word, c.rep, c.root)).values
        ]
        assert len(zeros) == 64 and len(set(zeros)) == 10 and set(zeros) <= set(discovered)
        assert extra_points == []

    def test_pair_limit_counts_ordered_pairs(self, monkeypatch):
        word = ov("x a x^-1 a^-1")
        discovered = brute_solutions(word, 3)
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 42)
        _candidate_components(word, discovered)
        monkeypatch.setattr(solver_module, "MAX_PAIRS", 41)
        message = r"7 ball solutions give 21 candidate pairs, and n\(n-1\) = 42 is over MAX_PAIRS = 41"
        with pytest.raises(SolverError, match=message):
            _candidate_components(word, discovered)


@pytest.fixture(scope="module")
def planted():
    return [(word, true, solve(word, FAST)) for word, true in planted_conjugacy_words(7, 300)]


class TestPlantedConjugacyWords:
    """sigma = 0 words with four occurrences of x and a known coset as their
    whole solution set (:func:`helpers.planted_conjugacy_words`)."""

    def test_radius_answers_lie_in_the_true_set(self, planted):
        # equal to it exactly when the last round discovers two members,
        # through which pairing proves the coset
        gap = FAST.verify_radius - FAST.discovery_radius
        for word, true, report in planted:
            assert subset(report.result, true), str(word)
            discovered = len(true._data_within(report.complete_on_radius - gap))
            assert (report.result == true) == (discovered >= 2), str(word)

    def test_census(self, planted):
        # closed forms, then radius answers equal to the true set and strict subsets of it
        exact = [exact_solution_set(word) for word, _, _ in planted]
        assert all(e == true for e, (_, true, _) in zip(exact, planted) if e is not None)
        radius = [report.result == true for e, (_, true, report) in zip(exact, planted) if e is None]
        assert (len(planted) - len(radius), radius.count(True), radius.count(False)) == (90, 199, 11)

    def test_answers_are_pinned(self, planted):
        # every report at 3/5, 2/4 and 0/2, one sorted JSON line each: a change of any answer changes the digest
        lines = [report for _, _, report in planted]
        lines += [solve(word, cfg) for cfg in (SolveConfig(2, 4), SolveConfig(0, 2)) for word, _, _ in planted]
        text = "".join(json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n" for r in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fed8652505e1683aada9a1f7147a9bf0c8e9c1954d8db0c69fd35488f6bee24f"
        )


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
