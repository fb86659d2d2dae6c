"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every suite is seeded and deterministic.
"""

import random
import time

import pytest

from fgz.algset import AlgebraicSet, CyclicCoset, chain_check, intersect, intersect_cosets, subset, union
from fgz.embed import build_phi_g, check_mono_on_ball
from fgz.onevar import OneVarWord, reduce_parametric, substitute_line
from fgz.residual import apply_perm_rep, separate
from fgz.solver import SolveConfig, solve, verify_against_oracle
from fgz.words import Alphabet, Word, enumerate_ball, parse_word

from helpers import AB, ABC, random_reduced_data, random_word

X = AB.extend("x")
CHECK_RADIUS = 5
SOLVE_CFG = SolveConfig(discovery_radius=3, verify_radius=CHECK_RADIUS)


def report_line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def exhaustive_bodies():
    """All one-variable words with <= 2 variable occurrences and coefficient
    segments of length <= 2, deduplicated by reduced body."""
    coeffs = [g.data for g in enumerate_ball(AB, 2)]
    signs = (3, -3)
    seen = set()
    bodies = []

    def add(parts):
        data = []
        for part in parts:
            for v in part:
                if data and data[-1] == -v:
                    data.pop()
                else:
                    data.append(v)
        key = tuple(data)
        if key not in seen:
            seen.add(key)
            bodies.append(Word(X, key))

    for c0 in coeffs:
        add([c0])
        for e1 in signs:
            for c1 in coeffs:
                add([c0, (e1,), c1])
                for e2 in signs:
                    for c2 in coeffs:
                        add([c0, (e1,), c1, (e2,), c2])
    return bodies


def random_bodies(count, seed, max_len=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(Word(X, random_reduced_data(rng, 3, rng.randint(0, max_len))))
    return out


@pytest.fixture(scope="module")
def solved_suite():
    words = [OneVarWord.from_body(b) for b in exhaustive_bodies() + random_bodies(200, seed=1)]
    return [(w, solve(w, SOLVE_CFG)) for w in words]


def test_criterion_1_solver_matches_oracle(solved_suite):
    ball = enumerate_ball(AB, CHECK_RADIUS)
    discrepancies = 0
    checked = 0
    for word, report in solved_suite:
        result = report.result
        for g in ball:
            expected = word.evaluate(g).is_identity
            got = True if report.whole_group else result.member(g)
            checked += 1
            if got != expected:
                discrepancies += 1
    report_line(
        "criterion 1 (solver oracle equivalence)",
        discrepancies == 0,
        f"{len(solved_suite)} words x {len(ball)} ball elements = {checked} checks, "
        f"{discrepancies} discrepancies",
    )


def assert_coset_canonical(c):
    dec = c.root.primitive_root()
    assert dec.exponent == 1, f"root {c.root} is not primitive"
    assert c.root <= ~c.root, f"root {c.root} is not orientation-canonical"
    remade = CyclicCoset.make(c.rep, c.root)
    assert remade == c, f"coset {c} is not canonical"


def test_criterion_2_output_shape(solved_suite):
    violations = 0
    outputs = 0
    for _, report in solved_suite:
        if report.whole_group:
            continue
        outputs += 1
        result = report.result
        try:
            for c in result.cosets:
                assert_coset_canonical(c)
            for p in result.points:
                assert not any(c.member(p) for c in result.cosets)
            assert result == AlgebraicSet(AB, result.points, result.cosets)
        except AssertionError:
            violations += 1
    report_line(
        "criterion 2 (coset normal form shape)",
        violations == 0,
        f"{outputs} solver outputs, {violations} shape violations",
    )


def test_criterion_3_worked_instances():
    cases = [
        ("x a x^-1 a^-1", AlgebraicSet.of(AB, cosets=[(parse_word("1", AB), parse_word("a", AB))])),
        (
            "x b a b^-1 x^-1 a^-1",
            AlgebraicSet.of(AB, cosets=[(parse_word("b^-1", AB), parse_word("b a b^-1", AB))]),
        ),
        ("x^2 a", AlgebraicSet.empty(AB)),
        ("x a^-1", AlgebraicSet.of(AB, points=[parse_word("a", AB)])),
    ]
    failures = []
    for text, expected in cases:
        word = OneVarWord.parse(text, AB)
        report = solve(word)
        if report.result != expected:
            failures.append(f"{text}: got {report.result}")
        elif not verify_against_oracle(word, report.result, 6).match:
            failures.append(f"{text}: radius-6 oracle mismatch")
    report_line(
        "criterion 3 (worked instances)",
        not failures,
        f"{len(cases)} instances reproduced and oracle-confirmed at radius 6"
        + (f"; failures: {failures}" if failures else ""),
    )


def _random_algset(rng):
    points = [random_word(rng, AB, 3) for _ in range(rng.randint(0, 2))]
    cosets = []
    for _ in range(rng.randint(0, 2)):
        rep = random_word(rng, AB, 3)
        root = random_word(rng, AB, 3, min_len=1).primitive_root().root
        cosets.append(CyclicCoset.make(rep, root))
    return AlgebraicSet(AB, points, cosets)


def test_criterion_4_noetherian_chains():
    rng = random.Random(4)
    failures = 0
    for _ in range(1000):
        current = _random_algset(rng)
        chain = [current]
        while True:
            current = intersect(current, _random_algset(rng))
            chain.append(current)
            if current.is_empty or len(chain) > 12:
                break
        report = chain_check(chain)
        if not (report.descending and report.measure_ok):
            failures += 1
    report_line(
        "criterion 4 (descending chains stabilize)",
        failures == 0,
        f"1000 intersection chains, {failures} failures of descent or measure decrease",
    )


def test_criterion_5_product_embedding():
    target = Alphabet(("b", "c", "d", "f"))
    rng = random.Random(5)
    failures = 0
    common = [x for x in ABC.names if x in set(target.names)]
    for _ in range(100):
        g = random_word(rng, ABC, 8, min_len=1)
        hom = build_phi_g(g, target)
        if hom.apply(g).is_identity:
            failures += 1
        if any(hom.letter_images[x] != target.letter(x) for x in common):
            failures += 1
    ball_report = check_mono_on_ball(ABC, target, 3)
    report_line(
        "criterion 5 (embedding into a product)",
        failures == 0 and ball_report.passed and ball_report.injective,
        f"100 coordinate maps checked ({failures} failures); radius-3 ball: "
        f"{ball_report.checked} checks, {len(ball_report.failures)} failures, "
        f"injective={ball_report.injective}",
    )


def test_criterion_6_separation_witnesses():
    rng = random.Random(6)
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        g = random_word(rng, AB, 12, min_len=1)
        rep = separate(g)
        image = apply_perm_rep(rep, g)
        if rep.degree != len(g) + 1 or image.is_identity:
            failures += 1
    elapsed = time.perf_counter() - start
    report_line(
        "criterion 6 (finite separation witnesses)",
        failures == 0 and elapsed < 10.0,
        f"100 words separated, {failures} failures, {elapsed:.2f}s",
    )


def _ball_restriction(s, ball):
    return frozenset(g.data for g in ball if s.member(g))


def test_criterion_7_set_algebra_extensionality():
    rng = random.Random(7)
    ball = enumerate_ball(AB, CHECK_RADIUS)
    discrepancies = 0
    for _ in range(500):
        s1, s2 = _random_algset(rng), _random_algset(rng)
        r1, r2 = _ball_restriction(s1, ball), _ball_restriction(s2, ball)
        if _ball_restriction(union(s1, s2), ball) != r1 | r2:
            discrepancies += 1
        if _ball_restriction(intersect(s1, s2), ball) != r1 & r2:
            discrepancies += 1
        if s1.cosets and s2.cosets:
            c1, c2 = s1.cosets[0], s2.cosets[0]
            meet = intersect_cosets(c1, c2)
            expected = frozenset(g.data for g in ball if c1.member(g) and c2.member(g))
            if _ball_restriction(meet, ball) != expected:
                discrepancies += 1
        # subset and ==: claims verified on the restriction, refutations by
        # a concrete witness element of the left operand
        if subset(s1, s2):
            if not r1 <= r2:
                discrepancies += 1
        elif not s1.is_empty:
            span = len(s2.points) + len(s2.cosets) + 1
            witnesses = list(s1.points)
            for c in s1.cosets:
                witnesses.extend(c.element(m) for m in range(-span, span + 1))
            if all(s2.member(g) for g in witnesses):
                discrepancies += 1
        if (s1 == s2) != (subset(s1, s2) and subset(s2, s1)):
            discrepancies += 1
    report_line(
        "criterion 7 (set algebra extensionality)",
        discrepancies == 0,
        f"500 operand pairs against the radius-{CHECK_RADIUS} ball, "
        f"{discrepancies} discrepancies",
    )


def test_criterion_8_parametric_reduction():
    rng = random.Random(8)
    discrepancies = 0
    checked = 0
    for _ in range(300):
        word = OneVarWord.from_body(Word(X, random_reduced_data(rng, 3, rng.randint(0, 8))))
        base = random_word(rng, AB, 3)
        root = random_word(rng, AB, 3, min_len=1).primitive_root().root
        solutions = reduce_parametric(substitute_line(word, base, root))
        for n in range(-6, 7):
            expected = word.evaluate(base * root ** n).is_identity
            checked += 1
            if (n in solutions) != expected:
                discrepancies += 1
    report_line(
        "criterion 8 (parametric line reduction)",
        discrepancies == 0,
        f"300 lines x 13 integers = {checked} checks, {discrepancies} discrepancies",
    )
