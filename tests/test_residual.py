import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgz import residual
from fgz.embed import check_mono_on_ball
from fgz.errors import AlphabetError, IdentityWordError, SeparationLimitError
from fgz.residual import MAX_SEPARATE_LETTERS, Permutation, PermRep, apply_perm_rep, separate
from fgz.words import Alphabet, Word, parse_word

from helpers import AB, ABC, compose, random_reduced_data, random_word, reduced_data
from test_reference_outputs import _load_workloads


def w(text):
    return parse_word(text, AB)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_compose_left_to_right(self):
        p = Permutation((1, 0, 2))
        q = Permutation((0, 2, 1))
        image = apply_perm_rep(PermRep(AB, 3, (p, q)), w("a b"))
        assert image.images == (2, 0, 1)
        assert image(0) == q(p(0))

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert p.inverse().images == (1, 2, 0)
        assert all(p.inverse()(p(i)) == i == p(p.inverse()(i)) for i in range(3))

    def test_cycle_notation(self):
        assert Permutation((1, 0)).cycle_notation() == "(0 1)"
        assert Permutation((0, 1, 2)).cycle_notation() == "()"
        assert Permutation((1, 2, 0, 3)).cycle_notation() == "(0 1 2)"

    def test_repr_of_a_failed_permutation_ends(self):
        # the object exists while __post_init__ raises, and a traceback may
        # print it; a subprocess turns a hang into a timeout
        code = (
            "from fgz.residual import Permutation\n"
            "p = object.__new__(Permutation)\n"
            "object.__setattr__(p, 'images', (1, 0, 3, 1))\n"
            "print(repr(p))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
        assert out.returncode == 0 and out.stdout.startswith("<Permutation (0 1)")


class TestSeparate:
    def test_single_letter(self):
        rep = separate(w("a"))
        assert rep.degree == 2
        assert rep.image_of_letter("a").images == (1, 0)
        assert rep.image_of_letter("b").is_identity
        assert not apply_perm_rep(rep, w("a")).is_identity

    def test_three_letter_word_path(self):
        g = w("a b^-1 a")
        rep = separate(g)
        assert rep.degree == 4
        # multiply the letter images directly, in reading order
        pa = rep.image_of_letter("a")
        pb = rep.image_of_letter("b")
        product = compose(4, (pa, pb.inverse(), pa))
        assert product(0) == 3
        assert apply_perm_rep(rep, g) == product

    def test_commutator(self):
        g = w("a b a^-1 b^-1")
        rep = separate(g)
        assert rep.degree == 5
        assert not apply_perm_rep(rep, g).is_identity

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            separate(w("1"))

    def test_random_words_are_separated(self):
        rng = random.Random(61)
        for _ in range(50):
            g = random_word(rng, AB, 12, min_len=1)
            rep = separate(g)
            assert rep.degree == len(g) + 1
            image = apply_perm_rep(rep, g)
            assert image(0) == len(g)
            assert not image.is_identity


def reference_letter_perms(g: Word) -> list[tuple[int, ...]]:
    """The letter permutations of ``separate(g)``, from per-letter dicts of
    the partial maps and sets of their targets."""
    degree = len(g) + 1
    partial: list[dict[int, int]] = [{} for _ in g.alphabet.names]
    used: list[set[int]] = [set() for _ in g.alphabet.names]
    for pos, v in enumerate(g.data):
        src, dst = (pos, pos + 1) if v > 0 else (pos + 1, pos)
        partial[abs(v) - 1][src] = dst
        used[abs(v) - 1].add(dst)
    perms = []
    for m, targets in zip(partial, used):
        free_sources = [i for i in range(degree) if i not in m]
        free_targets = [i for i in range(degree) if i not in targets]
        m.update(zip(free_sources, free_targets))
        perms.append(tuple([m[i] for i in range(degree)]))
    return perms


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.integers(1, 3).flatmap(lambda rank: st.tuples(st.just(rank), reduced_data(rank, 24, min_len=1))))
def test_separate_matches_the_dict_reference(case):
    rank, data = case
    g = Word(Alphabet(("a", "b", "c")[:rank]), data)
    assert [p.images for p in separate(g).letter_images] == reference_letter_perms(g)


class TestSeparationLimit:
    def test_limit_is_accepted(self):
        g = Word(AB, (1, 2) * (MAX_SEPARATE_LETTERS // 2) + (1,) * (MAX_SEPARATE_LETTERS % 2))
        assert len(g) == MAX_SEPARATE_LETTERS
        assert separate(g).degree == MAX_SEPARATE_LETTERS + 1

    def test_over_the_limit_is_refused_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a representation")

        monkeypatch.setattr(residual, "Permutation", refuse)
        monkeypatch.setattr(residual, "PermRep", refuse)
        g = Word(AB, (1,) * (MAX_SEPARATE_LETTERS + 1))
        with pytest.raises(SeparationLimitError) as excinfo:
            separate(g)
        assert str(excinfo.value) == (
            f"word has {MAX_SEPARATE_LETTERS + 1:,} letters, over the separation limit of {MAX_SEPARATE_LETTERS:,}"
        )


def reference_apply_perm_rep(rep: PermRep, w: Word) -> Permutation:
    """Reference: follow each point through the letter images, left to right."""
    perms = [rep.letter_images[abs(v) - 1] if v > 0 else rep.letter_images[-v - 1].inverse() for v in w.data]
    return compose(rep.degree, perms)


class TestApplyPermRep:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_left_to_right_reference(self, rank):
        # g over a sub-alphabet leaves some letters out of g; the words
        # applied use all of them, with inverses, and include the identity
        alphabet = Alphabet(ABC.names[:rank])
        rng = random.Random(f"apply-perm-rep:{rank}")
        absent = inverse = 0
        for _ in range(150):
            g = Word(alphabet, random_reduced_data(rng, rng.randint(1, rank), rng.randint(1, 10)))
            rep = separate(g)
            for h in (alphabet.identity(), g, ~g, random_word(rng, alphabet, 12)):
                assert apply_perm_rep(rep, h) == reference_apply_perm_rep(rep, h)
                absent += not {abs(v) for v in h.data} <= {abs(v) for v in g.data}
                inverse += any(v < 0 for v in h.data)
        assert inverse > 200
        assert rank == 1 or absent > 50


    def test_identity_word(self):
        rep = separate(w("a b"))
        assert apply_perm_rep(rep, w("1")).is_identity

    def test_transposition_squares_away(self):
        rep = separate(w("a"))
        assert apply_perm_rep(rep, w("a^2")).is_identity

    def test_alphabet_mismatch(self):
        rep = separate(w("a"))
        with pytest.raises(AlphabetError):
            apply_perm_rep(rep, Alphabet(("c",)).letter("c"))

    def test_homomorphism_law(self):
        rng = random.Random(62)
        rep = separate(w("a b a^-1 b^-1 a^2"))
        for _ in range(100):
            u, v = random_word(rng, AB, 8), random_word(rng, AB, 8)
            assert apply_perm_rep(rep, u * v) == compose(rep.degree, (apply_perm_rep(rep, u), apply_perm_rep(rep, v)))

    def test_inverse_letters(self):
        rep = separate(w("a b"))
        assert apply_perm_rep(rep, w("a^-1")) == rep.image_of_letter("a").inverse()


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's allocator blocks")
def test_witness_kernels_leave_free_lists_alone():
    """Tuples built from generators resize from ten slots, which moves
    blocks from the size-10 tuple free list into larger ones, and those
    stay held until a full collection.  With GC off, these 1,500
    separations held 24,140 blocks when each letter's composition built a
    new ``Permutation``, and 780 now; one generator-built tuple in ``separate`` or
    ``apply_perm_rep`` gives 3,165 or 1,796."""
    rng = random.Random(91)
    words = [random_word(rng, AB if i % 3 else ABC, 24, min_len=1) for i in range(1500)]
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for g in words:
            apply_perm_rep(separate(g), g)
        held = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert held < 1500


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's allocator blocks")
def test_embed_check_leaves_free_lists_alone():
    """The sibling of the test above for the embed check, over the
    witnesses workload's 1,000 (source, target) draws at radius 3.  With
    GC off they held 734 blocks; a generator-built tuple for each
    support's letter images gives 4,179, and one for each walk product
    6,163."""
    workloads = _load_workloads()
    cases = [workloads.witness_input(i)[:2] for i in range(workloads.WITNESS_UNIVERSE)]
    for source, target in cases[:3]:  # fills both balls' caches
        check_mono_on_ball(source, target, 3)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for source, target in cases:
            check_mono_on_ball(source, target, 3)
        held = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert held < 1500
