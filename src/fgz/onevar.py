"""One-variable words over a free group and their evaluation.

A one-variable word lives in the free product of the coefficient group
with an infinite cyclic group on a reserved variable symbol; concretely
it is a reduced word over the coefficient alphabet extended by that
symbol.  Substituting a group element for the variable gives the
evaluation homomorphism; substituting a whole cyclic line ``a * r^n``
with a formal integer n gives a parametric word whose vanishing set is
computed symbolically.

The brute-force oracle evaluates only ball elements that pass a cheap
necessary condition: the abelianization of the equation, or, when that
says nothing (exponent sum of the variable and of every letter zero),
the image of the equation in the finite quotient PSL(2, 7).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Union

from .errors import AlphabetError, EvaluationLimitError
from .residual import _compose, _fold, _inverse, _perm_table
from .words import (
    BALL_CACHE_SIZE, MAX_PARSE_LETTERS, Alphabet, Word, _ball_data, _ball_images, _invert_data, _reduce_data,
    _primitive_split, _RootSplit, parse_word,
)

DEFAULT_VARIABLE = "x"


@dataclass(frozen=True)
class OneVarWord:
    """A reduced word over ``alphabet`` extended by the variable symbol."""

    alphabet: Alphabet
    variable: str
    body: Word
    #: whether the body holds the variable, found once on construction
    contains_variable: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.body.alphabet.names != self.alphabet.names + (self.variable,):
            raise AlphabetError("body must be over the alphabet extended by the variable")
        vc, data = self._var_code, self.body.data
        object.__setattr__(self, "contains_variable", vc in data or -vc in data)

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet, variable: str = DEFAULT_VARIABLE) -> "OneVarWord":
        if variable in alphabet:
            raise AlphabetError(f"variable {variable!r} collides with an alphabet letter")
        return cls(alphabet, variable, parse_word(text, alphabet.extend(variable)))

    @classmethod
    def from_body(cls, body: Word, variable: str = DEFAULT_VARIABLE) -> "OneVarWord":
        """Wrap a word already over an extended alphabet (variable last)."""
        names = body.alphabet.names
        if names[-1] != variable:
            raise AlphabetError(f"expected {variable!r} as the last letter of the extended alphabet")
        return cls(Alphabet(names[:-1]), variable, body)

    @property
    def _var_code(self) -> int:
        return len(self.alphabet) + 1

    @cached_property
    def _segments(self) -> tuple[tuple[int, ...], tuple[tuple[bool, tuple[int, ...]], ...]]:
        """``c_0`` and the steps ``(e_i > 0, c_i)`` of ``body = c_0 x^(e_1) c_1 ... x^(e_k) c_k``.

        Split on first use and kept; not a dataclass field, so equality,
        hashing and repr ignore it.
        """
        vc = self._var_code
        runs: list[list[int]] = [[]]
        signs: list[bool] = []
        for v in self.body.data:
            if abs(v) == vc:
                signs.append(v > 0)
                runs.append([])
            else:
                runs[-1].append(v)
        return tuple(runs[0]), tuple(zip(signs, map(tuple, runs[1:])))

    def evaluate(self, g: Word) -> Word:
        """Substitute ``g`` for the variable (with sign) and reduce.

        This is the homomorphism fixing the coefficient group and sending
        the variable to ``g``.  With k occurrences of the variable, ``w(g)``
        has ``|w| - k + k |g|`` letters before reduction; over
        :data:`~fgz.words.MAX_PARSE_LETTERS` it is refused before it is built.
        """
        if g.alphabet != self.alphabet:
            raise AlphabetError("evaluation point must be over the coefficient alphabet")
        self._check_evaluation_size(len(g))
        return Word(self.alphabet, _substitute(self._segments, g.data))

    def _check_evaluation_size(self, length: int) -> None:
        """Refuse ``w(g)`` with ``|g| = length`` if it is over the evaluation limit before reduction."""
        k = len(self._segments[1])
        if (size := len(self.body) - k + k * length) > MAX_PARSE_LETTERS:
            raise EvaluationLimitError(
                f"w(g) has {size:,} letters before reduction, over the evaluation limit of {MAX_PARSE_LETTERS:,}"
            )

    def __str__(self) -> str:
        return str(self.body)

    def __repr__(self) -> str:
        return f"<OneVarWord {str(self)!r} var={self.variable!r}>"


def _substitute(segments: tuple, gd: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced data of ``w(g)``, from ``w._segments`` and the data of g."""
    head, steps = segments
    gi = _invert_data(gd)
    pieces = [head]
    for positive, run in steps:
        pieces.append(gd if positive else gi)
        pieces.append(run)
    return _reduce_data(pieces)


def _abelianization(data: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Exponent sum of each of the first ``rank`` letters in ``data``."""
    ab = [0] * rank
    for v in data:
        if v > 0:
            ab[v - 1] += 1
        else:
            ab[-v - 1] -= 1
    return tuple(ab)


def abelian_constraint(w: OneVarWord) -> tuple[int, tuple[int, ...]] | None:
    """``(sigma, ab(c))`` of ``w``, or None if the abelianization rules out every solution.

    sigma is the exponent sum of the variable in ``w`` and ab(c) the
    vector of exponent sums of its coefficient letters.  Abelianizing
    ``w(g) = 1`` gives ``sigma * ab(g) + ab(c) = 0``, which has no solution
    if sigma = 0 and ab(c) != 0, or if sigma does not divide ab(c).
    """
    *coeff_ab, sigma = _abelianization(w.body.data, len(w.alphabet) + 1)
    if any(a % sigma for a in coeff_ab) if sigma else any(coeff_ab):
        return None
    return sigma, tuple(coeff_ab)


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _ball_buckets(rank: int, radius: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The radius ball split by abelianization, each bucket in shortlex order.

    Buckets hold the tuples of :func:`_ball_data` itself, not copies.
    """
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for gd in _ball_data(rank, radius):
        buckets.setdefault(_abelianization(gd, rank), []).append(gd)
    return {ab: tuple(members) for ab, members in buckets.items()}


#: Order of the finite quotient G = PSL(2, 7) used to filter sigma = 0 words.
QUOTIENT_ORDER = 168

#: Matrices in SL(2, 7) of the first letters.  The first two generate
#: Sanov's free subgroup of SL(2, Z) (reduced mod 7 they generate all of
#: G); the other two are elements of order 7 chosen so that ranks 3 and 4
#: have no kernel word shorter than 5 letters.  Letter k > 4 reuses the
#: matrix of letter k - 4.  Any images are sound; none is the identity.
_QUOTIENT_MATRICES = (((1, 2), (0, 1)), ((1, 0), (2, 1)), ((2, 3), (4, 3)), ((0, 2), (3, 2)))


def _mobius(m: tuple[tuple[int, int], tuple[int, int]]) -> tuple[int, ...]:
    """Action of ``m`` on the projective line over F_7 (point 7 is infinity)."""
    (p, q), (r, s) = m
    out = []
    for z in range(8):
        num, den = (p, r) if z == 7 else ((p * z + q) % 7, (r * z + s) % 7)
        out.append(7 if den == 0 else num * pow(den, -1, 7) % 7)
    return tuple(out)


#: G as the permutations of the projective line that these generate.  Words
#: fold in reading order (:func:`~fgz.residual._fold`), first letter first,
#: while in a matrix product the last factor acts first; so each letter takes
#: the inverse of its matrix's permutation, and a word's image is the inverse
#: of its matrix product's, with the same kernel and the same buckets.
_QUOTIENT_LETTERS = tuple([_inverse(_mobius(m)) for m in _QUOTIENT_MATRICES])


def _quotient_table(rank: int) -> list[tuple[int, ...]]:
    """Images in G of the signed letter codes, a :func:`~fgz.residual._perm_table`; entry 0 is the identity."""
    return _perm_table(8, [_QUOTIENT_LETTERS[i % len(_QUOTIENT_LETTERS)] for i in range(rank)])


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _quotient_buckets(rank: int, radius: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple], ...]:
    """The radius ball split by image h in G: ``(h, h^-1, bucket)``, each bucket in shortlex order.

    One walk, :func:`~fgz.words._ball_images`, composes each word's image
    from its prefix's and its last letter's; G has 168 elements, so the
    walk memoizes the compositions.  Buckets hold the tuples of
    :func:`_ball_data` itself, not copies.
    """
    table = _quotient_table(rank)
    walk = _ball_images(rank, radius, table, lru_cache(maxsize=None)(_compose), table[0])
    members: defaultdict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for gd, h in zip(_ball_data(rank, radius), chain.from_iterable(walk)):
        members[h].append(gd)
    return tuple([(h, _inverse(h), tuple(bucket)) for h, bucket in members.items()])


def _quotient_survivors(segments: tuple, rank: int, radius: int) -> list[tuple[tuple[int, ...], ...]]:
    """The buckets of :func:`_quotient_buckets` whose image h has w(h) = 1 in G.

    ``segments`` is ``w._segments`` for a word w over ``rank`` letters.
    Each point is traced through the segments' images and h or h^-1 in
    turn, and a bucket is dropped at the first point that w(h) moves.
    """
    table = _quotient_table(rank)
    head, steps = segments
    start = _fold(table, head, list(table[0]))
    folded = [(positive, _fold(table, run, list(table[0]))) for positive, run in steps]
    survivors = []
    for h, hi, bucket in _quotient_buckets(rank, radius):
        for point, i in enumerate(start):
            for positive, segment in folded:
                i = segment[(h if positive else hi)[i]]
            if i != point:
                break
        else:
            survivors.append(bucket)
    return survivors


def brute_solutions(w: OneVarWord, radius: int) -> list[Word]:
    """All g in the radius ball with ``w.evaluate(g)`` trivial, shortlex order.

    Only ball elements that pass a necessary condition are evaluated.
    Words that :func:`abelian_constraint` rules out have no solution at
    all, and no ball is built for them.  If sigma != 0, every solution
    has ``ab(g) = -ab(c) / sigma`` and lies in that one bucket of the ball,
    and there is at most one (:mod:`fgz.solver`), so the walk of the
    bucket stops at the first.

    If sigma = 0 and ab(c) = 0 the abelianization says nothing, and the
    finite quotient G = PSL(2, 7) filters instead.  The homomorphism phi
    from the free group onto G extends to the free group on the letters
    and the variable by sending the variable to phi(g), so ``w(g) = 1``
    implies ``w(phi(g)) = 1`` in G.  Only the buckets of ball elements
    with an image h satisfying ``w(h) = 1`` are evaluated, which drops
    non-solutions only.

    A bucket lists its members in the order of the ball walk, which is
    shortlex.  The quotient filter draws solutions from many buckets, so
    they are sorted.

    A word the abelianization admits is refused with
    :class:`~fgz.errors.EvaluationLimitError` before any ball is built if
    :meth:`OneVarWord.evaluate` would refuse a point of length ``radius``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    constraint = abelian_constraint(w)
    if constraint is None:
        return []
    w._check_evaluation_size(radius)
    rank = len(w.alphabet)
    sigma, coeff_ab = constraint
    segments = w._segments
    if sigma:
        target = tuple([-a // sigma for a in coeff_ab])
        bucket = _ball_buckets(rank, radius).get(target, ())
        found = next((gd for gd in bucket if not _substitute(segments, gd)), None)
        return [] if found is None else [Word(w.alphabet, found)]
    buckets = _quotient_survivors(segments, rank, radius)
    sols = [
        Word(w.alphabet, gd) for gd in chain.from_iterable(buckets) if not _substitute(segments, gd)
    ]
    if len(buckets) > 1:
        sols.sort(key=Word.sort_key)
    return sols


@dataclass(frozen=True)
class PowerBlock:
    """``root ** (alpha * n + beta)`` for the formal integer n and the root of its :class:`ParametricWord`."""

    alpha: int
    beta: int

    def exponent_at(self, n: int) -> int:
        return self.alpha * n + self.beta


#: A block is a concrete coefficient word or a power of the root.
Block = Union[Word, PowerBlock]


def _normalize_blocks(alphabet: Alphabet, split: _RootSplit, blocks: Iterable[Block]) -> tuple[_RootSplit, tuple]:
    """For the ``split`` of ``root = u c u^-1``: the split of c and the blocks as powers of c.

    Each power is spliced into ``u . power . u^-1``.  Then one left-to-right
    stack pass merges only at the seam with the top of the output, as
    ``_reduce_data`` cancels letters.  An alpha = 0 power becomes concrete
    and an empty concrete is dropped; a merged block is merged again with
    the new top.  Each merge removes a block, and no two adjacent output
    blocks merge, so the output alternates concrete and power blocks.  The
    split of concrete material is one normal form of the merge rules, not
    the only one; neither ``at`` nor ``reduce_parametric`` depends on it.
    """
    core = _RootSplit((), (), split.k, split.ki)
    u, ui = Word(alphabet, split.u), Word(alphabet, split.ui)
    spliced = chain.from_iterable((u, b, ui) if isinstance(b, PowerBlock) else (b,) for b in blocks)
    out: list[Block] = []
    for item in spliced:
        while True:
            if isinstance(item, PowerBlock) and item.alpha == 0:
                item = Word(alphabet, core.power(item.beta))
            if isinstance(item, Word) and not item.data:
                break
            merged = _merge(out[-1], item, core) if out else None
            if merged is None:
                out.append(item)
                break
            out.pop()
            item = merged
    return core, tuple(out)


def _merge(left: Block, right: Block, core: _RootSplit) -> Block | None:
    """One block equal to ``left`` times ``right`` for every n, or None.

    Words multiply, powers add exponents, and a word that is an exact
    power of the root, split as ``core``, joins the power next to it (on
    either side, as powers of one root commute).
    """
    if isinstance(left, Word) and isinstance(right, Word):
        return left * right
    if isinstance(left, PowerBlock) and isinstance(right, PowerBlock):
        return PowerBlock(left.alpha + right.alpha, left.beta + right.beta)
    power, concrete = (left, right) if isinstance(left, PowerBlock) else (right, left)
    k = core.exponent(concrete.data)
    return None if k is None else PowerBlock(power.alpha, power.beta + k)


@dataclass(frozen=True)
class ParametricWord:
    """Block sequence denoting a word-valued function of n, normalized on construction.

    Every power block is a power of the one ``root``, which must be
    nontrivial and primitive.  Construction splits ``root = u c u^-1``
    once, replaces it by its cyclic core c, splices ``u . power . u^-1``
    for each power and merges the blocks (:func:`_normalize_blocks`).  The
    normalized blocks are one normal form of the merge rules: two block
    sequences for the same function may split their concrete material
    differently.  ``at`` and ``reduce_parametric`` depend only on the
    function, not on the split.
    """

    alphabet: Alphabet
    root: Word
    blocks: tuple[Block, ...]
    #: the split of the normalized root, the cyclic core, found once on construction
    _split: _RootSplit = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        split = _primitive_split(self.root, "root of a parametric word must be nontrivial")
        core, blocks = _normalize_blocks(self.alphabet, split, self.blocks)
        object.__setattr__(self, "root", Word(self.root.alphabet, core.k))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_split", core)

    def at(self, n: int) -> Word:
        """Concrete value at integer n."""
        return Word(self.alphabet, self._data_at(n))

    def _data_at(self, n: int) -> tuple[int, ...]:
        """Reduced data of the value at n."""
        power = self._split.power
        return _reduce_data([b.data if isinstance(b, Word) else power(b.exponent_at(n)) for b in self.blocks])

    def __repr__(self) -> str:
        parts = []
        for block in self.blocks:
            if isinstance(block, Word):
                parts.append(str(block))
            else:
                parts.append(f"({self.root})^({block.alpha}n{block.beta:+d})")
        return "<ParametricWord " + (" . ".join(parts) or "1") + ">"


@dataclass(frozen=True)
class LineSolutionSet:
    """Integers n where a parametric word vanishes: all of Z or a finite set."""

    all_integers: bool
    values: tuple[int, ...] = ()

    @classmethod
    def everything(cls) -> "LineSolutionSet":
        return cls(True, ())

    @classmethod
    def finite(cls, values: Iterable[int]) -> "LineSolutionSet":
        return cls(False, tuple(sorted(set(values))))

    def __contains__(self, n: int) -> bool:
        return self.all_integers or n in self.values


def substitute_line(w: OneVarWord, base: Word, root: Word) -> ParametricWord:
    """Replace the variable by ``base * root^n`` with a formal integer n.

    ``root`` must be primitive and nontrivial (:class:`ParametricWord`
    checks it); the result is normalized.  Evaluating the result at any
    concrete n agrees with ``w.evaluate(base * root**n)``.
    """
    if base.alphabet != w.alphabet or root.alphabet != w.alphabet:
        raise AlphabetError("base and root must be over the coefficient alphabet")
    head, steps = w._segments
    blocks: list[Block] = [Word(w.alphabet, head)]
    for positive, run in steps:
        if positive:
            blocks += (base, PowerBlock(1, 0))
        else:
            blocks += (PowerBlock(-1, 0), ~base)
        blocks.append(Word(w.alphabet, run))
    return ParametricWord(w.alphabet, root, blocks)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _line_candidates(pw: ParametricWord) -> set[int]:
    """The integers n that may be zeros of ``pw``, whose block form is not empty.

    They are the n where some power block ``r^e`` has ``|e| |r| <= room``:
    on each side, the concrete next to it, plus ``|r| - 1`` if a power lies
    beyond that concrete (normalized blocks alternate concrete and power).
    Every zero is among them.  Reduced on its own, a junction ``r^e c r^f``
    eats from each power at most ``|c|`` letters through c and, once c is
    gone, the factor t where the two r-periodic ends cancel.  If
    ``|t| >= |r|``, a rotation of ``r^(sign e)`` is the inverse of a
    rotation of ``r^(sign f)``: with equal signs r is conjugate to
    ``r^-1``, which no nontrivial element of a free group is; with
    opposite signs the rotations agree, at one phase as r is primitive, so
    c is a power of r and normalization merged it.  So if every power
    exceeds its room, a nonempty middle of every power survives the
    reduction of its junctions.
    """
    r = len(pw.root)
    candidates: set[int] = set()
    for i, p in enumerate(pw.blocks):
        if isinstance(p, Word):
            continue
        room = 0
        for side in (pw.blocks[max(i - 2, 0) : i][::-1], pw.blocks[i + 1 : i + 3]):
            if side:
                room += len(side[0]) + (r - 1) * (len(side) - 1)
        bound = room // r
        lo, hi = -bound - p.beta, bound - p.beta
        if p.alpha > 0:
            n0, n1 = _ceil_div(lo, p.alpha), hi // p.alpha
        else:
            n0, n1 = _ceil_div(hi, p.alpha), lo // p.alpha
        candidates.update(range(n0, n1 + 1))
    return candidates


def reduce_parametric(pw: ParametricWord) -> LineSolutionSet:
    """Exactly the set of integers n at which ``pw`` reduces to the identity.

    An empty block form vanishes for every n.  Otherwise every zero is one
    of :func:`_line_candidates`, and those where the value is empty are kept.
    """
    if not pw.blocks:
        return LineSolutionSet.everything()
    return LineSolutionSet.finite(n for n in _line_candidates(pw) if not pw._data_at(n))
