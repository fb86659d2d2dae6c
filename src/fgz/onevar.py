"""One-variable words over a free group and their evaluation.

A one-variable word lives in the free product of the coefficient group
with an infinite cyclic group on a reserved variable symbol; concretely
it is a reduced word over the coefficient alphabet extended by that
symbol.  Substituting a group element for the variable gives the
evaluation homomorphism; substituting a whole cyclic line ``a * r^n``
with a formal integer n gives a parametric word whose vanishing set is
computed symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .errors import AlphabetError, RootError
from .words import BALL_CACHE_SIZE, Alphabet, Word, _ball_data, _invert_data, parse_word

DEFAULT_VARIABLE = "x"


@dataclass(frozen=True)
class OneVarWord:
    """A reduced word over ``alphabet`` extended by the variable symbol."""

    alphabet: Alphabet
    variable: str
    body: Word

    def __post_init__(self):
        if self.variable in self.alphabet:
            raise AlphabetError(f"variable {self.variable!r} collides with an alphabet letter")
        if self.body.alphabet != self.alphabet.extend(self.variable):
            raise AlphabetError("body must be over the alphabet extended by the variable")

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet, variable: str = DEFAULT_VARIABLE) -> "OneVarWord":
        extended = alphabet.extend(variable)
        return cls(alphabet, variable, parse_word(text, extended))

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

    @property
    def contains_variable(self) -> bool:
        vc = self._var_code
        return any(abs(v) == vc for v in self.body.data)

    def coefficient_word(self) -> Word:
        """Reinterpret a variable-free body over the coefficient alphabet."""
        if self.contains_variable:
            raise ValueError("word still contains the variable")
        return Word(self.alphabet, self.body.data)

    def __mul__(self, other: "OneVarWord") -> "OneVarWord":
        if (self.alphabet, self.variable) != (other.alphabet, other.variable):
            raise AlphabetError("operands use different alphabets or variables")
        return OneVarWord(self.alphabet, self.variable, self.body * other.body)

    def __invert__(self) -> "OneVarWord":
        return OneVarWord(self.alphabet, self.variable, ~self.body)

    def with_inverted_variable(self) -> "OneVarWord":
        """The word with every variable occurrence replaced by its inverse."""
        vc = self._var_code
        data = tuple(-v if abs(v) == vc else v for v in self.body.data)
        return OneVarWord(self.alphabet, self.variable, Word(self.body.alphabet, data))

    def evaluate(self, g: Word) -> Word:
        """Substitute ``g`` for the variable (with sign) and reduce.

        This is the homomorphism fixing the coefficient group and sending
        the variable to ``g``.
        """
        if g.alphabet != self.alphabet:
            raise AlphabetError("evaluation point must be over the coefficient alphabet")
        vc = self._var_code
        gd = g.data
        gi = _invert_data(gd)
        stack: list[int] = []
        for v in self.body.data:
            if abs(v) == vc:
                for u in gd if v > 0 else gi:
                    if stack and stack[-1] == -u:
                        stack.pop()
                    else:
                        stack.append(u)
            elif stack and stack[-1] == -v:
                stack.pop()
            else:
                stack.append(v)
        return Word(self.alphabet, tuple(stack))

    def __str__(self) -> str:
        return str(self.body)

    def __repr__(self) -> str:
        return f"<OneVarWord {str(self)!r} var={self.variable!r}>"


def _abelianization(data: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Exponent sum of each of the first ``rank`` letters in ``data``."""
    ab = [0] * rank
    for v in data:
        if v > 0:
            ab[v - 1] += 1
        else:
            ab[-v - 1] -= 1
    return tuple(ab)


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _ball_buckets(rank: int, radius: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The radius ball split by abelianization, each bucket in shortlex order.

    Buckets hold the tuples of :func:`_ball_data` itself, not copies.
    """
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for gd in _ball_data(rank, radius):
        buckets.setdefault(_abelianization(gd, rank), []).append(gd)
    return {ab: tuple(members) for ab, members in buckets.items()}


def brute_solutions(w: OneVarWord, radius: int) -> list[Word]:
    """All g in the radius ball with ``w.evaluate(g)`` trivial, shortlex order.

    Only ball elements that pass the abelianization test are evaluated.
    Let sigma be the exponent sum of the variable in ``w`` and ab(c) the
    vector of exponent sums of its coefficient letters.  Abelianizing
    ``w(g) = 1`` gives ``sigma * ab(g) + ab(c) = 0``.  So if sigma = 0 and
    ab(c) != 0, or if sigma does not divide ab(c), there is no solution
    at all; if sigma != 0, every solution has ``ab(g) = -ab(c) / sigma``
    and lies in that one bucket of the ball.  Only sigma = 0 with
    ab(c) = 0 walks the whole ball.  A bucket lists its members in the
    order of the ball walk, which is shortlex, so the solutions come out
    in shortlex order either way.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    rank = len(w.alphabet)
    *coeff_ab, sigma = _abelianization(w.body.data, rank + 1)
    if sigma == 0:
        if any(coeff_ab):
            return []
        candidates = _ball_data(rank, radius)
    else:
        if any(a % sigma for a in coeff_ab):
            return []
        target = tuple([-a // sigma for a in coeff_ab])
        candidates = _ball_buckets(rank, radius).get(target, ())
    vc = w._var_code
    body = w.body.data
    alphabet = w.alphabet
    sols = []
    for gd in candidates:
        gi = _invert_data(gd)
        stack: list[int] = []
        for v in body:
            if abs(v) == vc:
                for u in gd if v > 0 else gi:
                    if stack and stack[-1] == -u:
                        stack.pop()
                    else:
                        stack.append(u)
            elif stack and stack[-1] == -v:
                stack.pop()
            else:
                stack.append(v)
        if not stack:
            sols.append(Word(alphabet, gd))
    return sols


@dataclass(frozen=True)
class ConcreteBlock:
    """A fixed nontrivial coefficient segment."""

    word: Word


@dataclass(frozen=True)
class PowerBlock:
    """``root ** (alpha * n + beta)`` for the formal integer n.

    Normalization keeps roots primitive, cyclically reduced and
    orientation-canonical (conjugators are folded into neighbouring
    concrete blocks), so that two power blocks generate the same cyclic
    subgroup exactly when their roots are equal.
    """

    root: Word
    alpha: int
    beta: int

    def exponent_at(self, n: int) -> int:
        return self.alpha * n + self.beta


Block = Union[ConcreteBlock, PowerBlock]


def _exact_power_exponent(word: Word, root: Word) -> int | None:
    """k with ``root ** k == word``, or None."""
    if word.is_identity:
        return 0
    dec = word.primitive_root()
    if dec.root == root:
        return dec.exponent
    if dec.root == ~root:
        return -dec.exponent
    return None


def _normalize_blocks(alphabet: Alphabet, blocks: Iterable[Block]) -> tuple[Block, ...]:
    # Pass 1: validate powers, cyclically reduce their roots and pick the
    # canonical orientation, splicing conjugators out as concrete material.
    items: list[Block] = []
    for block in blocks:
        if isinstance(block, ConcreteBlock):
            if block.word.data:
                items.append(block)
            continue
        root, alpha, beta = block.root, block.alpha, block.beta
        if root.is_identity:
            raise RootError("power block root must be nontrivial")
        dec = root.primitive_root()
        if dec.exponent != 1:
            raise RootError(f"power block root {root} is a proper power ({dec.root})^{dec.exponent}")
        cyc = root.cyclic_decomposition()
        core = cyc.core
        if ~core < core:
            core, alpha, beta = ~core, -alpha, -beta
        u = cyc.conjugator
        if u.data:
            items.append(ConcreteBlock(u))
        items.append(PowerBlock(core, alpha, beta))
        if u.data:
            items.append(ConcreteBlock(~u))

    # Pass 2: merge to a fixpoint.  Adjacent concretes multiply; adjacent
    # powers of one root add exponents; a concrete that is an exact power
    # of a neighbouring root is absorbed into that power block.
    changed = True
    while changed:
        changed = False
        out: list[Block] = []
        for item in items:
            if isinstance(item, PowerBlock) and item.alpha == 0:
                if item.beta == 0:
                    changed = True
                    continue
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
                if (
                    isinstance(last, PowerBlock)
                    and isinstance(item, PowerBlock)
                    and last.root == item.root
                ):
                    out[-1] = PowerBlock(last.root, last.alpha + item.alpha, last.beta + item.beta)
                    changed = True
                    continue
                if isinstance(last, PowerBlock) and isinstance(item, ConcreteBlock):
                    k = _exact_power_exponent(item.word, last.root)
                    if k is not None:
                        out[-1] = PowerBlock(last.root, last.alpha, last.beta + k)
                        changed = True
                        continue
                if isinstance(last, ConcreteBlock) and isinstance(item, PowerBlock):
                    k = _exact_power_exponent(last.word, item.root)
                    if k is not None:
                        out[-1] = PowerBlock(item.root, item.alpha, item.beta + k)
                        changed = True
                        continue
            out.append(item)
        items = out
    return tuple(items)


@dataclass(frozen=True)
class ParametricWord:
    """Normalized block sequence denoting a word-valued function of n."""

    alphabet: Alphabet
    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, alphabet: Alphabet, blocks: Iterable[Block]) -> "ParametricWord":
        return cls(alphabet, _normalize_blocks(alphabet, blocks))

    def at(self, n: int) -> Word:
        """Concrete value at integer n."""
        stack: list[int] = []
        for block in self.blocks:
            data = (
                block.word.data
                if isinstance(block, ConcreteBlock)
                else (block.root ** block.exponent_at(n)).data
            )
            for v in data:
                if stack and stack[-1] == -v:
                    stack.pop()
                else:
                    stack.append(v)
        return Word(self.alphabet, tuple(stack))

    def __repr__(self) -> str:
        parts = []
        for block in self.blocks:
            if isinstance(block, ConcreteBlock):
                parts.append(str(block.word))
            else:
                parts.append(f"({block.root})^({block.alpha}n{block.beta:+d})")
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

    ``root`` must be primitive and nontrivial; the result is normalized.
    Evaluating the result at any concrete n agrees with
    ``w.evaluate(base * root**n)``.
    """
    if base.alphabet != w.alphabet or root.alphabet != w.alphabet:
        raise AlphabetError("base and root must be over the coefficient alphabet")
    if root.is_identity:
        raise RootError("line direction must be nontrivial")
    if root.primitive_root().exponent != 1:
        raise RootError(f"line direction {root} is not primitive")
    vc = w._var_code
    blocks: list[Block] = []
    buf: list[int] = []

    def flush():
        if buf:
            blocks.append(ConcreteBlock(Word(w.alphabet, tuple(buf))))
            buf.clear()

    for v in w.body.data:
        if v == vc:
            flush()
            blocks.append(ConcreteBlock(base))
            blocks.append(PowerBlock(root, 1, 0))
        elif v == -vc:
            flush()
            blocks.append(PowerBlock(root, -1, 0))
            blocks.append(ConcreteBlock(~base))
        else:
            buf.append(v)
    flush()
    return ParametricWord.of(w.alphabet, blocks)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def reduce_parametric(pw: ParametricWord) -> LineSolutionSet:
    """Exactly the set of integers n at which ``pw`` reduces to the identity.

    The normalized block form is the generic shape of the word: if it is
    empty, every merge that produced it is an identity in the group for
    every n, so the word vanishes for all n.  Otherwise a power block can
    only be consumed by cancellation when its exponent is small relative
    to the surrounding material, so candidate exceptional n are collected
    per block and checked concretely.
    """
    blocks = _normalize_blocks(pw.alphabet, pw.blocks)
    if not blocks:
        return LineSolutionSet.everything()
    powers = [b for b in blocks if isinstance(b, PowerBlock)]
    if not powers:
        return LineSolutionSet.finite(())
    concrete_total = sum(
        len(b.word) for b in blocks if isinstance(b, ConcreteBlock)
    )
    candidates: set[int] = set()
    for p in powers:
        other = max((len(q.root) for q in powers if q is not p), default=0)
        # a block whose expansion exceeds all concrete material plus two
        # periods plus the largest foreign period on each side survives
        bound = 2 + _ceil_div(concrete_total + 2 * other, len(p.root))
        lo, hi = -bound - p.beta, bound - p.beta
        if p.alpha > 0:
            n0, n1 = _ceil_div(lo, p.alpha), hi // p.alpha
        else:
            n0, n1 = _ceil_div(hi, p.alpha), lo // p.alpha
        candidates.update(range(n0, n1 + 1))
    return LineSolutionSet.finite(n for n in candidates if pw.at(n).is_identity)
