"""Command-line front end.

Global flags come before the subcommand; words are quoted arguments in
the word grammar (whitespace-separated IDENT or IDENT^INT terms, ``1`` or
``e`` for the identity).  Set-valued arguments use the JSON schema
{"points": [...], "cosets": [{"rep":..,"root":..}], "whole_group": bool};
the whole group is a set like any other, and every set command takes it.
Exit status: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error.  Identical invocations produce byte-identical output.

Each subcommand is declared once, as one row of ``COMMANDS``: its name,
help, least ``--radius``, arguments and a handler ``(args, alphabet) ->
(payload, text)``.
The parser is built from the rows; the payload prints as JSON under
``--json`` or when the text is None, and the text prints otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algset import AlgebraicSet, chain_check, from_json_text, intersect, subset, to_json_dict, union
from .embed import check_mono_on_ball
from .errors import FreeGroupError
from .onevar import DEFAULT_VARIABLE, OneVarWord, brute_solutions
from .residual import apply_perm_rep, separate
from .solver import DEFAULT_DISCOVERY_RADIUS, SolveConfig, solve
from .words import Alphabet, Word, centralizer, parse_word

ALPHABET_ENV_VAR = "FGZ_ALPHABET"


def _names(spec: str) -> tuple[str, ...]:
    """The letters of a comma-separated spec: ``" a, b,"`` gives ``("a", "b")``."""
    return tuple([part.strip() for part in spec.split(",") if part.strip()])


def _alphabet_from(args) -> Alphabet:
    names = _names(args.alphabet or os.environ.get(ALPHABET_ENV_VAR) or "")
    if not names:
        raise FreeGroupError(f"no alphabet: pass --alphabet or set ${ALPHABET_ENV_VAR}")
    return Alphabet(names)


def _lines(fields: dict) -> str:
    """One ``name: value`` line per field, underscores read as spaces and values as JSON."""
    return "\n".join(f"{name.replace('_', ' ')}: {json.dumps(value)}" for name, value in fields.items())


def _word(word: Word) -> tuple[dict, str]:
    return {"word": str(word)}, str(word)


def _set(s: AlgebraicSet) -> tuple[dict, str]:
    return to_json_dict(s), str(s)


def _truth(name: str, value: bool) -> tuple[dict, str]:
    return {name: value}, json.dumps(value)


def _equation(args, alphabet: Alphabet) -> OneVarWord:
    return OneVarWord.parse(args.EQUATION, alphabet, args.var)


def _operands(args, alphabet: Alphabet) -> tuple[AlgebraicSet, AlgebraicSet]:
    return from_json_text(args.S1, alphabet), from_json_text(args.S2, alphabet)


def _root(args, alphabet: Alphabet):
    dec = parse_word(args.WORD, alphabet).primitive_root()
    return {"root": str(dec.root), "exponent": dec.exponent}, f"({dec.root})^{dec.exponent}"


def _centralizer(args, alphabet: Alphabet):
    root = centralizer(parse_word(args.WORD, alphabet))
    return {"root": str(root)}, f"<{root}>"


def _support(args, alphabet: Alphabet):
    letters = sorted(parse_word(args.WORD, alphabet).support(), key=alphabet.index)
    return {"letters": letters}, " ".join(letters) or "(empty)"


def _oracle(args, alphabet: Alphabet):
    solutions = [str(g) for g in brute_solutions(_equation(args, alphabet), args.radius)]
    return {"radius": args.radius, "solutions": solutions}, "\n".join(solutions) or "(none)"


def _solve(args, alphabet: Alphabet):
    cfg = SolveConfig(discovery_radius=args.radius, verify_radius=args.verify_radius)
    return solve(_equation(args, alphabet), cfg).to_json_dict(), None


def _chain(args, alphabet: Alphabet):
    report = chain_check([from_json_text(t, alphabet) for t in args.SETS])
    shown = {"descending": report.descending, "strict_prefix_length": report.strict_prefix_length,
             "stabilization_index": report.stabilization_index}
    return {**shown, "measure_ok": report.measure_ok}, _lines(shown)


def _embed_check(args, alphabet: Alphabet):
    report = check_mono_on_ball(alphabet, Alphabet(_names(args.target)), args.radius)
    counts = {"indices": report.index_count, "ball": report.ball_size, "checked": report.checked}
    flags = {"injective": report.injective, "fixes_common_letters": report.fixes_common_letters}
    failures = "\n  ".join(["failures:", *report.failures]) if report.failures else "failures: none"
    return {**counts, "failures": list(report.failures), **flags}, f"{_lines({**counts, **flags})}\n{failures}"


def _separate(args, alphabet: Alphabet):
    word = parse_word(args.WORD, alphabet)
    rep = separate(word)
    image = apply_perm_rep(rep, word)
    return {
        "degree": rep.degree,
        "letter_map": {name: rep.image_of_letter(name).cycle_notation() for name in alphabet.names},
        "image_of_g": image.cycle_notation(),
        "separated": not image.is_identity,
    }, None


WORD = ("WORD", "word text")
EQUATION = ("EQUATION", "one-variable word")
OPERANDS = (("S1", "set JSON"), ("S2", "set JSON"))

#: (name, help, least --radius, arguments as (name, help[, add_argument options]), handler), in help order
COMMANDS = (
    ("reduce", "reduce a word to normal form", 0, (WORD,), lambda args, ab: _word(parse_word(args.WORD, ab))),
    ("mul", "product of two words", 0, (("U", "left factor"), ("V", "right factor")),
     lambda args, ab: _word(parse_word(args.U, ab) * parse_word(args.V, ab))),
    ("inv", "inverse of a word", 0, (WORD,), lambda args, ab: _word(~parse_word(args.WORD, ab))),
    ("root", "primitive root and exponent", 0, (WORD,), _root),
    ("centralizer", "generator of the centralizer", 0, (WORD,), _centralizer),
    ("support", "letters in the reduced form", 0, (WORD,), _support),
    ("eval", "substitute a word for the variable", 0, (EQUATION, ("POINT", "word text")),
     lambda args, ab: _word(_equation(args, ab).evaluate(parse_word(args.POINT, ab)))),
    ("oracle", "ball solutions of EQUATION = 1 (brute force)", 0, (EQUATION,), _oracle),
    ("solve", "solution set of EQUATION = 1 in coset form", 0, (EQUATION,), _solve),
    ("member", "test membership in a set", 0, (("SET", "set JSON"), WORD),
     lambda args, ab: _truth("member", from_json_text(args.SET, ab).member(parse_word(args.WORD, ab)))),
    ("intersect", "intersection of two sets", 0, OPERANDS, lambda args, ab: _set(intersect(*_operands(args, ab)))),
    ("union", "union of two sets", 0, OPERANDS, lambda args, ab: _set(union(*_operands(args, ab)))),
    ("subset", "test inclusion of two sets", 0, OPERANDS,
     lambda args, ab: _truth("subset", subset(*_operands(args, ab)))),
    ("chain", "check a descending chain of sets", 0, (("SETS", "set JSON values", {"nargs": "+"}),), _chain),
    ("embed-check", "verify the product-embedding construction on a ball", 1,
     (("--target", "comma-separated target letters", {"required": True}),), _embed_check),
    ("separate", "finite permutation witness for a nontrivial word", 0, (WORD,), _separate),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fgz", description="Calculator for free groups: word arithmetic, "
                                     "one-variable equations, closed sets in coset form, finite separation witnesses.")
    parser.add_argument("--alphabet", help=f"comma-separated letters, e.g. a,b (default: ${ALPHABET_ENV_VAR})")
    parser.add_argument("--var", default=DEFAULT_VARIABLE, help="variable symbol (default x)")
    parser.add_argument("--radius", type=int, default=DEFAULT_DISCOVERY_RADIUS,
                        help="search/discovery radius (default %(default)s)")
    parser.add_argument("--verify-radius", type=int, default=None, help="solver verification radius")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, least_radius, arguments, handler in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for arg_name, arg_help, *options in arguments:
            command.add_argument(arg_name, help=arg_help, **(options[0] if options else {}))
        command.set_defaults(handler=handler, least_radius=least_radius)
    return parser


def _run(args) -> int:
    payload, text = args.handler(args, _alphabet_from(args))
    # flushed here, so that a closed pipe is caught in main
    print(json.dumps(payload, indent=2) if args.json or text is None else text, flush=True)
    return 0


def _radius_usage_error(args) -> str | None:
    """One-line diagnostic for inconsistent radius flags, or None; read before the alphabet is resolved."""
    if args.radius < 0:
        return f"--radius must be >= 0 (got {args.radius})"
    if args.radius < args.least_radius:
        return f"--radius must be >= {args.least_radius} for {args.command} (got {args.radius})"
    if args.verify_radius is not None and args.verify_radius < args.radius:
        return f"--verify-radius must be >= --radius (got {args.verify_radius} < {args.radius})"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    usage_error = _radius_usage_error(args)
    if usage_error:
        print(f"error: {usage_error}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except FreeGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so the interpreter's final flush cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: output closed early (broken pipe)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
