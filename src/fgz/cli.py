"""Command-line front end.

Global flags come before the subcommand; words are quoted arguments in
the word grammar (whitespace-separated IDENT or IDENT^INT terms, ``1`` or
``e`` for the identity).  Set-valued arguments use the JSON schema
{"points": [...], "cosets": [{"rep":..,"root":..}], "whole_group": bool};
the whole group is a set like any other, and every set command takes it.
Exit status: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algset import chain_check, from_json_text, intersect, subset, to_json_dict, union
from .embed import check_mono_on_ball
from .errors import FreeGroupError
from .onevar import DEFAULT_VARIABLE, OneVarWord, brute_solutions
from .residual import apply_perm_rep, separate
from .solver import DEFAULT_DISCOVERY_RADIUS, SolveConfig, solve
from .words import Alphabet, centralizer, parse_word

ALPHABET_ENV_VAR = "FGZ_ALPHABET"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgz",
        description="Calculator for free groups: word arithmetic, one-variable "
        "equations, closed sets in coset form, finite separation witnesses.",
    )
    parser.add_argument(
        "--alphabet",
        help=f"comma-separated letters, e.g. a,b (default: ${ALPHABET_ENV_VAR})",
    )
    parser.add_argument("--var", default=DEFAULT_VARIABLE, help="variable symbol (default x)")
    parser.add_argument(
        "--radius", type=int, default=DEFAULT_DISCOVERY_RADIUS, help="search/discovery radius (default %(default)s)"
    )
    parser.add_argument("--verify-radius", type=int, default=None, help="solver verification radius")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text, *positionals, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        for arg_name, arg_help in positionals:
            nargs = "+" if arg_name == "SETS" else None
            p.add_argument(arg_name, help=arg_help, nargs=nargs)
        return p

    add("reduce", "reduce a word to normal form", ("WORD", "word text"))
    add("mul", "product of two words", ("U", "left factor"), ("V", "right factor"))
    add("inv", "inverse of a word", ("WORD", "word text"))
    add("root", "primitive root and exponent", ("WORD", "word text"))
    add("centralizer", "generator of the centralizer", ("WORD", "word text"))
    add("support", "letters in the reduced form", ("WORD", "word text"))
    add("eval", "substitute a word for the variable", ("EQUATION", "one-variable word"), ("POINT", "word text"))
    add("oracle", "ball solutions of EQUATION = 1 (brute force)", ("EQUATION", "one-variable word"))
    add("solve", "solution set of EQUATION = 1 in coset form", ("EQUATION", "one-variable word"))
    add("member", "test membership in a set", ("SET", "set JSON"), ("WORD", "word text"))
    add("intersect", "intersection of two sets", ("S1", "set JSON"), ("S2", "set JSON"))
    add("union", "union of two sets", ("S1", "set JSON"), ("S2", "set JSON"))
    add("subset", "test inclusion of two sets", ("S1", "set JSON"), ("S2", "set JSON"))
    add("chain", "check a descending chain of sets", ("SETS", "set JSON values"))
    embed = add("embed-check", "verify the product-embedding construction on a ball")
    embed.add_argument("--target", required=True, help="comma-separated target letters")
    add("separate", "finite permutation witness for a nontrivial word", ("WORD", "word text"))
    return parser


def _alphabet_from(args) -> Alphabet:
    spec_text = args.alphabet or os.environ.get(ALPHABET_ENV_VAR) or ""
    names = tuple(part.strip() for part in spec_text.split(",") if part.strip())
    if not names:
        raise FreeGroupError(f"no alphabet: pass --alphabet or set ${ALPHABET_ENV_VAR}")
    return Alphabet(names)


def _emit(payload: dict, text: str | None = None, as_json: bool = False) -> None:
    if as_json or text is None:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _run(args) -> int:
    alphabet = _alphabet_from(args)
    cmd = args.command

    if cmd == "reduce":
        word = parse_word(args.WORD, alphabet)
        _emit({"word": str(word)}, str(word), args.json)
    elif cmd == "mul":
        word = parse_word(args.U, alphabet) * parse_word(args.V, alphabet)
        _emit({"word": str(word)}, str(word), args.json)
    elif cmd == "inv":
        word = ~parse_word(args.WORD, alphabet)
        _emit({"word": str(word)}, str(word), args.json)
    elif cmd == "root":
        dec = parse_word(args.WORD, alphabet).primitive_root()
        _emit(
            {"root": str(dec.root), "exponent": dec.exponent},
            f"({dec.root})^{dec.exponent}",
            args.json,
        )
    elif cmd == "centralizer":
        root = centralizer(parse_word(args.WORD, alphabet))
        _emit({"root": str(root)}, f"<{root}>", args.json)
    elif cmd == "support":
        letters = sorted(parse_word(args.WORD, alphabet).support(), key=alphabet.index)
        _emit({"letters": letters}, " ".join(letters) or "(empty)", args.json)
    elif cmd == "eval":
        equation = OneVarWord.parse(args.EQUATION, alphabet, args.var)
        word = equation.evaluate(parse_word(args.POINT, alphabet))
        _emit({"word": str(word)}, str(word), args.json)
    elif cmd == "oracle":
        equation = OneVarWord.parse(args.EQUATION, alphabet, args.var)
        sols = brute_solutions(equation, args.radius)
        _emit(
            {"radius": args.radius, "solutions": [str(g) for g in sols]},
            "\n".join(str(g) for g in sols) or "(none)",
            args.json,
        )
    elif cmd == "solve":
        equation = OneVarWord.parse(args.EQUATION, alphabet, args.var)
        cfg = SolveConfig(discovery_radius=args.radius, verify_radius=args.verify_radius)
        _emit(solve(equation, cfg).to_json_dict())
    elif cmd == "member":
        result = from_json_text(args.SET, alphabet).member(parse_word(args.WORD, alphabet))
        _emit({"member": result}, "true" if result else "false", args.json)
    elif cmd in ("intersect", "union", "subset"):
        s1 = from_json_text(args.S1, alphabet)
        s2 = from_json_text(args.S2, alphabet)
        if cmd == "subset":
            result = subset(s1, s2)
            _emit({"subset": result}, "true" if result else "false", args.json)
        else:
            out = (intersect if cmd == "intersect" else union)(s1, s2)
            _emit(to_json_dict(out), str(out), args.json)
    elif cmd == "chain":
        report = chain_check([from_json_text(t, alphabet) for t in args.SETS])
        payload = {
            "descending": report.descending,
            "strict_prefix_length": report.strict_prefix_length,
            "stabilization_index": report.stabilization_index,
            "measure_ok": report.measure_ok,
        }
        text = (
            f"descending: {str(report.descending).lower()}\n"
            f"strict prefix length: {report.strict_prefix_length}\n"
            f"stabilization index: {report.stabilization_index}"
        )
        _emit(payload, text, args.json)
    elif cmd == "embed-check":
        target = Alphabet(tuple(part.strip() for part in args.target.split(",") if part.strip()))
        report = check_mono_on_ball(alphabet, target, args.radius)
        payload = {
            "indices": report.index_count,
            "ball": report.ball_size,
            "checked": report.checked,
            "failures": list(report.failures),
            "injective": report.injective,
            "fixes_common_letters": report.fixes_common_letters,
        }
        text = (
            f"indices: {report.index_count}\n"
            f"ball: {report.ball_size}\n"
            f"checked: {report.checked}\n"
            f"injective: {str(report.injective).lower()}\n"
            f"fixes common letters: {str(report.fixes_common_letters).lower()}\n"
            + ("failures:\n  " + "\n  ".join(report.failures) if report.failures else "failures: none")
        )
        _emit(payload, text, args.json)
    elif cmd == "separate":
        word = parse_word(args.WORD, alphabet)
        rep = separate(word)
        image = apply_perm_rep(rep, word)
        payload = {
            "degree": rep.degree,
            "letter_map": {
                name: rep.image_of_letter(name).cycle_notation() for name in alphabet.names
            },
            "image_of_g": image.cycle_notation(),
            "separated": not image.is_identity,
        }
        _emit(payload)
    else:  # pragma: no cover - argparse rejects unknown commands
        raise AssertionError(f"unhandled command {cmd}")
    return 0


def _radius_usage_error(args) -> str | None:
    """One-line diagnostic for inconsistent radius flags, or None."""
    if args.radius < 0:
        return f"--radius must be >= 0 (got {args.radius})"
    if args.command == "embed-check" and args.radius < 1:
        return f"--radius must be >= 1 for embed-check (got {args.radius})"
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
        code = _run(args)
        sys.stdout.flush()
        return code
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
