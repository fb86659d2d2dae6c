import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fgz.algset import AlgebraicSet, CyclicCoset, from_json_dict, from_json_text, to_json_dict
from fgz.cli import main
from fgz.errors import ParseError
from fgz.residual import MAX_SEPARATE_LETTERS
from fgz.words import MAX_BALL_ELEMENTS, MAX_PARSE_LETTERS, parse_word

from helpers import AB


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


SET_A = json.dumps({"points": [], "cosets": [{"rep": "1", "root": "a"}], "whole_group": False})
SET_B = json.dumps({"points": [], "cosets": [{"rep": "1", "root": "b"}], "whole_group": False})
POINTS = json.dumps({"points": ["a^3", "b"], "cosets": [], "whole_group": False})
WHOLE = json.dumps({"points": [], "cosets": [], "whole_group": True})


class TestWordCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "reduce", "a a^-1 b")
        assert (code, out) == (0, "b\n")

    def test_mul_inv(self, capsys):
        assert run(capsys, "--alphabet", "a,b", "mul", "a b", "b^-1 a")[1] == "a^2\n"
        assert run(capsys, "--alphabet", "a,b", "inv", "a b^-1")[1] == "b a^-1\n"

    def test_root(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "--json", "root", "a b a b")
        assert payload == {"root": "a b", "exponent": 2}

    def test_centralizer(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "centralizer", "a^2")
        assert (code, out) == (0, "<a>\n")

    def test_centralizer_of_identity_fails(self, capsys):
        code, _, err = run(capsys, "--alphabet", "a,b", "centralizer", "1")
        assert code == 1
        assert "whole group" in err

    def test_support(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "--json", "support", "b a b^-1")
        assert payload == {"letters": ["a", "b"]}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "--alphabet", "a,b", "reduce", "a q")
        assert code == 1 and "unknown identifier" in err


class TestEquationCommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "eval", "x a x^-1", "b")
        assert (code, out) == (0, "b a b^-1\n")

    def test_oracle(self, capsys):
        payload = run_json(
            capsys, "--alphabet", "a,b", "--radius", "2", "--json", "oracle", "x a x^-1 a^-1"
        )
        assert payload == {"radius": 2, "solutions": ["1", "a", "a^-1", "a^2", "a^-2"]}

    def test_solve_emits_expected_coset(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "solve", "x a x^-1 a^-1")
        assert payload["cosets"] == [{"rep": "1", "root": "a"}]
        assert payload["points"] == [] and payload["sound"] is True
        assert payload["whole_group"] is False

    def test_solve_round_trips_through_schema(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "solve", "x b a b^-1 x^-1 a^-1")
        restored = from_json_dict(payload, AB)
        expected = AlgebraicSet.of(AB, cosets=[(parse_word("b^-1", AB), parse_word("b a b^-1", AB))])
        assert restored == expected

    def test_solve_rank_one_forms_no_pairs(self, capsys):
        # 81 ball solutions at discovery radius 40, over the default pair limit; at rank 1
        # the coset <a> is the whole group
        payload = run_json(capsys, "--alphabet", "a", "--radius", "40", "solve", "x a x^-1 a^-1")
        assert payload["whole_group"] is True and payload["cosets"] == [] and payload["points"] == []

    def test_variable_override(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "--var", "t", "solve", "t a^-1")
        assert payload["points"] == ["a"]

    def test_whole_group_result(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "solve", "a a^-1")
        assert payload["whole_group"] is True


class TestSetCommands:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "member", SET_A, "a^5")
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, "--alphabet", "a,b", "member", SET_A, "b")
        assert (code, out) == (0, "false\n")

    def test_intersect(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "--json", "intersect", SET_A, SET_B)
        assert payload == {"points": ["1"], "cosets": [], "whole_group": False}

    def test_union_absorbs(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "--json", "union", SET_A, POINTS)
        assert payload["cosets"] == [{"rep": "1", "root": "a"}]
        assert payload["points"] == ["b"]

    def test_subset(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "subset", SET_A, SET_A)
        assert (code, out) == (0, "true\n")

    def test_chain(self, capsys):
        both = json.dumps(to_json_dict(from_json_dict(json.loads(SET_A), AB)))
        payload = run_json(
            capsys, "--alphabet", "a,b", "--json", "chain",
            json.dumps({"points": [], "cosets": [{"rep": "1", "root": "a"}, {"rep": "1", "root": "b"}], "whole_group": False}),
            both,
            json.dumps({"points": ["1"], "cosets": [], "whole_group": False}),
        )
        assert payload == {
            "descending": True,
            "strict_prefix_length": 3,
            "stabilization_index": 2,
            "measure_ok": True,
        }

    @pytest.mark.parametrize(
        "argv, text, payload",
        [
            (("intersect", WHOLE, SET_A), "(1)<a>\n", json.loads(SET_A)),
            (("intersect", SET_A, WHOLE), "(1)<a>\n", json.loads(SET_A)),
            (("union", WHOLE, SET_A), "whole group\n", json.loads(WHOLE)),
            (("union", POINTS, WHOLE), "whole group\n", json.loads(WHOLE)),
            (("subset", SET_A, WHOLE), "true\n", {"subset": True}),
            (("subset", WHOLE, SET_A), "false\n", {"subset": False}),
            (
                ("chain", WHOLE, SET_A, json.dumps({"points": ["1"]})),
                "descending: true\nstrict prefix length: 3\nstabilization index: 2\n",
                {"descending": True, "strict_prefix_length": 3, "stabilization_index": 2, "measure_ok": True},
            ),
        ],
        ids=["intersect", "intersect-right", "union", "union-right", "subset", "subset-of-a-coset", "chain"],
    )
    def test_whole_group_operand_answers(self, capsys, argv, text, payload):
        assert run(capsys, "--alphabet", "a,b", *argv) == (0, text, "")
        assert run_json(capsys, "--alphabet", "a,b", "--json", *argv) == payload

    def test_rank_one_coset_is_the_whole_group(self, capsys):
        coset = json.dumps({"cosets": [{"rep": "1", "root": "a"}]})
        assert run(capsys, "--alphabet", "a", "subset", WHOLE, coset) == (0, "true\n", "")
        assert run(capsys, "--alphabet", "a", "subset", coset, WHOLE) == (0, "true\n", "")

    def test_member_of_whole_group(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "member", WHOLE, "b a")
        assert (code, out) == (0, "true\n")


class TestOtherCommands:
    def test_embed_check(self, capsys):
        payload = run_json(
            capsys, "--alphabet", "a,b", "--radius", "2", "--json",
            "embed-check", "--target", "c,d",
        )
        assert payload["failures"] == [] and payload["injective"] is True
        assert payload["indices"] == 16
        assert payload["ball"] == 17 and payload["fixes_common_letters"] is True

    def test_separate(self, capsys):
        payload = run_json(capsys, "--alphabet", "a,b", "separate", "a b^-1 a")
        assert payload["degree"] == 4
        assert payload["image_of_g"] == "(0 3)"
        assert payload["separated"] is True

    def test_separate_identity_fails(self, capsys):
        code, _, err = run(capsys, "--alphabet", "a,b", "separate", "1")
        assert code == 1 and "separate" in err


COMMANDS = {
    "reduce", "mul", "inv", "root", "centralizer", "support", "eval", "oracle", "solve",
    "member", "intersect", "union", "subset", "chain", "embed-check", "separate",
}
#: one recorded row per argv list: stdout, stderr and exit code
OUTPUT_ROWS = json.loads(Path(__file__).with_name("cli_outputs.json").read_text())


def command_of(argv):
    return next(a for a in argv if a in COMMANDS)


class TestOutputTable:
    def test_every_subcommand_in_both_modes(self):
        seen = {(command_of(row["argv"]), row["argv"][0] == "--json") for row in OUTPUT_ROWS}
        assert seen == {(c, as_json) for c in COMMANDS for as_json in (False, True)}

    @pytest.mark.parametrize(
        "row", OUTPUT_ROWS, ids=[f"{i:02d}-{command_of(row['argv'])}" for i, row in enumerate(OUTPUT_ROWS)]
    )
    def test_output_as_recorded(self, capsys, row):
        assert run(capsys, *row["argv"]) == (row["exit"], row["stdout"], row["stderr"])


class TestInvocation:
    def test_closed_pipe_is_one_line_error(self):
        # every ball word solves the trivial equation: about 265 KB of
        # output, more than a pipe holds, so a write fails after the
        # reader closes its end
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "fgz.cli", "--alphabet", "a,b", "--radius", "8", "oracle", "1"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"1\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err == "error: output closed early (broken pipe)\n"

    def test_alphabet_from_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FGZ_ALPHABET", "a,b")
        code, out, _ = run(capsys, "reduce", "b b^-1 a")
        assert (code, out) == (0, "a\n")

    def test_missing_alphabet(self, capsys, monkeypatch):
        monkeypatch.delenv("FGZ_ALPHABET", raising=False)
        code, _, err = run(capsys, "reduce", "a")
        assert code == 1 and "no alphabet" in err
        # a spec that names no letter counts as missing, not as an empty alphabet
        missing = (1, "", "error: no alphabet: pass --alphabet or set $FGZ_ALPHABET\n")
        assert run(capsys, "--alphabet", ",", "embed-check", "--target", "c") == missing
        monkeypatch.setenv("FGZ_ALPHABET", " , ")
        assert run(capsys, "embed-check", "--target", "c") == missing

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--alphabet", "a,b", "frobnicate"])
        assert exc.value.code == 2

    def test_negative_radius_solve_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--alphabet", "a,b", "--radius", "-1", "solve", "x a")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--radius" in err

    def test_negative_radius_oracle_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--alphabet", "a,b", "--radius", "-1", "oracle", "x a")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--radius" in err

    def test_verify_radius_below_radius_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "--alphabet", "a,b", "--radius", "3", "--verify-radius", "2", "solve", "x a"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--verify-radius" in err

    def test_huge_exponent_fails_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--alphabet", "a,b", "reduce", "a^100000000")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(MAX_PARSE_LETTERS) in err

    def test_huge_ball_fails_at_once(self, capsys):
        # 2,929,687 ball elements: without the limit, seconds of enumeration
        start = time.perf_counter()
        code, out, err = run(capsys, "--alphabet", "a,b,c", "--radius", "9", "oracle", "x a")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "2,929,687" in err and f"{MAX_BALL_ELEMENTS:,}" in err

    def test_long_separate_fails_at_once(self, capsys):
        # separation is quadratic in the length: without the limit this
        # runs for minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "--alphabet", "a,b", "separate", "a^1000000")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "1,000,000" in err and f"{MAX_SEPARATE_LETTERS:,}" in err

    def test_long_eval_fails_at_once(self, capsys):
        # x^1001 at a^1000 expands to 1,001,000 letters before reduction
        start = time.perf_counter()
        code, out, err = run(capsys, "--alphabet", "a,b", "eval", "x^1001", "a^1000")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "1,001,000" in err and f"{MAX_PARSE_LETTERS:,}" in err

    def test_long_oracle_evaluation_fails_at_once(self, capsys, monkeypatch):
        # 500,000 occurrences of x in two syllables, no closed form: a point of
        # length 8 expands to 4,000,002 letters, refused before the oracle walk
        def no_evaluation(*args):
            raise AssertionError("evaluated")

        monkeypatch.setattr("fgz.onevar._substitute", no_evaluation)
        start = time.perf_counter()
        code, out, err = run(capsys, "--alphabet", "a,b", "solve", "x^250000 a x^250000 a^-1")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "4,000,002" in err and f"{MAX_PARSE_LETTERS:,}" in err

    def test_one_long_syllable_is_solved_in_closed_form(self, capsys):
        # x^500000 = a^-500000 has the one root a^-1; the oracle would refuse the word
        start = time.perf_counter()
        payload = run_json(capsys, "--alphabet", "a,b", "solve", "x^500000 a^500000")
        assert time.perf_counter() - start < 5
        assert (payload["points"], payload["cosets"], payload["whole_group"]) == (["a^-1"], [], False)

    def test_eval_at_the_limit(self, capsys):
        code, out, _ = run(capsys, "--alphabet", "a,b", "eval", "x^1000", "a^1000")
        assert (code, out) == (0, "a^1000000\n")

    def test_variable_colliding_with_a_letter(self, capsys):
        code, out, err = run(capsys, "--alphabet", "a,b", "--var", "a", "solve", "x")
        assert (code, out) == (1, "")
        assert err == "error: variable 'a' collides with an alphabet letter\n"

    def test_zero_radius_embed_check_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "--alphabet", "a,b", "--radius", "0", "embed-check", "--target", "c,d"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "--radius" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{bad", "malformed set JSON"),
            ("[1]", "must be an object"),
            ('{"cosets":[{"rep":"a"}]}', "needs a 'rep' and a 'root'"),
            ('{"whole_group":"no"}', "must be a boolean"),
            ('{"whole_group":true,"points":[5]}', "must be strings"),
            pytest.param("[" * 100000, "malformed set JSON", id="deep-nesting"),
        ],
    )
    def test_bad_set_json_is_one_line_error(self, capsys, text, message):
        code, out, err = run(capsys, "--alphabet", "a,b", "member", text, "a")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        with pytest.raises(ParseError):
            from_json_text(text, AB)

    def test_deterministic_output(self, capsys):
        first = run(capsys, "--alphabet", "a,b", "solve", "x b a b^-1 x^-1 a^-1")
        second = run(capsys, "--alphabet", "a,b", "solve", "x b a b^-1 x^-1 a^-1")
        assert first == second
