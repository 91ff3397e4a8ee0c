import argparse
import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobsplit.cli import (_COMMANDS, _FLAGS, _SWITCHES, CliError, _int, _json_text,
                           _read_argv, build_parser, main, run)
from frobsplit.elliptic import (hasse_closed_symbolic, hasse_coeff_symbolic,
                                supersingular_report)
from frobsplit.fibration import f_discriminant_legendre
from frobsplit.mpoly import parse_poly

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def _json_report(argv, capsys):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_supersingular_p5(capsys):
    code, rep = _json_report(["supersingular", "--p", "5"], capsys)
    assert code == 0
    assert rep["schema_version"] == "2"
    r = rep["results"]
    assert r["poly"] == "lam^2 + 4*lam + 1"
    assert r["root_count"] == 2 and r["squarefree"] is True


def test_fdisc_p3(capsys):
    code, rep = _json_report(["fdisc", "--p", "3"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["degree"] == "1"
    assert {e["point"]: (e["num"], e["den"]) for e in r["bY"]} == \
        {"2": (1, 2), "inf": (1, 2)}


def test_hasse_subcommand(capsys):
    code, rep = _json_report(["hasse", "--p", "5", "--lambda", "2"], capsys)
    assert code == 0
    assert rep["results"]["hasse_closed"] == "3"
    assert rep["results"]["methods_agree"] is True


def test_fedder_and_fpt(capsys):
    code, rep = _json_report(
        ["fedder-nu", "--p", "5", "--poly", "y^2 - x^3 + x^2",
         "--vars", "x,y", "--e", "2"], capsys)
    assert code == 0 and rep["results"]["nu"] == 24
    code, rep = _json_report(
        ["fpt", "--p", "5", "--poly", "y^2 - x^3 + x^2", "--vars", "x,y",
         "--emax", "2"], capsys)
    assert code == 0
    assert rep["results"]["fpt_lower"] == "24/25"
    assert rep["results"]["fpure_at_one"] is True


def test_gfs_and_gfr_subcommands(capsys):
    code, rep = _json_report(
        ["gfs-p1", "--p", "5", "--divisor", "1/2@0,1/2@1,1/2@2,1/2@inf"], capsys)
    assert code == 0 and rep["results"]["verdict"]["status"] == "yes"
    code, rep = _json_report(["gfr-p1", "--p", "5", "--divisor", "1/2@inf"], capsys)
    assert code == 0 and rep["results"]["verdict"]["status"] == "yes"


def test_gfs_p1_without_admissible_level_is_unknown(capsys):
    # e_max below 1, and a divisor whose level (2) exceeds e_max: nothing tested
    for argv in (["gfs-p1", "--p", "5", "--divisor", "1/2@inf", "--emax", "0"],
                 ["gfs-p1", "--p", "5", "--divisor", "1/8@1", "--emax", "1"]):
        code, rep = _json_report(argv + ["--strict"], capsys)
        assert code == 2, argv
        assert rep["results"]["verdict"] == {
            "status": "unknown", "reason": "no admissible level within e_max"}, argv


def test_strict_exit_code_on_unknown(capsys):
    # g = x^5 - x: every centre of the single-point family fails
    code = main(["gfr-p1", "--p", "5", "--divisor", "1/4@0,1/4@1,1/4@2,1/4@3,1/4@4,2/4@inf",
                 "--emax", "1", "--strict", "--json"])
    capsys.readouterr()
    assert code == 2


def test_input_error_exit_code(tmp_path, capsys):
    assert main(["hasse", "--p", "4", "--lambda", "2"]) == 1
    assert main(["hasse", "--p", "5", "--lambda", "0"]) == 1
    assert main(["fedder-nu", "--p", "5", "--poly", "x + q", "--vars", "x"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    for argv in (
        ["gfs-p1", "--p", "5", "--divisor", "1/0@1"],
        ["gfs-p1", "--p", "5", "--divisor", "1/2@3+2tt"],
        # exponent notation, which would build a huge integer
        ["gfs-p1", "--p", "5", "--divisor", "1e999999999@1"],
        ["scan", "--range", "3..5", "--out", str(tmp_path / "missing" / "x.csv")],
        # a flag the subcommand does not read, and abbreviations
        ["fdisc", "--p", "5", "--poly", "x"],
        ["fpt", "--p", "5", "--poly", "x*y", "--vars", "x,y", "--e", "2"],
        ["gfr-p1", "--p", "5", "--divisor", "1/2@inf", "--em", "3"],
        # a reversed range, and --workers, which scan no longer has
        ["scan", "--range", "5..3"],
        ["scan", "--range", "3..7", "--workers", "2"],
        # integers are ASCII digits: int() alone read these as 5, 10, 3, 11,
        # 3 and 2
        ["hasse", "--p", "\u0665", "--lambda", "2"],
        ["kgfr", "--p", "5", "--emax", "1_0"],
        ["fedder-nu", "--p", "5", "--poly", "x^\u0663", "--vars", "x"],
        ["scan", "--range", "3..1_1"],
        ["kappa", "--case", "ruled:g=2,d=\u0663"],
        ["fpt", "--p", "5", "--poly", "x^2", "--vars", "x", "--emax", "\u0662"],
        # a level below 1 for the two hypersurface criteria
        ["gfs-cy", "--p", "5", "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z", "--e", "0"],
        ["gfs-bigraded", "--p", "3", "--poly", "x*y*u", "--vars", "x,y,u,v",
         "--groups", "2,2", "--e", "0"],
        # an empty variable group, and group sizes that are not two integers
        *(["gfs-bigraded", "--p", "3", "--poly", "x*y*u", "--vars", "x,y,u,v",
           f"--groups={groups}"] for groups in ("0,4", "-1,5", "2,2,", "a,b")),
        # a power whose expansion would never finish
        ["fedder-nu", "--p", "5", "--poly", "(x+y+1)^1000000000 - 1", "--vars", "x,y"],
        ["fedder-nu", "--p", "101", "--poly", "(x+y+z+1)^20*(x+y+z+1)^20", "--vars", "x,y,z"],
        # a repeated variable name, and names that can never be a token
        ["fedder-nu", "--p", "5", "--poly", "x", "--vars", "x,x"],
        ["fedder-nu", "--p", "5", "--poly", "x", "--vars", "x,1"],
        ["fedder-nu", "--p", "5", "--poly", "x", "--vars", "x,y z"],
        # an empty name between or after the commas
        ["fedder-nu", "--p", "5", "--poly", "x*y", "--vars", "x,,y"],
        ["fedder-nu", "--p", "5", "--poly", "x", "--vars", "x,"],
        # a branch point of the cover outside the divisor's support
        ["cover-check", "--p", "11", "--cover", "squaring", "--divisor", "1/2@inf,1/2@1"],
        # no level to test: neither side of the comparison would test one
        ["cbf", "--p", "7", "--emax", "0"],
        ["cbf", "--p", "7", "--emax", "-1"],
        # a negative level, which the listing commands would echo as unknown
        ["gfs-p1", "--p", "5", "--divisor", "1/2@0", "--emax", "-1"],
        ["gfr-p1", "--p", "5", "--divisor", "1/2@0", "--emax", "-2"],
        ["kgfr", "--p", "5", "--emax", "-3"],
        ["scan", "--range", "3..31", "--emax", "-1"],
        # case parameters a case does not read, of the wrong kind, or repeated
        ["kappa", "--case", "legendre:q=7"],
        ["catalog", "--case", "legendre:prime=7"],
        ["kappa", "--case", "product:ordinary=2"],
        ["catalog", "--case", "product:ordinary=1"],
        ["kappa", "--case", "legendre:m_max=3"],
        ["kappa", "--case", "legendre:p=5,p=7"],
        # curve flags alongside --case
        ["kappa", "--case", "legendre:p=5", "--genus", "1"],
        ["kappa", "--case", "product:p=5", "--degree-zero", "trivial"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # no --budget: the single-point family is always decided in full
    assert main(["kgfr", "--p", "151", "--budget", "20000"]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --budget 20000\n")
    # a case parameter value that is neither true, false nor an integer
    for argv, chunk in ((["catalog", "--case", "legendre:p=x"], "p=x"),
                        (["kappa", "--case", "ruled:g=two,d=3"], "g=two"),
                        (["kappa", "--case", "ruled:g=2,d=3.5"], "d=3.5"),
                        (["catalog", "--case", "product:ordinary=maybe"], "ordinary=maybe")):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == (
            "", f"error: bad case parameter {chunk!r}: expected true, false or an integer\n")
    # a point that is not one names itself, not int()'s complaint
    for argv, message in ((["hasse", "--p", "5", "--lambda", "abc"], "bad point 'abc'"),
                          (["hasse", "--p", "5", "--lambda", "1_0"], "bad point '1_0'"),
                          (["hasse", "--p", "5", "--lambda", "\u0663"], "bad point '\u0663'"),
                          (["gfs-p1", "--p", "5", "--divisor", "1/2@a"],
                           "bad divisor: bad point 'a'"),
                          (["gfs-p1", "--p", "5", "--divisor", "1/2@3+2tt"],
                           "bad divisor: bad point '3+2tt'")):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a coefficient is ASCII digits too: Fraction() alone read these as 10/3
    # and 3/4
    for coeff in ("1_0/3", "\u0663/4"):
        assert main(["gfs-p1", "--p", "5", "--divisor", f"{coeff}@1"]) == 1, coeff
        assert capsys.readouterr() == (
            "", f"error: bad divisor: bad coefficient in {coeff + '@1'!r}\n")
    # a number past int()'s 4,300-digit limit is named, and the limit is not
    # raised for the whole process
    nines = "9" * 5000
    for argv, prefix in ((["hasse", "--p", "5", "--lambda", nines], ""),
                         (["gfs-p1", "--p", "5", "--divisor", f"{nines}/1@1"], "bad divisor: "),
                         (["fedder-nu", "--p", "5", "--poly", f"x^{nines}", "--vars", "x"],
                          "bad polynomial: ")):
        assert main(argv) == 1, argv[0]
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {prefix}number 99999...99999 has 5000 digits, "
                                  "more than the 4300 that are read\n"), argv[0]
        assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == 4300
    # an e_max no sequence of levels can hold, and a level e as large; the
    # floor is 0 where e_max = 0 tests nothing, and 1 where a level is computed
    huge = "99999999999999999999"
    for argv, flag, floor in (
            (["gfs-p1", "--p", "5", "--divisor", "1/2@1"], "--emax", 0),
            (["gfr-p1", "--p", "5", "--divisor", "1/2@1"], "--emax", 0),
            (["kgfr", "--p", "5"], "--emax", 0), (["cbf", "--p", "5"], "--emax", 1),
            (["scan", "--range", "3..5"], "--emax", 0),
            (["fpt", "--p", "5", "--poly", "x", "--vars", "x"], "--emax", 1),
            (["fedder-nu", "--p", "5", "--poly", "x", "--vars", "x"], "--e", 1),
            (["cover-check", "--p", "5", "--cover", "squaring",
              "--divisor", "1/2@0,1/2@inf"], "--e", 1),
            (["gfs-cy", "--p", "5", "--poly", "x^3 + y^3 + z^3",
              "--vars", "x,y,z"], "--e", 1),
            (["gfs-bigraded", "--p", "3", "--poly", "x*y*u", "--vars", "x,y,u,v",
              "--groups", "2,2"], "--e", 1)):
        assert main(argv + [flag, huge]) == 1, argv
        assert capsys.readouterr() == (
            "", f"error: {flag} must be at most {sys.maxsize}, got {huge}\n"), argv
        # and a level below the command's floor, refused before any command
        # reads it, in one message that names the floor
        for level in ("0", "-1"):
            code = main(argv + [flag, level])
            err = capsys.readouterr().err
            if int(level) < floor:
                assert (code, err) == (
                    1, f"error: {flag} must be at least {floor}, got {level}\n"), argv
            else:
                assert (code, err) == (0, ""), argv
    # the Legendre cover's lambda is a point of F_p
    for lam in ("2+t", "3+4t", "inf"):
        assert main(["cover-check", "--p", "7", "--cover", "legendre", "--lambda", lam,
                     "--divisor", "1/2@0,1/2@1,1/2@inf"]) == 1, lam
        err = capsys.readouterr().err
        assert err == f"error: lambda must lie in F_7 for the legendre cover, got {lam!r}\n"


def test_nu_levels_past_the_printed_digits_are_refused(capsys):
    # nu(q) < q, so fedder-nu and fpt print every level whose q = p^e has at
    # most int()'s 4,300 digits: 5^6151 has 4,300 and 5^6152 has 4,301.  Past
    # it the level is refused before nu is computed, not at printing
    assert len(str(5 ** 6151)) == sys.get_int_max_str_digits() == 4300
    top = str(5 ** 6151 - 1)
    for command, flag in (("fedder-nu", "--e"), ("fpt", "--emax")):
        argv = [command, "--p", "5", "--poly", "x", "--vars", "x", flag]
        for mode in ([], ["--json"]):
            assert main(argv + ["6151"] + mode) == 0, (command, mode)
            out, err = capsys.readouterr()
            assert err == "" and top in out, (command, mode)
            assert main(argv + ["6152"] + mode) == 1, (command, mode)
            assert capsys.readouterr() == (
                "", f"error: {flag} 6152 gives q = 5^6152, of more than 4300 digits, "
                    "the most that are printed\n"), (command, mode)


def test_closed_stdout_pipe_exits_without_traceback():
    # the reader of stdout is gone before the report is written, as with
    # `frobsplit ... | head` when head exits first
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "frobsplit.cli", "gfs-p1", "--p", "7",
         "--divisor", "1/2@1+3t,1/4@6,1/2@inf,1/2@4+3t,1/4@3+4t", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err, err


def test_scan_subcommand_with_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, rep = _json_report(["scan", "--range", "3..13", "--out", str(out)], capsys)
    assert code == 0
    assert rep["results"]["counts"]["KGFR"] == 5
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "prime,overall,fiber_gfs,base_status"
    assert len(lines) == 6


def test_catalog_strict(capsys):
    code, rep = _json_report(["catalog", "--strict"], capsys)
    assert code == 0
    assert rep["results"]["all_match"] is True
    code, rep = _json_report(["catalog", "--case", "ruled:g=2,d=3", "--strict"], capsys)
    assert code == 0
    case = rep["results"]["cases"][0]
    assert case["report"]["inequality_holds"] is False
    assert case["report"]["hypothesis_flags"]["fixed_part_flag"] is True
    assert case["matches_expected"] is True


def test_gfs_cy_subcommand(capsys):
    # the Fermat cubic cone splits iff p = 1 (mod 3)
    for p, split in (("5", False), ("7", True)):
        code, rep = _json_report(
            ["gfs-cy", "--p", p, "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z"], capsys)
        assert code == 0
        assert rep["inputs"] == {"p": int(p), "poly": "x^3 + y^3 + z^3", "vars": "x,y,z"}
        assert rep["results"] == {"poly": "x^3 + y^3 + z^3", "split": split}


def test_gfs_bigraded_subcommand(capsys):
    code, rep = _json_report(
        ["gfs-bigraded", "--p", "3", "--poly", "x*y*u", "--vars", "x,y,u,v",
         "--groups", "2,2"], capsys)
    assert code == 0
    assert rep["results"] == {"poly": "x*y*u", "groups": [2, 2], "split": True}


def _readme_argvs():
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.startswith("frobsplit ")]
    assert len(lines) == 16
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_examples_parse():
    # every documented command line must be accepted by the parser
    for argv in _readme_argvs():
        assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv), argv


def test_every_flag_belongs_to_a_subcommand():
    # _echo_inputs and the token list below read _FLAGS, so a retired flag
    # must leave it along with its last subcommand
    assert set(_FLAGS) == {key for _, keys in _COMMANDS.values() for key in keys}


def test_every_flag_is_one_the_reader_models():
    # _read_argv reads a flag as one value, converted by _int (whose one
    # refusal is ValueError) and checked against choices; a flag with
    # action=, nargs=, default= or another type would be read wrongly
    for key, (option, kwargs) in _FLAGS.items():
        assert option.startswith("--") and set(kwargs) <= {"type", "choices"}, key
        assert kwargs.get("type", _int) is _int, key


# argv tokens for the parser comparison: every command and flag, the
# top-level options, and values good and bad, a command name among them
_ARGV_TOKENS = (list(_COMMANDS) + [option for option, _ in _FLAGS.values()]
                + ["--json", "--strict", "--timings", "-h", "--help", "--version", "--"]
                + ["5", "0", "-1", "3.5", "x", "", "y^2 - x^3", "x,y", "1/2@inf", "3..7",
                   "trivial", "ruled:g=2,d=3", "--p=7", "--emax=kgfr", "nosuch"])
_TOKEN = st.sampled_from(_ARGV_TOKENS)


def _parse_outcome(parser, argv):
    """What parsing argv gives: a namespace, an error message or an exit
    code, with what was printed on the way."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = ("namespace", vars(parser.parse_args(argv)))
        except CliError as exc:
            outcome = ("error", str(exc))
        except SystemExit as exc:
            outcome = ("exit", exc.code)
    return outcome, out.getvalue(), err.getvalue()


# the boundary of the one-subcommand rule: a command first, then a top-level
# option, -h, "--" or a second command name; and a command that is not first
# or not a command's exact name
_EDGE_ARGVS = [
    ["kgfr", "--version"], ["kgfr", "-h"], ["kgfr", "--", "--p", "5"], ["kgfr", "fpt", "--p", "5"],
    ["--", "kgfr", "--p", "5"], ["-1", "kgfr"], ["nosuch", "kgfr"], ["--json", "kgfr", "--p", "3"],
    ["KGFR"], ["kgf"], [],
]


def _with_edge_argvs(test):
    for argv in _EDGE_ARGVS:
        test = example(argv)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@_with_edge_argvs
@given(st.one_of(st.lists(_TOKEN, max_size=6),
                 st.builds(lambda name, rest: [name, *rest],
                           st.sampled_from(list(_COMMANDS)), st.lists(_TOKEN, max_size=8))))
def test_parser_for_argv_parses_like_the_full_parser(argv):
    # build_parser(argv) builds only the subcommand argv[0] names; argparse
    # then runs that subparser on the rest of argv, so nothing it parses,
    # prints or raises can differ from the parser with every subcommand
    assert _parse_outcome(build_parser(argv), argv) == _parse_outcome(build_parser(), argv)


# values for the reader's comparison: integers good and bad (a sign, spaces,
# a non-ASCII digit, an underscore), the choices of --degree-zero and one
# that is not, the grammars' texts, and values that start with "-"
_VALUE = st.sampled_from(["5", "0", "3", "+3", " 7", "-1", "٣", "1_0", "x", "", "y^2 - x^3",
                          "x,y", "1/2@inf", "3..7", "trivial", "generic", "bogus",
                          "ruled:g=2,d=3", "-x + y", "--p"])


def _chunks(name):
    """Pieces of an argv for subcommand `name`: mostly one of its own flags
    with a value, then a switch, then any token at all."""
    own = st.sampled_from([_FLAGS[key][0] for key in _COMMANDS[name][1]])
    pair = st.tuples(own, _VALUE).map(list)
    return st.one_of(pair, pair, pair, st.sampled_from(_SWITCHES).map(lambda s: [s]),
                     _TOKEN.map(lambda t: [t]))


_COMMAND_ARGVS = st.sampled_from(list(_COMMANDS)).flatmap(
    lambda name: st.lists(_chunks(name), max_size=5).map(
        lambda chunks: [name, *itertools.chain.from_iterable(chunks)]))

# the shapes the reader leaves to argparse: a flag's value written with "=",
# a value that starts with "-", a non-ASCII digit, a value outside choices,
# "--", -h and a flag with no value
_DEFERRED_ARGVS = [
    ["fpt", "--p=7"], ["fpt", "--p", "-1"], ["fpt", "--p", "٣"],
    ["kappa", "--degree-zero", "bogus"], ["kgfr", "--", "--p", "5"], ["kgfr", "-h"],
    ["fpt", "--p", "5", "--poly"],
]


def test_read_argv_pins():
    args = _read_argv(["fpt", "--emax", "3", "--p", "5", "--emax", "2", "--json"])
    assert vars(args) == {"command": "fpt", "p": 5, "poly": None, "vars": None, "emax": 2,
                          "json": True, "strict": False, "timings": False}
    for argv in _DEFERRED_ARGVS + [["nosuch"], ["--json", "kgfr"], []]:
        assert _read_argv(argv) is None, argv


def test_read_argv_reads_like_argparse():
    # the reader returns None or what the full parser gives, and prints
    # nothing; the draws lean on each subcommand's own flags so that a real
    # share of them is read rather than deferred
    read = []

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @example(["fpt", "--emax", "3", "--emax", "2"])
    @given(st.one_of(_COMMAND_ARGVS, st.lists(_TOKEN, max_size=6)))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _read_argv(argv)
        assert out.getvalue() == err.getvalue() == "", argv
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv)), argv
        read.append(args is not None)

    check()
    assert sum(read) >= 0.15 * len(read), (sum(read), len(read))


_WORKLOAD_ARGVS_READ = """
import sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
from frobsplit.cli import _read_argv
from workloads import WORKLOADS, queries
argvs = [q["argv"] + ["--json"] for name in WORKLOADS for seed in (1, 5, 17)
         for q in queries(name, seed)]
print(len(argvs), [argv for argv in argvs if _read_argv(argv) is None])
"""


def test_reader_serves_every_workload_and_readme_call():
    # the fast path is worth having only if the real traffic takes it
    for argv in _readme_argvs():
        assert vars(_read_argv(argv)) == vars(build_parser(argv).parse_args(argv)), argv
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _WORKLOAD_ARGVS_READ, str(root)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, deferred = proc.stdout.split(" ", 1)
    assert int(count) > 900 and deferred.strip() == "[]", proc.stdout


# sha256 over (argv, exit or SystemExit code, stdout, stderr) of cli.run on
# the top-level help, usage and error argvs and on each subcommand's help,
# usage and flag errors, at COLUMNS=80, taken while every subparser had -h
# and re-taken when --budget left gfr-p1, kgfr and scan.
# argparse's help layout differs between Python versions; this is 3.11's
_HELP_OUTPUTS_SHA256 = "437fcb4a3b700858136e2502b8cc48d1fdea6778393dd34ad6e22a63b8df2be0"


def _help_argvs():
    argvs = [[], ["--help"], ["-h"], ["--version"], ["nosuch"], ["fpt"], ["fpt", "--bogus"]]
    for name in _COMMANDS:
        argvs += [[name, "--help"], [name, "-h"], [name, "--p", "x"], [name, "--e"]]
    return argvs


def test_help_and_usage_outputs_pinned(monkeypatch):
    # help text wraps at the terminal width, which argparse reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    argvs = _help_argvs()
    assert len(argvs) == 67
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)[0]
            except SystemExit as exc:
                code = ["SystemExit", exc.code]
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert digest.hexdigest() == _HELP_OUTPUTS_SHA256


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def _assert_complete(name, sp):
    """The subcommand has its -h, its flags and --json/--strict/--timings."""
    options = {opt for action in sp._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--json", "--strict", "--timings",
                       *(_FLAGS[key][0] for key in _COMMANDS[name][1])}, name


def test_parser_has_the_named_subcommand_or_all(monkeypatch):
    # a command first builds that subcommand's parser alone, with no
    # subparsers action; any other argv builds the full parser with all
    for name in _COMMANDS:
        parser = build_parser([name, "--p", "5"])
        assert parser._subparsers is None, name
        assert parser.prog == f"frobsplit {name}"
        _assert_complete(name, parser)
    for parser in (build_parser(["--json", "kgfr"]), build_parser()):
        subparsers = _subparsers(parser)
        assert list(subparsers) == list(_COMMANDS)
        for name, sp in subparsers.items():
            _assert_complete(name, sp)
    # a workload-shaped call (command first, each flag with its value) is
    # read from the flag table and builds no parser; help and a bad value
    # build that subcommand's parser alone
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name in _COMMANDS:
        for argv in ([name, "-h"], [name, "--p", "x"]):
            built.clear()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    run(argv)
                except SystemExit:
                    pass
            assert built == [f"frobsplit {name}"], argv
    argvs = [["kgfr", "--p", "5"], ["fpt", "--p", "5", "--poly", "x^2", "--vars", "x"],
             ["gfs-p1", "--p", "5", "--divisor", "1/2@0,1/2@1,1/2@2,1/2@inf"],
             ["gfr-p1", "--p", "5", "--divisor", "1/2@inf,1/4@3+2t,1/4@3+3t"],
             ["fedder-nu", "--p", "5", "--poly", "y^2 - x^3", "--vars", "x,y"],
             ["gfs-cy", "--p", "7", "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z"],
             ["cbf", "--p", "7"], ["supersingular", "--p", "101"]]
    for argv in argvs:
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv + ["--json"])[0] == 0, argv
        assert built == [], argv


def test_documented_polynomials_parse():
    # the size guard on powers must pass every polynomial the README and the
    # benchmark workloads use (the catalog carries no polynomial text)
    block = README.read_text().split("## Command line", 1)[1]
    args = shlex.split(block.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " "),
                       comments=True)
    readme = [(args[i + 1], args[args.index("--vars", i) + 1].split(","))
              for i, a in enumerate(args) if a == "--poly"]
    assert len(readme) == 4
    cones = [f"y^2*z-x*(x-z)*(x-{lam}*z)" for lam in range(2, 31)]
    workloads = ([(f, ["x", "y"]) for f in ("y^2-x^3+x^2", "y^2-x^3")]
                 + [(f, ["x", "y", "z"]) for f in ["x^3+y^3+z^3", "x^9*y^9*z^9"] + cones]
                 + [("x^4+y^4+z^4+w^4", ["x", "y", "z", "w"])])
    for p in (3, 5, 7, 11, 13, 23, 31):
        for text, names in readme + workloads:
            assert not parse_poly(text, names, p).is_zero(), (text, p)


def test_cover_check_subcommand(capsys):
    code, rep = _json_report(
        ["cover-check", "--p", "5", "--cover", "legendre", "--lambda", "2",
         "--divisor", "1/2@0,1/2@1,1/2@2,1/2@inf", "--e", "1"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["agree"] and r["verdicts_agree"]


def test_cbf_subcommand(capsys):
    code, rep = _json_report(["cbf", "--p", "5"], capsys)
    assert code == 0
    assert rep["results"]["match"] is True


def test_decision_commands_build_no_field_elements(field_elements_built, capsys):
    # points, roots, binomials, coefficients and values at points are ints
    # and int pairs: field objects are built only for the values hasse
    # returns and for point counts, never on these paths
    for cached in (supersingular_report, f_discriminant_legendre, hasse_closed_symbolic,
                   hasse_coeff_symbolic):
        cached.cache_clear()
    for argv in (
        ["kgfr", "--p", "13"],
        ["fdisc", "--p", "29"],
        ["supersingular", "--p", "61"],
        ["supersingular", "--p", "199"],
        ["gfs-p1", "--p", "7", "--divisor", "1/2@1+3t,1/4@6,1/2@inf,1/2@4+3t,1/4@3+4t"],
        ["gfr-p1", "--p", "5", "--divisor", "1/3@2+4t,1/3@3,1/3@inf,1/6@3+4t"],
        ["gfs-cy", "--p", "7", "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z"],
        ["gfs-bigraded", "--p", "5", "--poly", "x*y*u + y*z*v", "--vars", "x,y,z,u,v",
         "--groups", "3,2"],
        ["cbf", "--p", "11"],
        ["fpt", "--p", "5", "--poly", "y^2 - x^3", "--vars", "x,y"],
        ["fedder-nu", "--p", "7", "--poly", "x^2 + y^3", "--vars", "x,y", "--e", "2"],
        ["cover-check", "--p", "7", "--cover", "squaring", "--divisor", "1/2@0,1/2@inf",
         "--e", "2"],
        ["cover-check", "--p", "5", "--cover", "legendre", "--lambda", "2",
         "--divisor", "1/2@0,1/2@1,1/2@2,1/2@inf,1/4@3"],
    ):
        assert run(argv + ["--json"])[0] == 0, argv
        assert field_elements_built == [], argv
    capsys.readouterr()


def test_kappa_subcommand(capsys):
    code, rep = _json_report(["kappa", "--genus", "2", "--degree", "-2"], capsys)
    assert code == 0
    assert rep["results"]["kappa"] == "-inf" and rep["results"]["certified"]
    code, rep = _json_report(["kappa", "--case", "legendre:p=5"], capsys)
    assert code == 0
    assert rep["results"]["kappa_total"] == "1"
    # --mmax reaches the case: the fixed-part bounds are tabled at m_max
    code, rep = _json_report(["kappa", "--case", "ruled:g=2,d=3", "--mmax", "3"], capsys)
    assert code == 0
    assert rep["results"]["hypothesis_flags"]["fixed_part_bounds"] == {
        "1": "2", "3": "5/3", "5": "7/5", "10": "7/5"}


def test_byte_identical_output(capsys):
    main(["kgfr", "--p", "7", "--json"])
    first = capsys.readouterr().out
    main(["kgfr", "--p", "7", "--json"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["timings_ms"] is None


def test_hasse_table_out(tmp_path, capsys):
    out = tmp_path / "hasse.csv"
    code, rep = _json_report(["hasse", "--p", "7", "--out", str(out)], capsys)
    assert code == 0 and rep["results"]["table_rows"] == 5
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,lambda,hasse,count,ordinary"


def test_timings_flag(capsys):
    code, rep = _json_report(["fdisc", "--p", "3", "--timings"], capsys)
    assert code == 0
    assert isinstance(rep["timings_ms"], int)
    # timings live in the envelope only, never in a results payload
    code, rep = _json_report(["kgfr", "--p", "3", "--timings"], capsys)
    assert code == 0 and isinstance(rep["timings_ms"], int)
    assert "timings_ms" not in rep["results"]


def test_text_mode_renders(capsys):
    code = main(["fdisc", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree = 1" in out


# sha256 of `supersingular --p P --json` stdout, taken from the full-degree
# root finder (re-taken at schema version 2, which changed only that line), and
# at 4001, where E has degree 1000, from the Taylor shift of H_p by 1/2: a
# change of root finder must not reorder or change the roots.  15073, the
# first prime at which every class-number-one order splits, takes the walk's
# j-scan start; its digest is the gcd route's on the half-degree polynomial.
# 18313, the next such prime, was taken from the j-scan before its
# [p + 1]P = O test, when the start took about 9 s
_SUPERSINGULAR_SHA256 = {
    101: "b13d2f86ee2d4b0b9c5dfcb33b120f5420fa87338f24780561811068942326a3",
    199: "71c2d4771ee7182978261bed0d9c5811cb32e8acb3c9a35448954873c97b6fdd",
    1009: "ac2919b8cd4992a12b7b9d92957bc7280df0cbd9550a6ecd254dec5979970fb9",
    4001: "a5adb7f286f055b889784e373cd81f76c6b2841968e4acc5cbfb8f02886e0a15",
    15073: "83220628e3dfaf1b0c1d4b51ebeae769b270f8fde20ccca4152db238a8feb90a",
    18313: "d85a271694521871f5e90f6b5e2fadc3c15a3d3fb97118a8947c8f0a0d7762b6",
}


def test_supersingular_json_pinned(capsys):
    for p, digest in _SUPERSINGULAR_SHA256.items():
        assert main(["supersingular", "--p", str(p), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, p


# sha256 of `gfs-cy --p P --poly F --vars ... --json` stdout, taken from the
# half power, where each took 0.1 to 2 s; the lattice sum now decides them
_GFS_CY_SHA256 = {
    ("x^4+y^4+z^4+w^4", 101):
        "6f388c34a2e4a0d69f2dde88743a60e460ffdb3d7deae7ce028c1bbb53524ec8",
    ("x^4+y^4+z^4+w^4-12*x*y*z*w", 101):
        "299de6ced7c1f6eb5728e593bad932fede56596173d1d757bb0b0770db8d25b8",
    ("y^2*z-x*(x-z)*(x-2*z)", 101):
        "5abf67e5ace62b714e230c162b0d205597186e8ccd86788e4cd3e013198e749d",
    ("y^2*z-x*(x-z)*(x-3*z)", 101):
        "d2683f25827fbe3162b65848dcae04a4e9d407db859a1ca39db1e29853d9119f",
    ("y^2*z-x*(x-z)*(x-4*z)", 101):
        "259dee3dfd668e706ef207036a49ada7c85b80cc3aab41e090fee6885964840b",
    ("y^2*z-x*(x-z)*(x-5*z)", 101):
        "8d17f31c3e29577611b188db38100a03a62928d1e4c73d023c6fa617c6f35ebd",
    ("x^3+y^3+z^3", 211):
        "1b33dd40e1731632426f9104b66bd362d38964704609246fa0d605e85ca0b311",
}


def test_gfs_cy_json_pinned(capsys):
    for (poly, p), digest in _GFS_CY_SHA256.items():
        names = "x,y,z,w" if "w" in poly else "x,y,z"
        assert main(["gfs-cy", "--p", str(p), "--poly", poly, "--vars", names, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (poly, p)


# sha256 of stdout for the Legendre-fibration decisions, taken from the
# searching routes and re-taken at schema version 2, where the base evidence
# lost perturbation_budget, points_tested and truncated: deciding them by
# proof must not change a byte
_FIBRATION_SHA256 = {
    "scan --range 3..400 --json":  # 77 KGFR, every family decided in full
        "c30c0212f56c253bf354a65c9b571bc2a4fb783fc447631f502d4457f63dc97b",
    "kgfr --p 101 --json":
        "738520535dad11ba1cd85a56a88cfc418871fc983c5152777217689346d55df1",
    "kgfr --p 151 --json":  # p^2 + 1 = 22802 centres, all decided: yes
        "07bd87053bd782a4bebbe6c2bdd08eb15da67af23527725c2fd4714b62fb7660",
    "cbf --p 23 --bigraded-pmax 23 --json":
        "cd3fb46092bcf6c22d2b8f243a9428d78a622029bb25c8df46ebf7c0f234def2",
    "cbf --p 29 --json":  # past the default --bigraded-pmax: a null total side
        "8c5d8e5d22b871946d429ffda1d4010259b09d8f9ef2f7f5e4c92ee409f74188",
}


def test_fibration_json_pinned(capsys):
    for command, digest in _FIBRATION_SHA256.items():
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# sha256 of stdout for report shapes no benchmark workload sends, taken from
# json.dumps(report, indent=2, default=str) before the direct writer served
# --json: the writer must not change a byte of them
_REPORT_SHAPES_SHA256 = {
    "catalog --json":
        "cf4eee8d785db9df836759c6bf441e431ec43dc3a5ed1cfea656124098c0f6b1",
    "kappa --case ruled:g=2,d=3 --json":
        "ef64fe06a67406250ed3cefee4850e28f126464c8fdbdd98f04ae2b42d8db1ea",
    "hasse --p 7 --lambda 3 --json":
        "dafc492a832f23997b3df5adc631d733a36d7eed7e29619d24beeab03013b813",
    "fdisc --p 5 --json":
        "f3cdff2280bdf5c4d9abaea6c3ec623b37b56286e386bfcb9918ebf0036016c6",
    "cover-check --p 5 --cover legendre --lambda 2 --divisor 1/2@0,1/2@1,1/2@2,1/2@inf "
    "--e 1 --json":
        "a2abc33113691508511121047880a7fe39d4d158a57a8639c2433dab159e74b3",
    "gfs-bigraded --p 5 --poly x^2*u+y^2*v --vars x,y,u,v --groups 2,2 --json":
        "b9c4bfee833ff393440dff6ceab0fbe2d9e37c2ff4747ac57726d828c137bfe8",
}


def test_report_shapes_json_pinned(capsys):
    for command, digest in _REPORT_SHAPES_SHA256.items():
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


class _Pair(NamedTuple):
    left: object
    right: object


class _Level(IntEnum):
    ONE = 1


# every kind of value json.dumps(default=str) takes: the writer's own types,
# and those it hands back to json.dumps (floats, tuples, a NamedTuple,
# Fraction and other subclasses, dicts with non-str keys)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]),
    st.fractions(), st.sampled_from([_Level.ONE]),
    st.text(), st.text(st.characters(max_codepoint=0x7F)),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r", "\u00e9\u2028\U0001d11e"]))
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.builds(_Pair, inner, inner),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    st.dictionaries(_JSON_KEYS, inner, max_size=4)), max_leaves=24)


def _deep(depth):
    obj = []
    for i in range(depth):
        obj = {"level": i, "inner": [obj, {}, []]}
    return obj


def test_json_writer_matches_json_dumps():
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_JSON_VALUES)
    @example(_deep(60))
    @example({"a": [1, True, 0, False, None, 10 ** 40, -(10 ** 40)], "b": {}, "c": [],
              "d": (1, [2.5, {1: "y"}]), "e": _Pair(Fraction(1, 3), [float("nan"), -0.0]),
              "f": {1: 1, False: 0, None: [], 2.5: {}, float("inf"): -0.0, "s": ()},
              "g": ['"\\', "\x00\x1f", "\u00e9\u2028\U0001d11e"], "\u00e9\n": _Level.ONE})
    def check(obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, default=str)

    check()


# sha256 over (argv, exit code, stdout, stderr) of cli.run on every query of
# the three benchmark workloads at seed 1, with and without --json, taken
# while the result records were dataclasses (json.dumps(default=str) prints
# a NamedTuple as an array where it printed a dataclass as its repr, so a
# record reaching a report would change these bytes) and re-taken at schema
# version 2, which dropped three GFR evidence fields
_WORKLOAD_OUTPUTS_SHA256 = "61fb9b1f8f9f02af12048f4713dc02d74c6af7d89d7bab2a62f6b9fd29a214b5"

_WORKLOAD_OUTPUTS = """
import contextlib, hashlib, io, json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
import frobsplit.cli as cli
from workloads import WORKLOADS, queries
digest, count = hashlib.sha256(), 0
for name in WORKLOADS:
    for q in queries(name, 1):
        for argv in (q["argv"], q["argv"] + ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, _ = cli.run(argv)
            line = json.dumps([argv, code, out.getvalue(), err.getvalue()])
            digest.update(line.encode() + b"\\n")
            count += 1
print(count, digest.hexdigest())
"""


def test_workload_outputs_pinned():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _WORKLOAD_OUTPUTS, str(root)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    count, digest = proc.stdout.split()
    assert int(count) > 600, count
    assert digest == _WORKLOAD_OUTPUTS_SHA256


_VERSION_PROBE = ("import platform, sys; "
                  "print(platform.python_implementation(), *sys.version_info[:3])")


def _python_floor():
    """The version in pyproject's requires-python = ">=X.Y.Z", as a tuple."""
    floor, = (line.split('">=')[1].rstrip('"') for line in PYPROJECT.read_text().splitlines()
              if line.startswith("requires-python"))
    return tuple(map(int, floor.split(".")))


def test_declared_python_floor_has_the_int_digit_limit():
    # arith.read_int and cli._printed_level call sys.get_int_max_str_digits(),
    # which CPython added in 3.10.7; the digit ceilings rest on it
    assert _python_floor() >= (3, 10, 7)


def _other_cpythons():
    """The oldest and the newest CPython at or above pyproject's floor other
    than the running version, at most two interpreters, from the python3
    and python3.N commands on PATH and the pyenv versions under $PYENV_ROOT
    (default ~/.pyenv)."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    candidates = sorted(pyenv.glob("*/bin/python3"))
    for d in os.environ.get("PATH", "").split(os.pathsep):
        candidates += sorted(p for p in Path(d or ".").glob("python3*") if p.name == "python3"
                             or p.name[:8] == "python3." and p.name[8:].isdigit())
    found = {}
    for exe in dict.fromkeys(str(p.resolve()) for p in candidates if os.access(p, os.X_OK)):
        try:
            proc = subprocess.run([exe, "-c", _VERSION_PROBE], capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        impl, *version = proc.stdout.split() or ["?"]
        if proc.returncode == 0 and impl == "CPython":
            found.setdefault(tuple(map(int, version)), exe)
    floor = _python_floor()
    versions = sorted(v for v in found if v >= floor and v != tuple(sys.version_info[:3]))
    return [found[v] for v in dict.fromkeys(versions[:1] + versions[-1:])]


def test_workload_outputs_pinned_on_the_declared_python_floor():
    # the oldest and the newest other CPython at or above pyproject's
    # requires-python floor must print the same bytes as this one
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython at or above the floor on PATH or under pyenv")
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    for exe in interpreters:
        proc = subprocess.run([exe, "-c", _WORKLOAD_OUTPUTS, str(root)], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, (exe, proc.stderr)
        assert proc.stdout.split()[1] == _WORKLOAD_OUTPUTS_SHA256, exe


_IMPORT_CLI = """
import contextlib, io, json, sys, types
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
before = set(sys.modules)
stages = {}


def stage(label):
    # the modules new since `before`, those of kappa and cover whose code has
    # run (type() reads no attribute, so a deferred module stays so), and
    # those the package binds as the one in sys.modules
    package = vars(sys.modules["frobsplit"])
    found = {name: sys.modules.get("frobsplit." + name) for name in ("kappa", "cover")}
    stages[label] = (sorted(set(sys.modules) - before),
                     [name for name, mod in found.items() if type(mod) is types.ModuleType],
                     [name for name, mod in found.items() if mod and package.get(name) is mod])


import frobsplit
stage("package")
import frobsplit.cli as cli
stage("cli")
from workloads import WORKLOADS, queries
first = {}
for name in WORKLOADS:
    for q in queries(name, 1):
        first.setdefault(q["kind"], q["argv"])
for argv in first.values():
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = cli.run(argv + ["--json"])
    assert code == 0, argv
stage("queries")
print(json.dumps({"file": cli.__file__, "kinds": sorted(first), "stages": stages}))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # a fresh `frobsplit` call pays for every module the CLI import loads:
    # dataclasses brings inspect (and ast, dis, tokenize) along, csv is
    # needed only where --out writes a file, argparse (with gettext) only
    # for help, usage and errors, and the kappa and cover modules only for
    # kappa, catalog and cover-check, so those two are in sys.modules but
    # not yet run.  The same holds after one query of each workload kind.
    # The modules new after the import are compared, so what site loads
    # first does not matter; `import frobsplit` alone runs no submodule
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI, str(root)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert Path(found["file"]).parent == root / "src" / "frobsplit", found["file"]
    assert {"supersingular", "kgfr"} <= set(found["kinds"]), found["kinds"]
    new, ran, _ = found["stages"]["package"]
    assert not [name for name in new if name.startswith("frobsplit.")] and not ran, new
    for stage in ("cli", "queries"):
        new, ran, bound = found["stages"][stage]
        assert "frobsplit.cli" in new, (stage, new)
        assert not set(new) & {"dataclasses", "inspect", "csv", "argparse", "gettext"}, \
            (stage, new)
        assert ran == [] and bound == ["kappa", "cover"], (stage, ran, bound)


# one call for each piece the CLI import defers: the kappa module (kappa,
# catalog), the cover module (cover-check) and argparse (help, an error)
_DEFERRED_CALLS = [
    ["kappa", "--case", "ruled:g=2,d=3", "--json"],
    ["catalog", "--case", "product:ordinary=false"],
    ["cover-check", "--p", "5", "--cover", "legendre", "--lambda", "2",
     "--divisor", "1/2@0,1/2@1,1/2@2,1/2@inf", "--json"],
    ["--help"],
    ["fpt", "--p", "x"],
]


def test_deferred_pieces_work_from_a_fresh_interpreter(monkeypatch):
    # each call is the first use of its piece in a fresh interpreter, which
    # must print what the same call prints here and exit with its code
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = "import sys; from frobsplit.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for argv in _DEFERRED_CALLS:
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=120, env=env)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, out.getvalue(), err.getvalue()), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 1], codes


def test_run_returns_report():
    code, rep = run(["supersingular", "--p", "7", "--json"])
    assert code == 0
    assert rep["results"]["root_count"] == 3


_TRACED_QUERIES = """
import contextlib, io, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
import frobsplit.cli as cli
from spans import Tracer
from workloads import WORKLOADS, queries
tracer = Tracer()
tracer.install()
first = {}
for name in WORKLOADS:
    for q in queries(name, 1):
        first.setdefault(q["kind"], q["argv"])
# the kappa module's spans, which no workload reaches
first["catalog"] = ["catalog", "--case", "product:ordinary=false"]
first["kappa"] = ["kappa", "--case", "ruled:g=2,d=3"]
for argv in first.values():
    with contextlib.redirect_stdout(io.StringIO()):
        code, _ = cli.run(argv + ["--json"])
    assert code == 0, argv
calls = tracer.summary()["calls"]
print(sorted(first))
print(sorted(name for name in calls if name.startswith("kappa.")))
print(len(first), calls["cli.run"], calls.get("cli.build_parser", 0))
"""


def test_benchmark_tracer_installs_and_runs():
    # bench/spans.py looks up frobsplit's modules and MPoly methods by name
    # (MPOLY_METHODS), so renaming or deleting one breaks `--trace 1`; one
    # query of each workload kind runs with the spans installed
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _TRACED_QUERIES, str(root)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "'supersingular'" in proc.stdout and "'kgfr'" in proc.stdout, proc.stdout
    assert "'catalog'" in proc.stdout and "'kappa'" in proc.stdout, proc.stdout
    assert "'kappa.check_superadditivity'" in proc.stdout, proc.stdout
    # every query is read from the flag table: cli.build_parser is never called
    queries, runs, builds = map(int, proc.stdout.splitlines()[-1].split())
    assert builds == 0 and runs == queries, proc.stdout


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []: every import in the package
    # is __future__, relative, or a standard-library module.  Within the
    # package, upoly sits on arith alone and elliptic keeps off mpoly: a
    # univariate polynomial is an int list there, never an MPoly
    src = Path(__file__).resolve().parent.parent / "src" / "frobsplit"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    internal = {}
    for path in files:
        internal[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                if isinstance(node, ast.ImportFrom):
                    internal[path.stem].add(node.module or "")
                continue
            for top in tops:
                assert top == "__future__" or top in sys.stdlib_module_names, (path.name, top)
    assert internal["upoly"] == {"arith"}, internal["upoly"]
    assert "mpoly" not in internal["elliptic"], internal["elliptic"]
    assert internal["cover"] == {"arith", "upoly", "gsplit"}, internal["cover"]
    # kappa, cover and argparse stay out of start-up: no module imports
    # them where its own code runs, that is outside every function body;
    # the CLI reaches the first two through its _deferred helper alone
    for path in files:
        tops = set(_module_level_imports(ast.parse(path.read_text(), str(path))))
        assert not tops & {"kappa", "cover", "argparse"}, (path.name, tops)


def _module_level_imports(tree):
    """The first component of every module an import outside all function
    bodies names; `from . import x` names x."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_package_namespace_resolves_every_public_name():
    # `import frobsplit` runs no submodule: each name of __all__ is looked up
    # in its defining module on first use, and star-import and dir() see it
    import frobsplit
    star: dict = {}
    exec("from frobsplit import *", star)
    listed = dir(frobsplit)
    assert len(frobsplit.__all__) == len(set(frobsplit.__all__)) == 46
    for name in frobsplit.__all__:
        obj = getattr(frobsplit, name)
        home = frobsplit if name == "__version__" else sys.modules[obj.__module__]
        assert home.__name__.split(".")[0] == "frobsplit", name
        assert vars(home)[name] is obj, name
        assert star[name] is obj, name
        assert name in listed, name
    with pytest.raises(AttributeError) as info:
        frobsplit.no_such_name
    assert str(info.value) == "module 'frobsplit' has no attribute 'no_such_name'"
