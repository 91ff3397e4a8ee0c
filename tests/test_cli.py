import json
import shlex
from pathlib import Path

from frobsplit.cli import build_parser, main, run
from frobsplit.mpoly import parse_poly

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_report(argv, capsys):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_supersingular_p5(capsys):
    code, rep = _json_report(["supersingular", "--p", "5"], capsys)
    assert code == 0
    assert rep["schema_version"] == "1"
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
    code = main(["kgfr", "--p", "17", "--budget", "0", "--strict", "--json"])
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
        ["scan", "--range", "3..5", "--out", str(tmp_path / "missing" / "x.csv")],
        # a flag the subcommand does not read, and abbreviations
        ["fdisc", "--p", "5", "--poly", "x"],
        ["fpt", "--p", "5", "--poly", "x*y", "--vars", "x,y", "--e", "2"],
        ["gfr-p1", "--p", "5", "--divisor", "1/2@inf", "--bud", "3"],
        # a negative budget, a reversed range, zero workers
        ["gfr-p1", "--p", "5", "--divisor", "1/4@1", "--budget", "-1"],
        ["scan", "--range", "5..3"],
        ["scan", "--range", "3..7", "--workers", "0"],
        # a level below 1 for the two hypersurface criteria
        ["gfs-cy", "--p", "5", "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z", "--e", "0"],
        ["gfs-bigraded", "--p", "3", "--poly", "x*y*u", "--vars", "x,y,u,v",
         "--groups", "2,2", "--e", "0"],
        # a power whose expansion would never finish
        ["fedder-nu", "--p", "5", "--poly", "(x+y+1)^1000000000 - 1", "--vars", "x,y"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_readme_examples_parse():
    # every documented command line must be accepted by the parser
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [ln for ln in block.splitlines() if ln.startswith("frobsplit ")]
    assert len(lines) == 15
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


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


def test_kappa_subcommand(capsys):
    code, rep = _json_report(["kappa", "--genus", "2", "--degree", "-2"], capsys)
    assert code == 0
    assert rep["results"]["kappa"] == "-inf" and rep["results"]["certified"]
    code, rep = _json_report(["kappa", "--case", "legendre:p=5"], capsys)
    assert code == 0
    assert rep["results"]["kappa_total"] == "1"


def test_byte_identical_output(capsys):
    main(["kgfr", "--p", "7", "--json"])
    first = capsys.readouterr().out
    main(["kgfr", "--p", "7", "--json"])
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["timings_ms"] is None


def test_byte_identical_across_worker_counts(capsys):
    main(["scan", "--range", "3..13", "--json"])
    serial = capsys.readouterr().out
    main(["scan", "--range", "3..13", "--workers", "2", "--json"])
    parallel = capsys.readouterr().out
    assert serial == parallel


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


def test_text_mode_renders(capsys):
    code = main(["fdisc", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree = 1" in out


def test_run_returns_report():
    code, rep = run(["supersingular", "--p", "7", "--json"])
    assert code == 0
    assert rep["results"]["root_count"] == 3
