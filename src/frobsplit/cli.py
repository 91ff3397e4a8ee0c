"""Command-line surface: every operation behind one executable.

Reports are deterministic for fixed inputs: collections are emitted in
canonical order and timings are only included when --timings is passed (the
timings_ms field is null otherwise), so default output is byte-identical
across runs.  Exit codes: 0 success, 1 input error, 2 Unknown verdict under
--strict.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .arith import ZpViolationError, is_prime, parse_int
from .elliptic import (hasse_closed, hasse_coeff, supersingular_report,
                       write_hasse_table)
from .fedder import fpt_bounds, nu
from .fibration import (DEFAULT_BIGRADED_PMAX, cbf_sides, f_discriminant_legendre,
                        is_kgfr_legendre, prime_scan)
from .gsplit import (DEFAULT_EMAX, P1Divisor, P1Point, gfr_p1_bounded,
                     gfs_bigraded_hypersurface, gfs_cy_hypersurface, gfs_p1,
                     parse_divisor, parse_point)
from .mpoly import MPoly, PolyParseError, format_poly, parse_poly

SCHEMA_VERSION = "2"


def _deferred(name: str):
    """frobsplit.<name>, whose code runs on its first attribute read.

    importlib's LazyLoader puts the module in sys.modules and on the
    package now, as an import does, so every later import or lookup of it
    finds this one; a module already imported is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# the subcommands kappa, catalog and cover-check alone use these
kappa = _deferred("kappa")
cover = _deferred("cover")


def _opt(value, default):
    """Flag default that treats 0 as a real value, unlike `or`."""
    return default if value is None else value


class CliError(Exception):
    pass


def _int(text: str) -> int:
    """The type of every integer flag: int() on ASCII digits alone."""
    return parse_int(text)


_int.__name__ = "int"  # argparse's "invalid int value" message names the type


def _level(args, key: str, default: int, floor: int = 0) -> int:
    """--e or --emax, refused below `floor` (0 where e_max = 0 tests nothing,
    1 where a level is computed) and past sys.maxsize: the levels 1..e_max are
    listed, and no sequence is longer than that; a single level e gets the
    same ceiling, as no q = p^e past it fits in memory."""
    level = _opt(getattr(args, key), default)
    if level < floor:
        raise CliError(f"{_FLAGS[key][0]} must be at least {floor}, got {level}")
    if level > sys.maxsize:
        raise CliError(f"{_FLAGS[key][0]} must be at most {sys.maxsize}, got {level}")
    return level


def _printed_level(level: int, key: str, p: int) -> int:
    """A level of fedder-nu or fpt, refused before any work when q = p^e has
    more digits than sys.get_int_max_str_digits(), the most that str()
    prints: nu_f(q) < q as f(0) = 0, and q is the bracket's denominator, so
    no number these reports print is longer than q."""
    limit = sys.get_int_max_str_digits()
    size = level * math.log10(p)  # q has floor(size) + 1 digits; exact near the limit
    if limit and size > limit - 1 and (size > limit + 1 or p ** level >= 10 ** limit):
        raise CliError(f"{_FLAGS[key][0]} {level} gives q = {p}^{level}, of more than "
                       f"{limit} digits, the most that are printed")
    return level


def _require_prime(p: int) -> int:
    if p is None:
        raise CliError("--p is required")
    if p < 3 or not is_prime(p):
        raise CliError(f"p must be an odd prime >= 3, got {p}")
    return p


def _parse_lambda(text: str, p: int):
    """hasse's lambda as a field element: the one input the CLI does field
    arithmetic on."""
    pt = parse_point(text, p)
    if pt.is_infinity:
        raise CliError("lambda must be finite")
    return pt.element(p)


def _divisor_payload(B: P1Divisor) -> list[dict]:
    return [{"point": str(pt), "num": c.numerator, "den": c.denominator}
            for pt, c in B.sorted_entries()]


# -- subcommand handlers -------------------------------------------------------

def _elt_str(x) -> str:
    """A field element in parse_point's notation."""
    return str(P1Point((x.a, x.b)))


def _cmd_hasse(args) -> dict:
    p = _require_prime(args.p)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            rows = write_hasse_table(p, fh)
        if args.lam is None:
            return {"table_rows": rows, "out": args.out}
    if args.lam is None:
        raise CliError("--lambda is required (or --out for the full table)")
    lam = _parse_lambda(args.lam, p)
    closed = hasse_closed(lam, p)
    coeffc = hasse_coeff(lam, p)
    return {
        "lambda": _elt_str(lam),
        "hasse_closed": _elt_str(closed),
        "hasse_coeff": _elt_str(coeffc),
        "methods_agree": closed == coeffc,
        "ordinary": not closed.is_zero(),
    }


def _cmd_supersingular(args) -> dict:
    p = _require_prime(args.p)
    rep = supersingular_report(p)
    payload = {
        "poly": format_poly(MPoly(1, p, {(i,): c for i, c in enumerate(rep.poly)}), ["lam"]),
        "degree": len(rep.poly) - 1,
        "squarefree": rep.squarefree,
        "roots": [{"root": str(P1Point(r)), "multiplicity": m} for r, m in rep.roots],
        "root_count": rep.root_count,
        "expected_count": (p - 1) // 2,
    }
    if args.out:
        import csv
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["root", "multiplicity"])
            for r, m in rep.roots:
                writer.writerow([str(P1Point(r)), m])
    return payload


def _fdisc_payload(p: int) -> dict:
    rep = f_discriminant_legendre(p)
    return {
        "bY": _divisor_payload(rep.divisor),
        "degree": str(rep.degree),
        "fiber_table": {str(pt): label for pt, label in rep.fiber_table},
    }


def _cmd_fdisc(args) -> dict:
    return _fdisc_payload(_require_prime(args.p))


def _poly_from_args(args):
    p = _require_prime(args.p)
    if not args.poly or not args.vars:
        raise CliError("--poly and --vars are required")
    names = [v.strip() for v in args.vars.split(",")]
    try:
        return parse_poly(args.poly, names, p), names
    except PolyParseError as exc:
        raise CliError(f"bad polynomial: {exc}") from exc


def _cmd_fedder_nu(args) -> dict:
    f, names = _poly_from_args(args)
    e = _printed_level(_level(args, "e", 1, floor=1), "e", f.p)
    return {"poly": format_poly(f, names), "e": e, "nu": nu(f, e)}


def _cmd_fpt(args) -> dict:
    f, names = _poly_from_args(args)
    seq = fpt_bounds(f, _printed_level(_level(args, "emax", 3, floor=1), "emax", f.p))
    e_max, nu_max = seq.values[-1]
    return {
        "poly": format_poly(f, names),
        "values": [{"e": e, "nu": v} for e, v in seq.values],
        "fpt_lower": str(seq.fpt_lower),
        "fpt_upper": str(seq.fpt_upper),
        # f^(q-1) outside m^[q] iff nu(q) = q - 1, the most nu can be as f(0) = 0
        "fpure_at_one": nu_max == f.p ** e_max - 1,
    }


def _divisor_from_args(args) -> P1Divisor:
    p = _require_prime(args.p)
    if args.divisor is None:
        raise CliError("--divisor is required")
    try:
        return parse_divisor(args.divisor, p)
    except (ValueError, ZpViolationError) as exc:
        raise CliError(f"bad divisor: {exc}") from exc


def _cmd_gfs_p1(args) -> dict:
    B = _divisor_from_args(args)
    verdict = gfs_p1(B, e_max=_level(args, "emax", DEFAULT_EMAX))
    return {"divisor": _divisor_payload(B), "verdict": verdict.to_dict()}


def _cmd_gfr_p1(args) -> dict:
    B = _divisor_from_args(args)
    verdict = gfr_p1_bounded(B, e_max=_level(args, "emax", DEFAULT_EMAX))
    return {"divisor": _divisor_payload(B), "verdict": verdict.to_dict()}


def _cmd_gfs_cy(args) -> dict:
    f, names = _poly_from_args(args)
    return {"poly": format_poly(f, names),
            "split": gfs_cy_hypersurface(f, _level(args, "e", 1, floor=1))}


def _cmd_gfs_bigraded(args) -> dict:
    f, names = _poly_from_args(args)
    if not args.groups:
        raise CliError("--groups is required, e.g. --groups 3,2")
    try:
        g1, g2 = (parse_int(x) for x in args.groups.split(","))
    except ValueError:
        raise CliError(f"--groups needs two integer sizes, got {args.groups!r}") from None
    return {
        "poly": format_poly(f, names),
        "groups": [g1, g2],
        "split": gfs_bigraded_hypersurface(f, (g1, g2), _level(args, "e", 1, floor=1)),
    }


def _cmd_cover_check(args) -> dict:
    p = _require_prime(args.p)
    if args.cover == "squaring":
        double_cover = cover.DoubleCover.squaring_map(p)
    elif args.cover == "legendre":
        if args.lam is None:
            raise CliError("--lambda is required for the legendre cover")
        lam = parse_point(args.lam, p).value
        if lam is None or lam[1]:
            raise CliError(f"lambda must lie in F_{p} for the legendre cover, got {args.lam!r}")
        double_cover = cover.DoubleCover.legendre(lam[0], p)
    else:
        raise CliError("--cover must be 'squaring' or 'legendre'")
    B = _divisor_from_args(args)
    rep = cover.pushforward_splitting_check(double_cover, B, _level(args, "e", 1, floor=1))
    return {
        "cover": double_cover.name,
        "divisor": _divisor_payload(B),
        "agree": rep.agree,
        "source_gfs": rep.source_gfs,
        "target_gfs": rep.target_gfs,
        "verdicts_agree": rep.verdicts_agree,
        "monomials_tested": rep.monomials_tested,
    }


def _cmd_kgfr(args) -> dict:
    p = _require_prime(args.p)
    verdict = is_kgfr_legendre(p, e_max=_level(args, "emax", DEFAULT_EMAX))
    return {"prime": p, **_fdisc_payload(p), "kgfr": verdict.to_dict()}


def _cmd_scan(args) -> dict:
    if not args.range:
        raise CliError("--range a..b is required")
    try:
        lo, hi = (parse_int(x) for x in args.range.split(".."))
    except ValueError as exc:
        raise CliError("--range must look like 3..31") from exc
    report = prime_scan(lo, hi, e_max=_level(args, "emax", DEFAULT_EMAX))
    payload = report.to_dict()
    if args.out:
        import csv
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["prime", "overall", "fiber_gfs", "base_status"])
            for r in report.rows:
                writer.writerow([r.prime, r.overall, r.fiber_gfs, r.base_status])
    return payload


def _cmd_cbf(args) -> dict:
    sides = cbf_sides(_require_prime(args.p), e_max=_level(args, "emax", DEFAULT_EMAX, floor=1),
                      pmax=_opt(args.bigraded_pmax, DEFAULT_BIGRADED_PMAX))
    return {"total_space_gfs": sides.total, "base_couple_gfs": sides.base,
            "match": sides.match}


def _cmd_kappa(args) -> dict:
    m_max = _opt(args.mmax, 20)
    if args.case:
        if any(v is not None for v in (args.genus, args.degree, args.degree_zero)):
            raise CliError("--case does not take --genus, --degree or --degree-zero")
        case_id, params = _parse_case(args.case)
        return kappa.check_superadditivity(case_id, m_max, **params).to_dict()
    if args.genus is None or args.degree is None:
        raise CliError("kappa needs --case or both --genus and --degree")
    src = kappa.CurveSectionGrowth(args.genus, args.degree, args.degree_zero)
    res = kappa.kappa_estimate(src, m_max)
    return {
        "genus": args.genus,
        "degree": args.degree,
        "kappa": res.describe(),
        "certified": res.certified,
        "evidence": [{"m": iv.m, "lower": iv.lower, "upper": iv.upper}
                     for iv in res.evidence],
        "note": res.note,
    }


def _parse_case(text: str) -> tuple[str, dict]:
    """`case:k=v,...` into the case and its k=v pairs; v is true, false or an integer."""
    case_id, _, params_str = text.partition(":")
    params: dict = {}
    if params_str:
        for chunk in params_str.split(","):
            key, _, val = chunk.partition("=")
            key, val = key.strip(), val.strip()
            if not val:
                raise CliError(f"bad case parameter {chunk!r}")
            if key in params:
                raise CliError(f"repeated case parameter {key!r}")
            try:
                params[key] = (val == "true") if val in ("true", "false") else parse_int(val)
            except ValueError:
                raise CliError(f"bad case parameter {chunk!r}: "
                               "expected true, false or an integer") from None
    return case_id.strip(), params


def _cmd_catalog(args) -> dict:
    rows = kappa.CATALOG
    if args.case:
        case_id, params = _parse_case(args.case)
        kappa.case_params(case_id, params)  # refuse bad keys first: 1 would match True
        rows = [row for row in kappa.CATALOG
                if row[0] == case_id
                and all(row[1].get(k) == v for k, v in params.items())]
        if not rows:
            rows = [(case_id, params, {}, "ad-hoc")]
    results = []
    for case_id, params, expected, basis in rows:
        rep = kappa.check_superadditivity(case_id, **params)
        ok, problems = kappa.match_expectation(rep, expected)
        results.append({
            "case": case_id,
            "params": {k: str(v) for k, v in sorted(params.items())},
            "basis": basis,
            "report": rep.to_dict(),
            "matches_expected": ok,
            "problems": problems,
        })
    return {"cases": results, "all_match": all(r["matches_expected"] for r in results)}


# Every flag a subcommand may read, in the order reports echo them: the
# option string and its add_argument keywords, keyed by its dest.
_FLAGS = {
    "p": ("--p", {"type": _int}),
    "lam": ("--lambda", {}),
    "e": ("--e", {"type": _int}),
    "emax": ("--emax", {"type": _int}),
    "poly": ("--poly", {}),
    "vars": ("--vars", {}),
    "divisor": ("--divisor", {}),
    "groups": ("--groups", {}),
    "cover": ("--cover", {}),
    "range": ("--range", {}),
    "case": ("--case", {}),
    "genus": ("--genus", {"type": _int}),
    "degree": ("--degree", {"type": _int}),
    "degree_zero": ("--degree-zero", {"choices": ["trivial", "generic"]}),
    "mmax": ("--mmax", {"type": _int}),
    "bigraded_pmax": ("--bigraded-pmax", {"type": _int}),
    "out": ("--out", {}),
}

# Each subcommand: its handler and the flags that handler reads.  Every
# subcommand also takes --json, --strict and --timings.
_COMMANDS = {
    "hasse": (_cmd_hasse, ("p", "lam", "out")),
    "supersingular": (_cmd_supersingular, ("p", "out")),
    "fdisc": (_cmd_fdisc, ("p",)),
    "fedder-nu": (_cmd_fedder_nu, ("p", "poly", "vars", "e")),
    "fpt": (_cmd_fpt, ("p", "poly", "vars", "emax")),
    "gfs-p1": (_cmd_gfs_p1, ("p", "divisor", "emax")),
    "gfr-p1": (_cmd_gfr_p1, ("p", "divisor", "emax")),
    "gfs-cy": (_cmd_gfs_cy, ("p", "poly", "vars", "e")),
    "gfs-bigraded": (_cmd_gfs_bigraded, ("p", "poly", "vars", "groups", "e")),
    "cover-check": (_cmd_cover_check, ("p", "cover", "lam", "divisor", "e")),
    "kgfr": (_cmd_kgfr, ("p", "emax")),
    "cbf": (_cmd_cbf, ("p", "emax", "bigraded_pmax")),
    "scan": (_cmd_scan, ("range", "emax", "out")),
    "kappa": (_cmd_kappa, ("case", "genus", "degree", "degree_zero", "mmax")),
    "catalog": (_cmd_catalog, ("case",)),
}


# The switches every subcommand takes, each without a value.
_SWITCHES = ("--json", "--strict", "--timings")


def _add_flags(parser, name: str):
    """The subcommand's own flags, then --json, --strict and --timings."""
    for key in _COMMANDS[name][1]:
        option, kwargs = _FLAGS[key]
        parser.add_argument(option, dest=key, **kwargs)
    for option in _SWITCHES:
        parser.add_argument(option, action="store_true")
    return parser


def build_parser(argv=None):
    """The frobsplit argparse parser for argv: argv[0]'s subcommand alone if
    argv[0] is one; otherwise (argv None too) the full parser with all of
    them.  argparse is imported here, as only help, usage and errors need
    it: every documented call is read by _read_argv.

    Parsing argv gives the same namespace, message, exit code and output
    either way.  The full parser's top level takes only -h and --version,
    neither with a value.  When argv[0] names a subcommand, its subparsers
    positional (nargs A...) consumes argv[0] and every token after it, so
    the top level never prints its help, usage or "invalid choice" list and
    the subparser parses the rest alone: the one parser built here is that
    subparser, with its prog, on argv[1:].  Every output that lists all the
    subcommands needs an argv[0] that is not one, and then has them all.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # exit 1 on input errors, not argparse's 2
            raise CliError(message)

    class _CommandParser(_Parser):
        """One subcommand's parser, for an argv that starts with its name:
        the name is dropped before parsing and set as `command`, as the
        subparsers action of the full parser sets it."""

        def parse_known_args(self, args, namespace=None):
            return super().parse_known_args(list(args)[1:], namespace)

    # no abbreviations: a prefix of a flag the subcommand lacks must not
    # silently become a longer flag it has (--e for --emax)
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _CommandParser(prog=f"frobsplit {name}", allow_abbrev=False)
        parser.set_defaults(command=name)
        return _add_flags(parser, name)
    parser = _Parser(prog="frobsplit", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        _add_flags(sub.add_parser(name, allow_abbrev=False), name)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The attributes of the namespace build_parser(argv).parse_args(argv)
    gives, read from the flag table, for an argv of the shape every
    documented call has: a subcommand, then its own flags, each with one
    value, and the switches.  None for any other argv, which is left to
    argparse, the one source of help, usage and error text.

    The reading is exact because argparse takes a token that does not start
    with "-" as a plain argument, and a flag without nargs takes exactly one
    of those; a value that starts with "-" is deferred, as argparse may read
    it as a negative number (`--e -1` must reach `_level`'s refusal) or as
    a flag.  A repeated flag keeps its last value, as argparse's does.
    """
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        return None
    keys = _COMMANDS[name][1]
    options = {_FLAGS[key][0]: key for key in keys}
    found = dict.fromkeys(keys) | {option[2:]: False for option in _SWITCHES}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _SWITCHES:
            found[token[2:]] = True
            continue
        key = options.get(token)
        value = next(tokens, "-")  # a flag with no value is deferred too
        if key is None or value.startswith("-"):
            return None
        kwargs = _FLAGS[key][1]
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        found[key] = value
    return SimpleNamespace(command=name, **found)


def _echo_inputs(args) -> dict:
    return {k: getattr(args, k) for k in _FLAGS if getattr(args, k, None) is not None}


def _contains_unknown(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("status") == "unknown" or obj.get("overall") == "unknown":
            return True
        return any(_contains_unknown(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_contains_unknown(v) for v in obj)
    return False


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, default=str), byte for byte, for obj nested
    under the indent `pad`.

    With an indent set, json.dumps runs CPython's pure-Python encoder, which
    tests every value against every type it knows.  This writer serves the
    exact types reports are made of (dicts with str keys, lists, str, int,
    bool, None) and hands any other value, tuples, floats, non-str keys and
    subclasses among them, to json.dumps itself, re-indented to its depth:
    an encoded string holds no raw newline.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in obj.items() if type(k) is str]
        if len(items) == len(obj):  # else a key is not a str: json.dumps below
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    elif kind is list:
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    elif obj is None:
        return "null"
    elif kind is bool:
        return "true" if obj else "false"
    return json.dumps(obj, indent=2, default=str).replace("\n", "\n" + pad)


def _render_text(obj, indent: int = 0, out=None) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:", file=out)
                _render_text(v, indent + 1, out)
            else:
                print(f"{pad}{k} = {v}", file=out)
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _render_text(v, indent, out)
                print(f"{pad}-", file=out)
            else:
                print(f"{pad}- {v}", file=out)
    else:
        print(f"{pad}{obj}", file=out)


def run(argv=None) -> tuple[int, dict | None]:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv) or build_parser(argv).parse_args(argv)
        if not args.command:
            raise CliError("a subcommand is required (see --help)")
        started = time.perf_counter()
        results = _COMMANDS[args.command][0](args)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": _echo_inputs(args),
        "results": results,
        "timings_ms": elapsed_ms if args.timings else None,
    }
    if args.json:
        print(_json_text(report))
    else:
        _render_text(report)
    if args.strict and _contains_unknown(report["results"]):
        return 2, report
    return 0, report


def main(argv=None) -> int:
    try:
        code, _ = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`); Python's documented recipe:
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
