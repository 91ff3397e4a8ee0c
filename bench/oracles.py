"""Independent oracles for the benchmark's answers.

Nothing here imports frobsplit: every check recomputes its answer from the
query's own parameters with plain ints, so a bug shared with the library
cannot hide, and no library cache is ever warmed by a check.

F_{p^2} elements are int pairs (a, b) meaning a + b*t with t^2 = n, n the
smallest quadratic nonresidue mod p (the same model the CLI prints as
"a+bt").  Points of P^1 are such pairs or INF.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

INF = "inf"


# -- F_p and F_{p^2} as ints and int pairs ------------------------------------

def nonresidue(p: int) -> int:
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    return n


def emul(x, y, p, n):
    return ((x[0] * y[0] + n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def esub(x, y, p):
    return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


def point_str(pt) -> str:
    if pt == INF:
        return "inf"
    a, b = pt
    return str(a) if b == 0 else f"{a}+{b}t"


def parse_point_str(text: str, p: int):
    if text == "inf":
        return INF
    if text.endswith("t"):
        a, b = text[:-1].split("+")
        return (int(a) % p, int(b) % p)
    return (int(text) % p, 0)


def all_points(p: int) -> list:
    """P^1(F_{p^2}): infinity, then F_p, then a + b*t with b != 0."""
    return ([INF] + [(a, 0) for a in range(p)]
            + [(a, b) for b in range(1, p) for a in range(p)])


# -- the Legendre family --------------------------------------------------------

def hasse_poly(p: int) -> list[int]:
    """H_p(lam) = (-1)^m * sum_i C(m, i)^2 lam^i, m = (p-1)/2, low degree first."""
    m = (p - 1) // 2
    sign = -1 if m % 2 else 1
    return [sign * comb(m, i) ** 2 % p for i in range(m + 1)]


def hasse_value(lam: int, p: int) -> int:
    return sum(c * pow(lam, i, p) for i, c in enumerate(hasse_poly(p))) % p


def hasse_eval(pt, p: int, n: int):
    acc = (0, 0)
    for c in reversed(hasse_poly(p)):
        acc = emul(acc, pt, p, n)
        acc = ((acc[0] + c) % p, acc[1])
    return acc


# -- P^1 couples: the naive coefficient-window test -----------------------------

def min_level(coeffs, p: int) -> int:
    """Smallest e >= 1 with (p^e - 1) * c integral for every coefficient."""
    e = 1
    while any(((p ** e - 1) * c).denominator != 1 for c in coeffs):
        e += 1
    return e


def expand(parts, p: int, n: int) -> list:
    """Dense coefficients of prod (x - pt)^k over F_{p^2}, one linear factor at a time."""
    g = [(1, 0)]
    for pt, k in parts:
        for _ in range(k):
            nxt = [(0, 0)] * (len(g) + 1)
            for i, c in enumerate(g):
                nxt[i + 1] = ((nxt[i + 1][0] + c[0]) % p, (nxt[i + 1][1] + c[1]) % p)
                nxt[i] = esub(nxt[i], emul(pt, c, p, n), p)
            g = nxt
    return g


class Couple:
    """A divisor on P^1 over F_{p^2} with its level-e window data."""

    def __init__(self, p: int, entries: dict):
        self.p = p
        self.n = nonresidue(p)
        self.entries = {pt: Fraction(c) for pt, c in entries.items() if c}
        self._g: dict[int, tuple] = {}

    @property
    def degree(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def level_parts(self, e: int):
        """(q, finite parts with multiplicities, n_inf, expanded g) at level e."""
        if e not in self._g:
            q = self.p ** e
            parts = [(pt, int(c * (q - 1))) for pt, c in sorted(
                self.entries.items(), key=lambda kv: str(kv[0])) if pt != INF]
            n_inf = int(self.entries.get(INF, 0) * (q - 1))
            self._g[e] = (q, parts, n_inf, expand(parts, self.p, self.n))
        return self._g[e]

    def window_coeff(self, e: int, j: int, extra=None):
        """The x^(q-1-j) coefficient of g, or None when j is outside [0, D].

        `extra` adds one point with coefficient 1/(q-1): a finite point
        multiplies g by (x - pt), infinity shrinks the section budget D.
        """
        q, parts, n_inf, g = self.level_parts(e)
        S = sum(k for _, k in parts)
        if extra == INF:
            n_inf += 1
        elif extra is not None:
            S += 1
        D = 2 * (q - 1) - n_inf - S
        k = q - 1 - j
        if not 0 <= j <= D or not 0 <= k <= S:
            return None
        if extra is None or extra == INF:
            return g[k] if k < len(g) else (0, 0)
        hi = g[k - 1] if k >= 1 else (0, 0)
        lo = g[k] if k < len(g) else (0, 0)
        return esub(hi, emul(extra, lo, self.p, self.n), self.p)

    def splits(self, e: int, extra=None):
        """First certificate j with a nonzero window coefficient, else None."""
        c = self.entries.get(extra, Fraction(0)) if extra is not None else 0
        if extra is not None and c + Fraction(1, self.p ** e - 1) > 1:
            return None
        for j in range(self.p ** e):
            w = self.window_coeff(e, j, extra)
            if w is not None and w != (0, 0):
                return j
        return None

    def generic_splits(self, e: int) -> bool:
        """Window of g*(x - s) for s an indeterminate: c_k(s) = g[k-1] - s*g[k]."""
        q, parts, n_inf, g = self.level_parts(e)
        S = sum(k for _, k in parts) + 1
        D = 2 * (q - 1) - n_inf - S
        if D < 0:
            return False
        for k in range(max(0, q - 1 - D), min(q - 1, S) + 1):
            for kk in (k, k - 1):
                if 0 <= kk < len(g) and g[kk] != (0, 0):
                    return True
        return False

    def aggregate(self, e: int) -> "Couple":
        """B + E0/(p^e - 1), E0 the support (or infinity when it is empty):
        the divisor of the aggregate certificate, whose complement is affine."""
        out = dict(self.entries)
        for pt in sorted(self.entries, key=str) or [INF]:
            out[pt] = out.get(pt, Fraction(0)) + Fraction(1, self.p ** e - 1)
        return Couple(self.p, out)


def parse_divisor_payload(payload, p: int) -> dict:
    return {parse_point_str(d["point"], p): Fraction(d["num"], d["den"]) for d in payload}


def check_gfs(B: Couple, e_max: int, verdict: dict, problems: list) -> None:
    """gfs-p1: structural no, replayed yes, or a window that is zero at every level."""
    status = verdict["status"]
    coeffs = list(B.entries.values())
    if any(c < 0 or c > 1 for c in coeffs) or B.degree > 2:
        if status != "certified-no":
            problems.append(f"expected certified-no, got {status}")
        return
    d = min_level(coeffs, B.p)
    levels = list(range(d, e_max + 1, d))
    if verdict.get("levels_tested", []) != levels:
        problems.append(f"levels_tested {verdict.get('levels_tested')} != {levels}")
    if status == "yes":
        e, j = verdict["level"], verdict["certificate"]
        w = B.window_coeff(e, j) if e in levels else None
        if w is None or w == (0, 0):
            problems.append(f"certificate (e={e}, j={j}) does not replay")
    elif status == "no":
        for e in levels:
            j = B.splits(e)
            if j is not None:
                problems.append(f"said no but level {e} splits with j={j}")
    else:
        problems.append(f"unexpected gfs status {status}")


def gfr_decision(B: Couple, e_max: int) -> dict:
    """Everything the bounded GFR verdict depends on, recomputed naively."""
    coeffs = list(B.entries.values())
    if any(c >= 1 or c < 0 for c in coeffs) or B.degree >= 2:
        return {"status": "certified-no"}
    d = min_level(coeffs, B.p)
    levels = list(range(d, e_max + 1, d))
    if not levels:
        return {"status": "unknown", "levels": levels, "aggregate": None,
                "failures": [], "generic": False}
    aggregate = None
    for e in levels:
        j = B.aggregate(e).splits(e)
        if j is not None:
            aggregate = (e, j)
            break
    failures = [pt for pt in all_points(B.p)
                if all(B.splits(e, extra=pt) is None for e in levels)]
    generic = any(B.generic_splits(e) for e in levels)
    yes = aggregate is not None and not failures and generic
    return {"status": "yes" if yes else "unknown", "levels": levels,
            "aggregate": aggregate, "failures": failures, "generic": generic}


def check_gfr(B: Couple, e_max: int, verdict: dict, problems: list) -> dict:
    """gfr-p1: status, replayed aggregate certificate, re-checked failing centres."""
    want = gfr_decision(B, e_max)
    status = verdict["status"]
    if status != want["status"]:
        problems.append(f"gfr status {status} != oracle {want['status']}")
        return want
    if status == "certified-no":
        return want
    ev = verdict.get("evidence", {})
    agg = ev.get("aggregate_certificate")
    if status == "yes":
        agg = [verdict["level"], verdict["certificate"]]
    if agg is not None:
        e, j = agg
        w = B.aggregate(e).window_coeff(e, j) if e in want["levels"] else None
        if w is None or w == (0, 0):
            problems.append(f"aggregate certificate {agg} does not replay")
    elif want["aggregate"] is not None:
        problems.append(f"no aggregate reported but {want['aggregate']} splits")
    named = ev.get("family_failures", [])
    for text in named:
        pt = parse_point_str(text, B.p)
        if any(B.splits(e, extra=pt) is not None for e in want["levels"]):
            problems.append(f"centre {text} named as failing but splits")
    if bool(named) != bool(want["failures"]):
        problems.append(f"named failures {named} but oracle finds "
                        f"{[point_str(x) for x in want['failures'][:10]]}")
    if "generic_point" in ev and ev["generic_point"] != want["generic"]:
        problems.append(f"generic_point {ev['generic_point']} != {want['generic']}")
    return want


# -- the F-discriminant and the supersingular locus ----------------------------

def check_locus(p: int, roots: list, problems: list) -> None:
    """(p-1)/2 distinct roots of H_p, all in F_{p^2}, each simple."""
    n = nonresidue(p)
    pts = [parse_point_str(r, p) for r in roots]
    if len(pts) != (p - 1) // 2 or len(set(pts)) != len(pts):
        problems.append(f"{len(pts)} roots ({len(set(pts))} distinct), want {(p - 1) // 2}")
    for pt in pts:
        if pt == INF or hasse_eval(pt, p, n) != (0, 0):
            problems.append(f"{point_str(pt)} is not a root of H_{p}")


def check_fdisc(p: int, bY: list, degree: str, problems: list) -> Couple:
    """1/2 at infinity plus 1/(p-1) at each supersingular parameter, degree 1."""
    entries = parse_divisor_payload(bY, p)
    if entries.get(INF) != Fraction(1, 2):
        problems.append(f"coefficient at infinity {entries.get(INF)} != 1/2")
    finite = [pt for pt in entries if pt != INF]
    if any(entries[pt] != Fraction(1, p - 1) for pt in finite):
        problems.append("a finite coefficient differs from 1/(p-1)")
    check_locus(p, [point_str(pt) for pt in finite], problems)
    if sum(entries.values(), Fraction(0)) != 1 or degree != "1":
        problems.append(f"F-discriminant degree {degree} != 1")
    return Couple(p, entries)


def check_fiber_table(p: int, table: dict, problems: list) -> None:
    want = {"inf": "boundary-infinity", "0": "nodal", "1": "nodal"}
    for v in range(2, p):
        want[str(v)] = "smooth-supersingular" if hasse_value(v, p) == 0 else "smooth-ordinary"
    for a, b in hasse_roots(p):
        if b:
            want[f"{a}+{b}t"] = "smooth-supersingular"
    if table != want:
        problems.append("fiber table differs from the Hasse classification")


# -- local F-thresholds ----------------------------------------------------------

def cone_fpt(ordinary: bool, p: int) -> Fraction:
    """Cone over a plane cubic (Bhatt-Singh): 1 if ordinary, else 1 - 1/p."""
    return Fraction(1) if ordinary else 1 - Fraction(1, p)


def cusp_fpt(p: int) -> Fraction:
    """y^2 - x^3 for p > 3 (Mustata-Takagi-Watanabe)."""
    return Fraction(5, 6) if p % 3 == 1 else Fraction(5, 6) - Fraction(1, 6 * p)


def monomial_nu(exps, q: int) -> int:
    return (q - 1) // max(exps)


def check_nu_values(values: list, p: int, problems: list, *, fpt=None, nu=None) -> None:
    """Every (e, nu) pair against an exact nu and against the fpt bracket.

    For a principal ideal nu(p^e) = ceil(fpt * p^e) - 1 (Blickle-Mustata-Smith),
    i.e. nu/q < fpt <= (nu + 1)/q, so a known fpt pins every nu exactly.
    """
    for e, v in values:
        q = p ** e
        if nu is not None and v != nu(q):
            problems.append(f"nu({p}^{e}) = {v}, oracle {nu(q)}")
        if fpt is not None and not Fraction(v, q) < fpt <= Fraction(v + 1, q):
            problems.append(f"fpt {fpt} outside ({v}/{q}, {v + 1}/{q}]")


# -- one answer at a time ------------------------------------------------------

def _parse_divisor_arg(text: str, p: int) -> dict:
    out: dict = {}
    for chunk in text.split(","):
        c, _, pt = chunk.partition("@")
        pt = parse_point_str(pt, p)
        out[pt] = out.get(pt, Fraction(0)) + Fraction(c)
    return out


def hasse_roots(p: int) -> list:
    """Every root of H_p in F_{p^2}, by evaluating it at every element."""
    n = nonresidue(p)
    return [pt for pt in all_points(p)[1:] if hasse_eval(pt, p, n) == (0, 0)]


def fdisc_couple(p: int) -> Couple:
    entries = {INF: Fraction(1, 2)}
    entries.update({pt: Fraction(1, p - 1) for pt in hasse_roots(p)})
    return Couple(p, entries)


def _parse_lam_poly(text: str, p: int) -> list[int]:
    """Coefficients of a 'c*lam^k + ...' string, low degree first."""
    coeffs: dict[int, int] = {}
    for term in text.split(" + "):
        c, k = 1, 0
        for factor in term.split("*"):
            if factor.startswith("lam"):
                k = int(factor[4:]) if factor.startswith("lam^") else 1
            else:
                c = int(factor)
        coeffs[k] = (coeffs.get(k, 0) + c) % p
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _fpt_oracle(query: dict):
    """(exact nu as a function of q or None, exact fpt or None) for a family."""
    p, fam = query["p"], query["family"]
    if fam == "nodal":
        return (lambda q: q - 1), Fraction(1)
    if fam == "cusp":
        return None, cusp_fpt(p)
    if fam == "fermat3":
        return None, cone_fpt(p % 3 == 1, p)
    if fam == "legendre":
        return None, cone_fpt(hasse_value(query["lam"], p) != 0, p)
    exps = query["exps"]
    return (lambda q: monomial_nu(exps, q)), Fraction(1, max(exps))


def check_answer(query: dict, code: int, report: dict | None) -> tuple[list[str], bool]:
    """(problems, decided) for one CLI answer; problems empty means it agrees."""
    problems: list[str] = []
    if code != 0 or report is None:
        return [f"exit code {code}"], False
    r = report["results"]
    p, kind = query["p"], query["kind"]
    decided = True
    if kind == "kgfr":
        base = check_fdisc(p, r["bY"], r["degree"], problems)
        check_fiber_table(p, r["fiber_table"], problems)
        k = r["kgfr"]
        if k["fiber_gfs"] is not True:
            problems.append("fiber_gfs is not true although H_p is a nonzero polynomial")
        want = check_gfr(base, query["e_max"], k["base_gfr"], problems)["status"]
        overall = {"yes": "KGFR", "certified-no": "not-KGFR"}.get(want, "unknown")
        if k["overall"] != overall:
            problems.append(f"overall {k['overall']} != {overall}")
        decided = k["overall"] != "unknown"
    elif kind in ("gfr-p1", "gfs-p1"):
        entries = _parse_divisor_arg(query["argv"][query["argv"].index("--divisor") + 1], p)
        B = Couple(p, entries)
        if parse_divisor_payload(r["divisor"], p) != B.entries:
            problems.append("echoed divisor differs from the input")
        if kind == "gfr-p1":
            check_gfr(B, query["e_max"], r["verdict"], problems)
        else:
            check_gfs(B, query["e_max"], r["verdict"], problems)
        decided = r["verdict"]["status"] != "unknown"
    elif kind in ("fpt", "nu"):
        exact_nu, fpt = _fpt_oracle(query)
        if kind == "nu":
            values = [(r["e"], r["nu"])]
        else:
            values = [(v["e"], v["nu"]) for v in r["values"]]
            e, last = values[-1]
            q = p ** e
            if [v[0] for v in values] != list(range(1, e + 1)):
                problems.append(f"levels {[v[0] for v in values]} are not 1..{e}")
            if (r["fpt_lower"], r["fpt_upper"]) != (str(Fraction(last, q)),
                                                    str(Fraction(last + 1, q))):
                problems.append("fpt bracket does not match nu")
            if r["fpure_at_one"] != (last >= q - 1):
                problems.append("fpure_at_one disagrees with nu >= q - 1")
        check_nu_values(values, p, problems, fpt=fpt, nu=exact_nu)
    elif kind.startswith("cy-"):
        if kind == "cy-legendre":
            want = hasse_value(query["lam"], p) != 0
        elif kind == "cy-fermat3":
            want = p % 3 == 1
        else:
            want = p % 4 == 1
        if r["split"] != want:
            problems.append(f"split {r['split']} != {want}")
    elif kind == "cbf":
        base = fdisc_couple(p)
        d = min_level(list(base.entries.values()), p)
        want = any(base.splits(e) is not None for e in range(d, query["e_max"] + 1, d))
        if r["base_couple_gfs"] != want:
            problems.append(f"base_couple_gfs {r['base_couple_gfs']} != {want}")
        if r["total_space_gfs"] != want or r["match"] is not True:
            problems.append("total space and base couple disagree (CBF iii)")
        decided = r["total_space_gfs"] is not None
    elif kind == "supersingular":
        m = (p - 1) // 2
        if _parse_lam_poly(r["poly"], p) != hasse_poly(p) or r["degree"] != m:
            problems.append("H_p differs from the Hasse sum")
        check_locus(p, [x["root"] for x in r["roots"]], problems)
        if any(x["multiplicity"] != 1 for x in r["roots"]) or r["squarefree"] is not True:
            problems.append("H_p is reported with a repeated root")
        if r["root_count"] != m or r["expected_count"] != m:
            problems.append(f"root_count {r['root_count']} != {m}")
    else:
        raise ValueError(f"no oracle for {kind}")
    return problems, decided
