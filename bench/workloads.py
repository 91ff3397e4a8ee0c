"""The benchmark's three query sets, drawn from a seed.

Each workload is a fixed list of query families; the seed only draws the
random members (points, coefficients, exponents, lambdas, primes), and each
random family is stratified so every seed gets the same mix of sizes.  No
query input repeats within a set, so the library's lru_caches never carry
one query's work into another: every query pays what a fresh CLI call pays.

A query is a dict: "argv" for frobsplit.cli.run (without --json), "kind"
naming its oracle, and the parameters the oracle needs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import INF, point_str

KGFR_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
E_MAX = 2


# -- p1-couples -----------------------------------------------------------------

def _random_couple(rng: random.Random, p: int, den: int, npts: int, degree: float,
                   cap: int, max_total: int) -> dict:
    """npts distinct points of P^1(F_{p^2}) with coefficients k/den, k <= cap,
    total degree near `degree` and at most max_total/den."""
    pool = [INF] + [(a, 0) for a in range(p)] + \
        [(a, b) for b in range(1, p) for a in range(p)]
    finite_p = [pt for pt in pool if pt != INF and pt[1] == 0]
    ext = [pt for pt in pool if pt != INF and pt[1] != 0]
    # one point from each kind first, so every couple mixes F_p, F_{p^2} and inf
    points = [rng.choice(ext), rng.choice(finite_p), INF][:npts]
    rest = [pt for pt in pool if pt not in points]
    points += rng.sample(rest, npts - len(points))
    weights = [rng.uniform(0.5, 1.5) for _ in points]
    nums = [min(cap, max(1, round(w * degree * den / sum(weights)))) for w in weights]
    while sum(nums) > max_total:
        nums[nums.index(max(nums))] -= 1
    return {pt: Fraction(k, den) for pt, k in zip(points, nums)}


def _divisor_text(entries: dict) -> str:
    return ",".join(f"{c.numerator}/{c.denominator}@{point_str(pt)}"
                    for pt, c in entries.items())


# (p, level, count, npts, degree band) for gfr-p1 and gfs-p1; level 2 means
# denominators dividing p^2 - 1 but not p - 1.  Degrees are kept below 2
# (gfr-p1) or at most 2 (gfs-p1) except in the last band, which is over 2 and
# certified-no.  The bands near 2 leave few window coefficients, which is
# where failing centres and unknown verdicts occur.
_GFR_STRATA = [
    (3, 1, 6, 2, (0.5, 1.9)), (3, 2, 10, 4, (1.5, 1.99)),
    (5, 1, 6, 3, (0.5, 1.9)), (7, 1, 8, 4, (0.8, 1.5)),
    (5, 1, 3, 3, (2.0, 2.5)),
]
# drawn from a fixed seed: each costs a few typical queries, and together
# they sit around the 90th percentile, which a seeded draw would move
_GFR_FIXED_STRATA = [(5, 2, 12, 5, (1.7, 1.99))]
_GFS_STRATA = [
    (3, 1, 4, 3, (1.0, 2.0)), (3, 2, 6, 4, (1.0, 2.0)),
    (5, 1, 6, 4, (1.0, 2.0)), (5, 2, 8, 4, (1.4, 2.0)),
    (7, 1, 6, 4, (1.0, 2.0)), (7, 2, 10, 5, (1.4, 2.0)),
    (5, 2, 3, 4, (2.05, 2.4)),
]


def _couple_queries(rng: random.Random, cmd: str, strata) -> list[dict]:
    """Couples per stratum at evenly spaced degrees across its band, cycling
    through the denominators of its level, so only the points and the split
    of the degree among them depend on the seed."""
    out = []
    seen = set()
    gfr = cmd == "gfr-p1"
    for p, level, count, npts, (lo, hi) in strata:
        dens = [p - 1] if level == 1 else \
            [d for d in range(2, p * p) if (p * p - 1) % d == 0 and (p - 1) % d]
        for k in range(count):
            den = dens[k % len(dens)]
            max_total = 3 * den if lo >= 2 else 2 * den - gfr
            while True:
                entries = _random_couple(rng, p, den, npts, lo + (k + 0.5) * (hi - lo) / count,
                                         den - gfr, max_total)
                text = _divisor_text(entries)
                if text not in seen:
                    break
            seen.add(text)
            out.append({"kind": cmd, "p": p, "e_max": E_MAX,
                        "argv": [cmd, "--p", str(p), "--divisor", text,
                                 "--emax", str(E_MAX)]})
    return out


def p1_couples(seed: int) -> list[dict]:
    rng = random.Random(seed)
    qs = [{"kind": "kgfr", "p": p, "e_max": E_MAX,
           "argv": ["kgfr", "--p", str(p), "--emax", str(E_MAX)]}
          for p in KGFR_PRIMES]
    qs += _couple_queries(rng, "gfr-p1", _GFR_STRATA)
    qs += _couple_queries(random.Random(0), "gfr-p1", _GFR_FIXED_STRATA)
    qs += _couple_queries(rng, "gfs-p1", _GFS_STRATA)
    return qs


# -- fpt-local ---------------------------------------------------------------------

NODAL = "y^2-x^3+x^2"
CUSP = "y^2-x^3"
FERMAT3 = "x^3+y^3+z^3"


def legendre_cone(lam: int) -> str:
    return f"y^2*z-x*(x-z)*(x-{lam}*z)"


# (p, e_max) pairs per family: q reaches 5^4 and 7^3 on the plane curves
_CURVE_LEVELS = [(3, 5), (5, 4), (7, 3), (11, 2), (13, 2)]
_CONE_LEVELS = [(5, 2), (7, 2), (11, 1), (13, 1)]


def fpt_local(seed: int) -> list[dict]:
    rng = random.Random(seed)
    qs = []
    for p, e in _CURVE_LEVELS:
        for name, poly in (("nodal", NODAL), ("cusp", CUSP)):
            if name == "cusp" and p == 3:
                continue  # the cusp formula needs p > 3
            qs.append({"kind": "fpt", "family": name, "p": p,
                       "argv": ["fpt", "--p", str(p), "--poly", poly,
                                "--vars", "x,y", "--emax", str(e)]})
        qs.append({"kind": "nu", "family": "cusp" if p > 3 else "nodal", "p": p,
                   "argv": ["fedder-nu", "--p", str(p), "--poly",
                            CUSP if p > 3 else NODAL, "--vars", "x,y", "--e", str(e)]})
    for p, e in _CONE_LEVELS:
        qs.append({"kind": "fpt", "family": "fermat3", "p": p,
                   "argv": ["fpt", "--p", str(p), "--poly", FERMAT3,
                            "--vars", "x,y,z", "--emax", str(e)]})
        lams = rng.sample(range(2, p), min(3, p - 2))
        for lam in lams:
            qs.append({"kind": "fpt", "family": "legendre", "lam": lam, "p": p,
                       "argv": ["fpt", "--p", str(p), "--poly", legendre_cone(lam),
                                "--vars", "x,y,z", "--emax", str(e)]})
    # monomials x^a*y^b*z^c: 5 per (p, e) at every level of the curves
    seen = set()
    for p, emax in _CURVE_LEVELS:
        for e in range(1, emax + 1):
            made = 0
            while made < 5:
                exps = (rng.randint(1, 9), rng.randint(0, 9), rng.randint(0, 9))
                if (p, e, exps) in seen:
                    continue
                seen.add((p, e, exps))
                made += 1
                poly = "*".join(f"{v}^{a}" for v, a in zip("xyz", exps) if a)
                cmd = ["fedder-nu", "--e", str(e)] if made % 2 else ["fpt", "--emax", str(e)]
                qs.append({"kind": "nu" if cmd[0] == "fedder-nu" else "fpt",
                           "family": "monomial", "exps": list(exps), "p": p,
                           "argv": cmd + ["--p", str(p), "--poly", poly, "--vars", "x,y,z"]})
    return qs


# -- hypersurface-split -------------------------------------------------------------

FERMAT4 = "x^4+y^4+z^4+w^4"


def hypersurface_split(seed: int) -> list[dict]:
    rng = random.Random(seed)
    qs = []
    # the cones at p = 17, 19 and e = 2 cost ten typical queries each and sit
    # around the 90th percentile, so their lambdas are fixed, not drawn
    fixed = {(17, 2): [3, 6, 9, 12], (19, 2): [2, 5, 8, 11, 14, 17]}
    for p, per_e, levels in [(5, 3, (1, 2)), (7, 5, (1, 2)), (11, 8, (1, 2)),
                             (13, 8, (1, 2)), (17, 4, (1, 2)), (19, 6, (1, 2)),
                             (23, 3, (1,))]:
        for e in levels:
            for lam in fixed.get((p, e)) or rng.sample(range(2, p), per_e):
                qs.append({"kind": "cy-legendre", "p": p, "lam": lam,
                           "argv": ["gfs-cy", "--p", str(p), "--poly", legendre_cone(lam),
                                    "--vars", "x,y,z", "--e", str(e)]})
    for p, levels in [(5, (1, 2)), (7, (1, 2)), (11, (1, 2)), (13, (1, 2)), (17, (1, 2)),
                      (19, (1, 2)), (23, (1,)), (29, (1,)), (31, (1,))]:
        for e in levels:
            qs.append({"kind": "cy-fermat3", "p": p,
                       "argv": ["gfs-cy", "--p", str(p), "--poly", FERMAT3,
                                "--vars", "x,y,z", "--e", str(e)]})
    for p, levels in [(5, (1, 2)), (7, (1, 2)), (11, (1, 2)), (13, (1, 2)), (17, (1,)),
                      (19, (1,))]:
        for e in levels:
            qs.append({"kind": "cy-fermat4", "p": p,
                       "argv": ["gfs-cy", "--p", str(p), "--poly", FERMAT4,
                                "--vars", "x,y,z,w", "--e", str(e)]})
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        qs.append({"kind": "cbf", "p": p, "e_max": E_MAX,
                   "argv": ["cbf", "--p", str(p), "--emax", str(E_MAX),
                            "--bigraded-pmax", "23"]})
    # fixed, one per band of 20: their cost grows fast with p, so a seeded
    # draw would move the set's cost by a tenth from seed to seed
    for p in (101, 127, 151, 173, 199):
        qs.append({"kind": "supersingular", "p": p,
                   "argv": ["supersingular", "--p", str(p)]})
    return qs


WORKLOADS = {
    "p1-couples": p1_couples,
    "fpt-local": fpt_local,
    "hypersurface-split": hypersurface_split,
}


def queries(name: str, seed: int) -> list[dict]:
    qs = WORKLOADS[name](seed)
    argvs = [tuple(q["argv"]) for q in qs]
    if len(set(argvs)) != len(argvs):
        raise AssertionError(f"{name}: a query input repeats")
    return qs
