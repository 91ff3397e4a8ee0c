"""The Legendre fibration as a whole: the elliptic surface cut out by
y^2*z*mu = x(x-z)(x*mu - lambda*z) in P^2 x P^1, fibered over the lambda-line.

This module assembles the F-discriminant divisor on the base, classifies the
fibers, compares total-space splitting with base-couple splitting, computes
the fiber-restricted section space dimensions, decides the KGFR property, and
scans primes for the density report.  Three short arguments settle the
fibration at every odd p (`s0_fiber_legendre`, `is_kgfr_legendre`,
`total_space_gfs`), so those answers are proofs, not searches; the general
routes (`supersingular_report`, `gfr_p1_bounded`, `gfs_bigraded_hypersurface`)
are kept as their test oracles, and `cbf` still computes its base side.

The 1/2 coefficient at infinity in the F-discriminant is an imported
constant; it is falsifiable here through the exact degree-1 identity that the
finite coefficients must complete.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import _check_modulus, is_prime
from .elliptic import supersingular_report
from .gsplit import (DEFAULT_EMAX, UNKNOWN, YES, GfsVerdict, P1Divisor, P1Point,
                     gfs_p1)
from .mpoly import MPoly

DEFAULT_BIGRADED_PMAX = 13

NODAL = "nodal"
SMOOTH_ORDINARY = "smooth-ordinary"
SMOOTH_SUPERSINGULAR = "smooth-supersingular"
BOUNDARY_INFINITY = "boundary-infinity"


class FDiscriminantReport(NamedTuple):
    prime: int
    divisor: P1Divisor                      # 1/2 at infinity, mult/(p-1) on Lambda_p
    fiber_table: tuple[tuple[P1Point, str], ...]
    degree: Fraction


@lru_cache(maxsize=None)
def f_discriminant_legendre(p: int) -> FDiscriminantReport:
    """The base boundary divisor of the Legendre fibration at p.

    Coefficient 1/2 at infinity plus (root multiplicity)/(p-1) at every
    supersingular parameter; the total degree must come out exactly 1, which
    checks the imported infinity coefficient against the computed finite
    part (the finite multiplicities sum to (p-1)/2).
    """
    rep = supersingular_report(p)
    entries: list[tuple[P1Point, Fraction]] = [(P1Point.infinity(), Fraction(1, 2))]
    for root, mult in rep.roots:
        entries.append((P1Point(root), Fraction(mult, p - 1)))
    divisor = P1Divisor(p, entries)
    degree = divisor.degree
    if degree != 1:
        raise RuntimeError(
            f"F-discriminant degree check failed at p = {p}: degree {degree}")
    table: list[tuple[P1Point, str]] = []
    root_points = {P1Point(r) for r, _ in rep.roots}
    for v in range(p):
        pt = P1Point((v, 0))
        if v in (0, 1):
            if pt in root_points:
                raise RuntimeError("nodal parameter appeared in the supersingular locus")
            table.append((pt, NODAL))
        elif pt in root_points:
            table.append((pt, SMOOTH_SUPERSINGULAR))
        else:
            table.append((pt, SMOOTH_ORDINARY))
    for pt in sorted(root_points, key=P1Point.sort_key):
        if pt.field_level == 2:
            table.append((pt, SMOOTH_SUPERSINGULAR))
    table.append((P1Point.infinity(), BOUNDARY_INFINITY))
    return FDiscriminantReport(prime=p, divisor=divisor,
                               fiber_table=tuple(table), degree=degree)


def classify_fibers(p: int) -> dict[P1Point, str]:
    """Fiber classification keyed by base point.

    Consistency guarantee: the finite support of the boundary divisor away
    from the nodal parameters consists exactly of the supersingular fibers.
    """
    rep = f_discriminant_legendre(p)
    table = dict(rep.fiber_table)
    for pt, c in rep.divisor.sorted_entries():
        if pt.is_infinity:
            continue
        if table[pt] != SMOOTH_SUPERSINGULAR:
            raise RuntimeError(f"boundary point {pt} is not a supersingular fiber")
    return table


@lru_cache(maxsize=None)
def legendre_bigraded_poly(p: int) -> MPoly:
    """y^2*z*mu - x(x-z)(x*mu - lambda*z) as a bidegree-(3, 1) form.

    Variables ordered (x, y, z, lambda, mu); the first three are the plane
    coordinates, the last two the base coordinates.
    """
    x = MPoly.variable(0, 5, p)
    y = MPoly.variable(1, 5, p)
    z = MPoly.variable(2, 5, p)
    lam = MPoly.variable(3, 5, p)
    mu = MPoly.variable(4, 5, p)
    return y * y * z * mu - x * (x - z) * (x * mu - lam * z)


def total_space_gfs(p: int, e_max: int = DEFAULT_EMAX,
                    pmax: int = DEFAULT_BIGRADED_PMAX) -> bool | None:
    """Splitting of the Legendre surface: True at every odd p, by proof.

    Let m = (p-1)/2 and F = y^2*z*mu - x(x-z)(x*mu - lambda*z) (see
    `legendre_bigraded_poly`).  The bigraded criterion asks for a monomial of
    F^(p-1) with every exponent <= p-1, and the level does not matter
    (Fedder 1983, Lemma 1.6; see gsplit's hypersurface criteria).  Take
    x^(2m) y^(2m) z^(2m) lambda^(m-j) mu^(m+j), 0 <= j <= m.  In
    F^(p-1) = sum_k C(p-1, k) (y^2 z mu)^k (-x(x-z)(x mu - lambda z))^(p-1-k)
    its y-exponent 2m forces k = m.  In that term the x- and z-exponents
    force x^i from (x-z)^m and (x mu)^l from (x mu - lambda z)^m with
    i + l = m, and the lambda-exponent gives l = j.  So its coefficient is
    C(p-1, m) * C(m, j)^2, with sign (-1)^m (-1)^j (-1)^(m-j) = +1, a unit
    mod p because both binomials have their top below p.  Every exponent is
    at most 2m = p-1, so F^(p-1) is outside m^[p] and the surface is split
    at every level e >= 1; with e_max < 1 no level is tested and the answer
    is False.

    Past pmax the answer is None (Unknown): pmax is the `--bigraded-pmax`
    budget, whose output stays as it was.  `gfs_bigraded_hypersurface` on
    `legendre_bigraded_poly(p)` is the computed route the tests compare with.
    """
    _check_modulus(p)
    if p > pmax:
        return None
    return e_max >= 1


class CbfSides(NamedTuple):
    """The two sides of `cbf`: the total space by proof, the base computed."""
    total: bool | None   # total_space_gfs: None past pmax
    base: bool           # gfs_p1 on the computed F-discriminant divisor

    @property
    def match(self) -> bool | None:
        """Whether the sides agree; None propagates an Unknown total side."""
        return None if self.total is None else self.total == self.base


def cbf_sides(p: int, e_max: int = DEFAULT_EMAX,
              pmax: int = DEFAULT_BIGRADED_PMAX) -> CbfSides:
    """Total-space splitting beside base-couple splitting.

    The total side is the proof in `total_space_gfs`.  The base side is a
    computation: `gfs_p1` searches the levels <= e_max on the divisor that
    `f_discriminant_legendre` builds from the computed supersingular roots.
    With e_max < 1 neither side tests a level, so that is refused rather
    than called a match.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    return CbfSides(total_space_gfs(p, e_max=e_max, pmax=pmax),
                    gfs_p1(f_discriminant_legendre(p).divisor, e_max=e_max).is_yes)


def cbf_iii_check(p: int, e_max: int = DEFAULT_EMAX,
                  pmax: int = DEFAULT_BIGRADED_PMAX) -> bool | None:
    """Total-space splitting must match base-couple splitting.

    A False here flags a genuine discrepancy to investigate, never an
    auto-resolved condition.  None propagates an Unknown total side; see
    `cbf_sides` for which side is proved and which computed.
    """
    return cbf_sides(p, e_max, pmax).match


def s0_fiber_legendre(p: int) -> int:
    """Dimension of the fiber-restricted stable section space at boundary 0.

    The relative trace is generically surjective exactly when the Hasse
    polynomial H_p is not identically zero, and it is not: its constant
    coefficient is a_0 * a_m = (-1)^m, m = (p-1)/2, in the notation of
    `elliptic.hasse_coeff_symbolic` (a_k = [x^k](x-1)^m).  So the dimension
    is 1 at every odd p.
    """
    _check_modulus(p)
    return 1


def s0_product(ordinary_E: bool, ordinary_Y: bool) -> tuple[int, int]:
    """(dim of total stable sections, dim of fiber-restricted ones) for E x Y.

    Product traces multiply: the total space dimension is 1 only when both
    factors are ordinary, while the fiber restriction only sees E.
    """
    total = 1 if (ordinary_E and ordinary_Y) else 0
    fiber = 1 if ordinary_E else 0
    return total, fiber


class KgfrVerdict(NamedTuple):
    prime: int
    fiber_gfs: bool
    base_gfr: GfsVerdict
    overall: str  # "KGFR" | "not-KGFR" | "unknown"

    def to_dict(self) -> dict:
        return {
            "fiber_gfs": self.fiber_gfs,
            "base_gfr": self.base_gfr.to_dict(),
            "overall": self.overall,
        }


def is_kgfr_legendre(p: int, e_max: int = DEFAULT_EMAX) -> KgfrVerdict:
    """KGFR decision for the Legendre fibration at p, in closed form.

    KGFR needs a globally F-split general fiber (`s0_fiber_legendre`: always)
    and a globally F-regular base couple B_p = 1/2 (inf) + sum mult/(p-1)
    (lambda) over the roots of H_p.  The base verdict is the one
    `gfr_p1_bounded` returns on that divisor, and it depends on (p, e_max)
    alone.  With m = (p-1)/2:

    * No structural obstruction: every coefficient is below 1 and the degree
      is 1.  The coefficients clear at level 1, so the levels are 1..e_max.
    * Aggregate certificate: H_p is squarefree (Igusa 1958), so B_p has m
      finite points of weight 1/(p-1).  At q = p, E0 adds 1 at each and at
      inf: the finite degree is S' = 2m = q - 1 and the window is
      D = 2(q-1) - (m+1) - 2m = m - 1 >= 0, so S' <= q - 1 gives the
      instant certificate j = q - 1 - S' = 0 at level 1.
    * Perturbations: at q = p^e the finite degree is S = (q-1)/2 = n_inf,
      so a single-point perturbation has D = q - 2 >= 0 and S + 1 <= q - 1:
      every centre splits at every level, inf and the generic point too.

    So the base is yes at level 1 with certificate 0 whenever e_max >= 1,
    and unknown (no level to test) below that.  The tests compare this with
    `gfr_p1_bounded` on the computed divisor.
    """
    _check_modulus(p)
    levels = tuple(range(1, e_max + 1))
    evidence = {"e_max": e_max, "levels": list(levels)}
    if not levels:
        base = GfsVerdict(UNKNOWN, reason="no admissible level within e_max",
                          evidence=evidence)
    else:
        evidence.update({"aggregate_certificate": [1, 0], "family_failures": [],
                         "generic_point": True})
        base = GfsVerdict(YES, level=1, certificate=0, levels_tested=levels,
                          evidence=evidence)
    return KgfrVerdict(prime=p, fiber_gfs=s0_fiber_legendre(p) == 1, base_gfr=base,
                       overall="KGFR" if base.is_yes else "unknown")


class ScanRow(NamedTuple):
    prime: int
    overall: str
    fiber_gfs: bool
    base_status: str


class ScanReport(NamedTuple):
    rows: tuple[ScanRow, ...]
    counts: dict
    fractions: dict

    def to_dict(self) -> dict:
        return {
            "rows": [{"prime": r.prime, "overall": r.overall,
                      "fiber_gfs": r.fiber_gfs, "base_status": r.base_status}
                     for r in self.rows],
            "counts": dict(self.counts),
            "fractions": {k: str(v) for k, v in self.fractions.items()},
        }


def prime_scan(start: int, stop: int, e_max: int = DEFAULT_EMAX) -> ScanReport:
    """KGFR density over the odd primes in [start, stop], in ascending order."""
    if start > stop:
        raise ValueError(f"need start <= stop, got {start}..{stop}")
    verdicts = (is_kgfr_legendre(p, e_max=e_max)
                for p in range(max(3, start), stop + 1) if p % 2 and is_prime(p))
    rows = tuple(ScanRow(prime=v.prime, overall=v.overall, fiber_gfs=v.fiber_gfs,
                         base_status=v.base_gfr.status) for v in verdicts)
    counts = {"KGFR": 0, "not-KGFR": 0, "unknown": 0}
    for r in rows:
        counts[r.overall] += 1
    total = len(rows)
    fractions = {k: (Fraction(v, total) if total else Fraction(0))
                 for k, v in counts.items()}
    return ScanReport(rows=rows, counts=counts, fractions=fractions)
