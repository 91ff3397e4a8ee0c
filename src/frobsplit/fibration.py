"""The Legendre fibration as a whole: the elliptic surface cut out by
y^2*z*mu = x(x-z)(x*mu - lambda*z) in P^2 x P^1, fibered over the lambda-line.

This module assembles the F-discriminant divisor on the base, classifies the
fibers, tests splitting of the total space through the bigraded criterion,
cross-validates it against the base-couple criterion, computes the
fiber-restricted section space dimensions, decides the KGFR property, and
scans primes for the density report.

The 1/2 coefficient at infinity in the F-discriminant is an imported
constant; it is falsifiable here through the exact degree-1 identity that the
finite coefficients must complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .elliptic import supersingular_report
from .gsplit import (DEFAULT_EMAX, DEFAULT_POINT_BUDGET, GfsVerdict,
                     P1Divisor, P1Point, gfr_p1_bounded, gfs_p1,
                     gfs_bigraded_hypersurface)
from .mpoly import MPoly

DEFAULT_BIGRADED_PMAX = 13

NODAL = "nodal"
SMOOTH_ORDINARY = "smooth-ordinary"
SMOOTH_SUPERSINGULAR = "smooth-supersingular"
BOUNDARY_INFINITY = "boundary-infinity"


@dataclass(frozen=True)
class FDiscriminantReport:
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
    """Splitting of the Legendre surface via the bigraded criterion.

    None means the bigraded budget was exceeded (Unknown), not a verdict.
    The criterion does not depend on the level (see gsplit's hypersurface
    criteria), so splitting at some level <= e_max is splitting at level 1.
    """
    if p > pmax:
        return None
    return e_max >= 1 and gfs_bigraded_hypersurface(legendre_bigraded_poly(p), (3, 2), 1)


def cbf_iii_check(p: int, e_max: int = DEFAULT_EMAX,
                  pmax: int = DEFAULT_BIGRADED_PMAX) -> bool | None:
    """Total-space splitting must match base-couple splitting.

    Compares two independently implemented criteria; a False here flags a
    genuine discrepancy to investigate, never an auto-resolved condition.
    None propagates an Unknown bigraded verdict.  With e_max < 1 neither
    side tests a level, so that is refused rather than called a match.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    total = total_space_gfs(p, e_max=e_max, pmax=pmax)
    if total is None:
        return None
    base = gfs_p1(f_discriminant_legendre(p).divisor, e_max=e_max).is_yes
    return total == base


def s0_fiber_dim_from_hasse(h: Sequence[int]) -> int:
    """Dimension of the fiber-restricted stable section space at boundary 0.

    The relative trace is generically surjective exactly when the Hasse
    polynomial is not identically zero, giving dimension 1; degenerate input
    (the zero polynomial) gives 0.
    """
    return 1 if any(h) else 0


def s0_fiber_legendre(p: int) -> int:
    dim = s0_fiber_dim_from_hasse(supersingular_report(p).poly)
    if dim != 1:
        raise RuntimeError(f"Hasse polynomial vanished identically at p = {p}")
    return dim


def s0_product(ordinary_E: bool, ordinary_Y: bool) -> tuple[int, int]:
    """(dim of total stable sections, dim of fiber-restricted ones) for E x Y.

    Product traces multiply: the total space dimension is 1 only when both
    factors are ordinary, while the fiber restriction only sees E.
    """
    total = 1 if (ordinary_E and ordinary_Y) else 0
    fiber = 1 if ordinary_E else 0
    return total, fiber


@dataclass(frozen=True)
class KgfrVerdict:
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


def is_kgfr_legendre(p: int, e_max: int = DEFAULT_EMAX,
                     perturbation_budget: int = DEFAULT_POINT_BUDGET) -> KgfrVerdict:
    """KGFR decision for the Legendre fibration at p.

    Requires both a globally F-split general fiber and a globally F-regular
    base couple; the bounded base search may leave the verdict unknown.
    """
    fiber_gfs = s0_fiber_legendre(p) == 1
    base = gfr_p1_bounded(f_discriminant_legendre(p).divisor,
                          e_max=e_max, perturbation_budget=perturbation_budget)
    if not fiber_gfs or base.is_certified_no:
        overall = "not-KGFR"
    elif base.is_yes:
        overall = "KGFR"
    else:
        overall = "unknown"
    return KgfrVerdict(prime=p, fiber_gfs=fiber_gfs, base_gfr=base, overall=overall)


@dataclass(frozen=True)
class ScanRow:
    prime: int
    overall: str
    fiber_gfs: bool
    base_status: str


@dataclass(frozen=True)
class ScanReport:
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


def _scan_one(args: tuple) -> ScanRow:
    p, e_max, budget = args
    v = is_kgfr_legendre(p, e_max=e_max, perturbation_budget=budget)
    return ScanRow(prime=p, overall=v.overall, fiber_gfs=v.fiber_gfs,
                   base_status=v.base_gfr.status)


def prime_scan(start: int, stop: int, e_max: int = DEFAULT_EMAX,
               perturbation_budget: int = DEFAULT_POINT_BUDGET,
               workers: int = 1) -> ScanReport:
    """KGFR density over the odd primes in [start, stop].

    Workers > 1 fans the per-prime computations out to a process pool, at
    most one process per prime and per CPU; rows are assembled in input
    order either way, so output does not depend on completion order.
    """
    from .arith import is_prime
    if start > stop or workers < 1:
        raise ValueError(f"need start <= stop and workers >= 1, got {start}..{stop}, {workers}")
    primes = [p for p in range(max(3, start), stop + 1) if p % 2 and is_prime(p)]
    jobs = [(p, e_max, perturbation_budget) for p in primes]
    pool_size = min(workers, len(jobs), os.cpu_count() or 1)
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            rows = tuple(pool.map(_scan_one, jobs))
    else:
        rows = tuple(map(_scan_one, jobs))
    counts = {"KGFR": 0, "not-KGFR": 0, "unknown": 0}
    for r in rows:
        counts[r.overall] += 1
    total = len(rows)
    fractions = {k: (Fraction(v, total) if total else Fraction(0))
                 for k, v in counts.items()}
    return ScanReport(rows=rows, counts=counts, fractions=fractions)
