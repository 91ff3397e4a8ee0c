"""Double covers of the x-line and the trace pushforward check.

A separable double cover y^2 = f(x) over F_p, p odd, pushes a splitting
of the source couple forward to one of the target couple (P^1, B).  The
check here compares the two composite trace routes on every basis monomial
and reports both couples' splitting verdicts, which must agree.  It serves
the `cover-check` subcommand alone, so the CLI loads this module on first
use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .arith import _check_modulus
from .gsplit import P1Divisor, P1Point, _level_data, gfs_p1_level
from .upoly import (UPoly, _boundary_poly, _dense_trim, _umul, _upow_frobenius,
                    univ_eval, univ_squarefree)


class _DoubleCoverFields(NamedTuple):
    branch: tuple[int, ...]  # f over F_p as c[0..deg f], squarefree; kept reduced, trimmed
    prime: int
    name: str = "double-cover"


class DoubleCover(_DoubleCoverFields):
    """The double cover y^2 = f(x) of the x-line, p odd.

    deg f = 1 gives the squaring cover of P^1 by P^1; deg f = 3 the genus-1
    double cover branched at the roots of f and at infinity.
    """
    __slots__ = ()

    def __new__(cls, branch: tuple[int, ...], prime: int, name: str = "double-cover"):
        _check_modulus(prime)
        f = tuple(_dense_trim([c % prime for c in branch]))
        if not f:
            raise ValueError("branch polynomial must be a nonzero univariate")
        if not univ_squarefree(f, prime):
            raise ValueError("branch polynomial must be squarefree (separable cover)")
        return super().__new__(cls, f, prime, name)

    @property
    def degree(self) -> int:
        return len(self.branch) - 1

    @property
    def branched_at_infinity(self) -> bool:
        return self.degree % 2 == 1

    @classmethod
    def squaring_map(cls, p: int) -> "DoubleCover":
        return cls((0, 1), p, name="x -> x^2")

    @classmethod
    def legendre(cls, lam: int, p: int) -> "DoubleCover":
        lv = lam % p
        if lv in (0, 1):
            raise ValueError("lambda in {0, 1} does not give a smooth double cover")
        return cls((0, lv, (-1 - lv) % p, 1), p, name=f"legendre lambda={lv}")

    def is_branch_value(self, point: P1Point) -> bool:
        if point.is_infinity:
            return self.branched_at_infinity
        return univ_eval(self.branch, point.value, self.prime) == (0, 0)


class CoverCheckReport(NamedTuple):
    agree: bool                   # the two composite trace routes coincide
    source_gfs: Optional[bool]    # GFS of the source couple (when computable)
    target_gfs: bool
    verdicts_agree: Optional[bool]
    monomials_tested: int
    source_boundary_zero: bool


def _routes_agree(lhs_core: UPoly, g_y: UPoly, q: int, degree_range: int) -> tuple[bool, int]:
    """(agree, monomials tested) for the composites on x^i, i < degree_range.

    The level-e selector on x^i * P keeps P's degrees d = q-1-i mod q, as
    x^((d + i - (q-1))/q) with Frobenius^(-e) on the coefficients, both
    injective: the routes agree on x^i iff lhs_core and g_y agree on the
    residue class q-1-i mod q, so every i is decided from one grouping.
    The first disagreement, the smallest i in a differing class, counts as
    tested.
    """
    lhs_by_r: dict[int, UPoly] = {}
    rhs_by_r: dict[int, UPoly] = {}
    for poly, groups in ((lhs_core, lhs_by_r), (g_y, rhs_by_r)):
        for d, c in poly.items():
            groups.setdefault(d % q, {})[d] = c
    differs = {r for r in lhs_by_r.keys() | rhs_by_r.keys()
               if lhs_by_r.get(r) != rhs_by_r.get(r)}
    # the smallest i in residue class r is (q - 1 - r) % q
    first_bad = min(((q - 1 - r) % q for r in differs), default=degree_range)
    return (True, degree_range) if first_bad >= degree_range else (False, first_bad + 1)


def pushforward_splitting_check(cover: DoubleCover, B_target: P1Divisor,
                                e: int) -> CoverCheckReport:
    """Verify trace compatibility through a separable double cover.

    The source boundary is pullback(B_target) - ramification, which must be
    effective.  On the chart the source trace of a section a(x) + b(x)y is
    pick(a * f^((q-1)/2)) + y*pick(b) with pick the level-e coefficient
    selector, and the cover trace is a + by -> 2a.  The check compares, on
    every basis monomial x^i, i < 2q, the source-trace-then-
    cover-trace composite against cover-trace-then-target-trace, and also
    reports the induced (source couple, target couple) splitting verdicts,
    which the pushforward correspondence says must agree.
    """
    p = cover.prime
    if B_target.prime != p:
        raise ValueError("prime mismatch between cover and divisor")
    q, finite_parts, n_inf = _level_data(B_target, e)
    half = (q - 1) // 2

    # effectivity of the source boundary
    b_inf = Fraction(n_inf, q - 1)
    if cover.branched_at_infinity and 2 * b_inf - 1 < 0:
        raise ValueError("source boundary not effective at infinity")
    source_zero = (not cover.branched_at_infinity and n_inf == 0) or \
                  (cover.branched_at_infinity and 2 * b_inf == 1)
    gz_parts = []
    branch_in_support = 0
    for elt, n in finite_parts:
        point = P1Point(elt)
        if cover.is_branch_value(point):
            branch_in_support += 1
            m = 2 * n - (q - 1)  # multiplicity of the ramification point, doubled
            if m < 0:
                raise ValueError(f"source boundary not effective over {point.element(p)!r}")
            # m is even: 2n is, and so is q - 1 since q is odd
            n = m // 2
        if n:
            gz_parts.append((elt, n))
            source_zero = False
    # f is squarefree, so a finite branch point off the support (coefficient
    # 0, pulled back to -1) leaves fewer branch values in it than deg f
    if branch_in_support < cover.degree:
        raise ValueError("source boundary not effective over a branch point "
                         "outside the divisor's support")

    g_y = _boundary_poly(finite_parts, p)
    g_z = _boundary_poly(gz_parts, p)
    branch = {i: (c, 0) for i, c in enumerate(cover.branch) if c}
    f_half = _upow_frobenius(branch, half, p)
    lhs_core = _umul(g_z, f_half, p)

    # On x^i * y monomials both composites vanish identically: the source
    # boundary equation has even y-parity, so the source trace output keeps
    # the factor y and the cover trace kills it, while the cover trace kills
    # x^i * y outright on the other route.  Only the x^i line needs comparing.
    agree, tested = _routes_agree(lhs_core, g_y, q, 2 * q)

    target_gfs, _ = gfs_p1_level(B_target, e)
    source_gfs: Optional[bool] = None
    if source_zero:
        if cover.degree == 1:
            source_gfs, _ = gfs_p1_level(P1Divisor.zero(p), e)
        elif cover.degree == 3:
            source_gfs = q - 1 in f_half
    verdicts_agree = None if source_gfs is None else source_gfs == target_gfs
    return CoverCheckReport(
        agree=agree,
        source_gfs=source_gfs,
        target_gfs=target_gfs,
        verdicts_agree=verdicts_agree,
        monomials_tested=tested,
        source_boundary_zero=source_zero,
    )
