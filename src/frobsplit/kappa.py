"""Exact section-count engines and Iitaka-dimension certification.

Growth-order certification is deliberately narrow: a value is certified only
when the underlying regime formulas pin the order for all larger multiples
(degree ladders that are eventually degree-determined).  Everything else
comes back as an uncertified interval; section dimensions are never guessed
from finitely many samples alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

NEG_INF = float("-inf")


@dataclass(frozen=True)
class H0Interval:
    m: int
    lower: int
    upper: int

    def __post_init__(self):
        if self.lower < 0 or self.lower > self.upper:
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    @property
    def pinned(self) -> bool:
        return self.lower == self.upper


def h0_curve(g: int, d: int, degree_zero: Optional[str] = None, m: int = 1) -> H0Interval:
    """Section count of a degree-d line bundle on a genus-g curve.

    Degree-determined regimes are exact: d < 0 gives 0, d > 2g-2 gives
    d+1-g.  Degree 0 needs the explicit flag ('trivial' or 'generic') to be
    pinned; otherwise the ambiguous band 0 <= d <= 2g-2 returns the
    Riemann-Roch lower bound against the Clifford upper bound.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if d < 0:
        return H0Interval(m, 0, 0)
    if d > 2 * g - 2:
        return H0Interval(m, d + 1 - g, d + 1 - g)
    if d == 0 and degree_zero is not None:
        if degree_zero == "trivial":
            return H0Interval(m, 1, 1)
        if degree_zero == "generic":
            return H0Interval(m, 0, 0)
        raise ValueError("degree_zero flag must be 'trivial' or 'generic'")
    return H0Interval(m, max(0, d + 1 - g), 1 + d // 2)


@dataclass(frozen=True)
class KappaResult:
    low: float       # int or -inf
    high: float
    certified: bool
    evidence: tuple[H0Interval, ...] = ()
    note: str = ""

    @property
    def value(self):
        """The certified value, or None when only an interval is known."""
        return self.low if self.certified and self.low == self.high else None

    def describe(self) -> str:
        def fmt(v):
            return "-inf" if v == NEG_INF else str(int(v))
        if self.value is not None:
            return fmt(self.value)
        return f"[{fmt(self.low)}, {fmt(self.high)}]"


# -- section-count sources -----------------------------------------------------

@dataclass(frozen=True)
class CurveSectionGrowth:
    """Multiples of a degree-d bundle on a genus-g curve."""
    g: int
    d: int
    degree_zero: Optional[str] = None

    def h0(self, m: int) -> H0Interval:
        return h0_curve(self.g, m * self.d, self.degree_zero, m)

    def kappa_certificate(self):
        if self.d > 0:
            return (1, 1, True, "positive degree: section count grows linearly")
        if self.d < 0:
            return (NEG_INF, NEG_INF, True, "negative degree: no sections at any multiple")
        if self.degree_zero == "trivial":
            return (0, 0, True, "trivial bundle: constant sections")
        if self.degree_zero == "generic":
            return (NEG_INF, NEG_INF, True, "generic degree-0 bundle: no multiple is effective")
        return (NEG_INF, 0, False, "degree 0 without a triviality flag")


@dataclass(frozen=True)
class TrivialBundleSections:
    """h^0 identically 1; the anticanonical bundle of an elliptic fiber."""

    def h0(self, m: int) -> H0Interval:
        return H0Interval(m, 1, 1)

    def kappa_certificate(self):
        return (0, 0, True, "constant nonzero section count")


@dataclass(frozen=True)
class LegendreAnticanonical:
    """Anticanonical multiples of the Legendre surface.

    The canonical bundle is the pullback of a degree -1 bundle from the base
    line, so anticanonical sections are exactly the pulled-back binary forms
    of degree m: dimension m + 1 on the nose.
    """
    p: int

    def h0(self, m: int) -> H0Interval:
        return H0Interval(m, m + 1, m + 1)

    def kappa_certificate(self):
        return (1, 1, True, "pullback of a degree-1 bundle on the base line")


@dataclass(frozen=True)
class ProductAnticanonical:
    """Anticanonical multiples of (elliptic curve) x P^1: pulled back from P^1."""
    ordinary: bool = True

    def h0(self, m: int) -> H0Interval:
        return H0Interval(m, 2 * m + 1, 2 * m + 1)

    def kappa_certificate(self):
        return (1, 1, True, "pullback of the degree-2 anticanonical bundle of P^1")


@dataclass(frozen=True)
class RuledAnticanonical:
    """Anticanonical multiples of P(O + O(-K-D)) over a genus-g curve.

    Writing t = 2g - 2 + deg D > 0 for the negative of the twisting degree,
    the rank-(2m+1) symmetric power splits the count into the ladder

        h^0(-mK) = sum_{k=0}^{2m} h0_curve(g, m*deg(D) - k*t),

    derived once from the projectivized-bundle canonical class
    -K = 2*xi + (fiber pull of D) and validated against the m = 1 positivity
    below.  Summands above k_max(m) = floor(m*deg(D)/t) have negative degree
    and vanish; the missing top powers force a fixed component along the
    negative section with coefficient (2m - k_max(m))/m.
    """
    g: int
    d_D: int

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("the ruled construction needs genus >= 2")
        if self.d_D <= 2 * self.g - 2:
            raise ValueError("deg D must exceed 2g - 2")

    @property
    def twist(self) -> int:
        return 2 * self.g - 2 + self.d_D

    def summand_degree(self, m: int, k: int) -> int:
        return m * self.d_D - k * self.twist

    def h0(self, m: int) -> H0Interval:
        lo = hi = 0
        for k in range(2 * m + 1):
            iv = h0_curve(self.g, self.summand_degree(m, k), None, m)
            lo += iv.lower
            hi += iv.upper
        return H0Interval(m, lo, hi)

    def k_max(self, m: int) -> int:
        return (m * self.d_D) // self.twist

    def fixed_part_bound(self, m: int) -> Fraction:
        return Fraction(2 * m - self.k_max(m), m)

    def fixed_part_limit(self) -> Fraction:
        return 2 - Fraction(self.d_D, self.twist)

    def kappa_certificate(self):
        # lower bounds already grow quadratically through the determined
        # summands, and Clifford caps every summand by 1 + degree/2, which
        # sums to a quadratic; both orders are pinned for all larger m
        return (2, 2, True, "two-sided quadratic growth from the degree ladder")


def h0_ruled_anticanonical(g: int, d_D: int, m: int) -> H0Interval:
    return RuledAnticanonical(g, d_D).h0(m)


def kappa_estimate(source, m_max: int) -> KappaResult:
    """Certified growth order when the source's regime formulas allow it.

    Sources carrying a kappa_certificate have structurally pinned growth;
    the computed table is still cross-checked against the claim and any
    inconsistency downgrades the result to an uncertified interval.  Plain
    callables produce data-driven uncertified intervals only.
    """
    if m_max < 1:
        raise ValueError("empty multiple range")
    if callable(source) and not hasattr(source, "h0"):
        evidence = tuple(source(m) for m in range(1, m_max + 1))
        certificate = None
    else:
        evidence = tuple(source.h0(m) for m in range(1, m_max + 1))
        certificate = getattr(source, "kappa_certificate", None)

    if certificate is not None:
        low, high, certified, note = certificate()
        if certified:
            ok = _consistent_with_order(evidence, low)
            if not ok:
                return KappaResult(low=low, high=high, certified=False,
                                   evidence=evidence,
                                   note="certificate inconsistent with computed table")
            return KappaResult(low=low, high=high, certified=True,
                               evidence=evidence, note=note)
        return KappaResult(low=low, high=high, certified=False,
                           evidence=evidence, note=note)

    # data-driven fallback: bound the order from the computed table
    if all(iv.upper == 0 for iv in evidence):
        return KappaResult(NEG_INF, NEG_INF, False, evidence,
                           "no sections in the computed range")
    top = evidence[-1]
    d_hi = _order_fit(top.upper, m_max)
    d_lo = NEG_INF if top.lower == 0 else 0
    return KappaResult(d_lo, d_hi, False, evidence, "finite-sample estimate")


def _order_fit(value: int, m: int) -> int:
    d = 0
    while m ** (d + 1) <= value and d < 3:
        d += 1
    return d


def _consistent_with_order(evidence: tuple[H0Interval, ...], order: float) -> bool:
    last = evidence[-1]
    if order == NEG_INF:
        return all(iv.upper == 0 for iv in evidence)
    if order == 0:
        return last.lower >= 1 and all(iv.upper <= last.upper for iv in evidence)
    m = last.m
    if last.lower < 1:
        return False
    # two-sided polynomial sandwich with generous constants
    if last.lower * 8 < m ** int(order) and m >= 4:
        return False
    if last.upper > 8 * (m ** int(order)) * max(iv.upper for iv in evidence[:1] or [last]):
        return False
    return True


# -- superadditivity catalog ----------------------------------------------------

@dataclass(frozen=True)
class SuperadditivityReport:
    case_id: str
    params: dict
    kappa_total: KappaResult
    kappa_fiber: KappaResult
    kappa_base: KappaResult
    conclusive: bool
    inequality_holds: Optional[bool]
    equality_observed: Optional[bool]
    hypothesis_flags: dict
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "kappa_total": self.kappa_total.describe(),
            "kappa_fiber": self.kappa_fiber.describe(),
            "kappa_base": self.kappa_base.describe(),
            "conclusive": self.conclusive,
            "inequality_holds": self.inequality_holds,
            "equality_observed": self.equality_observed,
            "hypothesis_flags": {k: (str(v) if isinstance(v, Fraction) else v)
                                 for k, v in sorted(self.hypothesis_flags.items())},
            "notes": list(self.notes),
        }


def _judge(total: KappaResult, fiber: KappaResult, base: KappaResult):
    if not (total.certified and fiber.certified and base.certified):
        return False, None, None
    lhs = total.value
    rhs = fiber.value + base.value
    holds = lhs <= rhs
    equal = lhs == rhs
    return True, holds, equal


def check_superadditivity(case_id: str, m_max: int = 20, **params) -> SuperadditivityReport:
    """Evaluate the anticanonical superadditivity inequality on a catalog case.

    kappa(total space) <= kappa(general fiber) + kappa(base), all for the
    anticanonical bundles.  Uncertified dimensions make the report
    inconclusive rather than silently passing.
    """
    notes: list[str] = []
    flags: dict = {}
    if case_id == "legendre":
        p = int(params.get("p", 5))
        from .fibration import is_kgfr_legendre
        total = kappa_estimate(LegendreAnticanonical(p), max(m_max, 50))
        fiber = kappa_estimate(TrivialBundleSections(), m_max)
        base = kappa_estimate(CurveSectionGrowth(0, 2), m_max)
        verdict = is_kgfr_legendre(p)
        flags["kgfr"] = verdict.overall
        flags["fiber_gfs"] = verdict.fiber_gfs
        notes.append("anticanonical system is pulled back from the base line")
        report_params = {"p": p}
    elif case_id == "ruled":
        g = int(params.get("g", 2))
        d = int(params.get("d", params.get("d_D", 3)))
        src = RuledAnticanonical(g, d)
        total = kappa_estimate(src, m_max)
        fiber = kappa_estimate(CurveSectionGrowth(0, 2), m_max)
        base = kappa_estimate(CurveSectionGrowth(g, 2 - 2 * g), m_max)
        bound_table = {m: src.fixed_part_bound(m) for m in (1, 5, 10, m_max)}
        limit = src.fixed_part_limit()
        flags["fixed_part_bounds"] = {str(m): str(v) for m, v in sorted(bound_table.items())}
        flags["fixed_part_limit"] = limit
        flags["fixed_part_flag"] = limit >= 1
        if limit >= 1:
            notes.append("anticanonical fixed part with coefficient >= 1 dominates the base;"
                         " the positivity hypotheses of the inequality fail here")
        report_params = {"g": g, "d": d}
    elif case_id in ("product", "product-ordinary", "product-supersingular"):
        ordinary = bool(params.get("ordinary", case_id != "product-supersingular"))
        from .gsplit import P1Divisor, gfr_p1_bounded
        total = kappa_estimate(ProductAnticanonical(ordinary), m_max)
        fiber = kappa_estimate(TrivialBundleSections(), m_max)
        base = kappa_estimate(CurveSectionGrowth(0, 2), m_max)
        p = int(params.get("p", 5))
        base_gfr = gfr_p1_bounded(P1Divisor.zero(p))
        flags["fiber_gfs"] = ordinary
        flags["base_gfr"] = base_gfr.status
        flags["kgfr"] = "KGFR" if (ordinary and base_gfr.is_yes) else "not-KGFR"
        report_params = {"ordinary": ordinary, "p": p}
    else:
        raise ValueError(f"unknown catalog case {case_id!r}")

    conclusive, holds, equal = _judge(total, fiber, base)
    return SuperadditivityReport(
        case_id=case_id,
        params=report_params,
        kappa_total=total,
        kappa_fiber=fiber,
        kappa_base=base,
        conclusive=conclusive,
        inequality_holds=holds,
        equality_observed=equal,
        hypothesis_flags=flags,
        notes=tuple(notes),
    )
