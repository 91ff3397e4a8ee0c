"""Exact section-count engines and Iitaka-dimension certification.

Growth-order certification is deliberately narrow: a value is certified only
when the underlying regime formulas pin the order for all larger multiples
(degree ladders that are eventually degree-determined).  Everything else
comes back as an uncertified interval; section dimensions are never guessed
from finitely many samples alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

NEG_INF = float("-inf")


class _H0IntervalFields(NamedTuple):
    m: int
    lower: int
    upper: int


class H0Interval(_H0IntervalFields):
    __slots__ = ()

    def __new__(cls, m: int, lower: int, upper: int):
        if lower < 0 or lower > upper:
            raise ValueError(f"bad interval [{lower}, {upper}]")
        return super().__new__(cls, m, lower, upper)

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


class KappaResult(NamedTuple):
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

class CurveSectionGrowth(NamedTuple):
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


class _RuledAnticanonicalFields(NamedTuple):
    g: int
    d_D: int


class RuledAnticanonical(_RuledAnticanonicalFields):
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
    __slots__ = ()

    def __new__(cls, g: int, d_D: int):
        if g < 2:
            raise ValueError("the ruled construction needs genus >= 2")
        if d_D <= 2 * g - 2:
            raise ValueError("deg D must exceed 2g - 2")
        return super().__new__(cls, g, d_D)

    @property
    def twist(self) -> int:
        return 2 * self.g - 2 + self.d_D

    def h0(self, m: int) -> H0Interval:
        """The ladder in O(1): rung k has degree m*deg(D) - k*t, and t > 2g-2,
        so at most one rung lies in the band 0..2g-2.  The n rungs above it
        count degree + 1 - g each, an arithmetic series; those below it, 0."""
        g, t, top = self.g, self.twist, m * self.d_D
        n = max(0, (top - (2 * g - 2) - 1) // t + 1)
        lo = hi = n * (top + 1 - g) - t * n * (n - 1) // 2
        if top - n * t >= 0:
            iv = h0_curve(g, top - n * t, None, m)
            lo, hi = lo + iv.lower, hi + iv.upper
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

    A source has `h0(m)` and `kappa_certificate()`.  Its certificate pins the
    growth order structurally; the computed table is still cross-checked
    against the claim, and an inconsistency downgrades the result to an
    uncertified interval.
    """
    if m_max < 1:
        raise ValueError("empty multiple range")
    evidence = tuple(source.h0(m) for m in range(1, m_max + 1))
    low, high, certified, note = source.kappa_certificate()
    if certified and not _consistent_with_order(evidence, low):
        certified, note = False, "certificate inconsistent with computed table"
    return KappaResult(low, high, certified, evidence, note)


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
    if last.upper > 8 * (m ** int(order)) * evidence[0].upper:
        return False
    return True


# -- superadditivity catalog ----------------------------------------------------

class SuperadditivityReport(NamedTuple):
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


# The keys each catalog case reads, with their defaults.
_CASE_DEFAULTS = {
    "legendre": {"p": 5},
    "ruled": {"g": 2, "d": 3},
    "product": {"ordinary": True, "p": 5},
}

# The registered cases: (case, params, expected, basis).  `expected` holds
# the verdicts: inequality holds | holds-with-equality | fails, kgfr yes | no
# (when the case carries a KGFR check), fixed-part fires (the ruled flag).
# `basis` is where the expectation comes from: trivial | derived | literature.
CATALOG = (
    ("legendre", {"p": 5},
     {"inequality": "holds-with-equality", "kgfr": "yes"}, "derived"),
    ("ruled", {"g": 2, "d": 3},
     {"inequality": "fails", "fixed-part": "fires"}, "literature"),
    ("product", {"ordinary": True, "p": 5},
     {"inequality": "holds-with-equality", "kgfr": "yes"}, "derived"),
    ("product", {"ordinary": False, "p": 5},
     {"inequality": "holds-with-equality", "kgfr": "no"}, "derived"),
)


def match_expectation(report: SuperadditivityReport, expected: dict) -> tuple[bool, list[str]]:
    """Whether a report meets a CATALOG row's `expected` verdicts, and the
    problems when it does not."""
    problems = []
    want = expected.get("inequality")
    if want == "holds-with-equality":
        if report.inequality_holds is not True or report.equality_observed is not True:
            problems.append("expected the inequality to hold with equality")
    elif want == "holds":
        if report.inequality_holds is not True:
            problems.append("expected the inequality to hold")
    elif want == "fails":
        if report.inequality_holds is not False:
            problems.append("expected the inequality to fail")
    if expected.get("kgfr") == "yes" and report.hypothesis_flags.get("kgfr") != "KGFR":
        problems.append("expected a KGFR verdict")
    if expected.get("kgfr") == "no" and report.hypothesis_flags.get("kgfr") == "KGFR":
        problems.append("expected a non-KGFR verdict")
    if (expected.get("fixed-part") == "fires"
            and not report.hypothesis_flags.get("fixed_part_flag")):
        problems.append("expected the fixed-part flag to fire")
    return not problems, problems


def case_params(case_id: str, params: dict) -> dict:
    """A catalog case's parameters with its defaults filled in.

    Raises ValueError on an unknown case or key, and on a value of the wrong
    kind: `ordinary` is true or false, every other key an integer.
    """
    if case_id not in _CASE_DEFAULTS:
        raise ValueError(f"unknown catalog case {case_id!r}")
    defaults = _CASE_DEFAULTS[case_id]
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for case {case_id!r}")
        if type(value) is not type(defaults[key]):
            kind = "true or false" if type(defaults[key]) is bool else "an integer"
            raise ValueError(f"parameter {key!r} of case {case_id!r} must be {kind}")
    return {**defaults, **params}


def check_superadditivity(case_id: str, m_max: int = 20, /, **params) -> SuperadditivityReport:
    """Evaluate the anticanonical superadditivity inequality on a catalog case.

    kappa(total space) <= kappa(general fiber) + kappa(base), all for the
    anticanonical bundles.  Uncertified dimensions make the report
    inconclusive rather than silently passing.  `params` are the case's keys
    (see `case_params`); `m_max`, the largest multiple computed, is
    positional so that a case key of that name is refused, not read.
    """
    params = case_params(case_id, params)
    if m_max < 1:  # before the flags: fixed_part_bound divides by m_max
        raise ValueError("empty multiple range")
    notes: list[str] = []
    flags: dict = {}
    elliptic = CurveSectionGrowth(1, 0, "trivial")  # -K of an elliptic curve is trivial
    line = CurveSectionGrowth(0, 2)                 # -K of P^1 is O(2)
    if case_id == "legendre":
        from .fibration import is_kgfr_legendre
        # -K_X = f^*O(1) and f_*O_X = O_Y, so h0(-mK_X) = h0(P^1, O(m))
        sources = (CurveSectionGrowth(0, 1), elliptic, line)
        verdict = is_kgfr_legendre(params["p"])
        flags["kgfr"] = verdict.overall
        flags["fiber_gfs"] = verdict.fiber_gfs
        notes.append("anticanonical system is pulled back from the base line")
    elif case_id == "ruled":
        g = params["g"]
        ruled = RuledAnticanonical(g, params["d"])
        sources = (ruled, line, CurveSectionGrowth(g, 2 - 2 * g))
        bound_table = {m: ruled.fixed_part_bound(m) for m in (1, 5, 10, m_max)}
        limit = ruled.fixed_part_limit()
        flags["fixed_part_bounds"] = {str(m): str(v) for m, v in sorted(bound_table.items())}
        flags["fixed_part_limit"] = limit
        flags["fixed_part_flag"] = limit >= 1
        if limit >= 1:
            notes.append("anticanonical fixed part with coefficient >= 1 dominates the base;"
                         " the positivity hypotheses of the inequality fail here")
    else:  # product: (elliptic curve) x P^1
        from .gsplit import P1Divisor, gfr_p1_bounded
        ordinary = params["ordinary"]
        # -K = pr^*O(2) and pr_*O = O_{P^1}, so h0(-mK) = h0(P^1, O(2m))
        sources = (line, elliptic, line)
        base_gfr = gfr_p1_bounded(P1Divisor.zero(params["p"]))
        flags["fiber_gfs"] = ordinary
        flags["base_gfr"] = base_gfr.status
        flags["kgfr"] = "KGFR" if (ordinary and base_gfr.is_yes) else "not-KGFR"

    total, fiber, base = (kappa_estimate(src, m_max) for src in sources)
    conclusive, holds, equal = _judge(total, fiber, base)
    return SuperadditivityReport(
        case_id=case_id,
        params=params,
        kappa_total=total,
        kappa_fiber=fiber,
        kappa_base=base,
        conclusive=conclusive,
        inequality_holds=holds,
        equality_observed=equal,
        hypothesis_flags=flags,
        notes=tuple(notes),
    )
