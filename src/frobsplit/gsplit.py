"""Global Frobenius-splitting decision procedures on the projective line,
Calabi-Yau hypersurfaces, bigraded hypersurfaces in products of projective
spaces, bounded global F-regularity, and double-cover trace pushforward.

The P^1 criterion in coordinates: for a couple (P^1, B) with coefficients in
[0, 1] and (q-1)B integral at q = p^e, write n_i = (q-1)b_i at the finite
support points and n_inf = (q-1)b_inf.  Sections of the level-e splitting
bundle are h = x^j with 0 <= j <= 2(q-1) - n_inf - sum(n_i), the twisted
trace reads the x^(q-1) coefficient of h * g for g = prod (x - lambda_i)^n_i,
and a single monomial h suffices because splitting is nonvanishing of one
linear functional.  The couple splits at level e iff some window coefficient
coeff_{x^(q-1-j)}(g) is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Optional, Sequence

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement,
                    _check_modulus, lift_to_ext, normalize_element,
                    require_p_free, splitting_level)
from .fedder import _pruned_power_survives
from .mpoly import MPoly, univ_squarefree, univ_to_dense

DEFAULT_EMAX = 2
DEFAULT_POINT_BUDGET = 20000
_ALL = "all"  # every finite perturbation centre fails (_finite_centres_failing)


# -- points and divisors on P^1 ----------------------------------------------

class P1Point:
    """A closed point of P^1: a finite value in F_p or F_{p^2}, or infinity.

    Extension values with zero t-part normalize down to the prime field, so
    the same geometric point always compares and hashes equal.
    """

    __slots__ = ("value",)

    def __init__(self, value: AnyFieldElement | None):
        if value is not None:
            value = normalize_element(value)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("P1Point is immutable")

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(None)

    @classmethod
    def finite(cls, value: AnyFieldElement | int, p: int | None = None) -> "P1Point":
        if isinstance(value, int):
            if p is None:
                raise ValueError("an integer point needs the prime")
            value = FieldElement(value, p)
        return cls(value)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def field_level(self) -> int:
        if self.value is None or isinstance(self.value, FieldElement):
            return 1
        return 2

    def sort_key(self):
        if self.value is None:
            return (2, 0, 0)
        if isinstance(self.value, FieldElement):
            return (0, self.value.value, 0)
        return (1, self.value.a, self.value.b)

    def __eq__(self, other):
        if not isinstance(other, P1Point):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("P1Point", self.value))

    def __repr__(self):
        return f"P1Point({self})"

    def __str__(self):
        if self.value is None:
            return "inf"
        if isinstance(self.value, FieldElement):
            return str(self.value.value)
        return f"{self.value.a}+{self.value.b}t"


def parse_point(text: str, p: int) -> P1Point:
    text = text.strip()
    if text in ("inf", "infty", "oo"):
        return P1Point.infinity()
    if "t" in text:
        head, _, tail = text.partition("t")
        if tail:
            raise ValueError(f"bad point {text!r}: text after 't'")
        a_str, sep, b_str = head.rpartition("+")
        if not sep:
            a_str, sep, b_str = head.rpartition("-")
            if sep:
                b_str = "-" + b_str
        if not sep:
            a_str, b_str = "0", head or "1"
        b_str = b_str.rstrip("*")
        if b_str in ("", "-"):
            b_str += "1"
        return P1Point(ExtFieldElement(int(a_str), int(b_str), p))
    return P1Point(FieldElement(int(text), p))


class P1Divisor:
    """Formal sum of P^1 points with exact rational, p-integral coefficients.

    Duplicate points are merged and zero coefficients dropped, so supports
    are always reduced.
    """

    __slots__ = ("prime", "entries")

    def __init__(self, prime: int, entries: Iterable[tuple[P1Point, Fraction]] = ()):
        _check_modulus(prime)
        object.__setattr__(self, "prime", prime)
        acc: dict[P1Point, Fraction] = {}
        for point, c in entries:
            if not isinstance(point, P1Point):
                raise TypeError("divisor entries need P1Point keys")
            if point.value is not None and point.value.modulus != prime:
                raise ValueError("point modulus mismatch")
            c = require_p_free(Fraction(c), prime)
            c = acc.get(point, Fraction(0)) + c
            if c:
                acc[point] = c
            elif point in acc:
                del acc[point]
        object.__setattr__(self, "entries", acc)

    def __setattr__(self, name, val):
        raise AttributeError("P1Divisor is immutable")

    @classmethod
    def zero(cls, prime: int) -> "P1Divisor":
        return cls(prime, ())

    def coefficient(self, point: P1Point) -> Fraction:
        return self.entries.get(point, Fraction(0))

    @property
    def degree(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def support(self) -> list[P1Point]:
        return sorted(self.entries, key=P1Point.sort_key)

    def sorted_entries(self) -> list[tuple[P1Point, Fraction]]:
        return [(pt, self.entries[pt]) for pt in self.support()]

    def add_point(self, point: P1Point, c: Fraction) -> "P1Divisor":
        return P1Divisor(self.prime, list(self.entries.items()) + [(point, Fraction(c))])

    def __add__(self, other: "P1Divisor") -> "P1Divisor":
        if self.prime != other.prime:
            raise ValueError("prime mismatch")
        return P1Divisor(self.prime, list(self.entries.items()) + list(other.entries.items()))

    def __eq__(self, other):
        if not isinstance(other, P1Divisor):
            return NotImplemented
        return self.prime == other.prime and self.entries == other.entries

    def __le__(self, other: "P1Divisor") -> bool:
        """Coefficientwise comparison: self <= other."""
        points = set(self.entries) | set(other.entries)
        return all(self.coefficient(pt) <= other.coefficient(pt) for pt in points)

    def __repr__(self):
        body = " + ".join(f"{v}({pt})" for pt, v in self.sorted_entries())
        return f"P1Divisor(p={self.prime}: {body or '0'})"

    def level(self) -> int:
        """Smallest e with (p^e - 1)*B integral."""
        return splitting_level(self.entries.values(), self.prime)


def parse_divisor(text: str, p: int) -> P1Divisor:
    """Grammar: comma-separated entries 'num/den@point', point int / a+bt / inf."""
    entries = []
    text = text.strip()
    if text and text != "0":
        for chunk in text.split(","):
            coeff_str, sep, point_str = chunk.partition("@")
            if not sep:
                raise ValueError(f"bad divisor entry {chunk!r}, expected coeff@point")
            try:
                coeff = Fraction(coeff_str.strip())
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {chunk!r}") from None
            entries.append((parse_point(point_str, p), coeff))
    return P1Divisor(p, entries)


# -- verdicts -----------------------------------------------------------------

YES = "yes"
NO = "no"
CERTIFIED_NO = "certified-no"
UNKNOWN = "unknown"


@dataclass
class GfsVerdict:
    status: str
    level: Optional[int] = None
    certificate: Optional[int] = None       # the monomial index j of a splitting section
    levels_tested: tuple[int, ...] = ()
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_certified_no(self) -> bool:
        return self.status == CERTIFIED_NO

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.level is not None:
            out["level"] = self.level
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.levels_tested:
            out["levels_tested"] = list(self.levels_tested)
        if self.reason:
            out["reason"] = self.reason
        if self.evidence:
            out["evidence"] = {k: self.evidence[k] for k in sorted(self.evidence)}
        return out


# -- sparse univariate arithmetic over F_p / F_{p^2} --------------------------

UPoly = dict  # degree -> field element, zero coefficients absent


def _uone(p: int, ext: bool) -> AnyFieldElement:
    return ExtFieldElement(1, 0, p) if ext else FieldElement(1, p)


def _umul(f: UPoly, g: UPoly) -> UPoly:
    out: UPoly = {}
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    for d1, c1 in small.items():
        for d2, c2 in big.items():
            d = d1 + d2
            v = out.get(d)
            v = c1 * c2 if v is None else v + c1 * c2
            if v.is_zero():
                out.pop(d, None)
            else:
                out[d] = v
    return out


def _upow_small(f: UPoly, k: int, p: int, ext: bool) -> UPoly:
    result: UPoly = {0: _uone(p, ext)}
    base = f
    while k:
        if k & 1:
            result = _umul(result, base)
        k >>= 1
        if k:
            base = _umul(base, base)
    return result


def _ufrob(f: UPoly, j: int, p: int) -> UPoly:
    """f -> f^(p^j): exponents scale by p^j, coefficients get Frobenius^j."""
    s = p ** j
    conj = j % 2 == 1
    out: UPoly = {}
    for d, c in f.items():
        out[d * s] = c.frobenius() if conj and isinstance(c, ExtFieldElement) else c
    return out


def _upow_frobenius(f: UPoly, n: int, p: int, ext: bool) -> UPoly:
    """f^n via base-p digits: prod_j Frob^j(f^(d_j)), exact over F_p / F_{p^2}."""
    if n == 0:
        return {0: _uone(p, ext)}
    pieces = []
    j = 0
    while n:
        d = n % p
        if d:
            pieces.append(_ufrob(_upow_small(f, d, p, ext), j, p))
        n //= p
        j += 1
    return reduce(_umul, pieces)


def _boundary_poly(finite_parts: Sequence[tuple[AnyFieldElement, int]], p: int) -> UPoly:
    """prod (x - lambda_i)^(n_i), grouped by exponent for Frobenius powering."""
    ext = any(isinstance(elt, ExtFieldElement) for elt, _ in finite_parts)
    one = _uone(p, ext)
    by_n: dict[int, UPoly] = {}
    for elt, n in finite_parts:
        if n == 0:
            continue
        if ext:
            elt = lift_to_ext(elt, p)
        u = {1: one, 0: -elt}
        by_n[n] = _umul(by_n[n], u) if n in by_n else u
    prod: UPoly = {0: one}
    for n, u in sorted(by_n.items()):
        prod = _umul(prod, _upow_frobenius(u, n, p, ext))
    return prod


def _level_data(B: P1Divisor, e: int):
    """Validate and convert: returns (q, finite_parts, n_inf)."""
    if e < 1:
        raise ValueError("level e must be >= 1")
    p = B.prime
    q = p ** e
    finite_parts = []
    n_inf = 0
    for point, c in B.sorted_entries():
        if c < 0 or c > 1:
            raise ValueError(f"coefficient {c} at {point} outside [0, 1]")
        n = c * (q - 1)
        if n.denominator != 1:
            raise ValueError(f"(p^e - 1)*B is not integral at level e = {e}")
        if point.is_infinity:
            n_inf = int(n)
        else:
            finite_parts.append((point.value, int(n)))
    return q, finite_parts, n_inf


def gfs_p1_level(B: P1Divisor, e: int) -> tuple[bool, Optional[int]]:
    """Level-e splitting test for (P^1, B); returns (split?, certificate j).

    The certificate j is the monomial index of a splitting section: replaying
    the window scan at (B, e) finds the x^(q-1-j) coefficient of g nonzero.
    A negative degree budget means no admissible sections and returns False.
    """
    q, finite_parts, n_inf = _level_data(B, e)
    S = sum(n for _, n in finite_parts)
    D = 2 * (q - 1) - n_inf - S
    if D < 0:
        return False, None
    if S <= q - 1:
        # g is monic of degree S and x^S lies in the window: instant certificate
        return True, q - 1 - S
    g = _boundary_poly(finite_parts, B.prime)
    lo = max(0, q - 1 - D)
    for k in range(min(q - 1, S), lo - 1, -1):
        c = g.get(k)
        if c is not None and not c.is_zero():
            return True, q - 1 - k
    return False, None


def gfs_p1(B: P1Divisor, e_max: int = DEFAULT_EMAX) -> GfsVerdict:
    """Global F-splitting search over levels e = d, 2d, ... <= e_max.

    d is the minimal level clearing the coefficient denominators.  A degree
    > 2 boundary violates the sub-log-canonical necessary condition and is a
    certified No; otherwise the answer is Yes with a replayable certificate
    or No with the list of levels tried; Unknown if no level is <= e_max.
    """
    for _, c in B.sorted_entries():
        if c < 0 or c > 1:
            return GfsVerdict(CERTIFIED_NO, reason=f"coefficient {c} outside [0, 1]")
    if B.degree > 2:
        return GfsVerdict(CERTIFIED_NO, reason="deg B > 2: not sub-log-canonical")
    d = B.level()
    levels = tuple(range(d, e_max + 1, d))
    if not levels:
        return GfsVerdict(UNKNOWN, reason="no admissible level within e_max")
    for e in levels:
        ok, j = gfs_p1_level(B, e)
        if ok:
            return GfsVerdict(YES, level=e, certificate=j, levels_tested=levels)
    return GfsVerdict(NO, levels_tested=levels)


def _centre_index(pt: P1Point, p: int) -> int:
    """Place in the family order of P^1(F_{p^2}): inf, F_p by value, a+bt by
    (b, a).  _centre_at inverts it."""
    v = pt.value
    if v is None:
        return 0
    return 1 + (v.value if isinstance(v, FieldElement) else p * v.b + v.a)


def _centre_at(i: int, p: int) -> P1Point:
    b, a = divmod(i - 1, p)
    return P1Point(ExtFieldElement(a, b, p) if i else None)


def _finite_centres_failing(B: P1Divisor, e: int):
    """Finite centres s whose perturbation B + (s)/(q-1) fails at level e:
    none (None), all (_ALL), or one, returned as its _centre_index."""
    q, finite_parts, n_inf = _level_data(B, e)
    S = sum(n for _, n in finite_parts) + 1
    D = 2 * (q - 1) - n_inf - S
    if D < 0:
        return _ALL
    if S <= q - 1:
        return None
    g = _boundary_poly(finite_parts, B.prime)
    roots = set()
    for k in range(max(0, q - 1 - D), q):
        a, b = g.get(k - 1, 0), g.get(k, 0)
        if b:
            roots.add(_centre_index(P1Point(a / b), B.prime))
        elif a:
            return None  # c_k is a nonzero constant
    if not roots:
        return _ALL
    return roots.pop() if len(roots) == 1 else None


def gfr_p1_bounded(B: P1Divisor, e_max: int = DEFAULT_EMAX,
                   perturbation_budget: int = DEFAULT_POINT_BUDGET) -> GfsVerdict:
    """Bounded global F-regularity test for (P^1, B).

    CertifiedNo on the structural obstructions (a coefficient >= 1 or
    deg B >= 2).  Yes needs all of:

    * the aggregate certificate: one level e <= e_max splitting
      B + E0/(p^e - 1), where E0 is the sum of the boundary support points
      plus one auxiliary point, so that the complement of E0 is affine and
      regular -- the standard sufficient criterion for F-regularity;
    * every single-point perturbation B + (P)/(p^e - 1) over the first
      perturbation_budget centres P of P^1(F_{p^2}) (inf, F_p by value,
      a+bt by (b, a)) splitting at some tested level;
    * the symbolic generic-point perturbation splitting likewise.

    A finite centre s turns the boundary polynomial g into g*(x - s), whose
    window coefficients g[k-1] - s*g[k] are affine in s: at each level the
    failing finite centres are none, all (then every centre fails and so
    does the generic point), or g[k-1]/g[k].  That covers the support points
    too, so only inf is tested one at a time: one boundary polynomial per
    level, O(|support| * levels) work, not O(p^2).  Anything short of Yes
    returns Unknown with the first ten failures recorded; the family is not
    claimed complete for No.
    """
    if perturbation_budget < 0:
        raise ValueError(f"perturbation budget must be >= 0, got {perturbation_budget}")
    p = B.prime
    for point, c in B.sorted_entries():
        if c >= 1:
            return GfsVerdict(CERTIFIED_NO, reason=f"coefficient {c} at {point} is >= 1")
        if c < 0:
            return GfsVerdict(CERTIFIED_NO, reason=f"coefficient {c} at {point} is negative")
    if B.degree >= 2:
        return GfsVerdict(CERTIFIED_NO, reason="deg B >= 2: boundary is not log Fano")
    d = B.level()
    levels = tuple(range(d, e_max + 1, d))
    budgets = {"e_max": e_max, "perturbation_budget": perturbation_budget,
               "levels": list(levels)}
    if not levels:
        return GfsVerdict(UNKNOWN, reason="no admissible level within e_max",
                          evidence=budgets)

    # aggregate certificate; a nonempty support already has affine complement.
    # No perturbation lifts a c < 1 above 1: (q-1)*c is an integer < q - 1.
    support = B.support()
    aggregate = None
    for e in levels:
        E0 = [(pt, Fraction(1, p ** e - 1)) for pt in support or [P1Point.infinity()]]
        ok, j = gfs_p1_level(B + P1Divisor(p, E0), e)
        if ok:
            aggregate = (e, j)
            break

    # A centre fails when it fails at every level; a support point s, like
    # any finite centre, turns g into g*(x - s), so only inf is tested alone.
    tested = min(perturbation_budget, p * p + 1)
    outcomes = {_finite_centres_failing(B, e) for e in levels} - {_ALL}
    if not outcomes:  # inf perturbs the same zero window
        failing = range(tested)
    else:
        inf = P1Point.infinity()
        failing = [0] if tested and not any(
            gfs_p1_level(B.add_point(inf, Fraction(1, p ** e - 1)), e)[0]
            for e in levels) else []
        if len(outcomes) == 1 and None not in outcomes:
            failing += [r for r in outcomes if r < tested]
    generic_ok = bool(outcomes)
    truncated = tested < p * p + 1

    evidence = dict(budgets)
    evidence.update({
        "aggregate_certificate": list(aggregate) if aggregate else None,
        "points_tested": tested,
        "family_failures": [str(_centre_at(i, p)) for i in failing[:10]],
        "generic_point": generic_ok,
        "truncated": truncated,
    })
    if aggregate and not failing and generic_ok and not truncated:
        return GfsVerdict(YES, level=aggregate[0], certificate=aggregate[1],
                          levels_tested=levels, evidence=evidence)
    reasons = []
    if aggregate is None:
        reasons.append("no aggregate certificate within e_max")
    if failing:
        reasons.append(f"{len(failing)} point perturbations undecided")
    if not generic_ok:
        reasons.append("generic perturbation undecided")
    if truncated:
        reasons.append("point family truncated by budget")
    return GfsVerdict(UNKNOWN, levels_tested=levels, reason="; ".join(reasons),
                      evidence=evidence)


# -- hypersurface criteria ----------------------------------------------------

def gfs_cy_hypersurface(F: MPoly, e: int = 1) -> bool:
    """Splitting of a Calabi-Yau hypersurface (degree = nvars) in P^n.

    Fedder's criterion: True iff the coefficient of (x_0*...*x_n)^(q-1) in
    F^(q-1) is nonzero.  F^(q-1) is homogeneous of degree n1*(q-1), so that
    diagonal monomial is its only one with every exponent <= q-1, and the
    test is exactly F^(q-1) outside m^[q]: fedder's kernel decides it from
    the pruned powers F^d mod m^[q], d < p, never expanding F^(q-1).
    """
    n1 = F.nvars
    if F.is_zero() or not F.is_homogeneous_on(range(n1)) or F.degree() != n1:
        raise ValueError(f"F must be homogeneous of degree {n1} in {n1} variables")
    if e < 1:
        raise ValueError("e must be >= 1")
    q = F.p ** e
    return _pruned_power_survives(F, q - 1, q)


def gfs_bigraded_hypersurface(F: MPoly, groups: tuple[int, int], e: int = 1) -> bool:
    """Splitting test for a bihomogeneous hypersurface in P^m x P^n.

    Operational criterion: F^(q-1) must contain a monomial all of whose
    exponents are <= q-1; the complementary monomial then supplies the
    multiplier of the remaining anticanonical budget.  Sufficiency is exact;
    necessity is only cross-validated downstream, never assumed.  Such a
    monomial exists iff F^(q-1) is outside m^[q], which fedder's kernel
    decides from the pruned powers F^d mod m^[q], d < p (a nonzero constant
    F survives, so it splits).
    """
    g1, g2 = groups
    if g1 + g2 != F.nvars:
        raise ValueError("variable groups do not partition the variables")
    idx1, idx2 = range(g1), range(g1, g1 + g2)
    if F.is_zero() or not (F.is_homogeneous_on(idx1) and F.is_homogeneous_on(idx2)):
        raise ValueError("F is not bihomogeneous")
    a, b = F.degree_on(idx1), F.degree_on(idx2)
    if a > g1 or b > g2:
        raise ValueError(f"bidegree ({a}, {b}) outside the anticanonical-nonnegative regime")
    if e < 1:
        raise ValueError("e must be >= 1")
    q = F.p ** e
    return _pruned_power_survives(F, q - 1, q)


# -- double covers and trace pushforward --------------------------------------

@dataclass(frozen=True)
class DoubleCover:
    """The double cover y^2 = f(x) of the x-line, p odd.

    deg f = 1 gives the squaring cover of P^1 by P^1; deg f = 3 the genus-1
    double cover branched at the roots of f and at infinity.
    """
    branch_poly: MPoly  # univariate f over F_p, squarefree
    name: str = "double-cover"

    def __post_init__(self):
        f = self.branch_poly
        if f.nvars != 1 or f.is_zero():
            raise ValueError("branch polynomial must be a nonzero univariate")
        if not univ_squarefree(f):
            raise ValueError("branch polynomial must be squarefree (separable cover)")

    @property
    def prime(self) -> int:
        return self.branch_poly.p

    @property
    def branched_at_infinity(self) -> bool:
        return self.branch_poly.degree() % 2 == 1

    @classmethod
    def squaring_map(cls, p: int) -> "DoubleCover":
        return cls(MPoly.variable(0, 1, p), name="x -> x^2")

    @classmethod
    def legendre(cls, lam: int | AnyFieldElement, p: int) -> "DoubleCover":
        if isinstance(lam, int):
            lam = FieldElement(lam, p)
        if lam == 0 or lam == 1:
            raise ValueError("lambda in {0, 1} does not give a smooth double cover")
        if isinstance(lam, ExtFieldElement):
            raise ValueError("the branch polynomial must have F_p coefficients")
        lv = lam.value
        x = MPoly.variable(0, 1, p)
        return cls(x * (x - 1) * (x - lv), name=f"legendre lambda={lv}")

    def is_branch_value(self, point: P1Point) -> bool:
        if point.is_infinity:
            return self.branched_at_infinity
        val = self.branch_poly.eval_univariate(
            point.value if isinstance(point.value, FieldElement) else point.value)
        return val.is_zero()


@dataclass(frozen=True)
class CoverCheckReport:
    agree: bool                   # the two composite trace routes coincide
    source_gfs: Optional[bool]    # GFS of the source couple (when computable)
    target_gfs: bool
    verdicts_agree: Optional[bool]
    monomials_tested: int
    source_boundary_zero: bool


def _cartier_pick(poly: UPoly, q: int, p: int, e: int) -> UPoly:
    """x^m -> x^((m-(q-1))/q) on m = q-1 mod q, with coefficient q-th roots."""
    out: UPoly = {}
    odd = e % 2 == 1
    for m, c in poly.items():
        if m % q == q - 1:
            if odd and isinstance(c, ExtFieldElement):
                c = c.frobenius()  # c^(1/p) = c^p on F_{p^2}
            out[(m - (q - 1)) // q] = c
    return out


def _upoly_from_mpoly(f: MPoly, ext: bool) -> UPoly:
    p = f.p
    out: UPoly = {}
    for i, c in enumerate(univ_to_dense(f)):
        if c:
            out[i] = ExtFieldElement(c, 0, p) if ext else FieldElement(c, p)
    return out


def pushforward_splitting_check(cover: DoubleCover, B_target: P1Divisor, e: int,
                                degree_range: int | None = None) -> CoverCheckReport:
    """Verify trace compatibility through a separable double cover.

    The source boundary is pullback(B_target) - ramification, which must be
    effective.  On the chart the source trace of a section a(x) + b(x)y is
    pick(a * f^((q-1)/2)) + y*pick(b) with pick the level-e coefficient
    selector, and the cover trace is a + by -> 2a.  The check compares, on
    every basis monomial in the tested degree range, the source-trace-then-
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
    gy_parts = []
    ext = any(isinstance(elt, ExtFieldElement) for elt, _ in finite_parts)
    for elt, n in finite_parts:
        gy_parts.append((elt, n))
        if cover.is_branch_value(P1Point(elt)):
            m = 2 * n - (q - 1)  # multiplicity of the ramification point, doubled
            if m < 0:
                raise ValueError(f"source boundary not effective over {elt!r}")
            if m % 2 == 1:
                raise ValueError("odd ramification multiplicity; not representable")
            if m:
                gz_parts.append((elt, m // 2))
                source_zero = False
        else:
            if n:
                gz_parts.append((elt, n))
                source_zero = False

    g_y = _boundary_poly(gy_parts, p)
    g_z = _boundary_poly(gz_parts, p)
    f_half = _upow_frobenius(_upoly_from_mpoly(cover.branch_poly, ext), half, p, ext)
    lhs_core = _umul(g_z, f_half)

    if degree_range is None:
        degree_range = 2 * q
    # On x^i * y monomials both composites vanish identically: the source
    # boundary equation has even y-parity, so the source trace output keeps
    # the factor y and the cover trace kills it, while the cover trace kills
    # x^i * y outright on the other route.  Only the x^i line needs comparing.
    agree = True
    tested = 0
    for i in range(degree_range):
        xi = {i: _uone(p, ext)}
        lhs = _cartier_pick(_umul(lhs_core, xi), q, p, e)
        rhs = _cartier_pick(_umul(g_y, xi), q, p, e)
        tested += 1
        if lhs != rhs:
            agree = False
            break

    target_gfs, _ = gfs_p1_level(B_target, e)
    source_gfs: Optional[bool] = None
    if source_zero:
        degf = cover.branch_poly.degree()
        if degf == 1:
            source_gfs, _ = gfs_p1_level(P1Divisor.zero(p), e)
        elif degf == 3:
            c = f_half.get(q - 1)
            source_gfs = c is not None and not c.is_zero()
    verdicts_agree = None if source_gfs is None else source_gfs == target_gfs
    return CoverCheckReport(
        agree=agree,
        source_gfs=source_gfs,
        target_gfs=target_gfs,
        verdicts_agree=verdicts_agree,
        monomials_tested=tested,
        source_boundary_zero=source_zero,
    )
