"""Global Frobenius-splitting decision procedures on the projective line,
Calabi-Yau hypersurfaces and bigraded hypersurfaces in products of
projective spaces, and bounded global F-regularity.

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

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement,
                    _check_modulus, read_int, require_p_free, splitting_level)
from .fedder import _diagonal_coefficient, _nu_levels
from .mpoly import MPoly
from .upoly import _boundary_poly, _udiv, _umul

DEFAULT_EMAX = 2
_ALL = "all"  # every finite perturbation centre fails (_perturbed_level)


# -- points and divisors on P^1 ----------------------------------------------

class P1Point(NamedTuple):
    """A closed point of P^1: infinity (value None) or a finite value, the
    pair (a, b) in [0, p)^2 for a + b*t in F_{p^2} (b = 0 on F_p; t as in
    `arith.ExtFieldElement`).
    """

    value: tuple[int, int] | None

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @property
    def field_level(self) -> int:
        return 2 if self.value and self.value[1] else 1

    def sort_key(self):
        """inf last, after F_p by value and then a+bt by (a, b)."""
        if self.value is None:
            return (2, 0, 0)
        a, b = self.value
        return (1 if b else 0, a, b)

    def element(self, p: int) -> AnyFieldElement:
        """The finite value as a field element, for field arithmetic."""
        a, b = self.value
        return ExtFieldElement(a, b, p) if b else FieldElement(a, p)

    def __repr__(self):
        return f"P1Point({self})"

    def __str__(self):
        if self.value is None:
            return "inf"
        a, b = self.value
        return f"{a}+{b}t" if b else str(a)


# A point: an integer a, or a + bt with either part optional ('t', '-2t',
# '3 + t', '2*t').  Spaces may stand between any two parts; digits are
# ASCII only, so '1_0' and non-ASCII digits are refused.
_POINT = re.compile(r"(?P<asign>[+-]?)\s*(?P<a>[0-9]+)"
                    r"|(?:(?P<tsign>[+-]?)\s*(?P<ta>[0-9]+)\s*(?=[+-]))?"
                    r"(?P<bsign>[+-]?)\s*(?:(?P<b>[0-9]+)\s*\*?\s*)?t", re.ASCII)


def _signed(sign: str, digits: str) -> int:
    return -read_int(digits) if sign == "-" else read_int(digits)


def parse_point(text: str, p: int) -> P1Point:
    text = text.strip()
    if text in ("inf", "infty", "oo"):
        return P1Point.infinity()
    m = _POINT.fullmatch(text)
    if m is None:
        raise ValueError(f"bad point {text!r}")
    if m["a"] is not None:
        return P1Point((_signed(m["asign"], m["a"]) % p, 0))
    return P1Point((_signed(m["tsign"], m["ta"] or "0") % p,
                    _signed(m["bsign"], m["b"] or "1") % p))


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
            if point.value is not None and not all(0 <= x < prime for x in point.value):
                raise ValueError(f"point coordinates {point.value} outside [0, {prime})")
            c = require_p_free(c, prime)
            acc[point] = acc[point] + c if point in acc else c
            if not acc[point]:
                del acc[point]
        object.__setattr__(self, "entries", acc)

    def __setattr__(self, name, val):
        raise AttributeError("P1Divisor is immutable")

    def __reduce__(self):  # pickle and copy call the constructor, not __setattr__
        return type(self), (self.prime, tuple(self.entries.items()))

    @classmethod
    def zero(cls, prime: int) -> "P1Divisor":
        return cls(prime, ())

    def coefficient(self, point: P1Point) -> Fraction:
        return self.entries.get(point, Fraction(0))

    @property
    def degree(self) -> Fraction:
        cs = self.entries.values()
        den = math.lcm(*[c.denominator for c in cs])
        return Fraction(sum(c.numerator * (den // c.denominator) for c in cs), den)

    def support(self) -> list[P1Point]:
        return sorted(self.entries, key=P1Point.sort_key)

    def sorted_entries(self) -> list[tuple[P1Point, Fraction]]:
        return [(pt, self.entries[pt]) for pt in self.support()]

    def add_point(self, point: P1Point, c: Fraction) -> "P1Divisor":
        return P1Divisor(self.prime, list(self.entries.items()) + [(point, c)])

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
        if self.prime != other.prime:
            raise ValueError("prime mismatch")
        points = set(self.entries) | set(other.entries)
        return all(self.coefficient(pt) <= other.coefficient(pt) for pt in points)

    def __repr__(self):
        body = " + ".join(f"{v}({pt})" for pt, v in self.sorted_entries())
        return f"P1Divisor(p={self.prime}: {body or '0'})"

    def level(self) -> int:
        """Smallest e with (p^e - 1)*B integral."""
        return splitting_level(self.entries.values(), self.prime)


# A coefficient: an integer, num/den or a decimal ('0.5', '.5', '1.') with
# an optional sign; digits are ASCII only, as in a point.
_COEFF = re.compile(r"(?P<sign>[+-]?)(?=\.?[0-9])(?P<num>[0-9]*)"
                    r"(?:/(?P<den>[0-9]+)|\.(?P<dec>[0-9]*))?", re.ASCII)


def parse_divisor(text: str, p: int) -> P1Divisor:
    """Grammar: comma-separated entries 'num/den@point', point int / a+bt / inf."""
    entries = []
    text = text.strip()
    if text and text != "0":
        for chunk in text.split(","):
            coeff_str, sep, point_str = chunk.partition("@")
            if not sep:
                raise ValueError(f"bad divisor entry {chunk!r}, expected coeff@point")
            # the grammar has no exponents; "1e999999999" gets its own message
            if "e" in coeff_str.lower():
                raise ValueError(f"exponent notation is not accepted in {chunk!r}")
            m = _COEFF.fullmatch(coeff_str.strip())
            if m is None:
                raise ValueError(f"bad coefficient in {chunk!r}")
            dec = m["dec"] or ""  # n.d is nd / 10^len(d)
            num = read_int(m["num"] or "0") * 10 ** len(dec) + read_int(dec or "0")
            den = 10 ** len(dec) if m["den"] is None else read_int(m["den"])
            if not den:
                raise ValueError(f"zero denominator in {chunk!r}")
            entries.append((parse_point(point_str, p),
                            Fraction(-num if m["sign"] == "-" else num, den)))
    return P1Divisor(p, entries)


# -- verdicts -----------------------------------------------------------------

YES = "yes"
NO = "no"
CERTIFIED_NO = "certified-no"
UNKNOWN = "unknown"


class GfsVerdict(NamedTuple):
    status: str
    level: Optional[int] = None
    certificate: Optional[int] = None       # the monomial index j of a splitting section
    levels_tested: tuple[int, ...] = ()
    reason: str = ""
    evidence: Optional[dict] = None         # None, not a dict every default would share

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


def _level_data(B: P1Divisor, e: int):
    """Validate and convert: returns (q, finite_parts, n_inf)."""
    if e < 1:
        raise ValueError("level e must be >= 1")
    p = B.prime
    q = p ** e
    finite_parts = []
    n_inf = 0
    for point, c in B.sorted_entries():
        if c.numerator < 0 or c.numerator > c.denominator:
            raise ValueError(f"coefficient {c} at {point} outside [0, 1]")
        n, r = divmod(c.numerator * (q - 1), c.denominator)
        if r:
            raise ValueError(f"(p^e - 1)*B is not integral at level e = {e}")
        if point.is_infinity:
            n_inf = n
        else:
            finite_parts.append((point.value, n))
    return q, finite_parts, n_inf


def gfs_p1_level(B: P1Divisor, e: int) -> tuple[bool, Optional[int]]:
    """Level-e splitting test for (P^1, B); returns (split?, certificate j).

    The certificate j is the monomial index of a splitting section: replaying
    the window scan at (B, e) finds the x^(q-1-j) coefficient of g nonzero.
    A negative degree budget means no admissible sections and returns False.
    """
    q, finite_parts, n_inf = _level_data(B, e)
    return _window_split(q, sum(n for _, n in finite_parts), n_inf,
                         lambda: _boundary_poly(finite_parts, B.prime))


def _window_split(q: int, S: int, n_inf: int, boundary) -> tuple[bool, Optional[int]]:
    """gfs_p1_level on a boundary of finite degree S: boundary() builds its
    polynomial g, called only when the window needs its coefficients."""
    D = 2 * (q - 1) - n_inf - S
    if D < 0:
        return False, None
    if S <= q - 1:
        # g is monic of degree S and x^S lies in the window: instant certificate
        return True, q - 1 - S
    g = boundary()
    for k in range(min(q - 1, S), max(0, q - 1 - D) - 1, -1):
        if k in g:
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
        if c.numerator < 0 or c.numerator > c.denominator:
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


def _centre_at(i: int, p: int) -> P1Point:
    """The i-th centre of P^1(F_{p^2}) in the family order: inf, F_p by value,
    a+bt by (b, a); a + b*t is centre 1 + p*b + a."""
    b, a = divmod(i - 1, p)
    return P1Point((a, b) if i else None)


def _perturbed_level(q: int, S: int, n_inf: int, p: int, boundary):
    """Single-point perturbations B + (s)/(q-1) at one level, for a boundary
    of finite degree S whose polynomial g boundary() builds, as in
    _window_split: (the finite centres s that fail, whether s = inf splits).

    The failing finite centres are none (None), all (_ALL), or one, returned
    as its index in _centre_at.  Both perturbations raise the degree by one,
    so they share the window; inf leaves g as it is, so it splits iff g has
    a term in the window.
    """
    D = 2 * (q - 1) - n_inf - S - 1
    if D < 0:
        return _ALL, False
    if S + 1 <= q - 1:
        return None, True
    g = boundary()
    window = range(max(0, q - 1 - D), q)
    inf_ok = any(k in g for k in window)
    roots = set()
    for k in window:
        lead, low = g.get(k), g.get(k - 1)
        if lead is None:
            if low is not None:
                return None, inf_ok  # c_k is a nonzero constant
            continue
        # c_k = low - s*lead vanishes at s = low/lead = a + bt, centre 1 + p*b + a
        a, b = _udiv(low or (0, 0), lead, p)
        roots.add(1 + p * b + a)
    if not roots:
        return _ALL, inf_ok
    return (roots.pop() if len(roots) == 1 else None), inf_ok


def gfr_p1_bounded(B: P1Divisor, e_max: int = DEFAULT_EMAX) -> GfsVerdict:
    """Bounded global F-regularity test for (P^1, B).

    CertifiedNo on the structural obstructions (a coefficient >= 1 or
    deg B >= 2).  Yes needs all of:

    * the aggregate certificate: one level e <= e_max splitting
      B + E0/(p^e - 1), where E0 is the sum of the boundary support points
      (the point inf when the support is empty), so that the complement of
      E0 is affine and regular -- the standard sufficient criterion for
      F-regularity;
    * every single-point perturbation B + (P)/(p^e - 1) over the p^2 + 1
      centres P of P^1(F_{p^2}) (inf, F_p by value, a+bt by (b, a))
      splitting at some tested level;
    * the symbolic generic-point perturbation splitting likewise.

    A finite centre s turns the boundary polynomial g into g*(x - s), whose
    window coefficients g[k-1] - s*g[k] are affine in s: at each level the
    failing finite centres are none, all (then every centre fails and so
    does the generic point), or g[k-1]/g[k].  That covers the support points
    too, so only inf is tested one at a time: one boundary polynomial per
    level, O(|support| * levels) work, not O(p^2), so the whole family is
    decided at every p.  Anything short of Yes returns Unknown with the
    first ten failures recorded; the family is not claimed complete for No.
    """
    p = B.prime
    for point, c in B.sorted_entries():
        if c.numerator >= c.denominator:
            return GfsVerdict(CERTIFIED_NO, reason=f"coefficient {c} at {point} is >= 1")
        if c.numerator < 0:
            return GfsVerdict(CERTIFIED_NO, reason=f"coefficient {c} at {point} is negative")
    if B.degree >= 2:
        return GfsVerdict(CERTIFIED_NO, reason="deg B >= 2: boundary is not log Fano")
    d = B.level()
    levels = tuple(range(d, e_max + 1, d))
    evidence = {"e_max": e_max, "levels": list(levels)}
    if not levels:
        return GfsVerdict(UNKNOWN, reason="no admissible level within e_max",
                          evidence=evidence)

    # Each level's g = prod (x - c_i)^(n_i) is built at most once, when a
    # window first needs it, and serves the aggregate and the perturbations.
    data = [_level_data(B, e) for e in levels]
    sums = [sum(n for _, n in finite_parts) for _, finite_parts, _ in data]
    boundary = functools.cache(lambda i: _boundary_poly(data[i][1], p))
    support = functools.cache(lambda: _boundary_poly([(c, 1) for c, _ in data[0][1]], p))

    # aggregate certificate B + E0/(q-1), E0 the support (inf if it is empty;
    # a nonempty support already has affine complement): +1 on each support
    # exponent, so its polynomial is g * prod (x - c_i).  That lifts no c < 1
    # above 1, as (q-1)*c + 1 <= q - 1.
    aggregate = None
    for i, (q, finite_parts, n_inf) in enumerate(data):
        E0_inf = 1 if n_inf or not finite_parts else 0
        ok, j = _window_split(q, sums[i] + len(finite_parts), n_inf + E0_inf,
                              lambda: _umul(boundary(i), support(), p))
        if ok:
            aggregate = (levels[i], j)
            break

    # A centre fails when it fails at every level; a support point s, like
    # any finite centre, turns g into g*(x - s), so only inf is tested alone.
    perturbed = [_perturbed_level(q, sums[i], n_inf, p, functools.partial(boundary, i))
                 for i, (q, _, n_inf) in enumerate(data)]
    outcomes = {finite for finite, _ in perturbed} - {_ALL}
    if not outcomes:  # inf perturbs the same zero window
        failing = range(p * p + 1)
    else:
        failing = [] if any(inf_ok for _, inf_ok in perturbed) else [0]
        if len(outcomes) == 1 and None not in outcomes:
            failing += outcomes
    generic_ok = bool(outcomes)

    evidence.update({
        "aggregate_certificate": list(aggregate) if aggregate else None,
        "family_failures": [str(_centre_at(i, p)) for i in failing[:10]],
        "generic_point": generic_ok,
    })
    if aggregate and not failing and generic_ok:
        return GfsVerdict(YES, level=aggregate[0], certificate=aggregate[1],
                          levels_tested=levels, evidence=evidence)
    reasons = []
    if aggregate is None:
        reasons.append("no aggregate certificate within e_max")
    if failing:
        reasons.append(f"{len(failing)} point perturbations undecided")
    if not generic_ok:
        reasons.append("generic perturbation undecided")
    return GfsVerdict(UNKNOWN, levels_tested=levels, reason="; ".join(reasons),
                      evidence=evidence)


# -- hypersurface criteria ----------------------------------------------------
#
# Both criteria are Fedder's test F^(q-1) outside m^[q], and that test does
# not depend on the level (Fedder 1983, Lemma 1.6): F^(p^e-1) is outside
# m^[p^e] iff F^(p-1) is outside m^[p], for any F.
#   =>  F^(p^e-1) = F^(p^(e-1)-1) * (F^(p-1))^(p^(e-1)), and F^(p-1) in m^[p]
#       puts the last factor in m^[p^e].
#   <=  Write F^(p^e-1) = g * h^p with g = F^(p-1), h = F^(p^(e-1)-1).  Let
#       T_p be the trace x^(pb + p - 1) -> x^b, other monomials -> 0.  For a
#       box monomial x^a of g, s = x^((p-1) - a) makes T_p(s*g) a unit at
#       the origin.  Then T_p(s*g*h^p) = T_p(s*g) * h, and h is outside
#       m^[Q], Q = p^(e-1), by induction; m^[Q] is m-primary, so the product
#       is outside it too.  As T_p maps m^[p^e] into m^[Q], g * h^p is
#       outside m^[p^e].
# So both test at q = p and only validate e.

def gfs_cy_hypersurface(F: MPoly, e: int = 1) -> bool:
    """Splitting of a Calabi-Yau hypersurface (degree = nvars) in P^n.

    Fedder's criterion: True iff F^(q-1) is outside m^[q], and by the level
    lemma above iff F^(p-1) is outside m^[p].  F^(p-1) is homogeneous of
    degree n1*(p-1), so the diagonal (x_0*...*x_n)^(p-1) is its only
    monomial with every exponent <= p-1: the test is that one coefficient,
    the Hasse-Witt invariant of the hypersurface.

    For F = sum_i c_i x^(a_i) with s terms, the multinomial theorem gives it
    as sum_k (p-1)!/(k_1!...k_s!) * prod_i c_i^(k_i) over the count vectors
    k >= 0 with sum_i k_i a_i = (p-1, ..., p-1); every k_i! is a unit, as
    k_i < p.  The k are the lattice points of a polytope of dimension
    f = s - rank A, A the exponent matrix, and fedder sums them over the f
    free counts.  The route rule: that lattice sum when f <= 1, at most p
    count vectors; the half power F^((p-1)/2) mod m^[p] otherwise.  On
    the Legendre cone y^2*z - x*(x-z)*(x-lam*z) the coefficient is H_p(lam),
    `elliptic`'s Hasse invariant, exactly.
    """
    n1 = F.nvars
    if F.is_zero() or not F.is_homogeneous_on(range(n1)) or F.degree() != n1:
        raise ValueError(f"F must be homogeneous of degree {n1} in {n1} variables")
    if e < 1:
        raise ValueError("e must be >= 1")
    return _diagonal_coefficient(F) != 0


def gfs_bigraded_hypersurface(F: MPoly, groups: tuple[int, int], e: int = 1) -> bool:
    """Splitting test for a bihomogeneous hypersurface in P^m x P^n.

    Operational criterion: F^(q-1) must contain a monomial all of whose
    exponents are <= q-1; the complementary monomial then supplies the
    multiplier of the remaining anticanonical budget.  Sufficiency is exact;
    necessity is only cross-validated downstream, never assumed.  Such a
    monomial exists iff F^(q-1) is outside m^[q], and by the level lemma
    above iff F^(p-1) is outside m^[p], that is iff nu_F(p) = p - 1: the
    pruned products F^d mod m^[p] of fedder's level-1 loop stay nonzero for
    p - 1 steps.  A nonzero constant F has no nu, survives and splits.
    """
    g1, g2 = groups
    if g1 < 1 or g2 < 1:
        raise ValueError(f"each variable group needs at least one variable, got {g1}, {g2}")
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
    return bool(F.constant_term()) or _nu_levels(F, 1) == [F.p - 1]
