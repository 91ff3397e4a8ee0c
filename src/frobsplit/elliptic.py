"""Legendre-curve analytics: y^2 = x(x-1)(x-lambda) over F_p and F_{p^2}.

Two independent Hasse-invariant computations (a binomial closed form and a
coefficient extraction from the expanded power), quadratic-character point
counts, the supersingular polynomial H_p with its root locus, and the
curve-level KGFR classifier.

H_p is a dense coefficient tuple c[0..m] over F_p, m = (p-1)/2, as in
`upoly`.  The two Hasse routes share no code path: the closed form takes its
coefficients from a table of factorials mod p (O(p)) and evaluates them by
Horner's rule on field elements, the extraction builds them by Pascal's rule
and evaluates them on int pairs with `upoly.univ_eval`.  `hasse` reports
their agreement at its lambda; the tests compare the two polynomials.

The root locus comes from a half-degree polynomial E read off the Legendre
polynomial, H_p(1/2 + mu) = mu^(m mod 2) * E(mu^2) (`supersingular_report`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import IO, NamedTuple, Union

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement, _check_modulus,
                    _factorials, _square_roots, legendre_symbol)
from .upoly import univ_eval, univ_roots

LambdaLike = Union[int, FieldElement, ExtFieldElement]


def _as_lambda(lam: LambdaLike, p: int) -> AnyFieldElement:
    if isinstance(lam, int):
        lam = FieldElement(lam, p)
    if lam.modulus != p:
        raise ValueError("modulus mismatch")
    if lam == 0 or lam == 1:
        raise ValueError("lambda in {0, 1} gives a nodal fiber, not an elliptic curve")
    return lam


def hasse_closed(lam: LambdaLike, p: int) -> AnyFieldElement:
    """(-1)^((p-1)/2) * sum_i C((p-1)/2, i)^2 * lambda^i."""
    _check_modulus(p)
    lam = _as_lambda(lam, p)
    acc = lam - lam  # zero of the right field
    for c in reversed(hasse_closed_symbolic(p)):
        acc = acc * lam + c
    return acc


def hasse_coeff(lam: LambdaLike, p: int) -> AnyFieldElement:
    """Coefficient of x^(p-1) in (x(x-1)(x-lambda))^((p-1)/2).

    `hasse_coeff_symbolic`'s coefficient extraction, evaluated at lambda on
    int pairs: no binomial identities anywhere, so this is an independent
    oracle for hasse_closed.  The value is the one element built, of
    lambda's class.
    """
    _check_modulus(p)
    lam = _as_lambda(lam, p)
    a, b = univ_eval(hasse_coeff_symbolic(p), (lam.a, lam.b), p)
    return FieldElement(a, p) if isinstance(lam, FieldElement) else ExtFieldElement(a, b, p)


@lru_cache(maxsize=None)
def hasse_closed_symbolic(p: int) -> tuple[int, ...]:
    """The closed form in lambda: c_i = (-1)^m * C(m, i)^2 mod p, i = 0..m,
    m = (p-1)/2, in O(p) from `_factorials`."""
    _check_modulus(p)
    m = (p - 1) // 2
    fact, inv_fact = _factorials(p)
    sign = 1 if m % 2 == 0 else p - 1
    return tuple(sign * (fact[m] * inv_fact[i] * inv_fact[m - i]) ** 2 % p
                 for i in range(m + 1))


@lru_cache(maxsize=None)
def hasse_coeff_symbolic(p: int) -> tuple[int, ...]:
    """Coefficient extraction with lambda symbolic, in O(p^2).

    The x^m coefficient of ((x-1)(x-lambda))^m, m = (p-1)/2.  With
    a_k = [x^k](x-1)^m, the factor (x-lambda)^m has coefficients
    a_k * lambda^(m-k), so the lambda^i coefficient is a_i * a_(m-i).  The a_k
    come from m multiplications by (x-1), Pascal's rule mod p: no binomial
    identity anywhere, so this is an independent oracle for the closed form.
    """
    _check_modulus(p)
    m = (p - 1) // 2
    a = [1]
    for _ in range(m):
        a = [(lo - hi) % p for lo, hi in zip([0] + a, a + [0])]
    return tuple(a[i] * a[m - i] % p for i in range(m + 1))


def count_points(lam: LambdaLike, p: int) -> int:
    """#E_lambda(F_p) = p + 1 + sum_x chi(x(x-1)(x-lambda)), chi(0) = 0."""
    _check_modulus(p)
    lam = _as_lambda(lam, p)
    if isinstance(lam, ExtFieldElement):
        raise ValueError("point counts over F_p need lambda in F_p")
    lv = lam.value
    total = 0
    for x in range(p):
        total += legendre_symbol(x * (x - 1) * (x - lv), p)
    return p + 1 + total


def is_supersingular_by_count(lam: LambdaLike, p: int) -> bool:
    """Point-count supersingularity test; only valid for p >= 5.

    At p = 3 the Weil bound allows a trace of +-3 = 0 mod 3, so the count
    p + 1 is not equivalent to supersingularity there; use the Hasse
    invariant instead.
    """
    if p < 5:
        raise ValueError("the count criterion requires p >= 5")
    return count_points(lam, p) == p + 1


class _LegendreCurveFields(NamedTuple):
    lam: AnyFieldElement
    prime: int


class LegendreCurve(_LegendreCurveFields):
    __slots__ = ()

    def __new__(cls, lam: AnyFieldElement, prime: int):
        _as_lambda(lam, prime)
        return super().__new__(cls, lam, prime)

    def hasse(self) -> AnyFieldElement:
        return hasse_closed(self.lam, self.prime)

    def is_ordinary(self) -> bool:
        return not self.hasse().is_zero()

    def is_supersingular(self) -> bool:
        return self.hasse().is_zero()

    def count_points(self) -> int:
        return count_points(self.lam, self.prime)


class SupersingularReport(NamedTuple):
    prime: int
    poly: tuple[int, ...]            # H_p, degree (p-1)/2 in lambda, as c[0..m]
    roots: tuple[tuple[tuple[int, int], int], ...]  # Lambda_p over F_{p^2}, as in univ_roots
    squarefree: bool

    @property
    def root_count(self) -> int:
        return sum(m for _, m in self.roots)


def _half_degree(p: int) -> list[int]:
    """E of `supersingular_report` as c[0..floor(m/2)], in O(p): the
    coefficient of s^((m - 2k - eps)/2) is (-1)^k C(m, k) C(2m - 2k, m) 4^-k
    = (-1/4)^k (2m - 2k)! / (k! (m - k)! (m - 2k)!), as both tops are below p."""
    m = (p - 1) // 2
    fact, inv_fact = _factorials(p)
    minus_quarter = pow(-4, -1, p)
    return [pow(minus_quarter, k, p) * fact[2 * m - 2 * k] * inv_fact[k]
            * inv_fact[m - k] * inv_fact[m - 2 * k] % p for k in range(m // 2, -1, -1)]


@lru_cache(maxsize=None)
def supersingular_report(p: int) -> SupersingularReport:
    """H_p, its F_{p^2} root locus Lambda_p, and the squarefree flag.

    The roots come from a polynomial of half the degree.  With m = (p-1)/2,
    H_p(lambda) = (-1)^m P_m(1 - 2*lambda) mod p, P_m the Legendre
    polynomial (Brillhart and Morton, J. Number Theory 106 (2004)): by
    Murphy's formula P_m(1 - 2*lambda) = sum_i C(m, i) C(m+i, i) (-lambda)^i,
    and C(m+i, i) = (-1)^i C(m, i) mod p because m = -1/2 mod p.  P_m has
    the parity of m, so G(mu) = H_p(1/2 + mu) = P_m(2*mu) and, with
    P_m(x) = 2^-m sum_k (-1)^k C(m, k) C(2m - 2k, m) x^(m - 2k),
    G(mu) = mu^eps * E(mu^2), eps = m mod 2, deg E = floor(m/2)
    (`_half_degree`).  The O(p) check H_p(3/2) = E(1), at mu = 1, ties E to
    the closed form reported as `poly`.

    At mu != 0 the factor mu^2 - s of E(mu^2), s = mu^2, has the simple root
    mu (p is odd), so a root lam = 1/2 + mu of H_p in F_{p^2} has the
    multiplicity of s in E, and lam = 1/2 has eps + 2 * mult_E(0).
    Conversely each root s of E in F_{p^2} that is a square there gives the
    two roots 1/2 +- sqrt(s); the others give roots outside F_{p^2} and are
    dropped.

    Every supersingular lam lies in F_{p^2} (Deuring), so the multiplicities
    must add up to m; then H_p splits over F_{p^2}, and it is squarefree iff
    every multiplicity is 1.  The roots are listed in `univ_roots`' order:
    F_p roots ascending, then conjugate pairs by (b, a).
    """
    hp = hasse_closed_symbolic(p)
    m = (p - 1) // 2
    eps, half = m % 2, (p + 1) // 2
    e_coeffs = _half_degree(p)
    if univ_eval(hp, (3 * half % p, 0), p)[0] != sum(e_coeffs) % p:
        raise RuntimeError(
            f"H_p(3/2) != E(1) at p = {p}: the half-degree polynomial does not "
            "match H_p")
    mult = {(half, 0): 1} if eps else {}
    e_roots = univ_roots(e_coeffs, p)
    for (_, k), r in zip(e_roots, _square_roots([s for s, _ in e_roots], p)):
        if r is None:
            continue  # 1/2 +- sqrt(s) lie outside F_{p^2}
        x, y = r
        for lam in (((half + x) % p, y), ((half - x) % p, -y % p)):
            mult[lam] = mult.get(lam, 0) + k  # s = 0 adds 2k at lam = 1/2
    if sum(mult.values()) != m:
        raise RuntimeError(
            f"H_p at p = {p} has {sum(mult.values())} roots in F_{{p^2}} with "
            f"multiplicity, not all {m} as Deuring's theorem says")
    roots = tuple(sorted(mult.items(), key=lambda item: (
        item[0][1] != 0, min(item[0][1], p - item[0][1]), item[0])))
    return SupersingularReport(
        prime=p,
        poly=hp,
        roots=roots,
        squarefree=all(k == 1 for _, k in roots),
    )


class CurveKgfrVerdict(NamedTuple):
    kgfr: bool
    reason: str


def classify_curve_kgfr(genus: int, curve: LegendreCurve | None = None) -> CurveKgfrVerdict:
    """KGFR classification for smooth projective curves.

    Genus 0 always qualifies; genus 1 exactly when the curve is ordinary;
    genus >= 2 never (the anticanonical divisor has negative degree).
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus == 0:
        return CurveKgfrVerdict(True, "rational curve")
    if genus == 1:
        if curve is None:
            raise ValueError("genus-1 classification needs curve data")
        if curve.is_ordinary():
            return CurveKgfrVerdict(True, "ordinary elliptic curve")
        return CurveKgfrVerdict(False, "supersingular elliptic curve")
    return CurveKgfrVerdict(False, "anticanonical divisor not effective in genus >= 2")


def write_hasse_table(p: int, out: IO[str]) -> int:
    """CSV rows (p, lambda, hasse, count, ordinary) for lambda in F_p - {0,1}."""
    import csv
    writer = csv.writer(out)
    writer.writerow(["p", "lambda", "hasse", "count", "ordinary"])
    rows = 0
    for lv in range(2, p):
        lam = FieldElement(lv, p)
        h = hasse_closed(lam, p)
        writer.writerow([p, lv, h.value, count_points(lam, p), not h.is_zero()])
        rows += 1
    return rows
