"""Legendre-curve analytics: y^2 = x(x-1)(x-lambda) over F_p and F_{p^2}.

Two independent Hasse-invariant computations (a binomial closed form and a
coefficient extraction from the expanded power), quadratic-character point
counts, the supersingular polynomial H_p with its root locus, and the
curve-level KGFR classifier.

H_p is a dense coefficient tuple c[0..m] over F_p, m = (p-1)/2, as in
`upoly`.  The two Hasse routes share no code path: the closed form takes its
coefficients from binomials (by their ratios, O(p)) and evaluates them by
Horner's rule on field elements, the extraction builds them by Pascal's rule
and evaluates them on int pairs with `upoly.univ_eval`.  Their agreement is
asserted by the callers that need it and doubles as an arithmetic
regression test.

The root locus comes from a polynomial of half the degree: H_p(1/2 + mu) is
mu^(m mod 2) * E(mu^2), by the symmetry H_p(1 - lambda) = (-1)^m H_p(lambda),
and the roots of E over F_{p^2} give the roots 1/2 +- sqrt(s) of H_p
(`supersingular_report`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import IO, NamedTuple, Union

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement,
                    _check_modulus, _square_roots, legendre_symbol)
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
    m = (p-1)/2, in O(p).

    The binomials come from C(m, i+1) = C(m, i) * (m-i)/(i+1), with the
    inverses of 1..m from inv(k) = -(p // k) * inv(p mod k), which holds as
    p = (p // k) * k + p mod k; m < p, so no C(m, i) vanishes mod p.
    """
    _check_modulus(p)
    m = (p - 1) // 2
    inv = [0, 1]
    for k in range(2, m + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    binom = [1]
    for i in range(m):
        binom.append(binom[i] * (m - i) * inv[i + 1] % p)
    sign = 1 if m % 2 == 0 else p - 1
    return tuple(sign * c * c % p for c in binom)


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


def _shift_half(dense: tuple[int, ...], p: int) -> list[int]:
    """f(1/2 + mu) as c[0..deg] in mu, by Horner's rule in mu + 1/2: O(deg^2)."""
    half = (p + 1) // 2
    shifted: list[int] = []
    for c in reversed(dense):
        # shifted * (mu + 1/2) + c
        shifted = [(lo + half * hi) % p for lo, hi in zip([c] + shifted, shifted + [0])]
    return shifted


@lru_cache(maxsize=None)
def supersingular_report(p: int) -> SupersingularReport:
    """H_p, its F_{p^2} root locus Lambda_p, and the squarefree flag.

    The symbolic polynomial is computed by coefficient extraction and
    cross-checked against the binomial closed form before use; a mismatch
    would mean one of the two arithmetic paths is broken.

    The roots come from a polynomial of half the degree.  With m = (p-1)/2
    and f_lam(x) = x(x-1)(x-lam), f_lam(1-x) = -f_(1-lam)(x).  Write
    F = f_lam^m = sum_j F_j x^j, of degree 3m < 2p - 1; then
    [x^(p-1)] F(1-x) = sum_j F_j * C(j, p-1) mod p, and by Lucas C(j, p-1)
    is 1 at j = p-1 and 0 mod p at every other j < 2p - 1.  So
    H_p(lam) = [x^(p-1)] F(1-x) = (-1)^m H_p(1-lam), as polynomials in lam.
    For G(mu) = H_p(1/2 + mu) this reads G(-mu) = (-1)^m G(mu): every
    coefficient of G of the parity other than eps = m mod 2 is zero, and
    G(mu) = mu^eps * E(mu^2) with deg E = floor(m/2).  At mu != 0 the factor
    mu^2 - s of E(mu^2), s = mu^2, has the simple root mu (p is odd), so a
    root lam = 1/2 + mu of H_p in F_{p^2} has the multiplicity of s in E,
    and lam = 1/2 has eps + 2 * mult_E(0).  Conversely each root s of E in
    F_{p^2} that is a square there gives the two roots 1/2 +- sqrt(s); the
    others give roots outside F_{p^2} and are dropped.

    Every supersingular lam lies in F_{p^2} (Deuring), so the multiplicities
    must add up to m; then H_p splits over F_{p^2}, and it is squarefree iff
    every multiplicity is 1.  The roots are listed in `univ_roots`' order:
    F_p roots ascending, then conjugate pairs by (b, a).
    """
    hp = hasse_coeff_symbolic(p)
    if hp != hasse_closed_symbolic(p):
        raise RuntimeError(
            f"Hasse polynomial mismatch at p = {p}: the two computation "
            "routes disagree")
    m = (p - 1) // 2
    eps, half = m % 2, (p + 1) // 2
    shifted = _shift_half(hp, p)
    if any(shifted[1 - eps::2]):
        raise RuntimeError(
            f"H_p(1/2 + mu) at p = {p} is not mu^{eps} times a polynomial in "
            "mu^2: the lambda -> 1 - lambda symmetry fails")
    mult = {(half, 0): 1} if eps else {}
    e_roots = univ_roots(shifted[eps::2], p, level=2)
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
