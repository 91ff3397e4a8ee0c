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

The root locus Lambda_p is walked, not rooted: from one supersingular lambda,
a CM curve's, Landen's 2-isogeny step and the symmetries lambda -> 1 - lambda,
1/lambda reach all (p-1)/2 of them (`supersingular_report`).  H_p is only
evaluated, once, to check the start.
"""

from __future__ import annotations

from functools import lru_cache
from typing import IO, NamedTuple, Union

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement, _check_modulus,
                    _factorials, _square_roots, _times, legendre_symbol)
from .upoly import _udiv, univ_eval

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
    # Lambda_p over F_{p^2}: ((a, b), multiplicity) for lambda = a + b*t, F_p
    # roots ascending, then conjugate pairs by (min(b, p - b), a, b)
    roots: tuple[tuple[tuple[int, int], int], ...]
    squarefree: bool

    @property
    def root_count(self) -> int:
        return sum(m for _, m in self.roots)


# (D, j) for the nine imaginary quadratic orders of class number one
_CM_J = ((-3, 0), (-4, 1728), (-7, -3375), (-8, 8000), (-11, -32768), (-19, -884736),
         (-43, -884736000), (-67, -147197952000), (-163, -262537412640768000))


def _weierstrass(j: int, p: int) -> tuple[int, int]:
    """(A, B) of y^2 = x^3 + A*x + B over F_p, p >= 5, with j-invariant j:
    A = 3k, B = 2k(1728 - j), k = j(1728 - j); x^3 + 1 at j = 0, x^3 + x at 1728."""
    j %= p
    if j in (0, 1728 % p):
        return (0, 1) if j == 0 else (1, 0)
    k = j * (1728 - j)
    return 3 * k % p, 2 * k * (1728 - j) % p


def _lambda_of_j(j: int, p: int) -> tuple[int, int] | None:
    """lambda = (e3 - e1)/(e2 - e1) of `_weierstrass`'s curve, from the roots
    e1 in F_p and e2, e3 of its cubic; None when the cubic has no root in F_p.

    As x^3 + A*x + B = (x - e1)(x^2 + e1*x + A + e1^2), e2, e3 = (-e1 +- r)/2
    with r^2 = -3e1^2 - 4A, so lambda = (3e1 + r)/(3e1 - r).
    """
    a, b = _weierstrass(j, p)
    e1 = next((x for x in range(p) if (x * x * x + a * x + b) % p == 0), None)
    if e1 is None:
        return None
    x, y = next(_square_roots([((-3 * e1 * e1 - 4 * a) % p, 0)], p))
    return _udiv(((3 * e1 + x) % p, y), ((3 * e1 - x) % p, -y % p), p)


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a*x + b over F_p, affine; None is the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    m = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) if x1 == x2 else (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (m * m - x1 - x2) % p
    return x3, (m * (x1 - x3) - y1) % p


def _supersingular_start(p: int, hp: tuple[int, ...]) -> tuple[int, int] | None:
    """One supersingular lambda: from the CM curve of the first D in `_CM_J`
    inert at p, else the first j = 0, 1, 2, ... whose lambda is a root of hp.

    The j-scan skips, in O(log p), each j whose curve has [p + 1]P != O, P
    its first affine point with y != 0 (y from one table of squares), before
    the O(p) root scan of `_lambda_of_j` and the O(p) value of hp, which
    stays the deciding check.  The skip is sound for p >= 5: a supersingular
    curve over F_p has trace 0 mod p, of size at most 2 sqrt(p) < p (Hasse),
    so it has p + 1 points, and [p + 1]P = O for each of them (Lagrange).
    """
    if p == 3:
        return 2, 0  # H_3 = lambda + 1; every curve of `_lambda_of_j` is singular mod 3
    for d, j in _CM_J:
        if legendre_symbol(d, p) == -1:
            return _lambda_of_j(j, p)
    squares = {y * y % p: y for y in range(1, (p + 1) // 2)}
    for j in range(p):  # every order of `_CM_J` splits at p
        a, b = _weierstrass(j, p)
        P = next(((x, squares[v]) for x in range(p)
                  if (v := (x * x * x + a * x + b) % p) in squares), None)
        R = None
        for bit in bin(p + 1)[2:] if P else "":
            R = _ec_add(_ec_add(R, R, a, p), P if bit == "1" else None, a, p)
        if R is not None:
            continue
        lam = _lambda_of_j(j, p)
        if lam is not None and univ_eval(hp, lam, p) == (0, 0):
            return lam
    return None


def _neighbours(lam: tuple[int, int], s: tuple[int, int], p: int) -> list[tuple[int, int]]:
    """The Landen image ((1 - s)/(1 + s))^2 of lam = s^2, then 1 - lam and 1/lam."""
    a, b = lam
    x, y = s
    u, v = _udiv(((1 - x) % p, -y % p), ((1 + x) % p, y), p)
    w, z = _times(u, v, u, v, p)
    return [(w % p, z % p), ((1 - a) % p, -b % p), _udiv((1, 0), lam, p)]


@lru_cache(maxsize=None)
def supersingular_report(p: int) -> SupersingularReport:
    """H_p, its F_{p^2} root locus Lambda_p, and the squarefree flag.

    Lambda_p is found by walking 2-isogenies, with no polynomial rooted.
    E_lambda: y^2 = x(x-1)(x-lambda) is supersingular iff H_p(lambda) = 0,
    and every such lambda lies in F_{p^2} (Deuring).

    The start.  By Deuring's criterion, a curve with complex multiplication
    by an order of Q(sqrt(D)) has supersingular reduction at a prime p that
    is inert there.  Of the nine class-number-one discriminants (`_CM_J`),
    the first with (D/p) = -1 gives an integer j, and the curve
    y^2 = x^3 + 3j(1728 - j)x + 2j(1728 - j)^2 has j-invariant j and
    discriminant -2^12 3^6 j^2 (1728 - j)^3, nonzero mod p for j != 0, 1728
    (x^3 + 1 and x^3 + x serve there).  Over F_p its trace is 0, so it has
    p + 1 points, an even count, and its cubic a root e1 in F_p: a scan
    finds e1, one square root the other two roots, and lambda0 follows
    (`_lambda_of_j`).  At the primes where all nine orders split (15073,
    18313, 38833, ..., all 1 mod 24) the start is the first j in F_p whose
    lambda is a root of H_p; some j in F_p is supersingular, and its trace
    0 gives e1 again.  At p = 3, lambda0 = 2.

    The walk.  With s^2 = lambda, the 2-isogeny with kernel (0, 0) lands
    on E_lambda' with lambda' = ((1 - s)/(1 + s))^2 (Landen's step), and
    lambda -> 1 - lambda, 1/lambda reorder the 2-torsion, reaching the
    other two kernels and all six lambda over one j.  Supersingularity is
    an isogeny invariant and the supersingular 2-isogeny graph is connected
    (Mestre, La methode des graphes, 1986), so the closure of {lambda0}
    under the three maps is all of Lambda_p.

    Every supersingular lambda is a square in F_{p^2}.  Over F_{p^2} the
    trace t of E_lambda is one of 0, +-p, +-2p; its 2-torsion is rational,
    so 4 divides p^2 + 1 - t, which leaves t = +-2p.  Then (pi -+ p)^2 = 0
    for Frobenius pi, End(E) has no zero divisors, pi = +-p, and
    E_lambda(F_{p^2}) = E[p -+ 1], with the twist by a non-square d at the
    other sign.  One of p - 1, p + 1 is 0 mod 4, so one of the two curves
    has all of E[4] rational and each 2-torsion point twice a rational
    point.  By 2-descent, (0, 0) is twice a rational point of
    y^2 = x(x - d)(x - d*lambda) only if -d is a square, which it is not;
    so the curve is E_lambda, and there (0, 0) halves only if -1 and
    -lambda are squares.  As -1 is one in F_{p^2}, so is lambda.  A missing
    root raises `RuntimeError`.

    Two checks at run time: H_p(lambda0) = 0, in O(p) by `univ_eval`, and
    exactly m = (p-1)/2 distinct lambda, as Deuring's count requires.  With
    both, the m lambda are roots of H_p, of degree m, so they are all its
    roots, each simple (as Igusa proved for every p): H_p is squarefree.
    """
    hp = hasse_closed_symbolic(p)
    m = (p - 1) // 2
    lam0 = _supersingular_start(p, hp)
    if lam0 is None or univ_eval(hp, lam0, p) != (0, 0):
        raise RuntimeError(f"the start lambda {lam0} is not a root of H_p at p = {p}")
    walk, seen = [lam0], {lam0}
    # the queue grows while its square roots are drawn: one table of squares
    for lam, s in zip(walk, _square_roots(walk, p)):
        if s is None:
            raise RuntimeError(f"lambda = {lam} has no square root in F_{{p^2}} at p = {p}")
        for nxt in _neighbours(lam, s, p):
            if nxt not in seen:
                seen.add(nxt)
                walk.append(nxt)
    if len(walk) != m:
        raise RuntimeError(
            f"the walk at p = {p} finds {len(walk)} supersingular lambda, not "
            f"the {m} of Deuring's count")
    walk.sort(key=lambda lam: (lam[1] != 0, min(lam[1], p - lam[1]), lam))
    return SupersingularReport(
        prime=p,
        poly=hp,
        roots=tuple((lam, 1) for lam in walk),
        squarefree=True,
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
