"""Univariate polynomials over F_p and F_{p^2} on plain ints.

Two representations, neither holding field objects:

* dense F_p[x]: a list (or tuple) c[0..deg] of ints in [0, p) with a nonzero last
  entry; [] is zero.  Values at a + b*t and the squarefree test by a gcd
  with the derivative.  Nothing here finds roots: the one locus the
  program needs, H_p's, comes from an isogeny walk in `elliptic`.
* sparse UPoly: a map degree -> nonzero coefficient, the pair (a, b) of
  ints in [0, p) meaning a + b*t with t^2 = quadratic_nonresidue(p), the t
  of ExtFieldElement; F_p is the case b = 0.  Products and
  Frobenius-powered products.

Roots and boundary points are such pairs too, multiplied as a + b*t by
`arith._times`.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from .arith import _inverse, _times, quadratic_nonresidue


# -- dense F_p[x] ------------------------------------------------------------

def _dense_trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _dense_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (b trimmed, nonzero), dense int lists mod p.

    Each step pops the leading coefficient and subtracts a multiple of the
    monic divisor from the row below it, leaving the row unreduced: only
    the coefficient about to lead is reduced mod p.
    """
    a = _dense_trim([c % p for c in a])
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    low = [c * inv_lead % p for c in b[:-1]]
    quot = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = a.pop() % p
        if c:
            s = len(a) - db
            quot[s] = c * inv_lead % p
            a[s:] = [x - c * y for x, y in zip(a[s:], low)]
    return quot, _dense_trim([c % p for c in a])


def _dense_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _dense_trim([c % p for c in a])
    b = _dense_trim([c % p for c in b])
    while b:
        a, b = b, _dense_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def univ_eval(dense: Sequence[int], x: tuple[int, int], p: int) -> tuple[int, int]:
    """f(a + b*t) as a reduced pair, for f = sum dense[i] x^i over F_p and x = (a, b)."""
    u = v = 0
    for c in reversed(dense):
        u, v = _times(u, v, *x, p)
        u, v = (u + c) % p, v % p
    return u, v


def univ_squarefree(dense: Sequence[int], p: int) -> bool:
    """True iff gcd(f, f') is constant, for f = sum dense[i] x^i over F_p."""
    if not dense:
        raise ValueError("zero polynomial")
    derivative = [i * c % p for i, c in enumerate(dense)][1:]
    return len(_dense_gcd(dense, derivative, p)) == 1


# -- sparse maps over F_{p^2} ------------------------------------------------

UPoly = dict


def _udiv(u: tuple[int, int], v: tuple[int, int], p: int) -> tuple[int, int]:
    """u/v for coefficients u and v != 0."""
    a, b = _times(*u, *_inverse(*v, p), p)
    return a % p, b % p


def _umul(f: UPoly, g: UPoly, p: int) -> UPoly:
    """f*g: unreduced products are summed per degree and reduced once.

    A coefficient a + bt is packed as the int a + b*2^K, so one int product
    holds a1a2, a1b2 + b1a2 and b1b2 in K-bit slots (over F_p, where every
    b is 0, it is the int product a1a2).  A degree sums at most one product
    per term of the shorter factor, and K is wide enough for that many;
    t^2 = n then folds the third slot into the first.
    """
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    K = (2 * len(small) * (p - 1) ** 2).bit_length()
    small = {d: a | b << K for d, (a, b) in small.items()}
    big = [(d, a | b << K) for d, (a, b) in big.items()]
    acc: dict = {}
    get = acc.get
    for d1, c1 in small.items():
        for d2, c2 in big:
            d = d1 + d2
            acc[d] = get(d, 0) + c1 * c2
    # reduced in place: a second map would double the peak memory
    n, mask = quadratic_nonresidue(p), (1 << K) - 1
    for d, v in acc.items():
        acc[d] = ((v & mask) + n * (v >> 2 * K)) % p, (v >> K & mask) % p
    for d in [d for d, c in acc.items() if c == (0, 0)]:
        del acc[d]
    return acc


def _uproduct(polys: Sequence[UPoly], p: int) -> UPoly:
    """The product of polys, 1 when there are none; no factor is the unit."""
    return reduce(lambda a, b: _umul(a, b, p), polys) if polys else {0: (1, 0)}


def _upow_small(f: UPoly, k: int, p: int) -> UPoly:
    """f^k, k >= 1, by squaring; f itself when k = 1."""
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else _umul(result, base, p)
        k >>= 1
        if k:
            base = _umul(base, base, p)
    return result


def _ufrob(f: UPoly, j: int, p: int) -> UPoly:
    """f -> f^(p^j): exponents scale by p^j, coefficients get Frobenius^j,
    which is a + bt -> a - bt for odd j."""
    s, sign = p ** j, (-1) ** j
    return {d * s: (a, sign * b % p) for d, (a, b) in f.items()}


def _upow_frobenius(f: UPoly, n: int, p: int) -> UPoly:
    """f^n via base-p digits: prod_j Frob^j(f^(d_j))."""
    pieces = []
    j = 0
    while n:
        d = n % p
        if d:
            pieces.append(_ufrob(_upow_small(f, d, p), j, p))
        n //= p
        j += 1
    return _uproduct(pieces, p)


def _boundary_poly(finite_parts: Sequence[tuple[tuple[int, int], int]], p: int) -> UPoly:
    """prod (x - lambda_i)^(n_i) for parts ((a_i, b_i), n_i), lambda_i = a_i + b_i*t,
    grouped by exponent for Frobenius powering."""
    by_n: dict[int, UPoly] = {}
    for (a, b), n in finite_parts:
        if n == 0:
            continue
        u = {1: (1, 0)}
        if a or b:
            u[0] = (-a % p, -b % p)
        by_n[n] = _umul(by_n[n], u, p) if n in by_n else u
    return _uproduct([_upow_frobenius(u, n, p) for n, u in sorted(by_n.items())], p)
