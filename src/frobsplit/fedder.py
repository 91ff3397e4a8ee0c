"""Local Frobenius tests at the monomial maximal ideal m = (x_1, ..., x_n).

Membership in the bracket ideal m^[q] = (x_1^q, ..., x_n^q), the nu sequence
nu_f(p^e) = max{r : f^r not in m^[q]}, F-pure threshold bounds, and the
level-e F-purity test for a pair (f, t).  Only the origin is supported;
translate coordinates to test other points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import _factorials, require_p_free
from .mpoly import MPoly


class NuMonotonicityError(RuntimeError):
    """nu_f(p^(e+1)) outside [p*nu_f(p^e), p*nu_f(p^e) + p - 1], a theorem:
    signals an arithmetic bug, not bad input."""


def _is_power_of(q: int, p: int) -> bool:
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def in_bracket_ideal(g: MPoly, q: int) -> bool:
    """True iff every monomial of g has some exponent >= q.

    Equivalently g has no monomial surviving in the box [0, q)^n; the zero
    polynomial is in every ideal.
    """
    if not _is_power_of(q, g.p):
        raise ValueError(f"q = {q} is not a power of p = {g.p}")
    return all(any(e >= q for e in exps) for exps in g.terms)


def _require_local_input(f: MPoly, e: int) -> None:
    if f.is_zero() or all(not any(exps) for exps in f.terms):
        raise ValueError("f must be nonconstant")
    if f.constant_term():
        raise ValueError("f must vanish at the origin (f(0) = 0)")
    if e < 1:
        raise ValueError("e must be >= 1")


# Pruned products on monomials packed into single integers, exponent i in
# slot i of w + 1 bits, 2^w > 2q.  Both operands keep exponents < q, so sums
# stay below 2^w in their slots; adding 2^w - lim to each slot sets its top
# bit iff the exponent is >= lim, again with no carry.  Dropping those keys
# (lim is q unless a smaller box is asked for) is reduction mod the monomial
# ideal m^[lim], which commutes with products.

def _slot(q: int) -> int:
    return q.bit_length() + 2  # w + 1


@lru_cache(maxsize=256)
def _mask(nvars: int, q: int, lim: int) -> tuple[int, int]:
    """(shift, high), lim <= q: (key + shift) & high == 0 iff all exponents are < lim."""
    top, ones = 1 << (_slot(q) - 1), sum(1 << (_slot(q) * i) for i in range(nvars))
    return (top - lim) * ones, top * ones


def _pack_terms(f: MPoly, q: int) -> list[tuple[int, int]]:
    """f's terms inside the box [0, q)^n, packed; the others lie in m^[q]."""
    width = _slot(q)
    return [(sum(e << (width * i) for i, e in enumerate(exps)), c)
            for exps, c in f.terms.items() if max(exps) < q]


def _box(terms: dict[int, int], nvars: int, q: int, lim: int, p: int) -> dict[int, int]:
    """The terms with a coefficient nonzero mod p and every exponent < lim."""
    shift, high = _mask(nvars, q, lim)
    return {key: v for key, c in terms.items() if not (key + shift) & high and (v := c % p)}


def _pruned_times(acc: dict[int, int], fac: list[tuple[int, int]],
                  nvars: int, q: int, p: int, lim: int | None = None) -> dict[int, int]:
    """acc * fac mod m^[lim], on packed terms; lim is q by default."""
    shift, high = _mask(nvars, q, q if lim is None else lim)
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in acc.items():
        k1 += shift  # out is keyed by key + shift
        for k2, c2 in fac:
            key = k1 + k2
            if not key & high:
                out[key] = get(key, 0) + c1 * c2
    res = {}
    for key, c in out.items():  # a loop, not a comprehension: most products are small
        if c := c % p:
            res[key - shift] = c
    return res


def _half_power_diagonal(f: MPoly) -> int:
    """The coefficient of (x_1*...*x_n)^(p-1) in f^(p-1), mod p, from the
    half power.

    With A = f^((p-1)/2), that coefficient is sum_u A_u * A_(D-u) over
    D = (p-1, ..., p-1); both u and D - u lie in the box [0, p)^n, so A mod
    m^[p] suffices, built by (p-1)/2 pruned products.  A packed key u has
    every slot <= p - 1, so D - u subtracts slotwise with no borrow.
    """
    p, n = f.p, f.nvars
    fac = _pack_terms(f, p)
    half = {0: 1}
    for _ in range((p - 1) // 2):
        half = _pruned_times(half, fac, n, p, p)
    diag = sum((p - 1) << (_slot(p) * i) for i in range(n))
    get = half.get
    return sum(c * get(diag - u, 0) for u, c in half.items()) % p


class _CountLattice:
    """The count vectors k >= 0 of the multinomial expansion of f^(p-1) that
    reach the diagonal: sum_i k_i a_i = (p-1, ..., p-1) and sum_i k_i = p-1
    over the terms c_i x^(a_i) of f (the second equation is implied when f
    is a form of degree n in n variables).  A term with an exponent >= p
    has k_i = 0 and is left out.

    The system is row-reduced once over Z by Bareiss's fraction-free
    Gauss-Jordan: exact division by the previous pivot keeps every entry a
    minor, and with pivots made positive pivot row r ends reading
    d * k_c + sum_j m[j][r] * k_(free[j]) = b[r], d > 0.  `progressions`
    finds the points, apart from `diagonal`'s weights mod p, for other weights.
    """

    def __init__(self, f: MPoly):
        p = f.p
        box = [exps for exps in f.terms if max(exps) < p]
        rows = [[*col, p - 1] for col in zip(*box)] + [[1] * len(box) + [p - 1]]
        pivots, self.free, d = [], [], 1
        for col in range(len(box)):
            r = i = len(pivots)
            while i < len(rows) and not rows[i][col]:
                i += 1
            if i == len(rows):
                self.free.append(col)
                continue
            top = rows[i] if rows[i][col] > 0 else [-x for x in rows[i]]
            rows[i], rows[r], prev, d = rows[r], top, d, top[col]
            for i, row in enumerate(rows):
                a = row[col]
                if i != r and (a or d != prev):  # else the row stays as it is
                    rows[i] = [(d * x - a * y) // prev for x, y in zip(row, top)]
            pivots.append(col)
        self.p, self.d, self.rank = p, d, len(pivots)
        self.consistent = not any(row[-1] for row in rows[self.rank:])
        self.m = [[row[j] for row in rows[:self.rank]] for j in self.free]
        self.b = [row[-1] for row in rows[:self.rank]]
        self.exps = [box[c] for c in pivots + self.free]  # the counts' order in `progressions`
        self.coeffs = [f.terms[exps] for exps in self.exps]

    def progressions(self) -> list[tuple[list[int], list[int], int]]:
        """The points, each once, as (k, step, length): k + i*step for i < length.
        The free counts but the last are looped over; the last, t, solves
        m*t = b (mod d) on every row: one progression, cut to where each pivot
        count is >= 0 (so <= p - 1, as the counts add up to p - 1)."""
        d, mc, out = self.d, self.m, []
        def visit(ks: list[int], bs: list[int], budget: int) -> None:
            j = len(ks)  # ks: the free counts set so far
            if j + 1 < len(mc):
                for k in range(budget + 1):  # the counts add up to p - 1
                    visit(ks + [k], [b - m * k for m, b in zip(mc[j], bs)], budget - k)
                return
            ms = mc[j] if mc else [0] * len(bs)
            t0, step, lo, hi = 0, 1, 0, budget if mc else 0
            for m, b in zip(ms, bs):
                g, c = math.gcd(m * step, d), b - m * t0  # t = t0 + step*u, m*step*u = c (mod d)
                if c % g or not (m or b >= 0):
                    return
                if m:  # k_c = (b - m*t) / d >= 0 bounds t
                    h = d // g
                    t0, step = t0 + step * (c // g * pow(m * step // g, -1, h) % h), step * h
                    lo, hi = (lo, min(hi, b // m)) if m > 0 else (max(lo, -(-b // m)), hi)
            t = lo + (t0 - lo) % step
            if t <= hi:  # [t][:len(mc)]: no t when no count is free
                out.append(([(b - m * t) // d for m, b in zip(ms, bs)] + ks + [t][:len(mc)],
                            [-m * step // d for m in ms] + [0] * j + [step][:len(mc)],
                            (hi - t) // step + 1))

        if self.consistent:
            visit([], self.b, self.p - 1)
        return out

    def diagonal(self) -> int:
        """sum_k (p-1)!/(k_1!...k_s!) * prod_i c_i^(k_i) mod p over the count
        vectors; (p-1)! = -1 (Wilson), and every k_i! is a unit as k_i < p."""
        p, total, (_, inv_fact) = self.p, 0, _factorials(self.p)
        for k, steps, length in self.progressions():
            term = math.prod(map(pow, self.coeffs, k, [p] * len(k))) % p  # prod_i c_i^(k_i)
            unit = math.prod(map(pow, self.coeffs, steps, [p] * len(k))) % p  # per step
            for _ in range(length):
                total += term * math.prod([inv_fact[a] for a in k])
                k, term = [a + s for a, s in zip(k, steps)], term * unit % p
        return -total % p


def _diagonal_coefficient(f: MPoly) -> int:
    """The coefficient of (x_1*...*x_n)^(p-1) in f^(p-1), mod p: the lattice
    sum when at most one count is free, so that it visits at most p count
    vectors; the half power otherwise."""
    lattice = _CountLattice(f)
    if len(lattice.free) <= 1:
        return lattice.diagonal()
    return _half_power_diagonal(f)


def _nu_levels(f: MPoly, e_max: int) -> list[int]:
    """nu_f(p^e) for e = 1..e_max.  For f = c*x^a, c a unit, f^r is outside
    m^[q] iff r*a_i < q for every i, so nu_f(q) = floor((q-1)/max_i a_i)."""
    if len(f.terms) > 1:
        return _nu_loop(f, e_max)
    (a,) = f.terms
    return [(f.p ** e - 1) // max(a) for e in range(1, e_max + 1)]


def _nu_loop(f: MPoly, e_max: int) -> list[int]:
    """nu_f(p^e) for e = 1..e_max, one level at a time from one kept power.

    nu_f(1) = 0 since f lies in m = m^[1].  Given nu = nu_f(p^(e-1)) and
    P = f^nu mod m^[p^(e-1)], Frobenius over F_p gives
    f^(p*nu + d) = Frob(f^nu) * f^d, and Frob maps m^[p^(e-1)] into m^[p^e],
    so f^(p*nu + d) mod m^[p^e] is Frob(P) * f^d pruned to the box: P's packed
    keys times p, then d pruned products by f.  The last nonzero product gives
    nu_f(p^e) = p*nu + d and is the next P.  That d lies in [0, p - 1]
    (Mustata-Takagi-Watanabe): Frob(P) is nonzero mod m^[p^e] as P is nonzero
    mod m^[p^(e-1)], and f^(nu+1) in m^[p^(e-1)] gives f^(p*nu+p) in m^[p^e].
    A level outside that bracket raises NuMonotonicityError.  The slots of
    p^e_max serve every level: P's exponents times p stay below p^e < 2^w.
    """
    p, n = f.p, f.nvars
    top = p ** e_max
    fac = _pack_terms(f, top)
    kept, v, values = {0: 1}, 0, []
    for e in range(1, e_max + 1):
        q = p ** e
        # Frob(P) = f^(p*nu) mod m^[q]; the box can only empty it if a product
        # left a term outside its own box
        power = _box({key * p: c for key, c in kept.items()}, n, top, q, p)
        if not power:
            raise NuMonotonicityError(
                f"f^(p*nu) = f^{p * v} inside m^[{p}^{e}] for nu = nu({p}^{e - 1}) = {v}")
        for d in range(p):
            kept = power
            power = _pruned_times(kept, fac, n, top, p, q)
            if not power:
                break
        else:
            raise NuMonotonicityError(
                f"f^(p*nu + p) = f^{p * v + p} outside m^[{p}^{e}] "
                f"for nu = nu({p}^{e - 1}) = {v}")
        v = p * v + d
        values.append(v)
    return values


def nu(f: MPoly, e: int) -> int:
    """max r >= 0 with f^r outside m^[p^e]: the last level of the loop
    `fpt_bounds` runs, at most p pruned products per level."""
    _require_local_input(f, e)
    return _nu_levels(f, e)[-1]


class NuSequence(NamedTuple):
    poly: MPoly
    prime: int
    values: tuple[tuple[int, int], ...]  # (e, nu_f(p^e))
    fpt_lower: Fraction
    fpt_upper: Fraction


def fpt_bounds(f: MPoly, e_max: int) -> NuSequence:
    """nu values for e = 1..e_max and the F-pure threshold bracket they pin.

    All levels come from one level-by-level pass, the one `nu` runs; it
    raises NuMonotonicityError if some level leaves its theorem bracket.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    _require_local_input(f, e_max)
    values = tuple(enumerate(_nu_levels(f, e_max), start=1))
    q, last = f.p ** e_max, values[-1][1]
    return NuSequence(f, f.p, values, Fraction(last, q), Fraction(last + 1, q))


def is_fpure_pair(f: MPoly, t, e: int) -> bool:
    """Level-e F-purity of the pair (f, t): f^(t(p^e-1)) outside m^[p^e].

    Requires t*(p^e - 1) integral, mirroring the convention that boundary
    coefficients are only tested at levels where they clear denominators.
    f^r outside m^[q] is monotone in r, so the test is t(p^e - 1) <= nu_f(p^e).
    """
    _require_local_input(f, e)
    t = require_p_free(Fraction(t), f.p)
    if t < 0:
        raise ValueError("t must be nonnegative")
    q = f.p ** e
    N = t * (q - 1)
    if N.denominator != 1:
        raise ValueError(f"t*(p^e - 1) = {N} is not an integer at level e = {e}")
    return N <= _nu_levels(f, e)[-1]
