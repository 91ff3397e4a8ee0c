"""Local Frobenius tests at the monomial maximal ideal m = (x_1, ..., x_n).

Membership in the bracket ideal m^[q] = (x_1^q, ..., x_n^q), the nu sequence
nu_f(p^e) = max{r : f^r not in m^[q]}, F-pure threshold bounds, and the
level-e F-purity test for a pair (f, t).  Only the origin is supported;
translate coordinates to test other points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import require_p_free
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
    if not f.constant_term().is_zero():
        raise ValueError("f must vanish at the origin (f(0) = 0)")
    if e < 1:
        raise ValueError("e must be >= 1")


# Pruned product arithmetic on monomials packed into single integers, one
# base-2q digit per variable.  Both operands keep every digit < q, so digitwise
# sums stay < 2q and the packing has no carries; dropping the keys with a digit
# >= q is reduction mod the monomial ideal m^[q], which commutes with products.

def _pack_terms(f: MPoly, q: int) -> list[tuple[int, int]]:
    """f's terms inside the box [0, q)^n, packed; the others lie in m^[q]."""
    base = 2 * q
    return [(sum(e * base ** i for i, e in enumerate(exps)), c)
            for exps, c in f.terms.items() if max(exps) < q]


def _box(terms: dict[int, int], nvars: int, q: int, lim: int, p: int) -> dict[int, int]:
    """The terms with a coefficient nonzero mod p and every base-2q digit < lim."""
    base = 2 * q
    out = {}
    for key, c in terms.items():
        c %= p
        if not c:
            continue
        kk = key
        for _ in range(nvars):
            if kk % base >= lim:
                break
            kk //= base
        else:
            out[key] = c
    return out


def _pruned_times(acc: dict[int, int], fac: list[tuple[int, int]],
                  nvars: int, q: int, p: int) -> dict[int, int]:
    """acc * fac mod m^[q], on packed terms."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in acc.items():
        for k2, c2 in fac:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return _box(out, nvars, q, q, p)


class _DigitTable:
    """Packed f^d mod m^[q] for the base-p digits d = 0..p-1.

    Over F_p, f^N = prod_j Frob^j(f^(d_j)) for N = sum_j d_j p^j, and Frob^j
    scales exponents by p^j with coefficients fixed.  A monomial of f^d
    survives the twist mod m^[q] iff every exponent is below q/p^j, so each
    factor is a filtered row of this table with its packed keys times p^j
    (each digit stays < q, hence no carry).  No f^d is expanded outside the box.
    """

    def __init__(self, f: MPoly, q: int):
        self.nvars, self.q, self.p = f.nvars, q, f.p
        fac = _pack_terms(f, q)
        self.rows = [{0: 1}]
        for _ in range(f.p - 1):
            self.rows.append(_pruned_times(self.rows[-1], fac, f.nvars, q, f.p))

    def twisted(self, d: int, j: int) -> list[tuple[int, int]]:
        """Frob^j(f^d) mod m^[q], packed."""
        s = self.p ** j
        row = _box(self.rows[d], self.nvars, self.q, -(-self.q // s), self.p)
        return [(key * s, c) for key, c in row.items()]

    def survives(self, N: int) -> bool:
        """True iff f^N is outside m^[q].

        The factors go in from the highest digit down, since the most
        twisted rows are the sparsest, and the product stops once it is empty.
        """
        digits = []
        while N:
            N, d = divmod(N, self.p)
            digits.append(d)
        acc = {0: 1}
        for j in reversed(range(len(digits))):
            if acc and digits[j]:
                acc = _pruned_times(acc, self.twisted(digits[j], j), self.nvars, self.q, self.p)
        return bool(acc)


def _pruned_power_survives(f: MPoly, N: int, q: int) -> bool:
    """True iff f^N is outside m^[q], powering by base-p digits of N."""
    return _DigitTable(f, q).survives(N)


def _nu_levels(f: MPoly, e_max: int) -> list[int]:
    """nu_f(p^e) for e = 1..e_max, one level at a time.

    nu_f(1) = 0 since f lies in m = m^[1].  Given nu = nu_f(p^(e-1)),
    nu_f(p^e) lies in [p*nu, p*nu + p - 1]: the lower end is
    Mustata-Takagi-Watanabe, the upper holds because f^(nu+1) in m^[p^(e-1)]
    gives f^(p*nu+p) in m^[p^e].  Both ends are checked with the kernel, then
    f^r outside m^[p^e] (monotone in r) is binary-searched between them.
    """
    p = f.p
    values = []
    v = 0
    for e in range(1, e_max + 1):
        table = _DigitTable(f, p ** e)
        lo, hi = p * v, p * v + p
        if not table.survives(lo) or table.survives(hi):
            raise NuMonotonicityError(
                f"nu({p}^{e}) outside [p*nu, p*nu + p - 1] = [{lo}, {hi - 1}] "
                f"for nu = nu({p}^{e - 1}) = {v}")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if table.survives(mid):
                lo = mid
            else:
                hi = mid
        v = lo
        values.append(v)
    return values


def nu(f: MPoly, e: int) -> int:
    """max r >= 0 with f^r outside m^[p^e]: the last level of the search
    `fpt_bounds` runs, at most ceil(log2 p) + 2 kernel calls per level."""
    _require_local_input(f, e)
    return _nu_levels(f, e)[-1]


def nu_binary(f: MPoly, e: int) -> int:
    """Cross-check for nu: binary search on r over [0, n(q-1)+1].

    Membership of f^r in m^[q] is monotone in r, so the predicate is
    searchable.  Kept independent of the level-by-level brackets of `nu`.
    """
    _require_local_input(f, e)
    q = f.p ** e
    lo, hi = 0, f.nvars * (q - 1) + 1  # f^hi is always inside
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if _pruned_power_survives(f, mid, q):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class NuSequence:
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
    """
    _require_local_input(f, e)
    t = require_p_free(Fraction(t), f.p)
    if t < 0:
        raise ValueError("t must be nonnegative")
    q = f.p ** e
    N = t * (q - 1)
    if N.denominator != 1:
        raise ValueError(f"t*(p^e - 1) = {N} is not an integer at level e = {e}")
    return _pruned_power_survives(f, int(N), q)
