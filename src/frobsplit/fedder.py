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
    """nu_f(p^{e+1}) < p*nu_f(p^e): signals an arithmetic bug, not bad input."""


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


def _require_in_maximal_ideal(f: MPoly) -> None:
    if f.is_zero() or all(not any(e) for e in f.terms):
        raise ValueError("f must be nonconstant")
    if not f.constant_term().is_zero():
        raise ValueError("f must vanish at the origin (f(0) = 0)")


# Fast pruned product arithmetic on monomials packed into single integers.
# Components stay < q in both operands, so digitwise sums stay < 2q and a
# base-2q packing has no carries; pruning re-normalizes after each step.

def _pack_terms(f: MPoly, q: int) -> list[tuple[int, int]] | None:
    base = 2 * q
    packed = []
    for exps, c in f.terms.items():
        if any(e >= q for e in exps):
            continue  # already inside m^[q], irrelevant mod the bracket ideal
        key = 0
        for e in reversed(exps):
            key = key * base + e
        packed.append((key, c))
    return packed


def _pruned_times(acc: dict[int, int], fac: list[tuple[int, int]],
                  nvars: int, q: int, p: int) -> dict[int, int]:
    base = 2 * q
    out: dict[int, int] = {}
    for k1, c1 in acc.items():
        for k2, c2 in fac:
            key = k1 + k2
            # reject any digit >= q
            kk = key
            ok = True
            for _ in range(nvars):
                if kk % base >= q:
                    ok = False
                    break
                kk //= base
            if not ok:
                continue
            v = (out.get(key, 0) + c1 * c2) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def nu(f: MPoly, e: int) -> int:
    """max r >= 0 with f^r outside m^[p^e].

    Incremental products with monomials pruned against the box [0, q)^n;
    pruning is reduction mod the monomial ideal m^[q], so it commutes with
    multiplication and membership tests stay exact.
    """
    _require_in_maximal_ideal(f)
    if e < 1:
        raise ValueError("e must be >= 1")
    q = f.p ** e
    fac = _pack_terms(f, q)
    if not fac:
        return 0
    acc = {0: 1}
    r = 0
    bound = f.nvars * (q - 1) + 1
    while True:
        acc = _pruned_times(acc, fac, f.nvars, q, f.p)
        if not acc:
            return r
        r += 1
        if r > bound:
            raise NuMonotonicityError("nu search exceeded the box bound; arithmetic bug")


def _pruned_power_survives(f: MPoly, N: int, q: int) -> bool:
    """True iff f^N is outside m^[q], powering by base-p digits of N.

    Over F_p, f^N = prod_j Frob^j(f^(d_j)) for N = sum_j d_j p^j, and Frob^j
    only scales exponents by p^j (coefficients are fixed), so each factor is
    an exact twist of the small power f^(d_j).  Reduction mod m^[q] commutes
    with products, so each factor is pruned to the box [0, q)^n on packing
    and the running product is pruned after every step; an empty product
    means f^N lies in m^[q].
    """
    acc = {0: 1}
    j = 0
    while N and acc:
        N, d = divmod(N, f.p)
        if d:
            fac = _pack_terms((f ** d).frobenius_twist(j), q)
            acc = _pruned_times(acc, fac, f.nvars, q, f.p)
        j += 1
    return bool(acc)


def nu_binary(f: MPoly, e: int) -> int:
    """Cross-check for nu: binary search on r with pruned binary powering.

    Membership of f^r in m^[q] is monotone in r, so the predicate is
    searchable.  Kept independent of the incremental path.
    """
    _require_in_maximal_ideal(f)
    if e < 1:
        raise ValueError("e must be >= 1")
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

    Raises NuMonotonicityError if nu(p^{e+1}) < p*nu(p^e) ever holds; that
    inequality is a theorem, so a violation means the arithmetic is broken.
    """
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    values = []
    prev = None
    for e in range(1, e_max + 1):
        v = nu(f, e)
        if prev is not None and v < f.p * prev:
            raise NuMonotonicityError(
                f"nu({f.p}^{e}) = {v} < p*nu({f.p}^{e-1}) = {f.p * prev}")
        values.append((e, v))
        prev = v
    q = f.p ** e_max
    last = values[-1][1]
    return NuSequence(
        poly=f,
        prime=f.p,
        values=tuple(values),
        fpt_lower=Fraction(last, q),
        fpt_upper=Fraction(last + 1, q),
    )


def is_fpure_pair(f: MPoly, t, e: int) -> bool:
    """Level-e F-purity of the pair (f, t): f^(t(p^e-1)) outside m^[p^e].

    Requires t*(p^e - 1) integral, mirroring the convention that boundary
    coefficients are only tested at levels where they clear denominators.
    """
    _require_in_maximal_ideal(f)
    if e < 1:
        raise ValueError("e must be >= 1")
    t = require_p_free(Fraction(t), f.p)
    if t < 0:
        raise ValueError("t must be nonnegative")
    q = f.p ** e
    N = t * (q - 1)
    if N.denominator != 1:
        raise ValueError(f"t*(p^e - 1) = {N} is not an integer at level e = {e}")
    return _pruned_power_survives(f, int(N), q)
