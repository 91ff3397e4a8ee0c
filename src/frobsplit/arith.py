"""Exact arithmetic over F_p and F_{p^2}, p-integral rationals, binomials mod p.

Characteristic 2 is excluded throughout: every construction here assumes an
odd prime modulus p >= 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union


class ZpViolationError(ValueError):
    """A rational coefficient has a denominator divisible by the working prime."""


def is_prime(n: int) -> bool:
    """Deterministic trial division; sufficient for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _check_modulus(p: int) -> None:
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")


class FieldElement:
    """An element of the prime field F_p, stored reduced to [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _check_modulus(modulus)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value % modulus)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        return FieldElement(pow(self.value, exp, self.modulus), self.modulus)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return FieldElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.value == other.value and self.modulus == other.modulus
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"F{self.modulus}({self.value})"

    def is_zero(self) -> bool:
        return self.value == 0

    def frobenius(self) -> "FieldElement":
        return self  # x^p = x on F_p


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic character of a mod p, with chi(0) = 0."""
    _check_modulus(p)
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@lru_cache(maxsize=None)
def quadratic_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue mod p (deterministic scan)."""
    _check_modulus(p)
    n = 2
    while legendre_symbol(n, p) != -1:
        n += 1
    return n


class ExtFieldElement:
    """An element a + b*t of F_{p^2} = F_p[t]/(t^2 - n), n = quadratic_nonresidue(p).

    Outside field arithmetic the library holds a + b*t as the int pair
    (a, b): `upoly`'s coefficients, roots and `gsplit.P1Point` values.
    """

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a: int, b: int, modulus: int):
        _check_modulus(modulus)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "a", a % modulus)
        object.__setattr__(self, "b", b % modulus)

    def __setattr__(self, name, val):
        raise AttributeError("ExtFieldElement is immutable")

    def _coerce(self, other) -> "ExtFieldElement":
        if isinstance(other, ExtFieldElement):
            if other.modulus != self.modulus:
                raise ValueError("extension field mismatch")
            return other
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return ExtFieldElement(other.value, 0, self.modulus)
        if isinstance(other, int):
            return ExtFieldElement(other, 0, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtFieldElement(self.a + o.a, self.b + o.b, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtFieldElement(self.a - o.a, self.b - o.b, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.modulus
        a = (self.a * o.a + self.b * o.b % p * quadratic_nonresidue(p)) % p
        b = (self.a * o.b + self.b * o.a) % p
        return ExtFieldElement(a, b, p)

    __rmul__ = __mul__

    def __neg__(self):
        return ExtFieldElement(-self.a, -self.b, self.modulus)

    def norm(self) -> FieldElement:
        """a^2 - n*b^2, the norm down to F_p."""
        p = self.modulus
        return FieldElement(self.a * self.a - quadratic_nonresidue(p) * self.b * self.b, p)

    def inverse(self) -> "ExtFieldElement":
        nv = self.norm()
        if nv.is_zero():
            raise ZeroDivisionError("inverse of zero in F_{p^2}")
        ninv = nv.inverse().value
        p = self.modulus
        return ExtFieldElement(self.a * ninv, -self.b * ninv, p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = ExtFieldElement(1, 0, self.modulus)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def frobenius(self) -> "ExtFieldElement":
        """x -> x^p; on F_{p^2} this is conjugation a + bt -> a - bt."""
        return ExtFieldElement(self.a, -self.b, self.modulus)

    def is_base(self) -> bool:
        return self.b == 0

    def to_base(self) -> FieldElement:
        if self.b != 0:
            raise ValueError(f"{self!r} does not lie in the prime field")
        return FieldElement(self.a, self.modulus)

    def __eq__(self, other):
        if isinstance(other, ExtFieldElement):
            return (self.a, self.b, self.modulus) == (other.a, other.b, other.modulus)
        if isinstance(other, (FieldElement, int)):
            o = self._coerce(other)
            return self == o
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash((self.a, self.modulus))  # agrees with FieldElement when b = 0
        return hash((self.a, self.b, self.modulus))

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self):
        return f"F{self.modulus}^2({self.a}+{self.b}t)"


AnyFieldElement = Union[FieldElement, ExtFieldElement]


def require_p_free(q: Fraction, p: int) -> Fraction:
    """Raise ZpViolationError unless the denominator of q is prime to p."""
    q = Fraction(q)
    if q.denominator % p == 0:
        raise ZpViolationError(
            f"denominator of {q} is divisible by the working prime {p}")
    return q


def _small_binom(n: int, k: int, p: int) -> int:
    # n, k < p, so the binomial is a unit-denominator quotient of small factorials
    return math.comb(n, k) % p


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p in [0, p) by base-p (Lucas) decomposition; 0 when k > n."""
    _check_modulus(p)
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if k > n:
        return 0
    r = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        r = r * _small_binom(ni, ki, p) % p
        n //= p
        k //= p
    return r


def splitting_level(coeffs: Iterable[Fraction], p: int) -> int:
    """Smallest e >= 1 with (p^e - 1)*b integral for every coefficient b.

    Equals the multiplicative order of p modulo the lcm of the denominators;
    the denominators must be prime to p.
    """
    _check_modulus(p)
    a = 1
    for c in coeffs:
        c = require_p_free(Fraction(c), p)
        a = math.lcm(a, c.denominator)
    if a == 1:
        return 1
    e, r = 1, p % a
    while r != 1:
        r = r * p % a
        e += 1
    return e
