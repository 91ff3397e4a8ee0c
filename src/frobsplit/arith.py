"""Exact arithmetic over F_p and F_{p^2}, p-integral rationals, binomials and
factorials mod p.

F_p is the b = 0 part of F_{p^2}, so every field operation is written once.
Characteristic 2 is excluded throughout: every construction here assumes an
odd prime modulus p >= 3.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Union


class ZpViolationError(ValueError):
    """A rational coefficient has a denominator divisible by the working prime."""


def read_int(digits: str) -> int:
    """int(digits) for a string of digits.  Past int()'s digit limit the
    error names the number and its length, not the process-wide setting
    that int() suggests raising."""
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise ValueError(f"number {digits[:5]}...{digits[-5:]} has {len(digits)} digits, "
                         f"more than the {limit} that are read")
    return int(digits)


def parse_int(text: str) -> int:
    """int(text) on ASCII digits: an optional sign and surrounding
    whitespace, as int() reads them, but no underscores and no non-ASCII
    digits, which int() would also read."""
    body = text.strip()
    digits = body[1:] if body.startswith(("+", "-")) else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    value = read_int(digits)
    return -value if body.startswith("-") else value


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


def _times(a1: int, b1: int, a2: int, b2: int, p: int) -> tuple[int, int]:
    """(a1 + b1*t)(a2 + b2*t), unreduced; t^2 = quadratic_nonresidue(p)."""
    return a1 * a2 + quadratic_nonresidue(p) * b1 * b2, a1 * b2 + b1 * a2


def _inverse(a: int, b: int, p: int) -> tuple[int, int]:
    """(a + b*t)^-1 = (a - b*t) / (a^2 - n*b^2), for a + b*t != 0."""
    norm = (a * a - quadratic_nonresidue(p) * b * b) % p
    if norm == 0:
        raise ZeroDivisionError("inverse of zero")
    inv = pow(norm, -1, p)
    return a * inv, -b * inv


def _square_roots(zs: Iterable[tuple[int, int]], p: int) -> Iterator[tuple[int, int] | None]:
    """A reduced square root (x, y) of each reduced z = (a, b) = a + b*t in
    F_{p^2}, or None where z is not a square in F_{p^2}; one table of
    squares mod p serves the whole batch.  The roots are yielded as zs is
    read, so zs may be a queue that grows from the roots already taken.

    For b = 0, a is x^2 or, when it is not a square mod p, n*y^2 = (y*t)^2,
    since a/n is then a square.  For b != 0, (x + y*t)^2 = z means
    x^2 + n*y^2 = a and 2*x*y = b, so x^2 - n*y^2 = c with c^2 = N(z) =
    a^2 - n*b^2: z is a square iff N(z) is a square mod p (as
    z^((p^2-1)/2) = N(z)^((p-1)/2)).  Then x^2 = (a + c)/2 and y = b/(2x).
    Since ((a + c)/2) * ((a - c)/2) = n*b^2/4 is a nonresidue, exactly one of
    the two choices c = +-sqrt(N(z)) makes (a + c)/2 a nonzero square.
    """
    n = quadratic_nonresidue(p)
    half, inv_n = (p + 1) // 2, pow(n, -1, p)
    root_of = {x * x % p: x for x in range(half)}
    for a, b in zs:
        if b == 0:
            yield (root_of[a], 0) if a in root_of else (0, root_of[a * inv_n % p])
            continue
        c = root_of.get((a * a - n * b * b) % p)
        if c is None:
            yield None
            continue
        x = root_of.get((a + c) * half % p) or root_of[(a - c) * half % p]
        yield x, b * half * pow(x, -1, p) % p


class _Element:
    """a + b*t in F_{p^2} = F_p[t]/(t^2 - n), n = quadratic_nonresidue(p), with
    a, b in [0, p); F_p is the part b = 0, held by `FieldElement`.

    Every operator is written once, here, and builds one element for its
    result: a `FieldElement` from two FieldElements or from one and an int,
    an `ExtFieldElement` otherwise.  Elsewhere the library holds a + b*t as
    the int pair (a, b): upoly coefficients, roots, `gsplit.P1Point` values.
    """

    __slots__ = ("a", "b", "modulus")

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _operand(self, other):
        """(a, b, result class) for an int or element operand, None for any other."""
        if isinstance(other, _Element):
            if other.modulus != self.modulus:
                raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other.a, other.b, type(self) if type(other) is type(self) else ExtFieldElement
        return (other, 0, type(self)) if isinstance(other, int) else None

    def _new(self, cls, a: int, b: int):
        """The result; +, - and * build it inline, one call fewer on their hot path."""
        p = self.modulus
        return FieldElement(a, p) if cls is FieldElement else ExtFieldElement(a, b, p)

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        a, b, p = self.a + a, self.b + b, self.modulus
        return FieldElement(a, p) if cls is FieldElement else ExtFieldElement(a, b, p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        a, b, p = self.a - a, self.b - b, self.modulus
        return FieldElement(a, p) if cls is FieldElement else ExtFieldElement(a, b, p)

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        return self._new(cls, a - self.a, b - self.b)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        p, sa, sb = self.modulus, self.a, self.b
        a, b = sa * a + quadratic_nonresidue(p) * sb * b, sa * b + sb * a
        return FieldElement(a, p) if cls is FieldElement else ExtFieldElement(a, b, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        p = self.modulus
        return self._new(cls, *_times(self.a, self.b, *_inverse(a, b, p), p))

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        a, b, cls = o
        p = self.modulus
        return self._new(cls, *_times(a, b, *_inverse(self.a, self.b, p), p))

    def __neg__(self):
        return self._new(type(self), -self.a, -self.b)

    def __pow__(self, exp: int):
        p = self.modulus
        a, b = _inverse(self.a, self.b, p) if exp < 0 else (self.a, self.b)
        r = 1, 0
        for bit in bin(abs(exp))[2:]:
            r = [c % p for c in _times(*r, *r, p)]
            if bit == "1":
                r = _times(*r, a, b, p)
        return self._new(type(self), *r)

    def inverse(self):
        return self._new(type(self), *_inverse(self.a, self.b, self.modulus))

    def frobenius(self):
        """x -> x^p: conjugation a + bt -> a - bt, the identity on F_p."""
        return self._new(type(self), self.a, -self.b)

    def norm(self) -> "FieldElement":
        """x * frobenius(x) = a^2 - n*b^2, in F_p."""
        return FieldElement(_times(self.a, self.b, self.a, -self.b, self.modulus)[0], self.modulus)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.modulus
        if isinstance(other, _Element):
            return (self.a, self.b, self.modulus) == (other.a, other.b, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.modulus))

    def __reduce__(self):  # pickle and copy call the constructor, not __setattr__
        args = (self.a,) if type(self) is FieldElement else (self.a, self.b)
        return type(self), args + (self.modulus,)

    def __bool__(self):
        return bool(self.a or self.b)

    def is_zero(self) -> bool:
        return not (self.a or self.b)


# the slots' own setters, past the __setattr__ that keeps elements immutable
_set_a, _set_b, _set_modulus = _Element.a.__set__, _Element.b.__set__, _Element.modulus.__set__


class FieldElement(_Element):
    """An element of the prime field F_p: the b = 0 part of `_Element`."""

    __slots__ = ()

    def __init__(self, value: int, modulus: int):
        _check_modulus(modulus)
        _set_modulus(self, modulus)
        _set_a(self, value % modulus)
        _set_b(self, 0)

    @property
    def value(self) -> int:
        return self.a

    def __repr__(self):
        return f"F{self.modulus}({self.a})"


class ExtFieldElement(_Element):
    """An element a + b*t of F_{p^2} = F_p[t]/(t^2 - n), n = quadratic_nonresidue(p)."""

    __slots__ = ()

    def __init__(self, a: int, b: int, modulus: int):
        _check_modulus(modulus)
        _set_modulus(self, modulus)
        _set_a(self, a % modulus)
        _set_b(self, b % modulus)

    def is_base(self) -> bool:
        return self.b == 0

    def to_base(self) -> FieldElement:
        if self.b != 0:
            raise ValueError(f"{self!r} does not lie in the prime field")
        return FieldElement(self.a, self.modulus)

    def __repr__(self):
        return f"F{self.modulus}^2({self.a}+{self.b}t)"


AnyFieldElement = Union[FieldElement, ExtFieldElement]


def require_p_free(q: Fraction, p: int) -> Fraction:
    """Raise ZpViolationError unless the denominator of q is prime to p."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator % p == 0:
        raise ZpViolationError(
            f"denominator of {q} is divisible by the working prime {p}")
    return q


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
        r = r * math.comb(ni, ki) % p
        n //= p
        k //= p
    return r


def _factorials(p: int) -> tuple[list[int], list[int]]:
    """k! and 1/k! mod p for k = 0..p-1, in O(p): the inverses run down from
    1/(p-1)! = -1 (Wilson) by 1/(k-1)! = k/k!."""
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [p - 1] * p
    for k in range(p - 1, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    return fact, inv_fact


def splitting_level(coeffs: Iterable[Fraction], p: int) -> int:
    """Smallest e >= 1 with (p^e - 1)*b integral for every coefficient b.

    Equals the multiplicative order of p modulo the lcm of the denominators;
    the denominators must be prime to p.
    """
    _check_modulus(p)
    a = math.lcm(*[require_p_free(c, p).denominator for c in coeffs])
    if a == 1:
        return 1
    e, r = 1, p % a
    while r != 1:
        r = r * p % a
        e += 1
    return e
