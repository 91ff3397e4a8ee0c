"""Sparse multivariate polynomials over F_p.

Terms are stored as a map from exponent vectors (tuples of nonnegative ints)
to nonzero coefficients in [1, p).  Exponents can get huge (Frobenius-factored
powering multiplies them by p^i) while term counts stay moderate, so all
arithmetic is term-by-term with no dense intermediate except for the
univariate gcd/derivative utilities.
"""

from __future__ import annotations

import re
from functools import reduce
from math import comb
from typing import Mapping, Sequence

from .arith import (AnyFieldElement, ExtFieldElement, FieldElement,
                    _check_modulus, quadratic_nonresidue)


class MPoly:
    __slots__ = ("nvars", "p", "terms")

    def __init__(self, nvars: int, p: int, terms: Mapping[tuple, int] | None = None):
        _check_modulus(p)
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "p", p)
        cleaned: dict[tuple, int] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = (cleaned.get(exps, 0) + int(c)) % p
                if c:
                    cleaned[exps] = c
                elif exps in cleaned:
                    del cleaned[exps]
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, val):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, p: int) -> "MPoly":
        return cls(nvars, p, {})

    @classmethod
    def constant(cls, c: int, nvars: int, p: int) -> "MPoly":
        return cls(nvars, p, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int, p: int) -> "MPoly":
        return cls.constant(1, nvars, p)

    @classmethod
    def variable(cls, i: int, nvars: int, p: int) -> "MPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, p, {exps: 1})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(other, self.nvars, self.p)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        p = self.p
        for exps, c in other.terms.items():
            v = (terms.get(exps, 0) + c) % p
            if v:
                terms[exps] = v
            elif exps in terms:
                del terms[exps]
        out = MPoly.zero(self.nvars, self.p)
        object.__setattr__(out, "terms", terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        terms = {e: p - c for e, c in self.terms.items()}
        out = MPoly.zero(self.nvars, self.p)
        object.__setattr__(out, "terms", terms)
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(other, self.nvars, self.p)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(other, self.nvars, self.p)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        acc: dict[tuple, int] = {}
        # iterate the smaller factor outside
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = (acc.get(key, 0) + c1 * c2) % p
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
        out = MPoly.zero(self.nvars, self.p)
        object.__setattr__(out, "terms", acc)
        return out

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        result = MPoly.one(self.nvars, self.p)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.nvars, self.p, self.terms) == (other.nvars, other.p, other.terms)

    def __hash__(self):
        return hash((self.nvars, self.p, frozenset(self.terms.items())))

    def __repr__(self):
        names = _default_names(self.nvars)
        return f"MPoly(F_{self.p}: {format_poly(self, names)})"

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Sequence[int]) -> FieldElement:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector {exps} has wrong arity")
        return FieldElement(self.terms.get(exps, 0), self.p)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_on(self, var_indices: Sequence[int]) -> int:
        if not self.terms:
            return -1
        return max(sum(e[i] for i in var_indices) for e in self.terms)

    def constant_term(self) -> FieldElement:
        return FieldElement(self.terms.get((0,) * self.nvars, 0), self.p)

    def is_homogeneous_on(self, var_indices: Sequence[int]) -> bool:
        degs = {sum(e[i] for i in var_indices) for e in self.terms}
        return len(degs) <= 1

    # -- Frobenius machinery -----------------------------------------------

    def frobenius_twist(self, i: int) -> "MPoly":
        """Scale every exponent vector by p^i, fixing coefficients.

        Over F_p this equals raising to the p^i-th power.
        """
        if i < 0:
            raise ValueError("twist order must be nonnegative")
        s = self.p ** i
        terms = {tuple(e * s for e in exps): c for exps, c in self.terms.items()}
        out = MPoly.zero(self.nvars, self.p)
        object.__setattr__(out, "terms", terms)
        return out

    def power_qm1(self, e: int) -> "MPoly":
        """f^(p^e - 1) as the product of Frobenius twists of f^(p-1)."""
        if e < 1:
            raise ValueError("e must be >= 1")
        g = self ** (self.p - 1)
        return reduce(lambda acc, i: acc * g.frobenius_twist(i), range(1, e), g)

    # -- evaluation ---------------------------------------------------------

    def eval_univariate(self, x: AnyFieldElement | int) -> AnyFieldElement:
        if self.nvars != 1:
            raise ValueError("eval_univariate needs a univariate polynomial")
        if isinstance(x, int):
            x = FieldElement(x, self.p)
        dense = univ_to_dense(self)
        acc = x - x  # zero in the right field
        for c in reversed(dense):
            acc = acc * x + c
        return acc


# -- univariate utilities ----------------------------------------------------

def univ_to_dense(f: MPoly) -> list[int]:
    """Coefficient list c[0..deg] for a univariate polynomial."""
    if f.nvars != 1:
        raise ValueError("not univariate")
    if not f.terms:
        return []
    deg = max(e[0] for e in f.terms)
    dense = [0] * (deg + 1)
    for (e,), c in f.terms.items():
        dense[e] = c
    return dense


def _dense_trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _dense_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b (b nonzero), dense int lists mod p."""
    a = [c % p for c in a]
    _dense_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] * inv_lead % p
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bc) % p
        _dense_trim(a)
        if not a:
            break
    return a


def _dense_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _dense_trim([c % p for c in a])
    b = _dense_trim([c % p for c in b])
    while b:
        a, b = b, _dense_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def univ_derivative(f: MPoly) -> MPoly:
    if f.nvars != 1:
        raise ValueError("not univariate")
    terms = {}
    for (e,), c in f.terms.items():
        if e:
            v = c * e % f.p
            if v:
                terms[(e - 1,)] = v
    return MPoly(1, f.p, terms)


def univ_squarefree(f: MPoly) -> bool:
    """True iff gcd(f, f') is constant."""
    if f.nvars != 1:
        raise ValueError("not univariate")
    if f.is_zero():
        raise ValueError("zero polynomial")
    g = _dense_gcd(univ_to_dense(f), univ_to_dense(univ_derivative(f)), f.p)
    return len(g) == 1


def _fp_root_multiplicity(dense: list[int], r: int, p: int) -> tuple[int, list[int]]:
    """Multiplicity of the root r and the fully deflated quotient."""
    mult = 0
    cur = dense
    while cur:
        # synthetic division by (x - r), Horner style
        quot = [0] * (len(cur) - 1)
        acc = 0
        for i in range(len(cur) - 1, 0, -1):
            acc = (acc * r + cur[i]) % p
            quot[i - 1] = acc
        rem = (acc * r + cur[0]) % p
        if rem != 0:
            break
        mult += 1
        cur = quot
    return mult, cur


def _quadratic_multiplicity(dense: list[int], s: int, t: int, p: int) -> tuple[int, list[int]]:
    """Multiplicity of the monic quadratic x^2 + s*x + t as a factor."""
    mult = 0
    cur = dense
    divisor = [t % p, s % p, 1]
    while len(cur) - 1 >= 2:
        rem = _dense_mod(list(cur), divisor, p)
        if rem:
            break
        # exact quotient by long division
        quot = [0] * (len(cur) - 2)
        work = list(cur)
        for i in range(len(cur) - 3, -1, -1):
            factor = work[i + 2] % p
            quot[i] = factor
            work[i + 2] = 0
            work[i + 1] = (work[i + 1] - factor * s) % p
            work[i] = (work[i] - factor * t) % p
        cur = _dense_trim(quot)
        mult += 1
        if not cur:
            break
    return mult, cur


def univ_roots(f: MPoly, level: int = 1) -> list[tuple[AnyFieldElement, int]]:
    """Roots of f with multiplicities, over F_p (level 1) or F_{p^2} (level 2).

    Exhaustive field scan; multiplicities by repeated synthetic division.
    F_p roots come first, then conjugate pairs ordered by (a, b) with b > 0
    scanned over the half-plane (roots of an F_p polynomial come in
    conjugate pairs, so only b in 1..(p-1)/2 needs testing).
    """
    if f.nvars != 1:
        raise ValueError("not univariate")
    if f.is_zero():
        raise ValueError("zero polynomial")
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    p = f.p
    dense = [c % p for c in univ_to_dense(f)]
    roots: list[tuple[AnyFieldElement, int]] = []

    # F_p roots by direct scan of the deflating polynomial
    cur = list(dense)
    for r in range(p):
        if len(cur) <= 1:
            break
        if sum(c * pow(r, i, p) for i, c in enumerate(cur)) % p == 0:
            mult, cur = _fp_root_multiplicity(cur, r, p)
            roots.append((FieldElement(r, p), mult))

    if level == 1:
        return roots

    n = quadratic_nonresidue(p)
    # remaining roots lie in F_{p^2} \ F_p in conjugate pairs a +- b*t;
    # the pair's minimal polynomial is x^2 - 2a x + (a^2 - n b^2)
    for b in range(1, (p - 1) // 2 + 1):
        if len(cur) <= 2:
            break
        nb2 = n * b * b % p
        for a in range(p):
            if len(cur) <= 2:
                break
            # evaluate cur at a + b t without building extension elements
            u, v = 0, 0  # value = u + v t
            for c in reversed(cur):
                u, v = (u * a + v * b % p * n + c) % p, (u * b + v * a) % p
            if u == 0 and v == 0:
                s = (-2 * a) % p
                t0 = (a * a - nb2) % p
                mult, cur = _quadratic_multiplicity(cur, s, t0, p)
                roots.append((ExtFieldElement(a, b, p), mult))
                roots.append((ExtFieldElement(a, -b, p), mult))
    return roots


# -- parsing / printing ------------------------------------------------------

def _default_names(nvars: int) -> list[str]:
    base = ["x", "y", "z", "w", "u", "v"]
    if nvars <= len(base):
        return base[:nvars]
    return [f"x{i}" for i in range(nvars)]


# A power of a base with more than one term is expanded in full.  Its term
# count is at most C(n + k*deg, n) for n variables, exponent k and base
# degree deg; past this ceiling the expansion can run for minutes or never end.
MAX_POWER_TERMS = 5000

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*|\+|\-|\^|\(|\))")


class PolyParseError(ValueError):
    pass


class _Parser:
    """Recursive descent for: integer coefficients, declared variables, + - * ^, parens."""

    def __init__(self, text: str, names: Sequence[str], p: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.p = p

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise PolyParseError(f"bad character at {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        self.pos += 1
        return tok

    def parse(self) -> MPoly:
        out = self._expr()
        if self._peek() is not None:
            raise PolyParseError(f"trailing input at {self._peek()!r}")
        return out

    def _expr(self) -> MPoly:
        if self._peek() == "-":
            self._next()
            acc = -self._term()
        else:
            acc = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _term(self) -> MPoly:
        acc = self._factor()
        while self._peek() == "*":
            self._next()
            acc = acc * self._factor()
        return acc

    def _factor(self) -> MPoly:
        base = self._base()
        if self._peek() == "^":
            self._next()
            tok = self._next()
            if not tok.isdigit():
                raise PolyParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            k = int(tok)
            if (len(base.terms) > 1
                    and comb(self.nvars + k * base.degree(), self.nvars) > MAX_POWER_TERMS):
                raise PolyParseError(f"power ^{k} of a {len(base.terms)}-term base may have "
                                     f"more than {MAX_POWER_TERMS} terms")
            return base ** k
        return base

    def _base(self) -> MPoly:
        tok = self._next()
        if tok == "(":
            inner = self._expr()
            if self._next() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok == "-":
            return -self._factor()
        if tok.isdigit():
            return MPoly.constant(int(tok), self.nvars, self.p)
        if tok in self.names:
            return MPoly.variable(self.names[tok], self.nvars, self.p)
        raise PolyParseError(f"unknown variable {tok!r}")


def parse_poly(text: str, names: Sequence[str], p: int) -> MPoly:
    """Parse the plain-text grammar over the declared ordered variable list."""
    if not names:
        raise PolyParseError("empty variable list")
    return _Parser(text, names, p).parse()


def format_poly(f: MPoly, names: Sequence[str] | None = None) -> str:
    """Canonical text form: terms sorted descending-lex by exponent vector.

    Round-trips exactly through parse_poly with the same variable list.
    """
    if names is None:
        names = _default_names(f.nvars)
    if len(names) != f.nvars:
        raise ValueError("variable list arity mismatch")
    if not f.terms:
        return "0"
    parts = []
    for exps in sorted(f.terms, reverse=True):
        c = f.terms[exps]
        factors = []
        if c != 1 or not any(exps):
            factors.append(str(c))
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)
