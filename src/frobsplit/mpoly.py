"""Sparse multivariate polynomials over F_p.

Terms are stored as a map from exponent vectors (tuples of nonnegative ints)
to nonzero coefficients in [1, p).  Exponents can get huge (Frobenius-factored
powering multiplies them by p^i) while term counts stay moderate, so all
arithmetic is term-by-term with no dense intermediate.  A univariate
polynomial is an MPoly only on its way through the parser or printer;
everywhere else it is one of `upoly`'s dense int lists.
"""

from __future__ import annotations

import re
from functools import reduce
from math import comb
from operator import add
from typing import Mapping, Sequence

from .arith import AnyFieldElement, FieldElement, _check_modulus, read_int


_set = object.__setattr__  # MPoly's own __setattr__ refuses every write


class MPoly:
    __slots__ = ("nvars", "p", "terms")

    def __init__(self, nvars: int, p: int, terms: Mapping[tuple, int] | None = None):
        _check_modulus(p)
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        _set(self, "nvars", nvars)
        _set(self, "p", p)
        cleaned: dict[tuple, int] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent vector {exps} has wrong arity")
                if not all(isinstance(e, int) for e in exps):
                    raise ValueError(f"exponent vector {exps} has a non-integer entry")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if not isinstance(c, int):
                    raise ValueError(f"coefficient {c!r} is not an integer")
                c = (cleaned.get(exps, 0) + c) % p
                if c:
                    cleaned[exps] = c
                elif exps in cleaned:
                    del cleaned[exps]
        _set(self, "terms", cleaned)

    def __setattr__(self, name, val):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def _raw(cls, nvars: int, p: int, terms: dict) -> "MPoly":
        """An MPoly around `terms` as given, with none of __init__'s checks:
        for arithmetic results, whose keys already have arity nvars and whose
        values already lie in [1, p)."""
        out = object.__new__(cls)
        _set(out, "nvars", nvars)
        _set(out, "p", p)
        _set(out, "terms", terms)
        return out

    @classmethod
    def _raw_constant(cls, c: int, nvars: int, p: int) -> "MPoly":
        c %= p
        return cls._raw(nvars, p, {(0,) * nvars: c} if c else {})

    def _coerce(self, other):
        """`other` as an MPoly of self's ring: an int is the constant it is mod p."""
        if isinstance(other, int):
            return MPoly._raw_constant(other, self.nvars, self.p)
        if isinstance(other, MPoly):
            self._check_compatible(other)
            return other
        return None

    def __reduce__(self):  # pickle and copy call the constructor, not __setattr__
        return type(self), (self.nvars, self.p, self.terms)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        p = self.p
        for exps, c in other.terms.items():
            v = (terms.get(exps, 0) + c) % p
            if v:
                terms[exps] = v
            elif exps in terms:
                del terms[exps]
        return MPoly._raw(self.nvars, p, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return MPoly._raw(self.nvars, p, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        # iterate the smaller factor outside
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        if len(small) == 1:
            # a monomial c*x^e shifts the other factor by e and scales it by
            # c: the keys stay distinct, and c*c' is a unit mod the prime p
            (e1, c1), = small.items()
            acc = {tuple(map(add, e1, e2)): c1 * c2 % p for e2, c2 in big.items()}
            return MPoly._raw(self.nvars, p, acc)
        acc: dict[tuple, int] = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                key = tuple(map(add, e1, e2))
                v = (acc.get(key, 0) + c1 * c2) % p
                if v:
                    acc[key] = v
                elif key in acc:
                    del acc[key]
        return MPoly._raw(self.nvars, p, acc)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        n, p = self.nvars, self.p
        if not exp:
            return MPoly._raw_constant(1, n, p)
        if len(self.terms) <= 1:
            # (c*x^e)^k = c^k*x^(k*e), c^k a unit mod p; and 0^k = 0
            return MPoly._raw(n, p, {tuple(exp * a for a in e): pow(c, exp, p)
                                     for e, c in self.terms.items()})
        result, base = None, self
        while True:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if not exp:
                return result
            base = base * base

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

    def coeff(self, exps: Sequence[int]) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector {exps} has wrong arity")
        return self.terms.get(exps, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_on(self, var_indices: Sequence[int]) -> int:
        if not self.terms:
            return -1
        return max(sum(e[i] for i in var_indices) for e in self.terms)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

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
        return MPoly._raw(self.nvars, self.p,
                          {tuple(e * s for e in exps): c for exps, c in self.terms.items()})

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
        return sum((c * x ** e for (e,), c in self.terms.items()), x - x)


# -- parsing / printing ------------------------------------------------------

def _default_names(nvars: int) -> list[str]:
    base = ["x", "y", "z", "w", "u", "v"]
    if nvars <= len(base):
        return base[:nvars]
    return [f"x{i}" for i in range(nvars)]


# A power of a base with more than one term is expanded in full.  Its term
# count is at most C(n + k*deg, n) for n variables, exponent k and base
# degree deg; past this ceiling the expansion can run for minutes or never end.
# A product A*B of two multi-term factors is refused on the same ceiling when
# both its work, |A|*|B| term products, and its size bound
# C(n + deg A + deg B, n) pass it.
MAX_POWER_TERMS = 5000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# ASCII digits only, as in a point: int() would also read non-ASCII digits
_DIGITS_RE = re.compile(r"[0-9]+")
# a token or, in group 2, a character that starts none
_TOKEN_RE = re.compile(rf"\s*(?:({_DIGITS_RE.pattern}|{_NAME_RE.pattern}|[*+\-^()])|(\S))")


class PolyParseError(ValueError):
    pass


class _Parser:
    """Recursive descent for: integer coefficients, declared variables, + - * ^, parens."""

    def __init__(self, text: str, names: Sequence[str], p: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        zero = (0,) * len(names)
        # each name's exponent vector, the variable's one term
        self.names = {name: zero[:i] + (1,) + zero[i + 1:] for i, name in enumerate(names)}
        self.nvars = len(names)
        self.p = p

    @staticmethod
    def _tokenize(text: str) -> list[str | None]:
        """The tokens, then None for the end of input."""
        pairs = _TOKEN_RE.findall(text)
        tokens = [tok for tok, _ in pairs]
        if "" in tokens:
            bad = next(m for m in _TOKEN_RE.finditer(text) if m.group(2))
            raise PolyParseError(f"bad character at {text[bad.start():]!r}")
        tokens.append(None)
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos]

    def _next(self) -> str:
        tok = self.tokens[self.pos]
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
            rhs = self._factor()
            sizes = len(acc.terms), len(rhs.terms)
            if (min(sizes) > 1
                    and min(sizes[0] * sizes[1],
                            comb(self.nvars + acc.degree() + rhs.degree(), self.nvars))
                    > MAX_POWER_TERMS):
                raise PolyParseError(f"product of a {sizes[0]}-term and a {sizes[1]}-term "
                                     f"factor may have more than {MAX_POWER_TERMS} terms")
            acc = acc * rhs
        return acc

    def _factor(self) -> MPoly:
        base = self._base()
        if self._peek() == "^":
            self._next()
            tok = self._next()
            if not _DIGITS_RE.fullmatch(tok):
                raise PolyParseError(f"exponent must be a nonnegative integer, got {tok!r}")
            k = self._int(tok)
            if (len(base.terms) > 1
                    and comb(self.nvars + k * base.degree(), self.nvars) > MAX_POWER_TERMS):
                raise PolyParseError(f"power ^{k} of a {len(base.terms)}-term base may have "
                                     f"more than {MAX_POWER_TERMS} terms")
            return base ** k
        return base

    @staticmethod
    def _int(tok: str) -> int:
        try:
            return read_int(tok)
        except ValueError as exc:
            raise PolyParseError(str(exc)) from None

    def _base(self) -> MPoly:
        tok = self._next()
        if tok == "(":
            inner = self._expr()
            if self._next() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok == "-":
            return -self._factor()
        # parse_poly has checked p: the leaves are built unchecked
        if _DIGITS_RE.fullmatch(tok):
            return MPoly._raw_constant(self._int(tok), self.nvars, self.p)
        if tok in self.names:
            return MPoly._raw(self.nvars, self.p, {self.names[tok]: 1})
        raise PolyParseError(f"unknown variable {tok!r}")


def parse_poly(text: str, names: Sequence[str], p: int) -> MPoly:
    """Parse the plain-text grammar over the declared ordered variable list."""
    if not names:
        raise PolyParseError("empty variable list")
    for i, name in enumerate(names):
        if not _NAME_RE.fullmatch(name):
            raise PolyParseError(f"bad variable name {name!r}")
        if name in names[:i]:
            raise PolyParseError(f"variable {name!r} declared twice")
    _check_modulus(p)
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
