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
from typing import Iterable, Mapping, Sequence

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
        pairs = []
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong arity")
            if not all(isinstance(e, int) for e in exps):
                raise ValueError(f"exponent vector {exps} has a non-integer entry")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
            pairs.append((exps, c))
        _set(self, "terms", _merge({}, pairs, p))

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
        return MPoly._raw(self.nvars, self.p, _merge(dict(self.terms), other.terms.items(), self.p))

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
        return MPoly._raw(self.nvars, self.p, _times(self.terms, other.terms, self.p))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        return MPoly._raw(self.nvars, self.p, _power(self.terms, exp, self.nvars, self.p))

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
        return _degree(self.terms)

    def degree_on(self, var_indices: Sequence[int]) -> int:
        return max((sum(e[i] for i in var_indices) for e in self.terms), default=-1)

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


# -- term-dict kernels of MPoly's arithmetic and the parser --------------------

def _merge(acc: dict, pairs: Iterable[tuple[tuple, int]], p: int) -> dict:
    """acc plus the (exps, c) pairs, in place: cancelled keys leave, new ones go last."""
    for exps, c in pairs:
        v = (acc.get(exps, 0) + c) % p
        if v:
            acc[exps] = v
        elif exps in acc:
            del acc[exps]
    return acc


def _times(a: dict, b: dict, p: int) -> dict:
    """The terms of a*b, the smaller factor (a on a tie) iterated outside."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 1:
        # a monomial c*x^e shifts the other factor by e and scales it by
        # c: the keys stay distinct, and c*c' is a unit mod the prime p
        (e1, c1), = small.items()
        return {tuple(map(add, e1, e2)): c1 * c2 % p for e2, c2 in big.items()}
    acc: dict[tuple, int] = {}
    for e1, c1 in small.items():
        for e2, c2 in big.items():
            key = tuple(map(add, e1, e2))
            v = (acc.get(key, 0) + c1 * c2) % p
            if v:
                acc[key] = v
            elif key in acc:
                del acc[key]
    return acc


def _power(terms: dict, k: int, n: int, p: int) -> dict:
    """f^k for k >= 0 and n variables: by squaring, or for at most one term
    (c*x^e)^k = c^k*x^(k*e), c^k a unit mod p, and 0^k = 0."""
    if not k:
        return {(0,) * n: 1}
    if len(terms) <= 1:
        return {tuple(k * a for a in e): pow(c, k, p) for e, c in terms.items()}
    result, base = None, terms
    while True:
        if k & 1:
            result = base if result is None else _times(result, base, p)
        k >>= 1
        if not k:
            return result
        base = _times(base, base, p)


def _degree(terms: dict) -> int:
    """Total degree; -1 for no terms."""
    return max(map(sum, terms), default=-1)


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


def _read(tok: str) -> int:
    try:
        return read_int(tok)
    except ValueError as exc:
        raise PolyParseError(str(exc)) from None


def parse_poly(text: str, names: Sequence[str], p: int) -> MPoly:
    """Parse the plain-text grammar over the declared ordered variable list.

    Recursive descent on term dicts, wrapped in an MPoly at the end.  A term
    reads variables, their powers and integers as one run: exponents and a
    coefficient mod p, from -1 in a negated term.  The run is flushed before
    a polynomial factor (parenthesised, a power of one, or negated) is
    multiplied in, so products, size checks and term order follow the text.
    """
    if not names:
        raise PolyParseError("empty variable list")
    for i, name in enumerate(names):
        if not _NAME_RE.fullmatch(name):
            raise PolyParseError(f"bad variable name {name!r}")
        if name in names[:i]:
            raise PolyParseError(f"variable {name!r} declared twice")
    _check_modulus(p)
    tokens = [tok for tok, _ in _TOKEN_RE.findall(text)]
    if "" in tokens:
        bad = next(m for m in _TOKEN_RE.finditer(text) if m.group(2))
        raise PolyParseError(f"bad character at {text[bad.start():]!r}")
    tokens.append(None)  # the end of input
    n, index, pos = len(names), {name: i for i, name in enumerate(names)}, 0

    def take() -> str:
        nonlocal pos
        if tokens[pos] is None:
            raise PolyParseError("unexpected end of input")
        pos += 1
        return tokens[pos - 1]

    def power() -> int | None:
        """The exponent after a '^', None when no '^' follows."""
        nonlocal pos
        if tokens[pos] != "^":
            return None
        pos += 1
        if not (tok := take()).isdigit():
            raise PolyParseError(f"exponent must be a nonnegative integer, got {tok!r}")
        return _read(tok)

    def expr() -> dict:
        nonlocal pos
        neg = tokens[pos] == "-"
        pos += neg
        acc = term(p - 1 if neg else 1)
        while (tok := tokens[pos]) == "+" or tok == "-":
            pos += 1
            _merge(acc, term(1 if tok == "+" else p - 1).items(), p)
        return acc

    def term(c: int, single: bool = False) -> dict:
        """A product times c; only its first factor when single."""
        nonlocal pos
        acc, exps = None, [0] * n
        while True:
            tok, fac = take(), None
            if tok in index:
                k = power()
                exps[index[tok]] += 1 if k is None else k
            elif tok.isdigit():
                v, k = _read(tok), power()
                c = c * (v if k is None else pow(v, k, p)) % p
            elif tok == "-":
                fac = term(p - 1, single=True)
            elif tok == "(":
                fac = expr()
                if take() != ")":
                    raise PolyParseError("unbalanced parentheses")
            else:
                raise PolyParseError(f"unknown variable {tok!r}")
            if fac is not None and (k := power()) is not None:
                if len(fac) > 1 and comb(n + k * _degree(fac), n) > MAX_POWER_TERMS:
                    raise PolyParseError(f"power ^{k} of a {len(fac)}-term base may have "
                                         f"more than {MAX_POWER_TERMS} terms")
                fac = _power(fac, k, n, p)
            more = not single and tokens[pos] == "*"
            # a run of 1 changes no term and is left out
            if (fac is not None or not more) and (acc is None or c != 1 or any(exps)):
                mono = {tuple(exps): c} if c else {}
                acc = mono if acc is None else _times(acc, mono, p)
                exps, c = [0] * n, 1
            if fac is not None:
                a, b = len(acc), len(fac)
                if (min(a, b) > 1 and min(a * b, comb(n + _degree(acc) + _degree(fac), n))
                        > MAX_POWER_TERMS):
                    raise PolyParseError(f"product of a {a}-term and a {b}-term factor "
                                         f"may have more than {MAX_POWER_TERMS} terms")
                acc = _times(acc, fac, p)
            if not more:
                return acc
            pos += 1

    acc = expr()
    if tokens[pos] is not None:
        raise PolyParseError(f"trailing input at {tokens[pos]!r}")
    return MPoly._raw(n, p, acc)


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
