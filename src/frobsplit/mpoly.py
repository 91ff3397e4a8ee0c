"""Sparse multivariate polynomials over F_p.

Terms are stored as a map from exponent vectors (tuples of nonnegative ints)
to nonzero coefficients in [1, p).  Exponents can get huge (Frobenius-factored
powering multiplies them by p^i) while term counts stay moderate, so all
arithmetic is term-by-term with no dense intermediate except for the
univariate gcd, derivative and root-finding utilities.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import reduce
from itertools import zip_longest
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


# array typecodes by item size: slots of 1, 2, 4 or 8 bytes pack and unpack in C
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}


class _Residues:
    """F_p[x]/(P) for a monic P of degree d >= 1.

    A product is one CPython big-int multiply: coefficient lists are packed
    into w-byte slots (Kronecker substitution), with w wide enough that no
    slot of a product of two reduced elements carries.  Reduction is
    Barrett's: the quotient's top coefficients are rev(c) * rev(P)^-1 mod
    x^k, so a modular product costs three packed multiplies and O(d)
    Python steps.
    """

    def __init__(self, P: list[int], p: int):
        d = len(P) - 1
        w = (d * (p - 1) ** 2).bit_length() // 8 + 1
        self.p, self.d = p, d
        self.w = min((s for s in _SLOT_CODES if s >= w), default=w)
        self.low = self._pack(P[:-1])
        # rev(P)^-1 mod x^(d-1) by Newton's iteration g <- g * (2 - rev(P) * g)
        rev, g, prec = P[::-1], [1], 1
        while prec < d - 1:
            prec = min(2 * prec, d - 1)
            packed_g = self._pack(g)
            e = self._unpack(self._pack(rev[:prec]) * packed_g, prec)
            e[0] = (e[0] - 2) % p
            g = [-c % p for c in self._unpack(self._pack(e) * packed_g, prec)]
        self.inv = self._pack(g)

    def _pack(self, a: list[int]) -> int:
        code = _SLOT_CODES.get(self.w)
        raw = (array(code, a).tobytes() if code
               else b"".join(c.to_bytes(self.w, sys.byteorder) for c in a))
        return int.from_bytes(raw, sys.byteorder)

    def _unpack(self, n: int, length: int) -> list[int]:
        """The first `length` slots of n, reduced mod p."""
        w, p = self.w, self.p
        raw = (n & ((1 << 8 * w * length) - 1)).to_bytes(w * length, sys.byteorder)
        code = _SLOT_CODES.get(w)
        if code:
            return [c % p for c in memoryview(raw).cast(code).tolist()]
        return [int.from_bytes(raw[i:i + w], sys.byteorder) % p for i in range(0, len(raw), w)]

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a * b mod P for reduced a, b."""
        if not a or not b:
            return []
        d, n = self.d, len(a) + len(b) - 1
        packed_a = self._pack(a)
        c = self._unpack(packed_a * (packed_a if a is b else self._pack(b)), n)
        if n > d:
            q = self._unpack(self._pack(c[:d - 1:-1]) * self.inv, n - d)[::-1]
            qp = self._unpack(self._pack(q) * self.low, d)
            c = [(x - y) % self.p for x, y in zip(c[:d], qp)]
        return _dense_trim(c)

    def pow(self, a: list[int], n: int) -> list[int]:
        out = [1]
        for bit in bin(n)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


def _dense_sub(a: list[int], b: list[int], p: int) -> list[int]:
    return _dense_trim([(u - v) % p for u, v in zip_longest(a, b, fillvalue=0)])


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


def _multiplicity(dense: list[int], divisor: list[int], p: int) -> tuple[int, list[int]]:
    """Multiplicity of a monic divisor as a factor, and the fully deflated quotient."""
    mult = 0
    while len(dense) >= len(divisor):
        quot, rem = _dense_divmod(dense, divisor, p)
        if rem:
            break
        mult, dense = mult + 1, quot
    return mult, dense


def _norm_character(ring: _Residues, x_q: list[int], a: int) -> list[int]:
    """u^((p-1)/2) in F_p[x]/(q), u = (x + a)(X + a), X = x_q = x^p mod q,
    for q of degree >= 2.

    At a root r of an irreducible quadratic factor q_i of q, X(r) is the
    conjugate of r, so u(r) is the norm N(r + a) = q_i(-a) and the power
    takes the value chi(q_i(-a)), chi the quadratic character.  That needs
    log2 p squarings, not the log2 p^2 of (x + a)^((p^2-1)/2).
    """
    u = ring.mul([a, 1], _dense_sub(x_q, [-a], ring.p))
    return ring.pow(u, (ring.p - 1) // 2)


def _split_quadratics(g: list[int], big_x: list[int], p: int) -> list[tuple[int, int]]:
    """(s, c) for each factor x^2 + s*x + c of g, a monic product of distinct
    irreducible quadratics over F_p, given big_x = x^p mod a multiple of g.

    Round a = 0, 1, 2, ... splits every piece q of degree > 2 by
    gcd(q, `_norm_character` - 1), which keeps the factors q_i with
    chi(q_i(-a)) = 1.  See `univ_roots` for why the rounds end before a
    reaches p.
    """
    done: list[tuple[int, int]] = []
    todo: list[tuple[list[int], list[int], _Residues]] = []

    def file(q: list[int], x_mod_q: list[int]) -> None:
        if len(q) == 3:
            done.append((q[1], q[0]))
        else:
            todo.append((q, x_mod_q, _Residues(q, p)))

    file(g, _dense_divmod(big_x, g, p)[1])
    for a in range(p):
        if not todo:
            return done
        pieces, todo = todo, []
        for q, x_q, ring in pieces:
            h = _dense_gcd(q, _dense_sub(_norm_character(ring, x_q, a), [1], p), p)
            if 1 < len(h) < len(q):
                for part in (h, _dense_divmod(q, h, p)[0]):
                    file(part, _dense_divmod(x_q, part, p)[1])
            else:
                todo.append((q, x_q, ring))
    if todo:
        raise RuntimeError("quadratic factors not separated by a in F_p")
    return done


def univ_roots(f: MPoly, level: int = 1) -> list[tuple[AnyFieldElement, int]]:
    """Roots of f with multiplicities, over F_p (level 1) or F_{p^2} (level 2).

    F_p roots come first, ascending; then conjugate pairs, sorted by (b, a)
    with 1 <= b <= (p-1)/2, each given as a + b*t and then a - b*t.

    With X = x^p mod f (`_Residues`), g1 = gcd(f, X - x) is the product of
    the distinct linear factors; its roots are found by evaluating it at
    each of the p points, which costs p*deg(g1), not p*deg(f).
    gcd(f, X^p - x) / g1 is the product g2 of the distinct irreducible
    quadratic factors: x^(p^2) - x is squarefree, so g2 is too.
    `_split_quadratics` separates them; the roots a +- b*t (t^2 = n, the
    nonresidue of `ExtFieldElement`) of x^2 + s*x + c have a = -s/2 and
    b^2 = (a^2 - c)/n, b read off a table of squares.  A root of
    multiplicity m in f has multiplicity m - 1 in f/g1 (level 1) or
    f/(g1*g2) (level 2), which is what the division loops count.

    Why the splitting rounds a = 0..p-1 always finish: two distinct
    irreducible quadratics q1, q2 stay in one piece only if
    chi(q1(-a) * q2(-a)) = 1 for every a in F_p, so the character sum of the
    squarefree quartic q1*q2 over F_p would be p.  Weil's bound puts that
    sum at most 3*sqrt(p) in absolute value, which is less than p for
    p >= 11; for p = 3, 5, 7 an exhaustive check over all pairs
    (tests/test_mpoly.py) finds none that agree at every a.  So the
    `RuntimeError` at a = p cannot be reached.
    """
    if f.nvars != 1:
        raise ValueError("not univariate")
    if f.is_zero():
        raise ValueError("zero polynomial")
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    p = f.p
    dense = univ_to_dense(f)
    if len(dense) == 1:
        return []
    inv_lead = pow(dense[-1], -1, p)
    monic = [c * inv_lead % p for c in dense]
    ring = _Residues(monic, p)
    x = _dense_divmod([0, 1], monic, p)[1]
    big_x = ring.pow(x, p)
    g1 = _dense_gcd(monic, _dense_sub(big_x, x, p), p)
    g12 = g1 if level == 1 else _dense_gcd(monic, _dense_sub(ring.pow(big_x, p), x, p), p)
    rest = _dense_divmod(monic, g12, p)[0]

    roots: list[tuple[AnyFieldElement, int]] = []
    lin = g1
    for r in range(p):
        if len(lin) <= 1:
            break
        if reduce(lambda acc, c: (acc * r + c) % p, reversed(lin), 0) == 0:
            lin = _dense_divmod(lin, [-r % p, 1], p)[0]
            mult, rest = _multiplicity(rest, [-r % p, 1], p)
            roots.append((FieldElement(r, p), mult + 1))
    if len(g12) == len(g1):
        return roots

    n = quadratic_nonresidue(p)
    inv_n, half = pow(n, -1, p), (p + 1) // 2
    root_of = {b * b % p: b for b in range(1, half)}
    pairs = []
    for s, c in _split_quadratics(_dense_divmod(g12, g1, p)[0], big_x, p):
        a = -s * half % p
        mult, rest = _multiplicity(rest, [c, s, 1], p)
        pairs.append((root_of[(a * a - c) * inv_n % p], a, mult + 1))
    for b, a, mult in sorted(pairs):
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
# A product A*B of two multi-term factors is refused on the same ceiling when
# both its work, |A|*|B| term products, and its size bound
# C(n + deg A + deg B, n) pass it.
MAX_POWER_TERMS = 5000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(\d+|{_NAME_RE.pattern}|\*|\+|\-|\^|\(|\))")


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
    for i, name in enumerate(names):
        if not _NAME_RE.fullmatch(name):
            raise PolyParseError(f"bad variable name {name!r}")
        if name in names[:i]:
            raise PolyParseError(f"variable {name!r} declared twice")
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
