"""The recursive-descent parser that `frobsplit.mpoly.parse_poly` replaced,
kept as its test oracle.

`_Parser` builds an `MPoly` for every leaf and combines them with MPoly's
own `+`, `-`, `*` and `**`, one operator at a time, where `parse_poly` reads
each term's variables and constants as one run on plain term dicts.  The
two must agree on every text: the same terms in the same insertion order,
or the same `PolyParseError` text.
"""

from math import comb
from typing import Sequence

from frobsplit.arith import _check_modulus, read_int
from frobsplit.mpoly import (_DIGITS_RE, _NAME_RE, _TOKEN_RE, MAX_POWER_TERMS, MPoly,
                             PolyParseError)


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


def oracle_parse(text: str, names: Sequence[str], p: int) -> MPoly:
    """`_Parser` on a valid modulus and a valid, duplicate-free name list."""
    _check_modulus(p)
    return _Parser(text, names, p).parse()
