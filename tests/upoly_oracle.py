"""The gcd route for roots over F_{p^2}, kept as the test oracle of
`frobsplit.elliptic.supersingular_report`'s isogeny walk.

`univ_roots(dense, p)` finds the roots of any f in F_p[x] that lie in
F_{p^2}, with multiplicities, by gcds with x^p - x and x^(p^2) - x and
rounds of character splitting on packed residues.  It shares no step with
the walk, which never writes a polynomial down, so on H_p the two are
independent routes to the supersingular locus.
"""

import sys
from array import array
from itertools import zip_longest
from typing import Sequence

from frobsplit.arith import _square_roots, quadratic_nonresidue
from frobsplit.upoly import _dense_divmod, _dense_gcd, _dense_trim, univ_eval


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


def univ_roots(dense: Sequence[int], p: int) -> list[tuple[tuple[int, int], int]]:
    """Roots ((a, b), multiplicity) of f = sum dense[i] x^i over F_{p^2};
    (a, b) is a + b*t with a, b in [0, p).

    F_p roots (b = 0) come first, ascending; then conjugate pairs, sorted by
    (b, a) with 1 <= b <= (p-1)/2, each given as (a, b) and then (a, p - b).

    With X = x^p mod f (`_Residues`), g1 = gcd(f, X - x) is the product of
    the distinct linear factors; its roots are found by evaluating it at
    each of the p points, which costs p*deg(g1), not p*deg(f).
    gcd(f, X^p - x) / g1 is the product g2 of the distinct irreducible
    quadratic factors: x^(p^2) - x is squarefree, so g2 is too.
    `_split_quadratics` separates them; the roots a +- b*t (t^2 = n, the
    nonresidue of `ExtFieldElement`) of x^2 + s*x + c have a = -s/2 and
    b^2 = (a^2 - c)/n, b the root in [1, (p-1)/2] from `_square_roots`.  A
    root of multiplicity m in f has multiplicity m - 1 in f/(g1*g2), which
    is what the division loops count.

    Why the splitting rounds a = 0..p-1 always finish: two distinct
    irreducible quadratics q1, q2 stay in one piece only if
    chi(q1(-a) * q2(-a)) = 1 for every a in F_p, so the character sum of the
    squarefree quartic q1*q2 over F_p would be p.  Weil's bound puts that
    sum at most 3*sqrt(p) in absolute value, which is less than p for
    p >= 11; for p = 3, 5, 7 an exhaustive check over all pairs
    (tests/test_mpoly.py) finds none that agree at every a.  So the
    `RuntimeError` at a = p cannot be reached.
    """
    if not dense:
        raise ValueError("zero polynomial")
    if len(dense) == 1:
        return []
    inv_lead = pow(dense[-1], -1, p)
    monic = [c * inv_lead % p for c in dense]
    ring = _Residues(monic, p)
    x = _dense_divmod([0, 1], monic, p)[1]
    big_x = ring.pow(x, p)
    g1 = _dense_gcd(monic, _dense_sub(big_x, x, p), p)
    g12 = _dense_gcd(monic, _dense_sub(ring.pow(big_x, p), x, p), p)
    rest = _dense_divmod(monic, g12, p)[0]

    roots: list[tuple[tuple[int, int], int]] = []
    lin = g1
    for r in range(p):
        if len(lin) <= 1:
            break
        if univ_eval(lin, (r, 0), p) == (0, 0):
            lin = _dense_divmod(lin, [-r % p, 1], p)[0]
            mult, rest = _multiplicity(rest, [-r % p, 1], p)
            roots.append(((r, 0), mult + 1))
    if len(g12) == len(g1):
        return roots

    inv_n, half = pow(quadratic_nonresidue(p), -1, p), (p + 1) // 2
    quads = []
    for s, c in _split_quadratics(_dense_divmod(g12, g1, p)[0], big_x, p):
        mult, rest = _multiplicity(rest, [c, s, 1], p)
        quads.append((-s * half % p, c, mult + 1))
    b_squared = [((a * a - c) * inv_n % p, 0) for a, c, _ in quads]
    for b, a, mult in sorted((b, a, mult) for (b, _), (a, _, mult)
                             in zip(_square_roots(b_squared, p), quads)):
        roots += [((a, b), mult), ((a, p - b), mult)]
    return roots
