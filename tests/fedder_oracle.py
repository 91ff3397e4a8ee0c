"""Test oracles for `frobsplit.fedder`.

The digit-table route for powers mod m^[q], kept as the oracle of the
level-by-level loop: `_pruned_power_survives(f, N, q)` decides f^N outside
m^[q] for one N by the base-p digits of N, and `nu_binary` binary-searches r
over [0, n(q-1)+1] with it.  Neither shares the Frobenius recursion of
`fedder._nu_loop`; they share only its packed pruned product.

Two oracles for the diagonal coefficient of f^(p-1): `ScanLattice`, the
count-lattice sum as it was before it walked progressions (it sets every free
count to every value and rejects by divisibility and range), and
`brute_diagonal`, the multinomial sum over every count vector in [0, p)^s.
"""

import itertools
import math

from frobsplit.arith import _factorials
from frobsplit.fedder import _box, _pack_terms, _pruned_times, _require_local_input
from frobsplit.mpoly import MPoly


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


class ScanLattice:
    """The count vectors k >= 0 of the multinomial expansion of f^(p-1) that
    reach the diagonal: sum_i k_i a_i = (p-1, ..., p-1) and sum_i k_i = p-1
    over the terms c_i x^(a_i) of f (the second equation is implied when f
    is a form of degree n in n variables).  A term with an exponent >= p
    has k_i = 0 and is left out.

    The system is row-reduced once over Z.  Row r, (c, d, m, b) in `rows`,
    then reads d * k_c + sum_j m_j * k_(free[j]) = b for its pivot column c,
    so each choice of the free counts gives the pivot counts by exact
    division; `consistent` is False when a zero row has a nonzero
    right-hand side.
    """

    def __init__(self, f: MPoly):
        p = f.p
        terms = [(exps, c) for exps, c in f.terms.items() if max(exps) < p]
        self.p, self.coeffs = p, [c for _, c in terms]
        rows = [[exps[v] for exps, _ in terms] + [p - 1] for v in range(f.nvars)]
        rows.append([1] * len(terms) + [p - 1])
        pivots = []
        for col in range(len(terms)):
            r = len(pivots)
            i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            top = rows[r]
            for i, row in enumerate(rows):
                if i != r and row[col]:
                    new = [top[col] * x - row[col] * y for x, y in zip(row, top)]
                    g = math.gcd(*new) or 1  # a row of zeros stays one
                    rows[i] = [x // g for x in new]
            pivots.append(col)
        self.rank = len(pivots)
        self.consistent = not any(row[-1] for row in rows[self.rank:])
        self.free = [col for col in range(len(terms)) if col not in pivots]
        self.rows = [(col, row[col], [row[j] for j in self.free], row[-1])
                     for row, col in zip(rows, pivots)]

    def diagonal(self) -> int:
        """sum_k (p-1)!/(k_1!...k_s!) * prod_i c_i^(k_i) mod p over the count
        vectors; (p-1)! = -1 (Wilson), and every k_i! is a unit as k_i < p."""
        if not self.consistent:
            return 0
        p, coeffs = self.p, self.coeffs
        _, inv_fact = _factorials(p)

        solve = [(d, coeffs[col]) for col, d, _, _ in self.rows]
        steps = [([m[j] for _, _, m, _ in self.rows], coeffs[col])
                 for j, col in enumerate(self.free)]

        def visit(j: int, rhs: list[int], budget: int, acc: int) -> int:
            # the free counts before j are set, and rhs is each b_r less their terms
            if j < len(steps):
                (ms, c), ck, total = steps[j], 1, 0
                for k in range(budget + 1):  # the counts add up to p - 1
                    total += visit(j + 1, [b - m * k for b, m in zip(rhs, ms)], budget - k,
                                   acc * ck * inv_fact[k] % p)
                    ck = ck * c % p
                return total
            for (d, c), b in zip(solve, rhs):
                k, rem = divmod(b, d)
                if rem or not 0 <= k < p:  # a later count may still be negative
                    return 0
                acc = acc * pow(c, k, p) * inv_fact[k] % p
            return acc

        return -visit(0, [b for _, _, _, b in self.rows], p - 1, 1) % p


def brute_points(f: MPoly) -> list[dict[tuple, int]]:
    """Every count vector k in [0, p)^s with sum_i k_i a_i = (p-1, ..., p-1)
    and sum_i k_i = p-1, as {exponents: count} over the counts that are
    nonzero; for small p and s."""
    p, terms = f.p, list(f.terms)
    return [{exps: c for exps, c in zip(terms, k) if c}
            for k in itertools.product(range(p), repeat=len(terms))
            if sum(k) == p - 1 and all(sum(c * exps[v] for c, exps in zip(k, terms)) == p - 1
                                       for v in range(f.nvars))]


def brute_diagonal(f: MPoly) -> int:
    """The coefficient of (x_1*...*x_n)^(p-1) in f^(p-1), mod p: the
    multinomial (p-1)!/(k_1!...k_s!) * prod_i c_i^(k_i) over `brute_points`."""
    p = f.p
    fact = [math.factorial(k) for k in range(p)]
    return sum(math.factorial(p - 1) // math.prod(fact[c] for c in point.values())
               * math.prod(f.terms[exps] ** c for exps, c in point.items())
               for point in brute_points(f)) % p
