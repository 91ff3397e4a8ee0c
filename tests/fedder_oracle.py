"""The digit-table route for powers mod m^[q], kept as the test oracle of
`frobsplit.fedder`'s level-by-level loop.

`_pruned_power_survives(f, N, q)` decides f^N outside m^[q] for one N by the
base-p digits of N, and `nu_binary` binary-searches r over [0, n(q-1)+1]
with it.  Neither shares the Frobenius recursion of `fedder._nu_levels`;
they share only its packed pruned product.
"""

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
