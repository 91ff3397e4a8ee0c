import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedder_oracle import _DigitTable, _pruned_power_survives, nu_binary
from frobsplit import fedder
from frobsplit.arith import is_prime
from frobsplit.elliptic import hasse_closed, hasse_coeff
from frobsplit.fedder import (NuMonotonicityError, _CountLattice, _diagonal_coefficient,
                              _half_power_diagonal, _mask, _pack_terms, _slot, fpt_bounds,
                              in_bracket_ideal, is_fpure_pair, nu)
from frobsplit.mpoly import MPoly, parse_poly


def _nu_oracle(f, e):
    """Full-expansion oracle: no pruning, straight powering and membership."""
    q = f.p ** e
    r = 0
    power = MPoly.one(f.nvars, f.p)
    while True:
        power = power * f
        if in_bracket_ideal(power, q):
            return r
        r += 1


def test_bracket_examples():
    p5 = 5
    assert in_bracket_ideal(parse_poly("x^5", ["x", "y"], p5), 5)
    assert not in_bracket_ideal(parse_poly("x^4*y^4", ["x", "y"], p5), 5)
    # one surviving monomial keeps the sum outside
    assert not in_bracket_ideal(parse_poly("x^5 + x^4*y^4", ["x", "y"], p5), 5)
    assert in_bracket_ideal(MPoly.zero(2, 5), 5)
    with pytest.raises(ValueError):
        in_bracket_ideal(parse_poly("x", ["x"], 5), 6)


def test_nu_examples():
    assert nu(parse_poly("x*y", ["x", "y"], 5), 1) == 4
    nodal = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    assert nu(nodal, 1) == 4
    # oracle: full expansion without pruning
    assert _nu_oracle(nodal, 1) == 4
    assert nu(parse_poly("x", ["x"], 7), 2) == 48  # q - 1 for a coordinate


def test_nu_rejects_bad_input():
    with pytest.raises(ValueError):
        nu(parse_poly("x + 1", ["x"], 5), 1)   # f(0) != 0
    with pytest.raises(ValueError):
        nu(MPoly.constant(2, 1, 5), 1)         # constant
    with pytest.raises(ValueError):
        nu(parse_poly("x", ["x"], 5), 0)


def test_nu_matches_oracle_on_random_inputs():
    rng = random.Random(31)
    for p in (3, 5):
        for _ in range(12):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = (rng.randrange(0, 3), rng.randrange(0, 3))
                if exps == (0, 0):
                    exps = (1, 0)
                terms[exps] = rng.randrange(1, p)
            f = MPoly(2, p, terms)
            assert nu(f, 1) == _nu_oracle(f, 1), f


def test_nu_binary_cross_check():
    nodal = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    for e in (1, 2):
        assert nu_binary(nodal, e) == nu(nodal, e)
    assert nu_binary(parse_poly("x*y", ["x", "y"], 3), 3) == 26


def test_fpt_examples():
    nodal = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    seq = fpt_bounds(nodal, 3)
    assert seq.values == ((1, 4), (2, 24), (3, 124))
    assert seq.fpt_lower == Fraction(124, 125)
    assert seq.fpt_upper == Fraction(1)

    seq = fpt_bounds(parse_poly("x^2", ["x"], 5), 2)
    assert seq.values == ((1, 2), (2, 12))
    assert (seq.fpt_lower, seq.fpt_upper) == (Fraction(12, 25), Fraction(13, 25))

    seq = fpt_bounds(parse_poly("x*y", ["x", "y"], 3), 3)
    assert seq.values == ((1, 2), (2, 8), (3, 26))


def test_coordinate_products_have_nu_q_minus_1():
    for p in (3, 5, 7):
        for names in (["x"], ["x", "y"], ["x", "y", "z"]):
            f = parse_poly("*".join(names), names, p)
            for e in (1, 2):
                assert nu(f, e) == p ** e - 1


def test_is_fpure_examples():
    assert is_fpure_pair(parse_poly("x*y", ["x", "y"], 5), 1, 1)
    assert is_fpure_pair(parse_poly("x^2", ["x"], 5), Fraction(1, 2), 1)
    # x^36 lies in m^[25] since 36 >= 25
    assert not is_fpure_pair(parse_poly("x^2", ["x"], 5), Fraction(3, 4), 2)


def test_is_fpure_level_convention():
    f = parse_poly("x^2", ["x"], 5)
    with pytest.raises(ValueError):
        is_fpure_pair(f, Fraction(1, 3), 1)  # (1/3)*4 not integral
    assert is_fpure_pair(f, Fraction(1, 3), 2) in (True, False)  # 24/3 = 8 is fine
    with pytest.raises(ValueError):
        is_fpure_pair(f, Fraction(-1, 2), 1)


def test_monotonicity_error_wiring(monkeypatch):
    # a product that lies must trip the bracket check at some level; honest
    # arithmetic never does
    f = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    seq = fpt_bounds(f, 3)
    for (e1, v1), (e2, v2) in zip(seq.values, seq.values[1:]):
        assert 5 * v1 <= v2 <= 5 * v1 + 4
    honest = fedder._pruned_times

    def alive_at_p(acc, fac, nvars, q, p, lim=None):
        # at level 1 (box side 5) every product "survives": f^(p*nu + p) at d = p
        return acc if lim == 5 else honest(acc, fac, nvars, q, p, lim)

    def left_the_box(acc, fac, nvars, q, p, lim=None):
        # at level 1 each product keeps its terms times x^5, outside the box,
        # so the kept power is empty in the box of level 2
        out = honest(acc, fac, nvars, q, p, lim)
        return {key + 5: c for key, c in out.items()} if lim == 5 else out

    for lie, message in ((alive_at_p, r"outside m\^\[5\^1\]"),
                         (left_the_box, r"inside m\^\[5\^2\]")):
        monkeypatch.setattr(fedder, "_pruned_times", lie)
        with pytest.raises(NuMonotonicityError, match=message):
            fpt_bounds(f, 3)
        with pytest.raises(NuMonotonicityError):
            nu(f, 3)


# -- the pruned Frobenius-digit power against full expansion --------------------

KERNEL_QS = ((3, 3), (3, 9), (3, 27), (5, 5), (5, 25), (7, 7), (7, 49))  # (p, q)


def _check_every_power(f, q):
    """Compare the kernel with a full MPoly power f^N for every N <= n(q-1)+1;
    returns the set of outcomes seen."""
    seen = set()
    power = MPoly.one(f.nvars, f.p)
    for N in range(f.nvars * (q - 1) + 2):
        survives = _pruned_power_survives(f, N, q)
        assert survives == (not in_bracket_ideal(power, q)), (f, N, q)
        seen.add(survives)
        power = power * f
    return seen


def _random_poly(rng, p, nvars, nterms, max_exp):
    return MPoly(nvars, p, {tuple(rng.randrange(max_exp + 1) for _ in range(nvars)):
                            rng.randrange(1, p) for _ in range(nterms)})


def _kernel_polys(rng, p, q):
    polys = [
        _random_poly(rng, p, 2, 3, 3),
        _random_poly(rng, p, 2, 2, 2) + 1,                # a constant term: never dies
        parse_poly("x^3*y^2 + x^2*y^4", ["x", "y"], p),   # dies after a few powers
        parse_poly("x*y + y^2", ["x", "y"], p),
    ]
    if q <= 27:
        polys.append(_random_poly(rng, p, 3, 3, 2))
        polys.append(parse_poly("x*y*z + z^3", ["x", "y", "z"], p))
    return polys


def test_pruned_power_matches_full_power_seeded():
    rng = random.Random(5)
    seen = set()
    for p, q in KERNEL_QS:
        for f in _kernel_polys(rng, p, q):
            seen |= _check_every_power(f, q)
    assert seen == {True, False}


def test_is_fpure_pair_matches_pruned_power():
    # t(q-1) <= nu_f(q) against the digit-table power f^(t(q-1)) at every
    # integral t(q-1) from 0 to n(q-1)+1, on the kernel's polynomials with f(0) = 0
    rng = random.Random(5)
    seen = set()
    for p, q in KERNEL_QS:
        e = next(e for e in range(1, 4) if p ** e == q)
        for f in _kernel_polys(rng, p, q):
            if f.constant_term():
                continue
            for N in range(f.nvars * (q - 1) + 2):
                fpure = is_fpure_pair(f, Fraction(N, q - 1), e)
                assert fpure == _pruned_power_survives(f, N, q), (f, N, q)
                seen.add(fpure)
    assert seen == {True, False}


@st.composite
def _kernel_cases(draw):
    p, q = draw(st.sampled_from(KERNEL_QS))
    nvars = draw(st.integers(2, 3)) if q <= 27 else 2
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=3))
    return MPoly(nvars, p, terms), q


def test_pruned_power_matches_full_power_drawn():
    seen = set()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(_kernel_cases())
    def check(case):
        seen.update(_check_every_power(*case))

    check()
    assert seen == {True, False}


# -- the masked box test on packed keys ------------------------------------------

@st.composite
def _slot_cases(draw):
    """Exponents at 0, lim - 1, lim and 2q - 1, past any sum of two exponents
    below q, for q = p^e up to hundreds of bits and lim in [1, q]."""
    p = draw(st.sampled_from([3, 5, 7, 101, 65537]))
    q = p ** draw(st.integers(1, max(1, 300 // p.bit_length())))
    lim = draw(st.sampled_from([1, 2, p, q - 1, q]) | st.integers(1, q))
    exps = draw(st.lists(st.sampled_from([0, lim - 1, lim, 2 * q - 1]) | st.integers(0, 2 * q - 1),
                         min_size=1, max_size=4))
    return q, lim, exps


def test_masked_add_is_the_box_test_drawn():
    # (key + shift) & high == 0 exactly when every packed exponent is < lim
    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(_slot_cases())
    def check(case):
        q, lim, exps = case
        shift, high = _mask(len(exps), q, lim)
        key = sum(e << (_slot(q) * i) for i, e in enumerate(exps))
        assert (not (key + shift) & high) == all(e < lim for e in exps), case

    check()


# -- the digit table against full powers ----------------------------------------

def test_digit_table_rows_and_twists_match_full_powers():
    rng = random.Random(11)
    for p, q in KERNEL_QS:
        polys = [_random_poly(rng, p, 2, 3, 3), _random_poly(rng, p, 2, 2, 2) + 1,
                 parse_poly("x^3*y^2 + x^2*y^4", ["x", "y"], p)]
        if q <= 27:
            polys.append(_random_poly(rng, p, 3, 3, 2))
        for f in polys:
            table = _DigitTable(f, q)
            assert len(table.rows) == p
            for d in range(p):
                full = f ** d
                assert table.rows[d] == dict(_pack_terms(full, q)), (f, q, d)
                for j in range(5):  # j past log_p(q) leaves only the constant
                    assert (dict(table.twisted(d, j))
                            == dict(_pack_terms(full.frobenius_twist(j), q))), (f, q, d, j)


# -- literature oracles --------------------------------------------------------------

def _nu_from_fpt(fpt, q):
    """nu_f(q) = ceil(fpt * q) - 1 (Mustata-Takagi-Watanabe)."""
    return math.ceil(fpt * q) - 1


def test_monomial_nu_closed_form():
    # f^r = x^(r*a) is outside m^[q] iff r*max(a) <= q - 1
    rng = random.Random(3)
    for p in (3, 5, 7, 11):
        for _ in range(8):
            exps = [rng.randint(1, 9), rng.randint(0, 9), rng.randint(0, 9)]
            f = MPoly(3, p, {tuple(exps): rng.randrange(1, p)})
            e_max = 3 if p < 11 else 2
            seq = fpt_bounds(f, e_max)
            assert seq.values == tuple((e, (p ** e - 1) // max(exps))
                                       for e in range(1, e_max + 1)), (exps, p)


def test_cusp_nu_closed_form():
    # fpt(y^2 - x^3) = 5/6 if p = 1 mod 3, else 5/6 - 1/(6p)
    for p in (5, 7, 11, 13, 17, 19, 23):
        fpt = Fraction(5, 6) if p % 3 == 1 else Fraction(5, 6) - Fraction(1, 6 * p)
        e_max = 1
        while p ** (e_max + 1) <= 20000:
            e_max += 1
        seq = fpt_bounds(parse_poly("y^2 - x^3", ["x", "y"], p), e_max)
        assert seq.values == tuple((e, _nu_from_fpt(fpt, p ** e))
                                   for e in range(1, e_max + 1)), p


def test_diagonal_hypersurface_nu_closed_form():
    # Hernandez, F-invariants of diagonal hypersurfaces (Proc. AMS 2015): if
    # p = 1 mod lcm(a_i), f = sum x_i^(a_i) has fpt c = min(1, sum 1/a_i);
    # (q - 1) * c is then an integer, so nu(q) = ceil(c * q) - 1 = (q - 1) * c.
    # Levels run to q <= 3000, and to q <= 400 for the four-variable cubic
    # sum, whose nu(q) = q - 1 takes 11 s at q = 7^4
    cases = 0
    for exps in [(2, 3), (2, 4), (3, 4), (2, 5), (3, 3), (2, 3, 4), (4, 4, 4), (2, 2, 3),
                 (3, 6), (5, 5), (2, 6), (4, 6), (3, 3, 3, 3), (2, 3, 7)]:
        n, step = len(exps), math.lcm(*exps)
        c = min(Fraction(1), sum(Fraction(1, a) for a in exps))
        primes = [p for p in range(step + 1, 3000, step) if is_prime(p)]
        for p in primes[:3]:
            f = MPoly(n, p, {tuple(a * (i == j) for j in range(n)): 1
                             for i, a in enumerate(exps)})
            e_max = 1
            while p ** (e_max + 1) <= (400 if n == 4 else 3000):
                e_max += 1
            seq = fpt_bounds(f, e_max)
            assert seq.values == tuple((e, (p ** e - 1) * c)
                                       for e in range(1, e_max + 1)), (exps, p)
            assert seq.fpt_lower <= c <= seq.fpt_upper, (exps, p)
            cases += e_max
    assert cases == 106


def _cone_nu(ordinary, q, p):
    """Bhatt-Singh: a cubic cone has fpt 1 if ordinary, 1 - 1/p if supersingular."""
    return q - 1 if ordinary else q - q // p - 1


def test_fermat_cubic_cone_nu_closed_form():
    seen = set()
    for p in (5, 7, 11, 13, 17, 19):
        f = parse_poly("x^3 + y^3 + z^3", ["x", "y", "z"], p)
        e_max = 3 if p <= 7 else 2
        seq = fpt_bounds(f, e_max)
        assert seq.values == tuple((e, _cone_nu(p % 3 == 1, p ** e, p))
                                   for e in range(1, e_max + 1)), p
        seen.add(p % 3)
    assert seen == {1, 2}


def test_fermat_diagonal_coefficient_closed_form():
    # F = sum a_i x_i^n: the only way to reach (x_1...x_n)^(p-1) in F^(p-1)
    # is k = (p-1)/n copies of every term, so the coefficient is the
    # multinomial (p-1)!/(k!)^n times prod a_i^k when n | p - 1, else 0
    rng = random.Random(23)
    kinds = set()
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        for n in (3, 4):
            for _ in range(3):
                a = [rng.randrange(1, p) for _ in range(n)]
                F = MPoly(n, p, {tuple(n * (i == j) for j in range(n)): a[i]
                                 for i in range(n)})
                if (p - 1) % n:
                    want = 0
                else:
                    k = (p - 1) // n
                    want = math.factorial(p - 1) * pow(math.factorial(k), -n, p)
                    for c in a:
                        want *= pow(c, k, p)
                got = _diagonal_coefficient(F)
                assert got == want % p, (p, a)
                # both routes, whichever the rule picks
                assert _CountLattice(F).diagonal() == _half_power_diagonal(F) == got, (p, a)
                kinds.add(got != 0)
    assert kinds == {True, False}


def test_legendre_cone_nu_matches_hasse():
    # y^2 z = x(x - z)(x - lambda z) is ordinary iff its Hasse invariant is
    # nonzero: nu(p^e) follows H_p(lambda) at every lambda in F_p - {0, 1},
    # for every odd p < 30, to e = 3 at p <= 17 (p = 23 alone takes 44 s there)
    seen = set()
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        for lam in range(2, p):
            ordinary = not hasse_closed(lam, p).is_zero()
            assert ordinary == (not hasse_coeff(lam, p).is_zero())
            f = parse_poly(f"y^2*z - x*(x - z)*(x - {lam}*z)", ["x", "y", "z"], p)
            e_max = 3 if p <= 17 else 2
            assert fpt_bounds(f, e_max).values == tuple(
                (e, _cone_nu(ordinary, p ** e, p)) for e in range(1, e_max + 1)), (p, lam)
            seen.add(ordinary)
    assert seen == {True, False}


def test_nu_of_q_squared_bound():
    # nu(q^2) >= (q + 1) * nu(q): a splitting of f^nu at level q lifts
    rng = random.Random(17)
    polys = [parse_poly(t, ["x", "y"], 5) for t in ("y^2 - x^3 + x^2", "y^2 - x^3", "x^2*y")]
    polys += [_random_poly(rng, p, 2, 3, 3) * parse_poly("x", ["x", "y"], p) for p in (3, 5, 7)]
    for f in polys:
        p = f.p
        values = dict(fpt_bounds(f, 4 if p == 3 else 2).values)
        for e in range(1, len(values) // 2 + 1):
            assert values[2 * e] >= (p ** e + 1) * values[e], (f, e)


def test_fpure_at_one_iff_nu_is_q_minus_1():
    rng = random.Random(29)
    seen = set()
    for p in (3, 5, 7):
        for _ in range(10):
            g = _random_poly(rng, p, 2, rng.randint(1, 3), 2)
            f = MPoly(2, p, {exps: c for exps, c in g.terms.items() if any(exps)})
            if f.is_zero():
                continue
            for e in (1, 2):
                fpure = is_fpure_pair(f, 1, e)
                assert fpure == (nu(f, e) == p ** e - 1), (f, e)
                seen.add(fpure)
    assert seen == {True, False}


# -- Fedder's lemma: the splitting test does not depend on the level -------------

@st.composite
def _level_cases(draw):
    """(f, e, homogeneous): f homogeneous or not, constant terms allowed."""
    p, e = draw(st.sampled_from([(p, e) for p in (3, 5, 7) for e in (1, 2, 3)]))
    nvars = draw(st.integers(2, 3)) if p ** e <= 27 else 2
    homogeneous = draw(st.booleans())
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    if homogeneous:
        deg = draw(st.integers(1, 3))
        monomial = monomial.filter(lambda t: sum(t) == deg)
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=4))
    return MPoly(nvars, p, terms), e, homogeneous


def test_splitting_test_is_level_free_drawn():
    # Fedder 1983, Lemma 1.6: f^(p^e-1) outside m^[p^e] iff f^(p-1) outside
    # m^[p]; the level-e digit table is the oracle for the level-1 test
    seen = set()

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_level_cases())
    def check(case):
        f, e, homogeneous = case
        p = f.p
        at_level_e = _pruned_power_survives(f, p ** e - 1, p ** e)
        assert at_level_e == _pruned_power_survives(f, p - 1, p), (f, e)
        seen.add((homogeneous, at_level_e))

    check()
    assert seen == {(h, s) for h in (True, False) for s in (True, False)}


# -- the level search against nu_binary and the full expansion ----------------------

NU_QS = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2))  # (p, e)


@st.composite
def _nu_cases(draw):
    p, e = draw(st.sampled_from(NU_QS))
    nvars = draw(st.integers(2, 3)) if p ** e <= 25 else 2
    monomial = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=3))
    return MPoly(nvars, p, terms), e


def test_nu_matches_binary_and_full_expansion_drawn():
    seen = set()

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(_nu_cases())
    def check(case):
        f, e = case
        v = nu(f, e)
        assert v == nu_binary(f, e) == _nu_oracle(f, e), (f, e)
        seen.add(v == f.p ** e - 1)

    check()
    assert seen == {True, False}
