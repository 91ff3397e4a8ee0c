import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import fedder
from frobsplit.elliptic import hasse_closed, hasse_coeff
from frobsplit.fedder import (NuMonotonicityError, _DigitTable, _pack_terms,
                              _pruned_power_survives, fpt_bounds, in_bracket_ideal,
                              is_fpure_pair, nu, nu_binary)
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
    # a kernel that lies must trip the bracket check at some level; honest
    # arithmetic never does
    f = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    seq = fpt_bounds(f, 3)
    for (e1, v1), (e2, v2) in zip(seq.values, seq.values[1:]):
        assert 5 * v1 <= v2 <= 5 * v1 + 4
    honest = fedder._DigitTable.survives
    lies = (
        lambda table, N: True,                     # f^(p*nu + p) "survives"
        lambda table, N: False,                    # f^0 = 1 "dies" at level 1
        # right at level 1, then answers for f^(N + p): f^(p*nu) "dies" at level 2
        lambda table, N: honest(table, N if table.q == 5 else N + 5),
    )
    for lie in lies:
        monkeypatch.setattr(fedder._DigitTable, "survives", lie)
        with pytest.raises(NuMonotonicityError):
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


def test_pruned_power_matches_full_power_seeded():
    rng = random.Random(5)
    seen = set()
    for p, q in KERNEL_QS:
        polys = [
            _random_poly(rng, p, 2, 3, 3),
            _random_poly(rng, p, 2, 2, 2) + 1,                # a constant term: never dies
            parse_poly("x^3*y^2 + x^2*y^4", ["x", "y"], p),   # dies after a few powers
            parse_poly("x*y + y^2", ["x", "y"], p),
        ]
        if q <= 27:
            polys.append(_random_poly(rng, p, 3, 3, 2))
            polys.append(parse_poly("x*y*z + z^3", ["x", "y", "z"], p))
        for f in polys:
            seen |= _check_every_power(f, q)
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


def test_legendre_cone_nu_matches_hasse():
    # y^2 z = x(x - z)(x - lambda z) is ordinary iff its Hasse invariant is nonzero
    seen = set()
    for p in (5, 7, 11, 13):
        for lam in range(2, p):
            ordinary = not hasse_closed(lam, p).is_zero()
            assert ordinary == (not hasse_coeff(lam, p).is_zero())
            f = parse_poly(f"y^2*z - x*(x - z)*(x - {lam}*z)", ["x", "y", "z"], p)
            e_max = 2 if p <= 7 else 1
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
