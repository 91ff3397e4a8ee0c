import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit.fedder import (NuMonotonicityError, _pruned_power_survives, fpt_bounds,
                              in_bracket_ideal, is_fpure_pair, nu, nu_binary)
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


def test_monotonicity_error_wiring():
    # the guard trips only on genuinely broken arithmetic; simulate by checking
    # the exception type exists and fpt_bounds runs clean on honest input
    assert issubclass(NuMonotonicityError, RuntimeError)
    seq = fpt_bounds(parse_poly("x*y", ["x", "y"], 5), 2)
    for (e1, v1), (e2, v2) in zip(seq.values, seq.values[1:]):
        assert v2 >= 5 * v1


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
