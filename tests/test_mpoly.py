import random

import pytest

from frobsplit.arith import ExtFieldElement, FieldElement
from frobsplit.mpoly import (MAX_POWER_TERMS, MPoly, PolyParseError, format_poly, parse_poly,
                             univ_derivative, univ_roots, univ_squarefree,
                             univ_to_dense)


def _random_sparse(rng, nvars, p, max_exp=4, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exps] = rng.randrange(1, p)
    return MPoly(nvars, p, terms)


def test_ring_examples():
    f = parse_poly("x^2 + 3*x*y + 1", ["x", "y"], 5)
    assert (f + (-f)).is_zero()
    assert f * MPoly.one(2, 5) == f
    g = parse_poly("(x+1)*(x-1)", ["x"], 5)
    assert g == parse_poly("x^2 + 4", ["x"], 5)


def test_arity_and_modulus_mismatch():
    f = MPoly.variable(0, 1, 5)
    g = MPoly.variable(0, 2, 5)
    h = MPoly.variable(0, 1, 7)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * h


def test_coeff_examples():
    f = parse_poly("x^2 + 4", ["x"], 5)
    assert f.coeff((2,)) == 1
    assert f.coeff((0,)) == 4
    assert f.coeff((1,)) == 0
    with pytest.raises(ValueError):
        f.coeff((1, 1))


def test_power_qm1_examples():
    x = MPoly.variable(0, 1, 5)
    assert x.power_qm1(2) == MPoly(1, 5, {(24,): 1})
    f = parse_poly("x + 1", ["x"], 3)
    assert f.power_qm1(1) == parse_poly("x^2 + 2*x + 1", ["x"], 3)


def test_power_qm1_against_naive_powering():
    # oracle: naive repeated squaring through __pow__
    rng = random.Random(99)
    cases = 0
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        if p ** e > 27:
            continue
        for _ in range(10):
            f = _random_sparse(rng, 2, p, max_exp=3)
            assert f.power_qm1(e) == f ** (p ** e - 1), (p, e, f)
            cases += 1
    assert cases >= 40


def test_power_qm1_degree():
    rng = random.Random(5)
    for p, e in [(3, 2), (5, 1), (7, 1)]:
        for _ in range(10):
            f = _random_sparse(rng, 2, p)
            assert f.power_qm1(e).degree() == (p ** e - 1) * f.degree()


def test_frobenius_twist_is_pth_power():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_sparse(rng, 2, 5, max_exp=3)
        g = f ** 4  # f^(p-1)
        assert g.frobenius_twist(1) == g ** 5


def test_univ_squarefree_examples():
    assert univ_squarefree(parse_poly("x^2 - 1", ["x"], 5))
    assert not univ_squarefree(parse_poly("(x-1)^2", ["x"], 5))
    # derivative of x^p - x is -1
    for p in (3, 5, 7):
        f = MPoly(1, p, {(p,): 1, (1,): p - 1})
        assert univ_squarefree(f)
    with pytest.raises(ValueError):
        univ_squarefree(MPoly.zero(1, 5))


def test_univ_roots_examples():
    f = parse_poly("x^2 - 1", ["x"], 5)
    assert univ_roots(f, 1) == [(FieldElement(1, 5), 1), (FieldElement(4, 5), 1)]
    g = parse_poly("x^2 + 4*x + 1", ["x"], 5)
    # discriminant 12 = 2 is a nonsquare mod 5: no rational roots
    assert univ_roots(g, 1) == []
    ext_roots = univ_roots(g, 2)
    assert len(ext_roots) == 2
    r1, r2 = ext_roots[0][0], ext_roots[1][0]
    assert r1.frobenius() == r2  # conjugate pair
    for r, mult in ext_roots:
        assert mult == 1
        assert (r * r + 4 * r + 1).is_zero()


def _roots_by_full_scan(f, level):
    """Oracle: evaluate at every field element, multiplicity by division."""
    p = f.p
    points = [FieldElement(v, p) for v in range(p)]
    if level == 2:
        points = [ExtFieldElement(a, b, p) for a in range(p) for b in range(p)]
    found = []
    for x in points:
        if f.eval_univariate(x).is_zero():
            found.append(x)
    return found


def test_univ_roots_against_full_scan():
    rng = random.Random(17)
    for p in (3, 5):
        for _ in range(15):
            f = _random_sparse(rng, 1, p, max_exp=6, max_terms=4)
            got = univ_roots(f, 2)
            want = _roots_by_full_scan(f, 2)
            got_points = {ExtFieldElement(r.value, 0, p) if isinstance(r, FieldElement) else r
                          for r, _ in got}
            want_points = set(want)
            assert got_points == want_points, f
            assert sum(m for _, m in got) <= f.degree()


def test_multiplicity_sum_vs_degree():
    # x^2(x-1)^3 has total multiplicity 5 = its degree
    f = parse_poly("x^2 * (x-1)^3", ["x"], 7)
    roots = univ_roots(f, 2)
    assert sorted((str(r), m) for r, m in roots) == [("F7(0)", 2), ("F7(1)", 3)]
    assert sum(m for _, m in roots) == f.degree()


def test_multiplicity_sum_equals_degree_iff_split():
    # splits into linears and quadratics over F_{p^2}: equality
    f = parse_poly("(x-1) * (x^2 + 4*x + 1)", ["x"], 5)
    assert sum(m for _, m in univ_roots(f, 2)) == 3
    # x^3 + x + 1 takes the values 1, 3, 1, 1, 4 at x = 0..4, so it has no
    # root over F_5; a cubic without a root is irreducible, so its roots live
    # in F_{5^3}, which meets F_{25} only in F_5, and the F_{25} count falls
    # short of the degree. (x^3 - x - 1 is not usable here: over F_5 it is
    # (x - 2)(x^2 + 2x + 3), with x = 2 a root.)
    g = parse_poly("x^3 + x + 1", ["x"], 5)
    assert [v for v in range(5) if (v ** 3 + v + 1) % 5 == 0] == []
    assert _roots_by_full_scan(g, 2) == []
    assert univ_roots(g, 1) == []
    assert sum(m for _, m in univ_roots(g, 2)) == 0 < g.degree()


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("x + q", ["x"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("x ^ y", ["x", "y"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("(x + 1", ["x"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("x + ", ["x"], 5)


def test_power_size_guard():
    # a power of a base with several terms is refused once its expansion could
    # exceed MAX_POWER_TERMS monomials, C(n + k*deg, n); a monomial never is
    with pytest.raises(PolyParseError):
        parse_poly("(x+y+1)^1000000000 - 1", ["x", "y"], 5)
    k = MAX_POWER_TERMS - 1                       # C(1 + k, 1) == MAX_POWER_TERMS
    assert parse_poly(f"(x+1)^{k}", ["x"], 5).degree() == k
    with pytest.raises(PolyParseError):
        parse_poly(f"(x+1)^{k + 1}", ["x"], 5)
    assert parse_poly("x^1000000000 - 1", ["x", "y"], 5).degree() == 10 ** 9
    assert parse_poly("(2*x^3*y)^1000000000", ["x", "y"], 5).degree() == 4 * 10 ** 9
    assert parse_poly("(3)^1000000000", ["x"], 5) == MPoly.constant(1, 1, 5)


def test_format_parse_roundtrip():
    rng = random.Random(23)
    names = ["x", "y", "z"]
    for _ in range(40):
        f = _random_sparse(rng, 3, 7, max_exp=5, max_terms=6)
        text = format_poly(f, names)
        assert parse_poly(text, names, 7) == f
        # printing is canonical: formatting again is bit-identical
        assert format_poly(parse_poly(text, names, 7), names) == text


def test_format_zero_and_constants():
    assert format_poly(MPoly.zero(2, 5), ["x", "y"]) == "0"
    assert format_poly(MPoly.constant(3, 1, 5), ["x"]) == "3"
    assert parse_poly("0", ["x"], 5).is_zero()


def test_derivative():
    f = parse_poly("x^3 + 2*x + 4", ["x"], 5)
    assert univ_derivative(f) == parse_poly("3*x^2 + 2", ["x"], 5)
    assert univ_to_dense(parse_poly("x^2 + 4", ["x"], 5)) == [4, 0, 1]
