"""Tests for the benchmark's oracles, on hand-checked cases.

    python3 -m pytest bench/test_oracles.py

Nothing here imports frobsplit: the oracles are checked against hand
computations and a brute-force nu, never against the library they judge.
"""

from fractions import Fraction
from math import ceil

import pytest

from oracles import (INF, Couple, _parse_lam_poly, check_answer, check_fdisc, check_gfr,
                     check_gfs, check_nu_values, cone_fpt, cusp_fpt, emul, gfr_decision,
                     hasse_poly, hasse_roots, hasse_value, monomial_nu, nonresidue)
from workloads import WORKLOADS, queries


def test_quadratic_extension_model():
    assert [nonresidue(p) for p in (3, 5, 7, 11, 13)] == [2, 2, 3, 2, 2]
    for p in (5, 7, 11):
        n = nonresidue(p)
        assert emul((0, 1), (0, 1), p, n) == (n, 0)  # t^2 = n


def test_hasse_polynomial_by_hand():
    assert hasse_poly(3) == [2, 2]               # -(1 + lam)
    assert hasse_poly(5) == [1, 4, 1]            # lam^2 + 4 lam + 1
    assert hasse_poly(7) == [6, 5, 5, 6]         # -(1 + 9 lam + 9 lam^2 + lam^3)
    assert {v for v in range(2, 7) if hasse_value(v, 7) == 0} == {2, 4, 6}
    assert _parse_lam_poly("lam^2 + 4*lam + 1", 5) == [1, 4, 1]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_supersingular_locus_has_half_p_minus_one_points(p):
    roots = hasse_roots(p)
    assert len(roots) == len(set(roots)) == (p - 1) // 2


def test_window_coefficient_is_the_hasse_value():
    # (x(x-1)(x-2))^2 at p = 5: the x^4 coefficient is 13 = 3, the Hasse value
    B = Couple(5, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2),
                   (2, 0): Fraction(1, 2), INF: Fraction(1, 2)})
    assert B.window_coeff(1, 0) == (3, 0)
    assert B.splits(1) == 0
    # at p = 3, g = x^3 - x has no x^2 term: lambda = 2 is supersingular
    B3 = Couple(3, dict(B.entries))
    assert B3.splits(1) is None


def test_gfs_check_rejects_a_bogus_certificate():
    B = Couple(3, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2),
                   (2, 0): Fraction(1, 2), INF: Fraction(1, 2)})
    problems = []
    check_gfs(B, 1, {"status": "yes", "level": 1, "certificate": 0,
                     "levels_tested": [1]}, problems)
    assert problems
    problems = []
    check_gfs(B, 1, {"status": "no", "levels_tested": [1]}, problems)
    assert problems == []


def test_gfr_failing_centre_by_hand():
    # B = (0)/2 + (1)/2 + (inf)/2 at p = 3, level 1: g = x^2 - x, D = 1.
    # Centre 2 gives g*(x - 2) = x^3 + 2x with D = 0: the x^2 window is zero.
    # Every other centre keeps a nonzero x^2 coefficient, and the aggregate
    # B + (0)/2 + (1)/2 + (inf)/2 has D = -2, so no aggregate certificate.
    B = Couple(3, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2), INF: Fraction(1, 2)})
    assert gfr_decision(B, 1) == {"status": "unknown", "levels": [1], "aggregate": None,
                                  "failures": [(2, 0)], "generic": True}
    problems = []
    check_gfr(B, 1, {"status": "unknown", "evidence": {
        "aggregate_certificate": None, "family_failures": ["0"], "generic_point": True}},
        problems)
    assert any("named as failing but splits" in p for p in problems)


def test_gfr_structural_no():
    B = Couple(5, {(0, 0): Fraction(1), INF: Fraction(1, 2)})
    assert gfr_decision(B, 2) == {"status": "certified-no"}


def test_f_discriminant_check():
    p = 5
    roots = hasse_roots(p)
    good = [{"point": "inf", "num": 1, "den": 2}] + [
        {"point": str(a) if b == 0 else f"{a}+{b}t", "num": 1, "den": 4} for a, b in roots]
    problems = []
    check_fdisc(p, good, "1", problems)
    assert problems == []
    bad = [dict(d) for d in good]
    bad[1]["num"] = 2
    check_fdisc(p, bad, "1", problems)
    assert problems


def test_nodal_nu_by_hand():
    problems = []
    check_nu_values([(1, 4), (2, 24), (3, 124)], 5, problems, nu=lambda q: q - 1,
                    fpt=Fraction(1))
    assert problems == []
    check_nu_values([(2, 23)], 5, problems, nu=lambda q: q - 1)
    assert problems


# nu(p) for y^2 - x^3 by hand: f^r has the terms y^(2r-2k) x^(3k); the largest
# r with one of them inside the box [0, p)^2 and a unit binomial coefficient
@pytest.mark.parametrize("p,nu_p", [(5, 3), (7, 5), (11, 8), (13, 10)])
def test_cusp_bracket_by_hand(p, nu_p):
    problems = []
    check_nu_values([(1, nu_p)], p, problems, fpt=cusp_fpt(p))
    assert problems == []
    for wrong in (nu_p - 1, nu_p + 1):
        check_nu_values([(1, wrong)], p, problems, fpt=cusp_fpt(p))
        assert problems
        problems.clear()


def test_monomial_nu():
    assert monomial_nu((3, 5, 0), 625) == 124
    assert monomial_nu((9, 1, 1), 3) == 0


def _naive_nu(terms: dict, p: int, q: int) -> int:
    """max r with f^r outside (x_1^q, ..., x_n^q), by plain truncated products."""
    acc, r = {(0,) * len(next(iter(terms))): 1}, 0
    while True:
        nxt: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                if max(key) < q:
                    nxt[key] = (nxt.get(key, 0) + c1 * c2) % p
        acc = {k: c for k, c in nxt.items() if c}
        if not acc:
            return r
        r += 1


def _legendre_cone_terms(lam: int, p: int) -> dict:
    # y^2 z - x (x - z)(x - lam z) = y^2 z - x^3 + (1 + lam) x^2 z - lam x z^2
    return {k: c % p for k, c in {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): 1 + lam,
                                  (1, 0, 2): -lam}.items() if c % p}


@pytest.mark.parametrize("p,e", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_literature_fpts_match_brute_force(p, e):
    q = p ** e
    cases = [({(0, 2): 1, (3, 0): p - 1}, cusp_fpt(p)),
             ({(0, 2): 1, (3, 0): p - 1, (2, 0): 1}, Fraction(1))]
    if e == 1:
        cases.append(({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, cone_fpt(p % 3 == 1, p)))
        cases += [(_legendre_cone_terms(lam, p), cone_fpt(hasse_value(lam, p) != 0, p))
                  for lam in range(2, p)]
    for terms, fpt in cases:
        assert _naive_nu(terms, p, q) == ceil(fpt * q) - 1


def test_check_answer_flags_errors_and_wrong_verdicts():
    q = {"kind": "cy-fermat4", "p": 7, "argv": []}
    assert check_answer(q, 1, None) == (["exit code 1"], False)
    problems, _ = check_answer(q, 0, {"results": {"split": True}})
    assert problems
    assert check_answer(q, 0, {"results": {"split": False}}) == ([], True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_seeded_and_sized(name):
    a, b = queries(name, 7), queries(name, 7)
    assert a == b
    assert queries(name, 8) != a
    assert len(a) >= 100
    assert len({tuple(x["argv"]) for x in a}) == len(a)
