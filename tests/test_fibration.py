from fractions import Fraction

import pytest

from fedder_oracle import _pruned_power_survives
from frobsplit.arith import binom_mod_p, is_prime
from frobsplit.elliptic import hasse_coeff_symbolic, supersingular_report
from frobsplit.fibration import (BOUNDARY_INFINITY, NODAL, SMOOTH_ORDINARY,
                                 SMOOTH_SUPERSINGULAR, cbf_iii_check, cbf_sides,
                                 classify_fibers, f_discriminant_legendre,
                                 is_kgfr_legendre, legendre_bigraded_poly,
                                 prime_scan, s0_fiber_legendre,
                                 s0_product, total_space_gfs)
from frobsplit.gsplit import (P1Point, gfr_p1_bounded, gfs_bigraded_hypersurface, gfs_p1,
                              parse_divisor)

ODD_PRIMES_TO_400 = [p for p in range(3, 400) if is_prime(p)]


def test_f_discriminant_p3():
    rep = f_discriminant_legendre(3)
    assert rep.divisor == parse_divisor("1/2@inf,1/2@2", 3)
    assert rep.degree == 1


def test_f_discriminant_p5():
    rep = f_discriminant_legendre(5)
    inf_coeff = rep.divisor.coefficient(P1Point.infinity())
    assert inf_coeff == Fraction(1, 2)
    finite = [(pt, c) for pt, c in rep.divisor.sorted_entries() if not pt.is_infinity]
    assert len(finite) == 2
    assert all(c == Fraction(1, 4) for _, c in finite)
    assert all(pt.field_level == 2 for pt, _ in finite)
    assert rep.degree == 1


def test_f_discriminant_degree_identity_up_to_101():
    # the 1/2 at infinity is an imported constant; the exact degree-1 identity
    # is what makes it falsifiable against the computed finite coefficients
    for p in range(3, 102):
        if is_prime(p):
            rep = f_discriminant_legendre(p)
            assert rep.degree == 1, p
            finite = sum((c for pt, c in rep.divisor.sorted_entries()
                          if not pt.is_infinity), Fraction(0))
            assert finite == Fraction(1, 2), p


def test_classify_fibers_p3():
    table = classify_fibers(3)
    as_str = {str(pt): label for pt, label in table.items()}
    assert as_str == {"0": NODAL, "1": NODAL, "2": SMOOTH_SUPERSINGULAR,
                      "inf": BOUNDARY_INFINITY}


def test_classify_fibers_p5():
    table = classify_fibers(5)
    supers = [pt for pt, label in table.items() if label == SMOOTH_SUPERSINGULAR]
    assert len(supers) == 2
    assert all(pt.field_level == 2 for pt in supers)
    ordinary = [pt for pt, label in table.items() if label == SMOOTH_ORDINARY]
    assert {str(pt) for pt in ordinary} == {"2", "3", "4"}


def test_ordinary_lambda_has_zero_boundary_coefficient():
    for p in (5, 7, 13):
        rep = f_discriminant_legendre(p)
        for pt, label in rep.fiber_table:
            if label == SMOOTH_ORDINARY:
                assert rep.divisor.coefficient(pt) == 0


def test_boundary_support_is_exactly_supersingular():
    for p in (3, 5, 7, 13, 31):
        rep = f_discriminant_legendre(p)
        boundary_finite = {pt for pt, c in rep.divisor.sorted_entries()
                           if not pt.is_infinity}
        supers = {P1Point(r) for r, _ in supersingular_report(p).roots}
        assert boundary_finite == supers


def test_bigraded_poly_shape():
    F = legendre_bigraded_poly(5)
    assert F.nvars == 5
    assert F.degree_on(range(3)) == 3 and F.degree_on(range(3, 5)) == 1
    assert F.is_homogeneous_on(range(3)) and F.is_homogeneous_on(range(3, 5))


def test_total_space_gfs_and_budget():
    assert total_space_gfs(3) is True
    assert total_space_gfs(5) is True
    assert total_space_gfs(17, pmax=13) is None  # budget exceeded -> unknown
    assert total_space_gfs(13, pmax=13) is True


def test_total_space_gfs_is_the_bigraded_route():
    # the proof against the general bigraded criterion on the surface's equation
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        split = gfs_bigraded_hypersurface(legendre_bigraded_poly(p), (3, 2))
        assert split is True, p
        for e_max in range(4):
            assert total_space_gfs(p, e_max, pmax=23) is (e_max >= 1 and split), (p, e_max)


def test_total_space_certificate_by_full_expansion():
    # the monomial x^(2m) y^(2m) z^(2m) lambda^(m-j) mu^(m+j) of F^(p-1) has
    # the unit coefficient C(p-1, m) * C(m, j)^2, read off the full power
    for p in (3, 5, 7, 11):
        m = (p - 1) // 2
        power = legendre_bigraded_poly(p) ** (p - 1)
        for j in range(m + 1):
            c = power.coeff((2 * m, 2 * m, 2 * m, m - j, m + j))
            assert c == binom_mod_p(p - 1, m, p) * binom_mod_p(m, j, p) ** 2 % p, (p, j)
            assert c != 0, (p, j)


def test_closed_forms_validate_the_prime():
    for bad in (1, 2, 9, 15):
        for decide in (total_space_gfs, s0_fiber_legendre, is_kgfr_legendre, cbf_sides):
            with pytest.raises(ValueError, match="modulus must be an odd prime"):
                decide(bad)


def test_total_space_gfs_equals_every_level_tried():
    # the criterion is level-free, so level 1 alone gives the verdict of a
    # level-e digit table at every level up to e_max
    verdicts = set()
    for p in (3, 5, 7, 11, 13):
        F = legendre_bigraded_poly(p)
        for e_max in range(4):
            want = any(_pruned_power_survives(F, p ** e - 1, p ** e)
                       for e in range(1, e_max + 1))
            assert total_space_gfs(p, e_max) is want, (p, e_max)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_cbf_equivalence():
    for p in (3, 5, 7, 13):
        assert cbf_iii_check(p) is True, p
    assert cbf_iii_check(17, pmax=13) is None
    # with no level to test neither side decides anything: no "match"
    for e_max in (0, -1):
        with pytest.raises(ValueError, match="e_max must be >= 1"):
            cbf_iii_check(7, e_max)


def test_total_space_matches_base_couple():
    for p in (3, 5, 7):
        base = gfs_p1(f_discriminant_legendre(p).divisor).is_yes
        assert total_space_gfs(p) == base


def test_s0_fiber():
    # the proof: H_p(0) = (-1)^m, so H_p is not the zero polynomial
    for p in ODD_PRIMES_TO_400:
        assert hasse_coeff_symbolic(p)[0] == (-1) ** ((p - 1) // 2) % p, p
        assert s0_fiber_legendre(p) == 1
    # the computed oracle: a nonzero H_p from the supersingular report
    for p in range(3, 32):
        if is_prime(p):
            assert any(supersingular_report(p).poly), p


def test_s0_product_table():
    assert s0_product(True, False) == (0, 1)
    assert s0_product(True, True) == (1, 1)
    assert s0_product(False, True) == (0, 0)
    assert s0_product(False, False) == (0, 0)


def test_kgfr_examples():
    for p in (3, 5, 101):
        v = is_kgfr_legendre(p)
        assert v.overall == "KGFR", p
        assert v.fiber_gfs
        assert v.base_gfr.is_yes


def test_kgfr_base_is_the_bounded_search_on_the_divisor():
    # the closed-form base verdict against gfr_p1_bounded on the computed
    # F-discriminant divisor: yes at every e_max >= 1, unknown at 0
    statuses = set()
    for p in ODD_PRIMES_TO_400:
        B = f_discriminant_legendre(p).divisor
        for e_max in range(4):
            want = gfr_p1_bounded(B, e_max=e_max)
            got = is_kgfr_legendre(p, e_max=e_max)
            assert got.base_gfr.to_dict() == want.to_dict(), (p, e_max)
            assert got.fiber_gfs is True
            assert got.overall == ("KGFR" if want.is_yes else "unknown")
            assert want.is_yes == (e_max >= 1), (p, e_max)
            statuses.add(want.status)
    assert statuses == {"yes", "unknown"}


def test_prime_scan_range():
    rep = prime_scan(3, 31)
    assert [r.prime for r in rep.rows] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert rep.counts == {"KGFR": 10, "not-KGFR": 0, "unknown": 0}
    assert rep.fractions["KGFR"] == 1


def test_prime_scan_matches_the_search():
    # the rows again from the general routes: H_p and the bounded base search
    want = []
    for p in ODD_PRIMES_TO_400:
        fiber = any(supersingular_report(p).poly)
        base = gfr_p1_bounded(f_discriminant_legendre(p).divisor)
        overall = ("not-KGFR" if not fiber or base.is_certified_no
                   else "KGFR" if base.is_yes else "unknown")
        want.append((p, overall, fiber, base.status))
    rep = prime_scan(3, 400)
    assert [(r.prime, r.overall, r.fiber_gfs, r.base_status) for r in rep.rows] == want
    assert rep.counts == {"KGFR": 77, "not-KGFR": 0, "unknown": 0}


def test_prime_scan_empty_range():
    rep = prime_scan(32, 36)
    assert rep.rows == ()
    assert rep.fractions["KGFR"] == 0
