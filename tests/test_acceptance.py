"""Acceptance gate: one test per criterion, exact (zero-tolerance) checks.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion with its runtime against the stated budget.
"""

import time
from fractions import Fraction

from frobsplit.arith import ExtFieldElement, FieldElement, is_prime
from frobsplit.elliptic import (count_points, hasse_closed, hasse_coeff,
                                supersingular_report)
from frobsplit.fedder import fpt_bounds, is_fpure_pair
from frobsplit.fibration import (cbf_iii_check, f_discriminant_legendre,
                                 legendre_bigraded_poly, prime_scan)
from frobsplit.gsplit import (P1Point, gfr_p1_bounded, gfs_bigraded_hypersurface,
                              gfs_p1, parse_divisor)
from frobsplit.kappa import NEG_INF, check_superadditivity
from frobsplit.mpoly import parse_poly

PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]


def _finish(number, description, elapsed, budget):
    print(f"criterion {number}: PASS ({elapsed:.1f}s / budget {budget}s) - {description}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_supersingular_count():
    t0 = time.time()
    for p in PRIMES_TO_101:
        rep = supersingular_report(p)
        assert len(rep.poly) - 1 == (p - 1) // 2 and rep.poly[-1], p
        assert rep.squarefree, p
        assert rep.root_count == (p - 1) // 2, p
    _finish(1, "supersingular polynomial degree, squarefreeness, root count",
            time.time() - t0, 10)


def test_criterion_2_two_oracle_hasse():
    t0 = time.time()
    for p in (3, 5, 7, 13, 31):
        for a in range(p):
            for b in range(p):
                lam = ExtFieldElement(a, b, p)
                if lam == 0 or lam == 1:
                    continue
                assert hasse_closed(lam, p) == hasse_coeff(lam, p), (p, a, b)
        if p >= 5:
            for lv in range(2, p):
                lam = FieldElement(lv, p)
                assert hasse_closed(lam, p).is_zero() == \
                    (count_points(lam, p) == p + 1), (p, lv)
    _finish(2, "closed form vs coefficient extraction; Hasse zero iff count p+1",
            time.time() - t0, 60)


def test_criterion_3_f_discriminant():
    t0 = time.time()
    for p in PRIMES_TO_101:
        rep = f_discriminant_legendre(p)
        assert rep.divisor.coefficient(P1Point.infinity()) == Fraction(1, 2), p
        finite = [(pt, c) for pt, c in rep.divisor.sorted_entries()
                  if not pt.is_infinity]
        assert all(c == Fraction(1, p - 1) for _, c in finite), p
        assert len(finite) == (p - 1) // 2, p
        assert rep.degree == 1, p
    _finish(3, "boundary divisor: 1/2 at infinity, 1/(p-1) on the locus, degree 1",
            time.time() - t0, 30)


def test_criterion_4_double_cover_correspondence():
    t0 = time.time()
    for p in [q for q in PRIMES_TO_101 if q <= 31]:
        for lv in range(2, p):
            lam = FieldElement(lv, p)
            ordinary = not hasse_closed(lam, p).is_zero()
            B = parse_divisor(f"1/2@0,1/2@1,1/2@{lv},1/2@inf", p)
            assert gfs_p1(B, e_max=2).is_yes == ordinary, (p, lv)
    _finish(4, "half-weight quadruple splits iff the curve is ordinary",
            time.time() - t0, 60)


def test_criterion_5_cbf_equivalence():
    t0 = time.time()
    for p in (3, 5, 7, 13):
        assert cbf_iii_check(p) is True, p
        # both sides by the general routes, not the total space's proof
        total = gfs_bigraded_hypersurface(legendre_bigraded_poly(p), (3, 2))
        base = gfs_p1(f_discriminant_legendre(p).divisor).is_yes
        assert (total, base) == (True, True), p
    _finish(5, "total-space bigraded splitting iff base-couple splitting",
            time.time() - t0, 600)


def test_criterion_6_nodal_fpt():
    t0 = time.time()
    f = parse_poly("y^2 - x^3 + x^2", ["x", "y"], 5)
    seq = fpt_bounds(f, 3)
    assert seq.values == ((1, 4), (2, 24), (3, 124))
    for e, v in seq.values:
        assert v == 5 ** e - 1, e
        assert is_fpure_pair(f, 1, e), e
    assert seq.fpt_lower == Fraction(124, 125)
    assert seq.fpt_upper == Fraction(1)
    _finish(6, "nodal fiber: nu = q-1 through e=3, F-pure at t=1, bounds [124/125, 1]",
            time.time() - t0, 60)


def test_criterion_7_kgfr_density():
    t0 = time.time()
    rep = prime_scan(3, 31)
    assert rep.counts["not-KGFR"] == 0
    decided = rep.counts["KGFR"] + rep.counts["not-KGFR"]
    assert rep.counts["KGFR"] == decided  # every decided prime is KGFR
    total = len(rep.rows)
    assert total == 10
    assert Fraction(rep.counts["unknown"], total) <= Fraction(1, 5)
    # the base verdicts by the bounded search on each computed divisor
    for row in rep.rows:
        base = gfr_p1_bounded(f_discriminant_legendre(row.prime).divisor)
        assert row.base_status == base.status, row.prime
    _finish(7, "all decided primes in 3..31 are KGFR; unknown fraction <= 20%",
            time.time() - t0, 600)


def test_criterion_8_superadditivity_catalog():
    t0 = time.time()
    rep = check_superadditivity("legendre", p=5)
    assert (rep.kappa_total.value, rep.kappa_fiber.value, rep.kappa_base.value) == (1, 0, 1)
    assert rep.inequality_holds and rep.equality_observed

    rep = check_superadditivity("ruled", g=2, d=3)
    assert rep.kappa_total.value == 2 and rep.kappa_total.certified
    assert rep.kappa_base.value == NEG_INF and rep.kappa_base.certified
    assert rep.inequality_holds is False
    assert rep.hypothesis_flags["fixed_part_flag"] is True
    assert Fraction(rep.hypothesis_flags["fixed_part_limit"]) >= 1

    rep = check_superadditivity("product", ordinary=True)
    assert rep.inequality_holds and rep.equality_observed
    _finish(8, "catalog: equality case, ruled counterexample with flag, product case",
            time.time() - t0, 10)


def test_criterion_9_property_suites():
    t0 = time.time()
    from test_properties import (run_boundary_monotonicity_suite,
                                 run_field_axiom_suite,
                                 run_gfs_sublc_necessary_suite,
                                 run_json_roundtrip_suite,
                                 run_nu_monotonicity_suite,
                                 run_power_qm1_oracle_suite)
    volumes = {
        "field-axioms": run_field_axiom_suite(),
        "nu-monotonicity": run_nu_monotonicity_suite(),
        "gfs-boundary-monotonicity": run_boundary_monotonicity_suite(),
        "power-qm1-oracle": run_power_qm1_oracle_suite(),
        "json-roundtrip": run_json_roundtrip_suite(),
        "gfs-sublc-necessary": run_gfs_sublc_necessary_suite(),
    }
    assert all(v >= 100 for v in volumes.values()), volumes
    _finish(9, f"property suites green with volumes {volumes}",
            time.time() - t0, 600)
