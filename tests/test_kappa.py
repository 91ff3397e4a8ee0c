from fractions import Fraction

import pytest

from frobsplit.kappa import (CATALOG, NEG_INF, CurveSectionGrowth, H0Interval,
                             RuledAnticanonical, check_superadditivity,
                             h0_curve, h0_ruled_anticanonical, kappa_estimate,
                             match_expectation)


def test_h0_curve_examples():
    assert h0_curve(2, 3) == H0Interval(1, 2, 2)      # Riemann-Roch: 3 + 1 - 2
    assert h0_curve(2, -1) == H0Interval(1, 0, 0)
    assert h0_curve(2, 2) == H0Interval(1, 1, 2)      # RR lower 1, Clifford upper 2
    assert h0_curve(3, 0, "trivial") == H0Interval(1, 1, 1)
    assert h0_curve(3, 0, "generic") == H0Interval(1, 0, 0)
    assert h0_curve(0, 4) == H0Interval(1, 5, 5)
    with pytest.raises(ValueError):
        h0_curve(-1, 0)
    with pytest.raises(ValueError):
        h0_curve(2, 0, "stable")


def test_interval_sanity():
    with pytest.raises(ValueError, match=r"^bad interval \[3, 2\]$"):
        H0Interval(1, 3, 2)
    with pytest.raises(ValueError, match=r"^bad interval \[-1, 2\]$"):
        H0Interval(1, -1, 2)
    # degree-determined regimes are pinned
    for d in (-5, -1, 3, 4, 10):
        iv = h0_curve(2, d)
        assert iv.pinned


# -- the ruled-surface degree ladder ---------------------------------------------

def _ladder_oracle(g, d_D, m):
    """Brute-force summation of the symmetric-power summands."""
    lo = hi = 0
    t = 2 * g - 2 + d_D
    for k in range(2 * m + 1):
        iv = h0_curve(g, m * d_D - k * t)
        lo += iv.lower
        hi += iv.upper
    return lo, hi


def test_ruled_m1_positivity():
    # the m = 1 count must certify strictly positive sections (bigness entry
    # point of the construction); validates the ladder normalization
    iv = h0_ruled_anticanonical(2, 3, 1)
    assert iv.lower == iv.upper == 2
    assert iv.lower > 0


def test_ruled_ladder_matches_oracle():
    # the closed form against the rung-by-rung sum, over the smallest valid
    # deg D = 2g - 1 and a few above it, where the band rung varies with m
    for g in range(2, 7):
        for d_D in range(2 * g - 1, 2 * g + 5):
            for m in range(1, 101):
                iv = h0_ruled_anticanonical(g, d_D, m)
                assert (iv.lower, iv.upper) == _ladder_oracle(g, d_D, m), (g, d_D, m)


def test_ruled_quadratic_growth():
    src = RuledAnticanonical(2, 3)
    lows = [src.h0(m).lower for m in range(1, 21)]
    # lower bounds grow at least quadratically along doubling
    assert lows[19] >= 3 * lows[9] >= 9 * lows[4] / 3
    assert lows[19] > 0
    # count of contributing summands is proportional to m
    assert src.k_max(20) == 12 and src.k_max(10) == 6


def test_ruled_fixed_part_limit():
    src = RuledAnticanonical(2, 3)
    # k_max(m) = floor(3m/5) so the bound tends to 2 - 3/5 = 7/5, from above
    assert src.fixed_part_limit() == Fraction(7, 5)
    for m in (5, 10, 100, 1000):
        assert src.fixed_part_bound(m) >= Fraction(7, 5)
    assert src.fixed_part_bound(1000) - Fraction(7, 5) < Fraction(1, 100)
    assert src.fixed_part_limit() >= 1


def test_ruled_parameter_validation():
    with pytest.raises(ValueError, match="^the ruled construction needs genus >= 2$"):
        RuledAnticanonical(1, 3)
    with pytest.raises(ValueError, match="^deg D must exceed 2g - 2$"):
        RuledAnticanonical(2, 2)


# -- kappa estimation --------------------------------------------------------------

def test_kappa_trivial_examples():
    res = kappa_estimate(CurveSectionGrowth(1, 0, "trivial"), 10)
    assert res.value == 0 and res.certified
    res = kappa_estimate(CurveSectionGrowth(0, 2), 10)     # 2m + 1 sections
    assert res.value == 1 and res.certified
    res = kappa_estimate(CurveSectionGrowth(2, -2), 10)    # negative multiples
    assert res.value == NEG_INF and res.certified
    assert all(iv.upper == 0 for iv in res.evidence)


def test_kappa_degree_zero_flags():
    assert kappa_estimate(CurveSectionGrowth(2, 0, "trivial"), 5).value == 0
    assert kappa_estimate(CurveSectionGrowth(2, 0, "generic"), 5).value == NEG_INF
    res = kappa_estimate(CurveSectionGrowth(2, 0), 5)
    assert not res.certified and res.value is None
    assert (res.low, res.high) == (NEG_INF, 0)


def test_kappa_ruled_certified_two():
    res = kappa_estimate(RuledAnticanonical(2, 3), 20)
    assert res.value == 2 and res.certified


def test_kappa_empty_range_rejected():
    with pytest.raises(ValueError):
        kappa_estimate(CurveSectionGrowth(1, 0, "trivial"), 0)
    with pytest.raises(ValueError):
        check_superadditivity("ruled", 0)


def test_legendre_h0_is_m_plus_1():
    # -K_X = f^*O(1) on the Legendre surface
    src = CurveSectionGrowth(0, 1)
    for m in range(1, 51):
        iv = src.h0(m)
        assert iv.lower == iv.upper == m + 1


def test_product_and_elliptic_fiber_counts():
    # -K = pr^*O(2) on (elliptic curve) x P^1; -K of an elliptic curve is trivial
    for m in range(1, 51):
        assert CurveSectionGrowth(0, 2).h0(m) == H0Interval(m, 2 * m + 1, 2 * m + 1)
        assert CurveSectionGrowth(1, 0, "trivial").h0(m) == H0Interval(m, 1, 1)


# -- the superadditivity catalog ----------------------------------------------------

def test_legendre_case():
    rep = check_superadditivity("legendre", p=5)
    assert rep.kappa_total.value == 1
    assert rep.kappa_fiber.value == 0
    assert rep.kappa_base.value == 1
    assert rep.conclusive and rep.inequality_holds and rep.equality_observed
    assert rep.hypothesis_flags["kgfr"] == "KGFR"


def test_ruled_case_counterexample():
    rep = check_superadditivity("ruled", g=2, d=3)
    assert rep.kappa_total.value == 2 and rep.kappa_total.certified
    assert rep.kappa_base.value == NEG_INF and rep.kappa_base.certified
    assert rep.kappa_fiber.value == 1
    assert rep.conclusive
    assert rep.inequality_holds is False
    assert rep.hypothesis_flags["fixed_part_flag"] is True
    assert Fraction(rep.hypothesis_flags["fixed_part_limit"]) >= 1


def test_product_cases():
    rep = check_superadditivity("product", ordinary=True)
    assert rep.inequality_holds and rep.equality_observed
    assert rep.hypothesis_flags["kgfr"] == "KGFR"
    rep = check_superadditivity("product", ordinary=False)
    assert rep.inequality_holds  # the dimension count does not see ordinarity
    assert rep.hypothesis_flags["kgfr"] == "not-KGFR"


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        check_superadditivity("mystery")
    # unknown keys, values of the wrong kind, and the retired aliases
    for case_id, params, word in (("legendre", {"q": 7}, "'q'"),
                                  ("legendre", {"m_max": 3}, "'m_max'"),
                                  ("legendre", {"p": True}, "integer"),
                                  ("ruled", {"d_D": 3}, "'d_D'"),
                                  ("product", {"ordinary": 2}, "true or false"),
                                  ("product-ordinary", {}, "product-ordinary")):
        with pytest.raises(ValueError, match=word):
            check_superadditivity(case_id, **params)


def test_catalog_file_runs_clean():
    assert {row[0] for row in CATALOG} == {"legendre", "ruled", "product"}
    for case_id, params, expected, basis in CATALOG:
        rep = check_superadditivity(case_id, **params)
        ok, problems = match_expectation(rep, expected)
        assert ok, (case_id, params, problems)


# The reports of the CATALOG rows, in order: kappa of total space, fiber and
# base; conclusive, inequality_holds, equality_observed; the flags.
_PINNED = (
    (("1", "0", "1"), (True, True, True), {"fiber_gfs": True, "kgfr": "KGFR"}),
    (("2", "1", "-inf"), (True, False, False),
     {"fixed_part_bounds": {"1": "2", "5": "7/5", "10": "7/5", "20": "7/5"},
      "fixed_part_flag": True, "fixed_part_limit": Fraction(7, 5)}),
    (("1", "0", "1"), (True, True, True),
     {"base_gfr": "yes", "fiber_gfs": True, "kgfr": "KGFR"}),
    (("1", "0", "1"), (True, True, True),
     {"base_gfr": "yes", "fiber_gfs": False, "kgfr": "not-KGFR"}),
)


@pytest.mark.parametrize("row, pinned", zip(CATALOG, _PINNED, strict=True),
                         ids=[row[0] + ":" + ",".join(f"{k}={v}" for k, v in row[1].items())
                              for row in CATALOG])
def test_catalog_row_reports(row, pinned):
    kappas, verdict, flags = pinned
    rep = check_superadditivity(row[0], **row[1])
    assert (rep.kappa_total.describe(), rep.kappa_fiber.describe(),
            rep.kappa_base.describe()) == kappas
    assert (rep.conclusive, rep.inequality_holds, rep.equality_observed) == verdict
    assert rep.hypothesis_flags == flags
