import random
from fractions import Fraction

import pytest

from frobsplit.arith import ExtFieldElement, FieldElement, ZpViolationError
from frobsplit.elliptic import hasse_closed
from frobsplit.gsplit import (DoubleCover, P1Divisor, P1Point, gfr_p1_bounded,
                              gfs_bigraded_hypersurface, gfs_cy_hypersurface,
                              gfs_p1, gfs_p1_level, parse_divisor, parse_point,
                              pushforward_splitting_check)
from frobsplit.mpoly import parse_poly


# -- points and divisors -------------------------------------------------------

def test_point_normalization_and_parsing():
    assert P1Point(ExtFieldElement(3, 0, 5)) == P1Point(FieldElement(3, 5))
    assert parse_point("inf", 5).is_infinity
    assert parse_point("7", 5) == P1Point(FieldElement(2, 5))
    assert parse_point("3+2t", 5) == P1Point(ExtFieldElement(3, 2, 5))
    assert str(parse_point("3+2t", 5)) == "3+2t"
    with pytest.raises(ValueError):
        parse_point("3+2tt", 5)


def test_divisor_merging_and_degree():
    B = parse_divisor("1/2@0,1/4@0,1/4@inf", 5)
    assert B.coefficient(P1Point(FieldElement(0, 5))) == Fraction(3, 4)
    assert B.degree == 1
    assert len(B.support()) == 2
    # zero coefficients vanish
    C = parse_divisor("1/2@0,-1/2@0", 5)
    assert C == P1Divisor.zero(5)


def test_divisor_zp_enforcement():
    with pytest.raises(ZpViolationError):
        parse_divisor("1/5@0", 5)


# -- the P^1 splitting criterion -----------------------------------------------

def test_gfs_level_trivial_boundary():
    for p in (3, 5, 7):
        ok, j = gfs_p1_level(P1Divisor.zero(p), 1)
        assert ok and j == p - 1


def test_gfs_level_quadruple_examples():
    # supersingular lambda = 2 at p = 3: fails (Hasse vanishes)
    B = parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 3)
    assert gfs_p1_level(B, 1) == (False, None)
    # ordinary lambda = 2 at p = 5: the window coefficient is the Hasse value 3
    B = parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 5)
    assert gfs_p1_level(B, 1) == (True, 0)


def test_gfs_level_validation():
    B = parse_divisor("1/3@0", 5)
    with pytest.raises(ValueError):
        gfs_p1_level(B, 1)   # (5-1)/3 not integral
    ok, _ = gfs_p1_level(B, 2)
    assert ok
    with pytest.raises(ValueError):
        gfs_p1_level(parse_divisor("3/2@0", 5), 1)  # coefficient above 1


def test_gfs_p1_verdicts():
    assert gfs_p1(parse_divisor("1/4@0", 5), 2).is_yes
    v = gfs_p1(parse_divisor("3/2@0", 5))
    assert v.is_certified_no and "outside [0, 1]" in v.reason
    v = gfs_p1(parse_divisor("1@0,1@1,1@2", 5))
    assert v.is_certified_no and "sub-log-canonical" in v.reason
    # supersingular quadruple: No at every tested level
    B = parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 3)
    v = gfs_p1(B, e_max=4)
    assert v.status == "no" and v.levels_tested == (1, 2, 3, 4)


def test_toric_boundary_splits():
    # full toric boundary (0) + (inf) splits at level 1
    B = parse_divisor("1@0,1@inf", 5)
    ok, j = gfs_p1_level(B, 1)
    assert ok and j == 0


def test_certificate_replay():
    B = parse_divisor("1/2@0,1/2@1,1/2@3,1/2@inf", 7)
    v = gfs_p1(B)
    assert v.is_yes
    ok, j = gfs_p1_level(B, v.level)
    assert ok and j == v.certificate


def test_double_cover_correspondence_sample():
    # splitting of the half-weight quadruple detects ordinariness (point-count oracle)
    from frobsplit.elliptic import count_points
    for p in (5, 7, 13):
        for lv in range(2, p):
            B = parse_divisor(f"1/2@0,1/2@1,1/2@{lv},1/2@inf", p)
            assert gfs_p1(B, e_max=2).is_yes == (count_points(lv, p) != p + 1)


def test_boundary_monotonicity():
    # B' <= B and B splits at level e => B' splits at level e
    rng = random.Random(41)
    p = 5
    points = ["0", "1", "2", "inf"]
    for _ in range(40):
        nums = [rng.randrange(0, 5) for _ in points]  # quarters: (q-1)/4 integral
        B = parse_divisor(",".join(f"{n}/4@{pt}" for n, pt in zip(nums, points) if n), p)
        smaller = [rng.randrange(0, n + 1) for n in nums]
        Bp = parse_divisor(",".join(f"{n}/4@{pt}" for n, pt in zip(smaller, points) if n), p)
        assert Bp <= B
        if gfs_p1_level(B, 1)[0]:
            assert gfs_p1_level(Bp, 1)[0], (B, Bp)


def test_level_coherence():
    # splitting at level e persists at levels 2e and 3e; run on every
    # acceptance input shape with p <= 13: the half-weight quadruples and the
    # fibration boundary divisors, plus the empty boundary
    from frobsplit.fibration import f_discriminant_legendre
    cases = [P1Divisor.zero(5)]
    for p in (3, 5, 7, 11, 13):
        cases.append(f_discriminant_legendre(p).divisor)
        for lv in range(2, p):
            cases.append(parse_divisor(f"1/2@0,1/2@1,1/2@{lv},1/2@inf", p))
    coherent = 0
    for B in cases:
        if gfs_p1_level(B, 1)[0]:
            for k in (2, 3):
                assert gfs_p1_level(B, k)[0], (B, k)
                coherent += 1
    assert coherent > 40


# -- bounded global F-regularity -------------------------------------------------

def test_gfr_trivial_boundary():
    v = gfr_p1_bounded(P1Divisor.zero(5))
    assert v.is_yes
    assert v.evidence["generic_point"] is True
    assert v.evidence["points_tested"] == 26


def test_gfr_certified_no():
    v = gfr_p1_bounded(parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 5))
    assert v.is_certified_no  # degree 2 boundary is not log Fano
    v = gfr_p1_bounded(parse_divisor("1@0", 5))
    assert v.is_certified_no  # coefficient 1


def test_gfr_legendre_base_pair():
    # the base couple of the Legendre fibration at p = 5 must certify regular
    from frobsplit.fibration import f_discriminant_legendre
    v = gfr_p1_bounded(f_discriminant_legendre(5).divisor)
    assert v.is_yes
    assert v.evidence["aggregate_certificate"] is not None
    assert v.evidence["family_failures"] == []


def test_gfr_budget_exhaustion_reports_unknown():
    from frobsplit.fibration import f_discriminant_legendre
    v = gfr_p1_bounded(f_discriminant_legendre(5).divisor, perturbation_budget=3)
    assert v.status == "unknown"
    assert "truncated" in v.reason


# -- hypersurface criteria -------------------------------------------------------

def test_cy_hypersurface_examples():
    # Fermat cubic at p = 5: supersingular since 5 = 2 mod 3 (frozen oracle)
    F = parse_poly("x^3 + y^3 + z^3", ["x", "y", "z"], 5)
    assert not gfs_cy_hypersurface(F)
    # and ordinary at p = 7 (7 = 1 mod 3)
    F7 = parse_poly("x^3 + y^3 + z^3", ["x", "y", "z"], 7)
    assert gfs_cy_hypersurface(F7)
    # triangle of lines at p = 3: the diagonal coefficient is 1
    T = parse_poly("x*y*z", ["x", "y", "z"], 3)
    assert gfs_cy_hypersurface(T)
    with pytest.raises(ValueError):
        gfs_cy_hypersurface(parse_poly("x^2 + y*z", ["x", "y", "z"], 5))


def test_cy_matches_hasse_on_plane_cubics():
    # Legendre cubic: splitting equals Hasse nonvanishing, all lambda, p <= 13
    for p in (3, 5, 7, 11, 13):
        for lv in range(2, p):
            F = parse_poly(f"y^2*z - x*(x-z)*(x-{lv}*z)", ["x", "y", "z"], p)
            assert gfs_cy_hypersurface(F) == (not hasse_closed(lv, p).is_zero()), (p, lv)


def test_bigraded_examples():
    # toric bidegree-(2,1) hypersurface in P^1 x P^1 splits at p = 3
    F = parse_poly("x*y*u", ["x", "y", "u", "v"], 3)
    assert gfs_bigraded_hypersurface(F, (2, 2))
    # identically vanishing diagonal window: x0^2*u over P^1 x P^1 at p=3
    G = parse_poly("x^2*u", ["x", "y", "u", "v"], 3)
    assert not gfs_bigraded_hypersurface(G, (2, 2))
    with pytest.raises(ValueError):
        gfs_bigraded_hypersurface(parse_poly("x*u + y", ["x", "y", "u", "v"], 3), (2, 2))


def test_bigraded_legendre_total_space():
    from frobsplit.fibration import legendre_bigraded_poly
    for p in (3, 5, 7):
        F = legendre_bigraded_poly(p)
        assert gfs_bigraded_hypersurface(F, (3, 2)), p


# -- double covers ---------------------------------------------------------------

def test_squaring_cover_check():
    cover = DoubleCover.squaring_map(5)
    B = parse_divisor("1/2@0,1/2@inf", 5)
    rep = pushforward_splitting_check(cover, B, 1)
    assert rep.agree
    assert rep.source_boundary_zero
    assert rep.source_gfs is True and rep.target_gfs is True
    assert rep.verdicts_agree


def test_legendre_cover_ordinary_and_supersingular():
    rep = pushforward_splitting_check(
        DoubleCover.legendre(2, 5), parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 5), 1)
    assert rep.agree and rep.source_gfs and rep.target_gfs and rep.verdicts_agree

    rep = pushforward_splitting_check(
        DoubleCover.legendre(2, 3), parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 3), 1)
    assert rep.agree
    assert rep.source_gfs is False and rep.target_gfs is False
    assert rep.verdicts_agree


def test_cover_verdict_pair_across_levels_and_lambdas():
    for p in (5, 7):
        for lv in range(2, p):
            B = parse_divisor(f"1/2@0,1/2@1,1/2@{lv},1/2@inf", p)
            for e in (1, 2):
                rep = pushforward_splitting_check(DoubleCover.legendre(lv, p), B, e)
                assert rep.agree, (p, lv, e)
                assert rep.verdicts_agree, (p, lv, e)
                # level does not change supersingularity
                assert rep.source_gfs == (not hasse_closed(lv, p).is_zero())


def test_cover_rejects_non_effective_source():
    cover = DoubleCover.legendre(2, 5)
    # boundary below 1/2 at a branch point pulls back to a negative coefficient
    B = parse_divisor("1/4@0,1/2@1,1/2@2,1/2@inf", 5)
    with pytest.raises(ValueError):
        pushforward_splitting_check(cover, B, 2)


def test_cover_with_nonzero_effective_source_boundary():
    # extra weight at a non-branch point stays effective upstairs
    cover = DoubleCover.legendre(2, 5)
    B = parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf,1/4@3", 5)
    rep = pushforward_splitting_check(cover, B, 1)
    assert rep.agree
    assert not rep.source_boundary_zero
    assert rep.source_gfs is None  # verdict only computed for boundary zero


def test_cover_rejects_non_squarefree_branch():
    with pytest.raises(ValueError):
        DoubleCover(parse_poly("x^2", ["x"], 5))
