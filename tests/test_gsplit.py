import contextlib
import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedder_oracle import _pruned_power_survives
from frobsplit import fedder, gsplit, upoly
from frobsplit.arith import (ExtFieldElement, FieldElement, ZpViolationError, is_prime,
                             quadratic_nonresidue)
from frobsplit.cli import run
from frobsplit.cover import DoubleCover, _routes_agree, pushforward_splitting_check
from frobsplit.elliptic import hasse_closed
from frobsplit.fedder import _CountLattice, _diagonal_coefficient, _half_power_diagonal
from frobsplit.gsplit import (GfsVerdict, P1Divisor, P1Point, gfr_p1_bounded,
                              gfs_bigraded_hypersurface, gfs_cy_hypersurface, gfs_p1,
                              gfs_p1_level, parse_divisor, parse_point)
from frobsplit.mpoly import MPoly, parse_poly


# -- points and divisors -------------------------------------------------------

def test_point_normalization_and_parsing():
    # a zero t-part is the prime-field point, and coordinates reduce mod p
    assert parse_point("3+0t", 5) == parse_point("8+5t", 5) == parse_point("3", 5) \
        == P1Point((3, 0))
    assert hash(parse_point("3+0t", 5)) == hash(parse_point("3", 5))
    assert parse_point("inf", 5).is_infinity
    assert parse_point("7", 5) == P1Point((2, 0))
    assert parse_point("3+2t", 5) == P1Point((3, 2))
    assert str(parse_point("3+2t", 5)) == "3+2t"
    # an empty real part reads as 0
    assert parse_point("-t", 5) == P1Point((0, 4))
    assert parse_point("-2t", 5) == P1Point((0, 3))
    assert parse_point("+t", 5) == P1Point((0, 1))
    # spaces may stand on either side of a sign, whatever follows it
    assert parse_point("3 + t", 5) == parse_point("3+t", 5) == P1Point((3, 1))
    assert parse_point("1 + 2t", 5) == parse_point("1+2*t", 5) == P1Point((1, 2))
    assert parse_point("- 2", 5) == parse_point("-2", 5) == P1Point((3, 0))
    assert parse_point("+1 - t", 5) == P1Point((1, 4))
    # a digit run followed by t is the t-part alone
    assert parse_point("32t", 5) == P1Point((0, 2))
    # refused: text after t, letters, an underscore or a non-ASCII digit, a
    # star without a digit, two signs in a row, nothing, two numbers
    for text in ("3+2tt", "abc", "1_0", "\u0663", "1_0+t", "*t", "3+-2t", "", "3 2"):
        with pytest.raises(ValueError, match=re.escape(f"bad point {text!r}")):
            parse_point(text, 5)


class _ObjectPoint:
    """P1Point as it was on field objects, kept as an oracle: the value is a
    FieldElement, an ExtFieldElement with a nonzero t-part, or None."""

    def __init__(self, value):
        if isinstance(value, ExtFieldElement) and value.is_base():
            value = value.to_base()
        self.value = value

    @property
    def field_level(self):
        return 1 if self.value is None or isinstance(self.value, FieldElement) else 2

    def sort_key(self):
        if self.value is None:
            return (2, 0, 0)
        if isinstance(self.value, FieldElement):
            return (0, self.value.value, 0)
        return (1, self.value.a, self.value.b)

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        return hash(("P1Point", self.value))

    def __str__(self):
        if self.value is None:
            return "inf"
        if isinstance(self.value, FieldElement):
            return str(self.value.value)
        return f"{self.value.a}+{self.value.b}t"


def test_point_pairs_match_object_model():
    # every point of P^1(F_{p^2}), each F_p point built both ways (a field
    # element and a t-part of 0), in a shuffled order
    rng = random.Random(11)
    for p in (3, 5, 7):
        pairs = [None] + [(a, b) for a in range(p) for b in range(p)] + \
            [(a, 0) for a in range(p)]
        objects = [None] + [ExtFieldElement(a, b, p) for a in range(p) for b in range(p)] + \
            [FieldElement(a, p) for a in range(p)]
        order = list(range(len(pairs)))
        rng.shuffle(order)
        new = [P1Point(pairs[i]) for i in order]
        old = [_ObjectPoint(objects[i]) for i in order]
        assert [str(x) for x in new] == [str(x) for x in old]
        assert [x.field_level for x in new] == [x.field_level for x in old]
        assert [parse_point(str(x), p) for x in new] == new
        assert [str(x) for x in sorted(new, key=P1Point.sort_key)] == \
            [str(x) for x in sorted(old, key=_ObjectPoint.sort_key)]
        for x, y in zip(new, old):
            for u, v in zip(new, old):
                assert (x == u) == (y == v), (x, u)
                if x == u:
                    assert hash(x) == hash(u) and hash(y) == hash(v)
        assert len(set(new)) == len(set(old)) == p * p + 1


def test_divisor_merging_and_degree():
    B = parse_divisor("1/2@0,1/4@0,1/4@inf", 5)
    assert B.coefficient(P1Point((0, 0))) == Fraction(3, 4)
    assert B.degree == 1
    assert len(B.support()) == 2
    # zero coefficients vanish
    C = parse_divisor("1/2@0,-1/2@0", 5)
    assert C == P1Divisor.zero(5)


def test_divisor_order_refuses_other_primes():
    # as for +, divisors over different primes do not compare
    B, C = parse_divisor("1/2@0", 5), parse_divisor("1/2@0,1/2@1", 7)
    for op in (lambda: B <= C, lambda: C <= B, lambda: B + C):
        with pytest.raises(ValueError, match="prime mismatch"):
            op()
    assert B <= parse_divisor("1/2@0,1/2@1", 5)


def test_divisor_zp_enforcement():
    with pytest.raises(ZpViolationError):
        parse_divisor("1/5@0", 5)


def test_divisor_constructor_contract():
    pt, inf = P1Point((2, 0)), P1Point.infinity()
    # an int, a Fraction, a string and a float each read as their Fraction
    for c, want in ((3, Fraction(3)), (Fraction(3, 4), Fraction(3, 4)), ("3/4", Fraction(3, 4)),
                    (0.75, Fraction(3, 4)), (-2, Fraction(-2))):
        B = P1Divisor(5, [(pt, c)])
        assert B.entries == {pt: want} and type(B.entries[pt]) is Fraction, c
    c = Fraction(3, 4)
    assert P1Divisor(5, [(pt, c)]).entries[pt] is c
    # negative coefficients are kept; a repeated point is summed in its first
    # place, and dropped where the sum is zero
    B = P1Divisor(5, [(pt, Fraction(1, 2)), (inf, Fraction(-1, 4)), (pt, "1/4")])
    assert list(B.entries.items()) == [(pt, Fraction(3, 4)), (inf, Fraction(-1, 4))]
    B = P1Divisor(5, [(pt, Fraction(1, 2)), (inf, 1), (pt, -0.5), (P1Point((1, 0)), 0)])
    assert list(B.entries.items()) == [(inf, Fraction(1))]
    assert B.degree == 1 and B.level() == 1
    # the error names the coefficient as a Fraction and the prime
    for c, text in ((Fraction(1, 5), "1/5"), ("3/10", "3/10"), (Fraction(2, 25), "2/25")):
        with pytest.raises(ZpViolationError,
                           match=f"^denominator of {text} is divisible by the working prime 5$"):
            P1Divisor(5, [(inf, Fraction(1, 2)), (pt, c)])
    # degree and level of the empty divisor, and of a mixed one
    zero = P1Divisor.zero(5)
    assert zero.degree == 0 and type(zero.degree) is Fraction and zero.level() == 1
    B = P1Divisor(5, [(pt, Fraction(1, 2)), (inf, Fraction(-1, 3))])
    assert B.degree == Fraction(1, 6) and type(B.degree) is Fraction and B.level() == 2


def test_divisor_exponent_notation_refused():
    # Fraction would read "1e999999999" as an integer of a billion digits; the
    # grammar has no exponents, so such text is refused before it is built
    for text in ("1e999999999@1", "1E3@inf", "2e0@1", "1/2@0,1e-5@1"):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_divisor(text, 5)
    assert parse_divisor("1/2@inf", 5) == P1Divisor(5, [(P1Point.infinity(), Fraction(1, 2))])
    assert parse_divisor("0.5@1", 5) == parse_divisor("1/2@1", 5)


def test_divisor_coefficient_reads_as_fraction_drawn():
    # the coefficient grammar is Fraction's without exponents, underscores or
    # non-ASCII digits: every text of ASCII digits that Fraction reads keeps
    # its value, and every text it refuses stays refused
    p, one = 13, P1Point((1, 0))
    outcomes = set()

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(_token_strings(["0", "1", "7", "/", ".", "+", "-", " "], 6))
    def check(text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            want = None
        try:
            got = parse_divisor(f"{text}@1", p).coefficient(one)
        except ZpViolationError:
            assert want is not None and want.denominator % p == 0, text
            return
        except ValueError:
            got = None
        assert got == want, text
        outcomes.add(got is None)

    check()
    assert outcomes == {True, False}
    for text in ("1_0/3@1", "1/1_0@1", "1.0_0@1", "\u0663/4@1", "1/\u0664@1", "\uff11@1"):
        with pytest.raises(ValueError, match="bad coefficient in"):
            parse_divisor(text, 5)


def test_long_numbers_are_named():
    # past int()'s 4,300-digit limit the error names the number, not
    # sys.set_int_max_str_digits
    nines = "9" * 5000
    for call in (lambda: parse_point(nines, 5), lambda: parse_point(f"1+{nines}t", 5),
                 lambda: parse_divisor(f"{nines}/1@1", 5),
                 lambda: parse_divisor(f"1/{nines}@1", 5),
                 lambda: parse_divisor(f"0.{nines}@1", 5),
                 lambda: parse_poly(f"x^{nines}", ["x"], 5),
                 lambda: parse_poly(f"{nines}*x", ["x"], 5)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == ("number 99999...99999 has 5000 digits, "
                                   "more than the 4300 that are read")
    # 4,300 digits are read
    assert parse_point("1" * 4300, 5) == P1Point((int("1" * 4300) % 5, 0))


@st.composite
def _divisors(draw):
    p = draw(st.sampled_from([3, 5, 7, 13]))
    point = st.one_of(
        st.just(P1Point.infinity()),
        st.integers(0, p - 1).map(lambda v: P1Point((v, 0))),
        st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)).map(P1Point))
    coeff = st.builds(Fraction, st.integers(-12, 12),
                      st.integers(1, 30).filter(lambda d: d % p))
    return P1Divisor(p, draw(st.lists(st.tuples(point, coeff), max_size=5)))


def test_divisor_text_roundtrip_drawn():
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_divisors())
    def check(B):
        text = ",".join(f"{c}@{pt}" for pt, c in B.sorted_entries())
        assert parse_divisor(text, B.prime) == B

    check()


def _token_strings(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


# entries 'coeff@point' and free token strings over the grammar's alphabet,
# with a p-divisible denominator and whitespace
_DIVISOR_TEXT = st.lists(
    st.one_of(st.builds("{}@{}".format, _token_strings(["0", "1", "5", "/", "-"], 4),
                        _token_strings(["0", "1", "3", "+", "-", "*", "t", "inf", " "], 4)),
              _token_strings(["0", "1", "/", "@", ",", "+", "-", "t", "inf", " "], 8)),
    max_size=3).map(",".join)


def test_parse_divisor_fuzz_parses_or_rejects():
    outcomes = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_DIVISOR_TEXT)
    def check(text):
        try:
            parse_divisor(text, 5)
            outcomes.add("parsed")
        except ValueError:
            outcomes.add("rejected")

    check()
    assert outcomes == {"parsed", "rejected"}


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
    assert v.evidence["family_failures"] == []


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


def _all_p2_points(p):
    """P^1(F_{p^2}) in the family order: inf, F_p by value, a+bt by (b, a)."""
    points = [P1Point.infinity()]
    points += [P1Point((v, 0)) for v in range(p)]
    points += [P1Point((a, b)) for b in range(1, p) for a in range(p)]
    return points


def _bruteforce_gfr(B, e_max):
    """gfr_p1_bounded by enumeration, for p <= 31: every centre of
    P^1(F_{p^2}) rebuilt as a perturbed divisor and tested at every level.

    Returns (the verdict's to_dict(), every failing centre).
    The generic point is decided by specialisation: its window coefficients
    are affine in the centre, so a nonzero one vanishes at one centre at
    most, and the generic point splits at a level iff some centre off the
    support does (there are at least two of them).
    """
    p = B.prime
    assert p <= 31
    assert all(0 < c < 1 for c in B.entries.values()) and B.degree < 2
    d = B.level()
    levels = tuple(range(d, e_max + 1, d))
    assert levels
    family = _all_p2_points(p)
    splits = {(pt, e): gfs_p1_level(B.add_point(pt, Fraction(1, p ** e - 1)), e)[0]
              for pt in family for e in levels}
    aggregate = None
    for e in levels:
        pert = B
        for pt in B.support() or [P1Point.infinity()]:
            pert = pert.add_point(pt, Fraction(1, p ** e - 1))
        ok, j = gfs_p1_level(pert, e)
        if ok:
            aggregate = [e, j]
            break
    off = [pt for pt in family if not pt.is_infinity and pt not in B.entries]
    assert len(off) >= 2
    generic_ok = any(splits[pt, e] for pt in off for e in levels)
    failing = [str(pt) for pt in family if not any(splits[pt, e] for e in levels)]
    evidence = {"aggregate_certificate": aggregate, "e_max": e_max,
                "family_failures": failing[:10], "generic_point": generic_ok,
                "levels": list(levels)}
    if aggregate and not failing and generic_ok:
        return {"status": "yes", "level": aggregate[0], "certificate": aggregate[1],
                "levels_tested": list(levels), "evidence": evidence}, failing
    reasons = []
    if aggregate is None:
        reasons.append("no aggregate certificate within e_max")
    if failing:
        reasons.append(f"{len(failing)} point perturbations undecided")
    if not generic_ok:
        reasons.append("generic perturbation undecided")
    return {"status": "unknown", "levels_tested": list(levels),
            "reason": "; ".join(reasons), "evidence": evidence}, failing


def _check_gfr_against_bruteforce(p, divisor, e_max):
    B = parse_divisor(divisor, p)
    want, failing = _bruteforce_gfr(B, e_max)
    assert gfr_p1_bounded(B, e_max).to_dict() == want, (p, divisor, e_max)
    return B, want, failing


def test_gfr_single_failing_centre_off_support():
    # in F_p, with inf off the support
    B, _, failing = _check_gfr_against_bruteforce(3, "1/2@2+1t,1/2@2+2t,1/2@1", 1)
    assert failing == ["0"] and P1Point.infinity() not in B.entries
    # in F_{p^2}, the last centre of the family, with inf on the support
    B, _, failing = _check_gfr_against_bruteforce(3, "1/2@inf,1/2@0,1/2@1+1t", 1)
    assert failing == ["2+2t"] and P1Point.infinity() in B.entries
    _, _, failing = _check_gfr_against_bruteforce(
        13, "5/12@9+9t,9/12@9+3t,6/12@5+1t,3/12@6+2t", 1)
    assert failing == ["4+2t"]
    # level-2 denominators, at e_max 2 and at e_max 3
    for divisor, e_max in (("4/8@0+2t,2/8@0+1t,1/8@1,5/8@2+1t,3/8@inf", 2),
                           ("4/8@inf,7/8@2+2t,2/8@2+1t,2/8@1+2t", 3)):
        B, want, failing = _check_gfr_against_bruteforce(3, divisor, e_max)
        assert B.level() == 2 and want["levels_tested"] == [2]
        assert failing == ["0"]


def test_gfr_every_centre_failing():
    cases = [(5, "1/4@0,1/4@1,1/4@2,1/4@3,1/4@4,2/4@inf", 1),    # g = x^5 - x
             (3, "6/8@0+2t,6/8@1+1t,3/8@2+1t", 2),               # level 2, inf off
             (5, "1/4@0+4t,1/4@4,2/4@2,1/4@2+3t,1/4@1+4t,1/4@4+3t", 3)]
    for p, divisor, e_max in cases:
        _, want, failing = _check_gfr_against_bruteforce(p, divisor, e_max)
        assert len(failing) == p * p + 1 and not want["evidence"]["generic_point"]
        assert len(want["evidence"]["family_failures"]) == 10
        assert len(want["levels_tested"]) == (3 if e_max == 3 else 1)


def test_gfr_failing_support_point_and_infinity():
    B, _, failing = _check_gfr_against_bruteforce(
        5, "1/4@0+3t,2/4@3+4t,3/4@1+4t,1/4@4+3t", 1)
    assert failing == ["4+3t"] and parse_point("4+3t", 5) in B.entries
    B, want, failing = _check_gfr_against_bruteforce(3, "3/4@1+1t,3/4@inf,1/4@1", 3)
    assert failing == ["1"] and parse_point("1", 3) in B.entries
    assert want["levels_tested"] == [2]
    B, _, failing = _check_gfr_against_bruteforce(3, "1/2@1+1t,1/2@0+2t,1/2@2", 1)
    assert failing == ["inf"] and P1Point.infinity() not in B.entries


def test_gfr_yes_cases_against_bruteforce():
    from frobsplit.fibration import f_discriminant_legendre
    for p, e_max in ((5, 3), (13, 2), (31, 2)):
        B = f_discriminant_legendre(p).divisor
        want, failing = _bruteforce_gfr(B, e_max)
        assert gfr_p1_bounded(B, e_max).to_dict() == want
        assert want["status"] == "yes" and failing == []


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
    # Legendre cubic: splitting equals Hasse nonvanishing, all lambda, p <= 13;
    # F-splitting does not depend on the level, so e = 2 agrees too
    verdicts = []
    for p in (3, 5, 7, 11, 13):
        for lv in range(2, p):
            F = parse_poly(f"y^2*z - x*(x-z)*(x-{lv}*z)", ["x", "y", "z"], p)
            for e in (1, 2):
                got = gfs_cy_hypersurface(F, e)
                assert got == (not hasse_closed(lv, p).is_zero()), (p, lv, e)
                verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_bigraded_examples():
    # toric bidegree-(2,1) hypersurface in P^1 x P^1 splits at p = 3
    F = parse_poly("x*y*u", ["x", "y", "u", "v"], 3)
    assert gfs_bigraded_hypersurface(F, (2, 2))
    # identically vanishing diagonal window: x0^2*u over P^1 x P^1 at p=3
    G = parse_poly("x^2*u", ["x", "y", "u", "v"], 3)
    assert not gfs_bigraded_hypersurface(G, (2, 2))
    with pytest.raises(ValueError):
        gfs_bigraded_hypersurface(parse_poly("x*u + y", ["x", "y", "u", "v"], 3), (2, 2))
    # a group of no variables is no projective space, even when the sizes
    # add up: -1 + 5 would read the last variable through range(-1, 4)
    for groups in ((0, 4), (4, 0), (-1, 5)):
        with pytest.raises(ValueError, match="at least one variable"):
            gfs_bigraded_hypersurface(F, groups)


def test_bigraded_legendre_total_space():
    from frobsplit.fibration import legendre_bigraded_poly
    for p in (3, 5, 7):
        F = legendre_bigraded_poly(p)
        assert gfs_bigraded_hypersurface(F, (3, 2)), p


# Full-expansion oracles for the two criteria: F^(q-1) expanded whole by
# MPoly.power_qm1, a path independent of fedder's pruned power.

def _cy_oracle(F, e):
    q = F.p ** e
    return F.power_qm1(e).terms.get((q - 1,) * F.nvars, 0) != 0


def _bigraded_oracle(F, e):
    q = F.p ** e
    return any(all(x <= q - 1 for x in exps) for exps in F.power_qm1(e).terms)


FERMAT3 = ("x^3 + y^3 + z^3", ["x", "y", "z"])
FERMAT4 = ("x^4 + y^4 + z^4 + w^4", ["x", "y", "z", "w"])


def _legendre_cone(lv, p):
    return parse_poly(f"y^2*z - x*(x-z)*(x-{lv}*z)", ["x", "y", "z"], p)


def test_cy_matches_full_expansion_oracle():
    verdicts = []
    for p in (3, 5, 7):
        for e in (1, 2):
            cases = [_legendre_cone(lv, p) for lv in range(2, p)]
            cases += [parse_poly(text, names, p) for text, names in (FERMAT3, FERMAT4)]
            for F in cases:
                got = gfs_cy_hypersurface(F, e)
                assert got == _cy_oracle(F, e), (F, e)
                verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_bigraded_matches_full_expansion_oracle():
    from frobsplit.fibration import legendre_bigraded_poly
    rng = random.Random(11)
    names = ["x", "y", "u", "v"]
    verdicts = []
    for p in (3, 5, 7):
        cases = [(legendre_bigraded_poly(p), (3, 2)),
                 (parse_poly("x*y*u", names, p), (2, 2)),
                 (parse_poly("x^2*u", names, p), (2, 2))]
        for _ in range(4):
            a, b = rng.randrange(1, 3), rng.randrange(1, 3)
            terms = {(i, a - i, j, b - j): rng.randrange(1, p)
                     for i, j in {(rng.randrange(a + 1), rng.randrange(b + 1))
                                  for _ in range(rng.randrange(1, 4))}}
            cases.append((MPoly(4, p, terms), (2, 2)))
        for e in (1, 2):
            for F, groups in cases:
                got = gfs_bigraded_hypersurface(F, groups, e)
                assert got == _bigraded_oracle(F, e), (F, groups, e)
                verdicts.append(got)
    assert set(verdicts) == {True, False}


def _exponents(k, d):
    """Exponent vectors of k variables adding up to d, from k - 1 cut points
    in [0, d] (no filtering, which hypothesis's health check refuses)."""
    def gaps(cuts):
        ends = sorted(cuts) + [d]
        return tuple(b - a for a, b in zip([0] + ends, ends))
    return st.lists(st.integers(0, d), min_size=k - 1, max_size=k - 1).map(gaps)


def _forms(draw, sizes, degrees, p):
    """A nonzero form over F_p: one homogeneous block of the given degree per
    group of variables (the group sizes), a few random terms."""
    blocks = [_exponents(k, d) for k, d in zip(sizes, degrees)]
    monomial = st.tuples(*blocks).map(lambda parts: sum(parts, ()))
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=5))
    return MPoly(sum(sizes), p, terms)


@st.composite
def _cy_forms(draw):
    """(F, e): degree n in n variables, with q^(n-1) <= 729 so that the full
    expansion of F^(q-1) stays small."""
    p, e, n = draw(st.sampled_from([(p, e, n) for p in (3, 5, 7) for e in (1, 2, 3)
                                    for n in (2, 3, 4) if (p ** e) ** (n - 1) <= 729]))
    return _forms(draw, (n,), (n,), p), e


def test_cy_diagonal_equals_full_expansion_drawn():
    verdicts = set()

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_cy_forms())
    def check(case):
        F, e = case
        p = F.p
        want = (F ** (p - 1)).terms.get((p - 1,) * F.nvars, 0)
        assert _CountLattice(F).diagonal() == _half_power_diagonal(F) == want, F
        assert _diagonal_coefficient(F) == want, F
        got = gfs_cy_hypersurface(F, e)
        assert got == _cy_oracle(F, e), (F, e)
        verdicts.add(got)

    check()
    assert verdicts == {True, False}


@st.composite
def _bigraded_forms(draw):
    """(F, groups): a form of bidegree (a, b) <= the group sizes (g1, g2) at
    p <= 11; bidegree (0, 0) is a nonzero constant."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    groups = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    degrees = tuple(draw(st.integers(0, g)) for g in groups)
    return _forms(draw, groups, degrees, p), groups


def test_bigraded_equals_digit_table_drawn():
    # the level-1 loop's verdict against the digit-table power F^(p-1) mod
    # m^[p]; seen: F^(p-1) survives, F^(p-1) dies, and F^(p-2) dies already
    seen = set()

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_bigraded_forms())
    def check(case):
        F, groups = case
        p = F.p
        got = gfs_bigraded_hypersurface(F, groups)
        assert got == _pruned_power_survives(F, p - 1, p), (F, groups)
        seen.add((got, _pruned_power_survives(F, p - 2, p)))

    check()
    assert seen == {(True, True), (False, True), (False, False)}


@st.composite
def _cy_forms_to_13(draw):
    """A Calabi-Yau form, degree n in n variables, at p <= 13 with up to six
    terms."""
    p, n = draw(st.sampled_from([(p, n) for p in (3, 5, 7, 11, 13) for n in (2, 3, 4)]))
    terms = draw(st.dictionaries(_exponents(n, n), st.integers(1, p - 1), min_size=1, max_size=6))
    return MPoly(n, p, terms)


def test_cy_lattice_sum_equals_half_power_drawn():
    # the two routes are each other's oracle wherever at most two counts are free
    free = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_cy_forms_to_13())
    def check(F):
        lattice = _CountLattice(F)
        assume(len(lattice.coeffs) - lattice.rank <= 2)
        assert lattice.diagonal() == _half_power_diagonal(F), F
        free.add(len(lattice.coeffs) - lattice.rank)

    check()
    assert free == {0, 1, 2}


def test_cy_route_rule(monkeypatch):
    # the half power runs only for forms with two or more free counts
    halves = []
    monkeypatch.setattr(fedder, "_half_power_diagonal", lambda F: halves.append(F) or 0)

    def _takes_lattice_sum(F):
        halves.clear()
        _diagonal_coefficient(F)
        return not halves

    xyz, xyzw = FERMAT3[1], FERMAT4[1]
    assert _takes_lattice_sum(parse_poly(*FERMAT4, 1009))
    assert _takes_lattice_sum(parse_poly("x^4+y^4+z^4+w^4-12*x*y*z*w", xyzw, 1009))
    assert _takes_lattice_sum(parse_poly("y^2*z-x*(x-z)*(x-3*z)", xyz, 1009))
    # six terms, three free counts
    assert not _takes_lattice_sum(parse_poly("x^3+y^3+z^3+x^2*y+y^2*z+x*y*z", xyz, 31))
    # five terms, two free counts
    assert not _takes_lattice_sum(parse_poly("x^3+y^3+z^3+x^2*y+x*y*z", xyz, 13))
    # every gfs-cy form the hypersurface-split benchmark sends, at any seed
    for p in (5, 7, 11, 13, 17, 19, 23):
        for lam in range(2, p):
            assert _takes_lattice_sum(parse_poly(f"y^2*z-x*(x-z)*(x-{lam}*z)", xyz, p)), (p, lam)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert _takes_lattice_sum(parse_poly(*FERMAT3, p)), p
    for p in (5, 7, 11, 13, 17, 19):
        assert _takes_lattice_sum(parse_poly(*FERMAT4, p)), p


def test_legendre_cone_diagonal_is_the_hasse_invariant():
    # the diagonal coefficient of y^2 z - x(x - z)(x - lam z) is H_p(lam)
    # itself, not only zero with it: gsplit and elliptic agree exactly
    for p in filter(is_prime, range(5, 100)):
        for lam in range(2, p):
            F = MPoly(3, p, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): 1 + lam, (1, 0, 2): -lam})
            assert _diagonal_coefficient(F) == hasse_closed(lam, p).value, (p, lam)


@st.composite
def _bigraded_forms(draw):
    """(F, groups) over F_3 in four variables, bidegree within the groups."""
    g1 = draw(st.integers(1, 3))
    groups = (g1, 4 - g1)
    degrees = (draw(st.integers(0, g1)), draw(st.integers(0, 4 - g1)))
    return _forms(draw, groups, degrees, 3), groups


def test_bigraded_equals_full_expansion_at_level_3_drawn():
    # the criterion runs at level 1; the oracle expands F^26 whole
    verdicts = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_bigraded_forms())
    def check(case):
        F, groups = case
        got = gfs_bigraded_hypersurface(F, groups, 3)
        assert got == _bigraded_oracle(F, 3), (F, groups)
        verdicts.add(got)

    check()
    assert verdicts == {True, False}


def test_fermat_cubic_splits_iff_p_is_1_mod_3():
    # the Fermat cubic curve is ordinary iff p = 1 mod 3 (p = 3 is excluded:
    # there it is the triple line (x + y + z)^3)
    verdicts = {}
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 43):
        F = parse_poly(*FERMAT3, p)
        for e in (1, 2) if p <= 13 else (1,):
            verdicts[p, e] = gfs_cy_hypersurface(F, e)
            assert verdicts[p, e] == (p % 3 == 1), (p, e)
    assert set(verdicts.values()) == {True, False}


def test_fermat_quartic_splits_iff_p_is_1_mod_4():
    # the Fermat quartic K3 surface is F-split iff p = 1 mod 4
    verdicts = {}
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        F = parse_poly(*FERMAT4, p)
        for e in (1, 2) if p <= 7 else (1,):
            verdicts[p, e] = gfs_cy_hypersurface(F, e)
            assert verdicts[p, e] == (p % 4 == 1), (p, e)
    assert set(verdicts.values()) == {True, False}


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


def test_cover_rejects_branch_point_outside_support():
    # a branch point off the support has coefficient 0 < 1/2, so the source
    # boundary is -1 times the ramification point over it
    for cover, text in (
            (DoubleCover.squaring_map(11), "1/2@inf,1/2@1"),
            (DoubleCover.legendre(2, 5), "1/2@0,1/2@1,1/2@inf,1/4@3"),
            (DoubleCover((-quadratic_nonresidue(7), 0, 1), 7), "1/2@0+1t")):
        with pytest.raises(ValueError, match="outside the divisor's support"):
            pushforward_splitting_check(cover, parse_divisor(text, cover.prime), 1)


def test_cover_rejects_non_squarefree_branch():
    squarefree = r"^branch polynomial must be squarefree \(separable cover\)$"
    with pytest.raises(ValueError, match=squarefree):
        DoubleCover((0, 0, 1), 5)  # x^2
    with pytest.raises(ValueError, match=squarefree):
        DoubleCover((1, 2, 1), 7)  # (x + 1)^2
    for zero in ((5, 0), ()):  # zero mod 5, and no coefficients at all
        with pytest.raises(ValueError, match="^branch polynomial must be a nonzero univariate$"):
            DoubleCover(zero, 5)


def test_branch_values_equal_the_polynomial_route():
    # is_branch_value on int pairs against f evaluated on field elements by
    # MPoly.eval_univariate, at every point of P^1(F_49)
    p = 7
    points = [P1Point.infinity()] + [P1Point((a, b)) for a in range(p) for b in range(p)]
    for cover in [DoubleCover.squaring_map(p)] + [DoubleCover.legendre(lv, p)
                                                  for lv in range(2, p)]:
        f = MPoly(1, p, {(i,): c for i, c in enumerate(cover.branch)})
        branch = set()
        for pt in points:
            want = (f.degree() % 2 == 1 if pt.is_infinity
                    else f.eval_univariate(pt.element(p)).is_zero())
            assert cover.is_branch_value(pt) == want, (cover.name, pt)
            if want:
                branch.add(str(pt))
        lv = cover.branch[1]  # legendre: x^3 - (1 + lambda)*x^2 + lambda*x
        assert branch == ({"0", "inf"} if cover.degree == 1 else {"0", "1", str(lv), "inf"})


# -- the integer kernel against field-object arithmetic ----------------------------
#
# upoly's sparse kernel works on plain ints: a coefficient a + b*t is the pair
# (a, b), with b = 0 on F_p.  The helpers below are the same kernel on
# FieldElement / ExtFieldElement coefficients, kept as an oracle: a point of
# F_p becomes a FieldElement, any other an ExtFieldElement, and the field
# arithmetic keeps FieldElement exactly while no F_{p^2} coefficient meets
# it.  They take the kernel's signatures, so they can stand in for it in
# gsplit and cover.

def _obj_coeff(pair, p):
    a, b = pair
    return ExtFieldElement(a, b, p) if b else FieldElement(a, p)


def _obj_umul(f, g, p=None):
    out = {}
    small, big = (f, g) if len(f) <= len(g) else (g, f)
    for d1, c1 in small.items():
        for d2, c2 in big.items():
            d = d1 + d2
            v = out.get(d)
            v = c1 * c2 if v is None else v + c1 * c2
            if v.is_zero():
                out.pop(d, None)
            else:
                out[d] = v
    return out


def _obj_upow_small(f, k, p):
    result = {0: FieldElement(1, p)}
    base = f
    while k:
        if k & 1:
            result = _obj_umul(result, base)
        k >>= 1
        if k:
            base = _obj_umul(base, base)
    return result


def _obj_ufrob(f, j, p):
    s = p ** j
    return {d * s: c.frobenius() if j % 2 == 1 else c for d, c in f.items()}


def _obj_upow_frobenius(f, n, p):
    # the branch polynomial arrives from gsplit as int pairs
    f = {d: _obj_coeff(c, p) if isinstance(c, tuple) else c for d, c in f.items()}
    if n == 0:
        return {0: FieldElement(1, p)}
    pieces = []
    j = 0
    while n:
        d = n % p
        if d:
            pieces.append(_obj_ufrob(_obj_upow_small(f, d, p), j, p))
        n //= p
        j += 1
    return functools.reduce(_obj_umul, pieces)


def _obj_boundary_poly(finite_parts, p):
    one = FieldElement(1, p)
    by_n = {}
    for pt, n in finite_parts:
        if n == 0:
            continue
        u = {1: one, 0: -_obj_coeff(pt, p)}
        by_n[n] = _obj_umul(by_n[n], u) if n in by_n else u
    prod = {0: one}
    for n, u in sorted(by_n.items()):
        prod = _obj_umul(prod, _obj_upow_frobenius(u, n, p))
    return prod


def _obj_cartier_pick(poly, q, p, e):
    out = {}
    odd = e % 2 == 1
    for m, c in poly.items():
        if m % q == q - 1:
            if odd:
                c = c.frobenius()
            out[(m - (q - 1)) // q] = c
    return out


def _cartier_pick(poly, q, p, e):
    """x^m -> x^((m-(q-1))/q) on m = q-1 mod q, with coefficient q-th roots,
    on the integer kernel's coefficients."""
    out = {}
    odd = e % 2 == 1
    for m, c in poly.items():
        if m % q == q - 1:
            if odd:
                c = (c[0], -c[1] % p)  # c^(1/p) = c^p = conj(c) on F_{p^2}
            out[(m - (q - 1)) // q] = c
    return out


def _loop_routes_agree(lhs_core, g_y, q, p, e, degree_range):
    """cover._routes_agree as a scan: shift both products by x^i, apply the
    level-e selector to each and compare, for every i until one differs."""
    tested = 0
    for i in range(degree_range):
        lhs = _cartier_pick({d + i: c for d, c in lhs_core.items()}, q, p, e)
        rhs = _cartier_pick({d + i: c for d, c in g_y.items()}, q, p, e)
        tested += 1
        if lhs != rhs:
            return False, tested
    return True, tested


# every binding of an integer kernel that gsplit and cover call
_OBJECT_KERNEL = {"frobsplit.gsplit._boundary_poly": _obj_boundary_poly,
                  "frobsplit.gsplit._umul": _obj_umul,
                  "frobsplit.cover._boundary_poly": _obj_boundary_poly,
                  "frobsplit.cover._umul": _obj_umul,
                  "frobsplit.cover._upow_frobenius": _obj_upow_frobenius}


@contextlib.contextmanager
def _object_kernel():
    """gsplit and cover with the field-object kernel in place of the integer one."""
    with pytest.MonkeyPatch.context() as mp:
        for target, fn in _OBJECT_KERNEL.items():
            mp.setattr(target, fn)
        yield


def _as_ints(poly):
    return {d: (c.a, c.b) for d, c in poly.items() if not c.is_zero()}


# (p, level) with p^level small enough for the object kernel
_SMALL_LEVELS = [(p, e) for p in (3, 5, 7, 11, 13) for e in (1, 2, 3) if p ** e <= 343]


@st.composite
def _finite_points(draw, p, max_size):
    point = st.one_of(st.integers(0, p - 1).map(lambda v: (v, 0)),
                      st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)))
    return draw(st.lists(point, min_size=1, max_size=max_size, unique=True))


@st.composite
def _boundary_parts(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    e = draw(st.integers(1, 3))
    q = p ** e
    # the object kernel is the slow side: fewer points the larger q
    max_size = 5 if q <= 13 else 3 if q <= 343 else 1
    points = draw(_finite_points(p, max_size))
    return p, [(pt, draw(st.integers(0, q - 1))) for pt in points]


def test_boundary_poly_equals_object_oracle_drawn():
    fields = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(_boundary_parts())
    def check(drawn):
        p, parts = drawn
        ext = any(b for (_, b), _ in parts)
        got, want = upoly._boundary_poly(parts, p), _obj_boundary_poly(parts, p)
        assert got == _as_ints(want), (p, parts)
        assert all(0 <= a < p and 0 <= b < p and (a or b) for a, b in got.values())
        # an all-F_p divisor's polynomial lies in F_p[x], on both sides
        if not ext:
            assert all(b == 0 for _, b in got.values()), (p, parts)
            assert all(type(c) is FieldElement for c in want.values()), (p, parts)
        for e in (1, 2):  # the Cartier selector, whose q-th root is Frobenius^e
            assert _cartier_pick(got, p ** e, p, e) == \
                _as_ints(_obj_cartier_pick(want, p ** e, p, e)), (p, parts, e)
        fields.add(ext)

    check()
    assert fields == {False, True}


def _rescaled(nums, total, den):
    """nums in [1, den - 1] moved to sum to total where those bounds allow."""
    nums = [max(1, min(den - 1, round(k * total / sum(nums)))) for k in nums]
    for i in range(len(nums)):
        nums[i] = max(1, min(den - 1, nums[i] + total - sum(nums)))
    return nums


@st.composite
def _couples(draw, primes, max_q, max_points, below_two):
    """(B, e_max): coefficients k/den in (0, 1), den | p^level - 1, on
    distinct points of P^1(F_{p^2}), often of total degree 2 (below_two:
    between 1 and 2), where the window is narrow and splitting can fail."""
    p, level = draw(st.sampled_from([(p, e) for p, e in _SMALL_LEVELS
                                     if p in primes and p ** e <= max_q]))
    q = p ** level
    den = draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    points = [P1Point(pt) for pt in draw(_finite_points(p, max_points - 1))]
    if draw(st.booleans()):
        points.append(P1Point.infinity())
    nums = [draw(st.integers(1, den - 1)) for _ in points]
    if draw(st.integers(0, 3)):
        total = draw(st.integers(den + 1, 2 * den - 1)) if below_two else 2 * den
        nums = _rescaled(nums, total, den)
    B = P1Divisor(p, [(pt, Fraction(k, den)) for pt, k in zip(points, nums)])
    e_max = level if draw(st.booleans()) else draw(st.sampled_from(
        [e for e in (2 * level, 3 * level) if p ** e <= max_q] or [level]))
    return B, e_max


def test_gfs_p1_equals_object_oracle_drawn():
    verdicts = set()

    # "no" needs the one window coefficient of a degree-2 boundary to vanish
    # at every level: about one draw in twenty
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_couples((3, 5, 7, 11, 13), 343, 5, below_two=False))
    def check(drawn):
        B, e_max = drawn
        got = gfs_p1(B, e_max).to_dict()
        with _object_kernel():
            assert gfs_p1(B, e_max).to_dict() == got, (B, e_max)
        verdicts.add(got["status"])

    check()
    assert {"yes", "no"} <= verdicts


def test_gfr_p1_equals_object_oracle_drawn():
    verdicts = set()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_couples((3, 5, 7), 49, 4, below_two=True))
    def check(drawn):
        B, e_max = drawn
        if B.degree >= 2:
            return  # certified-no: no boundary polynomial
        got = gfr_p1_bounded(B, e_max).to_dict()
        with _object_kernel():
            assert _bruteforce_gfr(B, e_max)[0] == got, (B, e_max)
        verdicts.add(got["status"])

    check()
    assert verdicts == {"yes", "unknown"}


# -- one boundary product per level against the two-product route -------------------
#
# gfs_p1 and gfr_p1_bounded as they were before each level's g was shared:
# coefficients read by Fraction arithmetic, the aggregate's polynomial built
# from scratch with every support exponent raised by one, and the
# perturbations' g built again.  Kept as an oracle for the shared route.

def _two_product_level_data(B, e):
    q = B.prime ** e
    finite_parts, n_inf = [], 0
    for point, c in B.sorted_entries():
        if c < 0 or c > 1:
            raise ValueError(f"coefficient {c} at {point} outside [0, 1]")
        n = c * (q - 1)
        if n.denominator != 1:
            raise ValueError(f"(p^e - 1)*B is not integral at level e = {e}")
        if point.is_infinity:
            n_inf = int(n)
        else:
            finite_parts.append((point.value, int(n)))
    return q, finite_parts, n_inf


def _two_product_window(q, finite_parts, n_inf, p):
    S = sum(n for _, n in finite_parts)
    D = 2 * (q - 1) - n_inf - S
    if D < 0:
        return False, None
    if S <= q - 1:
        return True, q - 1 - S
    g = upoly._boundary_poly(finite_parts, p)
    for k in range(min(q - 1, S), max(0, q - 1 - D) - 1, -1):
        if k in g:
            return True, q - 1 - k
    return False, None


def _two_product_perturbed(q, finite_parts, n_inf, p):
    S = sum(n for _, n in finite_parts)
    D = 2 * (q - 1) - n_inf - S - 1
    if D < 0:
        return "all", False
    if S + 1 <= q - 1:
        return None, True
    g = upoly._boundary_poly(finite_parts, p)
    window = range(max(0, q - 1 - D), q)
    inf_ok = any(k in g for k in window)
    roots = set()
    for k in window:
        lead, low = g.get(k), g.get(k - 1)
        if lead is None:
            if low is not None:
                return None, inf_ok
            continue
        a, b = upoly._udiv(low or (0, 0), lead, p)
        roots.add(1 + p * b + a)
    if not roots:
        return "all", inf_ok
    return (roots.pop() if len(roots) == 1 else None), inf_ok


def _two_product_gfs(B, e_max):
    for _, c in B.sorted_entries():
        if c < 0 or c > 1:
            return GfsVerdict("certified-no", reason=f"coefficient {c} outside [0, 1]")
    if B.degree > 2:
        return GfsVerdict("certified-no", reason="deg B > 2: not sub-log-canonical")
    levels = tuple(range(B.level(), e_max + 1, B.level()))
    if not levels:
        return GfsVerdict("unknown", reason="no admissible level within e_max")
    for e in levels:
        ok, j = _two_product_window(*_two_product_level_data(B, e), B.prime)
        if ok:
            return GfsVerdict("yes", level=e, certificate=j, levels_tested=levels)
    return GfsVerdict("no", levels_tested=levels)


def _two_product_gfr(B, e_max):
    p = B.prime
    for point, c in B.sorted_entries():
        if c >= 1:
            return GfsVerdict("certified-no", reason=f"coefficient {c} at {point} is >= 1")
        if c < 0:
            return GfsVerdict("certified-no", reason=f"coefficient {c} at {point} is negative")
    if B.degree >= 2:
        return GfsVerdict("certified-no", reason="deg B >= 2: boundary is not log Fano")
    levels = tuple(range(B.level(), e_max + 1, B.level()))
    evidence = {"e_max": e_max, "levels": list(levels)}
    if not levels:
        return GfsVerdict("unknown", reason="no admissible level within e_max",
                          evidence=evidence)
    data = [(e, _two_product_level_data(B, e)) for e in levels]
    aggregate = None
    for e, (q, finite_parts, n_inf) in data:
        E0_inf = 1 if n_inf or not finite_parts else 0
        ok, j = _two_product_window(q, [(elt, n + 1) for elt, n in finite_parts],
                                    n_inf + E0_inf, p)
        if ok:
            aggregate = (e, j)
            break
    perturbed = [_two_product_perturbed(q, finite_parts, n_inf, p)
                 for _, (q, finite_parts, n_inf) in data]
    outcomes = {finite for finite, _ in perturbed} - {"all"}
    if not outcomes:
        failing = range(p * p + 1)
    else:
        failing = [] if any(inf_ok for _, inf_ok in perturbed) else [0]
        if len(outcomes) == 1 and None not in outcomes:
            failing += outcomes
    evidence.update({
        "aggregate_certificate": list(aggregate) if aggregate else None,
        "family_failures": [str(gsplit._centre_at(i, p)) for i in failing[:10]],
        "generic_point": bool(outcomes),
    })
    if aggregate and not failing and outcomes:
        return GfsVerdict("yes", level=aggregate[0], certificate=aggregate[1],
                          levels_tested=levels, evidence=evidence)
    reasons = []
    if aggregate is None:
        reasons.append("no aggregate certificate within e_max")
    if failing:
        reasons.append(f"{len(failing)} point perturbations undecided")
    if not outcomes:
        reasons.append("generic perturbation undecided")
    return GfsVerdict("unknown", levels_tested=levels, reason="; ".join(reasons),
                      evidence=evidence)


@contextlib.contextmanager
def _recorded_products(calls):
    """gsplit with each boundary polynomial's parts appended to calls, and
    every _umul refusing the unit polynomial as a factor."""
    boundary, umul = upoly._boundary_poly, upoly._umul

    def recorded(finite_parts, p):
        calls.append(list(finite_parts))
        return boundary(finite_parts, p)

    def refusing_unit(f, g, p):
        assert {0: (1, 0)} not in (f, g), (f, g)
        return umul(f, g, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("frobsplit.gsplit._boundary_poly", recorded)
        mp.setattr("frobsplit.gsplit._umul", refusing_unit)
        mp.setattr("frobsplit.upoly._umul", refusing_unit)
        yield


def _aggregate_only(B):
    """At B's first level the perturbations need no polynomial (S + 1 <= q - 1)
    and the aggregate does (q - 1 < S + #finite, its window open)."""
    q, finite_parts, n_inf = gsplit._level_data(B, B.level())
    S, F = sum(n for _, n in finite_parts), len(finite_parts)
    E0_inf = 1 if n_inf or not finite_parts else 0
    return S + 1 <= q - 1 < S + F and 2 * (q - 1) - n_inf - E0_inf - S - F >= 0


@st.composite
def _couples_to_level_3(draw):
    """(B, e_max), p in {3, ..., 13}, e_max <= 3 with p^e_max <= 343:
    coefficients k/den in (0, 1), den | p^d - 1 for a level d <= e_max.  One
    draw in three puts den = p^d - 1 and the finite numerators' sum in
    [q - #finite, q - 2], where at level d only the aggregate's window needs a
    polynomial."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    e_max = draw(st.integers(1, max(e for e in (1, 2, 3) if p ** e <= 343)))
    q = p ** draw(st.integers(1, e_max))
    band = draw(st.integers(0, 2)) == 0
    den = q - 1 if band else draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    finite = draw(_finite_points(p, 5))
    nums = [draw(st.integers(1, den - 1)) for _ in finite]
    if band and len(finite) >= 2:
        nums = _rescaled(nums, draw(st.integers(q - len(finite), q - 2)), den)
    entries = [(P1Point(pt), Fraction(k, den)) for pt, k in zip(finite, nums)]
    if draw(st.booleans()):
        entries.append((P1Point.infinity(), Fraction(draw(st.integers(1, den - 1)), den)))
    return P1Divisor(p, entries), e_max


def test_shared_boundary_products_equal_the_two_product_route_drawn():
    aggregate_only, statuses = 0, set()

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(_couples_to_level_3())
    def check(drawn):
        nonlocal aggregate_only
        B, e_max = drawn
        calls = []
        with _recorded_products(calls):
            gfs = gfs_p1(B, e_max).to_dict()
            del calls[:]
            gfr = gfr_p1_bounded(B, e_max).to_dict()
        assert gfs == _two_product_gfs(B, e_max).to_dict(), (B, e_max)
        assert gfr == _two_product_gfr(B, e_max).to_dict(), (B, e_max)
        # one Frobenius-powered g per tested level at most, besides which
        # only the support polynomial prod (x - c_i) is built, once
        levels = gfr.get("levels_tested", [])
        powered = [parts for parts in calls if any(n > 1 for _, n in parts)]
        assert len(powered) <= len(levels) and len(calls) <= len(levels) + 1, (B, calls)
        if levels and _aggregate_only(B):
            aggregate_only += 1
            assert calls, B
        statuses.add((gfs["status"], gfr["status"]))

    check()
    assert aggregate_only >= 20, aggregate_only
    assert {s for s, _ in statuses} >= {"yes", "no"}
    assert {s for _, s in statuses} >= {"yes", "unknown", "certified-no"}


def test_gfr_query_forms_one_boundary_product_per_level(capsys):
    # at p = 3 the perturbations need g at each of levels 2, 4 and 6; the
    # aggregate, whose level-2 window is empty and which is certified at
    # level 4, multiplies level 4's g by prod (x - c_i): three
    # Frobenius-powered products and the support polynomial, nothing more
    calls = []
    argv = ["gfr-p1", "--p", "3", "--divisor", "1/2@0,1/2@1,1/4@2,1/2@1+1t", "--emax", "6"]
    with _recorded_products(calls):
        assert run(argv)[0] == 0
    assert "aggregate_certificate:\n        - 4\n" in capsys.readouterr().out
    assert [max(n for _, n in parts) for parts in calls] == [40, 1, 4, 364], calls


@st.composite
def _cover_cases(draw):
    """(cover, B, e) with the source boundary effective: at least 1/2 at each
    branch point, anything in [0, 1] elsewhere."""
    p, level = draw(st.sampled_from([(p, e) for p, e in _SMALL_LEVELS if p ** e <= 125]))
    q = p ** level
    den = draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0 and d % 2 == 0]))
    kind = draw(st.sampled_from(["squaring", "legendre", "quadratic"]))
    if kind == "squaring":
        cover, branch = DoubleCover.squaring_map(p), ["0", "inf"]
    elif kind == "legendre":
        lv = draw(st.integers(2, p - 1))
        cover, branch = DoubleCover.legendre(lv, p), ["0", "1", str(lv), "inf"]
    else:  # branched at the roots +-t of x^2 - t^2, off the prime field
        cover = DoubleCover((-quadratic_nonresidue(p), 0, 1), p)
        branch = ["0+1t", f"0+{p - 1}t"]
    entries = [f"{draw(st.integers(den // 2, den))}/{den}@{pt}" for pt in branch]
    others = draw(_finite_points(p, 2))
    entries += [f"{draw(st.integers(0, den))}/{den}@{P1Point(pt)}" for pt in others
                if str(P1Point(pt)) not in branch]
    e = draw(st.sampled_from([1, 2])) if level == 1 else level
    return cover, parse_divisor(",".join(entries), p), e


def test_pushforward_equals_object_oracle_drawn():
    verdicts = set()

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(_cover_cases())
    def check(drawn):
        cover, B, e = drawn
        got = pushforward_splitting_check(cover, B, e)
        with _object_kernel():
            assert pushforward_splitting_check(cover, B, e) == got, (cover, B, e)
        verdicts.add(got.target_gfs)

    check()
    assert verdicts == {True, False}


def test_pushforward_equals_scan_drawn():
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(_cover_cases())
    def check(drawn):
        cover, B, e = drawn
        got = pushforward_splitting_check(cover, B, e)

        def scan(lhs, rhs, q, degree_range):
            return _loop_routes_agree(lhs, rhs, q, cover.prime, e, degree_range)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("frobsplit.cover._routes_agree", scan)
            assert pushforward_splitting_check(cover, B, e) == got, (cover, B, e)

    check()


@st.composite
def _route_products(draw):
    """(lhs, rhs, q, p, e, degree_range): an integer-kernel UPoly and a copy
    with a few degrees changed or dropped, so that some residue classes mod
    q agree and some differ."""
    p, e = draw(st.sampled_from(_SMALL_LEVELS))
    q = p ** e
    coeff = (st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any)
             if draw(st.booleans()) else st.integers(1, p - 1).map(lambda a: (a, 0)))
    lhs = draw(st.dictionaries(st.integers(0, 3 * q), coeff, max_size=12))
    rhs = dict(lhs)
    for d in draw(st.lists(st.integers(0, 3 * q), max_size=2)):
        if draw(st.booleans()):
            rhs.pop(d, None)
        else:
            rhs[d] = draw(coeff)
    return lhs, rhs, q, p, e, draw(st.integers(0, 3 * q))


def test_routes_agree_at_a_large_level():
    # decided from the residue classes mod q, not by scanning 2q monomials
    q = 3 ** 30
    same = {0: (1, 0), q + 4: (2, 1)}
    assert _routes_agree(same, dict(same), q, 2 * q) == (True, 2 * q)
    # classes 4 and 5 differ; the first bad monomial is x^i, i = q - 1 - 5
    other = {0: (1, 0), q + 4: (2, 2), 5: (1, 0)}
    assert _routes_agree(same, other, q, 2 * q) == (False, q - 5)
    assert _routes_agree(same, other, q, q - 6) == (True, q - 6)


def test_routes_agree_equals_scan_drawn():
    outcomes = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_route_products())
    def check(case):
        lhs, rhs, q, p, e, degree_range = case
        got = _routes_agree(lhs, rhs, q, degree_range)
        assert got == _loop_routes_agree(lhs, rhs, q, p, e, degree_range), case
        outcomes.add((got[0], lhs == rhs))

    check()
    # equal products, products that differ somewhere the scan reaches, and
    # products that differ only where it does not
    assert outcomes == {(True, True), (False, False), (True, False)}


def test_umul_slot_width_on_the_largest_sums():
    # with every coefficient (p-1)(1 + t), the middle slot of degree L - 1
    # sums 2*L*(p-1)^2, the most its width K is chosen for
    for p in (3, 5, 13, 101):
        for L in (1, 2, 3, 8, 33):
            f = {i: (p - 1, p - 1) for i in range(L)}
            obj = {i: ExtFieldElement(p - 1, p - 1, p) for i in range(L)}
            assert upoly._umul(f, f, p) == _as_ints(_obj_umul(obj, obj)), (p, L)


def test_high_level_couples_fail_at_every_level():
    # the object kernel needed ~7 s and ~3.5 s for these; the verdicts only
    # are asserted here
    v = gfs_p1(parse_divisor("1/2@1+3t,1/4@6,1/2@inf,1/2@4+3t,1/4@3+4t", 7), e_max=4)
    assert (v.status, v.levels_tested) == ("no", (2, 4))
    v = gfs_p1(parse_divisor("5/8@2+4t,5/8@3,1/2@inf,1/4@3+4t", 5), e_max=8)
    assert (v.status, v.levels_tested) == ("no", (2, 4, 6, 8))


def test_level_tests_build_no_field_elements(field_elements_built):
    # the boundary polynomial and the failing-centre search run on ints: a
    # level-2 couple at p = 7, whose polynomial has degree 72 > q - 1, builds
    # no FieldElement or ExtFieldElement, while the object kernel builds
    # thousands, so the oracle tests above compare two different kernels
    B = parse_divisor("1/2@1+3t,1/4@6,1/2@inf,1/2@4+3t,1/4@3+4t", 7)
    assert gfs_p1_level(B, 2) == (False, None)
    q, parts, n_inf = gsplit._level_data(B, 2)
    gsplit._perturbed_level(q, sum(n for _, n in parts), n_inf, 7,
                            lambda: upoly._boundary_poly(parts, 7))
    assert field_elements_built == []
    with _object_kernel():
        assert gfs_p1(B, 2).status == "no"
    assert field_elements_built.count(ExtFieldElement) > 1000, len(field_elements_built)
