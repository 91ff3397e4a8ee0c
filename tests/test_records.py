"""The result records are NamedTuples: what a frozen record must keep doing.

DoubleCover's normalised branch, read-only attributes, pickling and copying
(records are plain values, so a caller may store or ship them), hashes equal
to the field tuple's, and no mutable state shared between defaults.  The
constructor refusals are checked, message by message, beside each record's
other tests.
"""

import copy
import pickle

import pytest

from frobsplit.arith import FieldElement
from frobsplit.cover import CoverCheckReport, DoubleCover, pushforward_splitting_check
from frobsplit.elliptic import (CurveKgfrVerdict, LegendreCurve, SupersingularReport,
                                classify_curve_kgfr, supersingular_report)
from frobsplit.fedder import NuSequence, fpt_bounds
from frobsplit.fibration import (CbfSides, FDiscriminantReport, KgfrVerdict, ScanReport,
                                 ScanRow, cbf_sides, f_discriminant_legendre,
                                 is_kgfr_legendre, prime_scan)
from frobsplit.gsplit import GfsVerdict, P1Point, parse_divisor
from frobsplit.kappa import (CurveSectionGrowth, H0Interval, KappaResult,
                             RuledAnticanonical, SuperadditivityReport,
                             check_superadditivity, kappa_estimate)
from frobsplit.mpoly import parse_poly


def _one_of_each():
    cover = DoubleCover.legendre(2, 5)
    rep = pushforward_splitting_check(cover, parse_divisor("1/2@0,1/2@1,1/2@2,1/2@inf", 5), 1)
    return [
        LegendreCurve(FieldElement(2, 5), 5), supersingular_report(7),
        classify_curve_kgfr(0), fpt_bounds(parse_poly("x^2 + y^3", ["x", "y"], 5), 2),
        f_discriminant_legendre(7), is_kgfr_legendre(7), prime_scan(3, 30),
        prime_scan(3, 30).rows[0], cbf_sides(5), P1Point((3, 0)), GfsVerdict("yes"),
        cover, rep, H0Interval(1, 0, 2), kappa_estimate(CurveSectionGrowth(1, 1), 4),
        CurveSectionGrowth(1, 1), RuledAnticanonical(2, 3),
        check_superadditivity("ruled", g=2, d=3),
    ]


def test_one_record_of_each_class():
    classes = {type(r) for r in _one_of_each()}
    assert classes == {
        LegendreCurve, SupersingularReport, CurveKgfrVerdict, NuSequence,
        FDiscriminantReport, KgfrVerdict, ScanReport, ScanRow, CbfSides, P1Point,
        GfsVerdict, DoubleCover, CoverCheckReport, H0Interval, KappaResult,
        CurveSectionGrowth, RuledAnticanonical, SuperadditivityReport}


def test_double_cover_branch_reduced_and_trimmed():
    cover = DoubleCover([12, -1, 7, 0, 14], 7)
    assert cover.branch == (5, 6) and type(cover.branch) is tuple
    assert cover.degree == 1 and cover.branched_at_infinity
    assert cover == DoubleCover((5, 6), 7) and hash(cover) == hash(DoubleCover((5, 6), 7))
    assert DoubleCover(branch=(0, 1), prime=5).name == "double-cover"
    assert repr(DoubleCover.squaring_map(3)) == \
        "DoubleCover(branch=(0, 1), prime=3, name='x -> x^2')"


def test_records_are_read_only():
    for record in _one_of_each():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_survive_pickle():
    for record in _one_of_each():
        restored = pickle.loads(pickle.dumps(record))
        assert restored == record and type(restored) is type(record), record
    report = prime_scan(3, 60)
    restored = pickle.loads(pickle.dumps(report))
    assert restored.to_dict() == report.to_dict()
    assert all(type(r) is ScanRow for r in restored.rows)
    # MPoly and P1Divisor refuse attribute writes, so their copies go
    # through the constructor
    F = parse_poly("x^2 + 3*x*y - y^3", ["x", "y"], 5)
    B = parse_divisor("1/2@0,1/4@3+2t,1/4@inf", 5)
    for value, state in ((F, "terms"), (B, "entries")):
        for restored in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
            assert restored == value and type(restored) is type(value)
        assert getattr(copy.deepcopy(value), state) is not getattr(value, state)


def test_point_hash_is_the_field_tuple_hash():
    # the frozen dataclass hashed its field tuple too, so dict and set
    # orders keyed by points stay the same
    for value in (None, (0, 0), (3, 0), (2, 5), (10 ** 9 + 6, 1)):
        assert hash(P1Point(value)) == hash((value,))


def test_default_gfs_verdicts_share_no_mutable_evidence():
    a, b = GfsVerdict("yes"), GfsVerdict("no", reason="r")
    assert a.evidence is None and b.evidence is None
    assert a.to_dict() == {"status": "yes"} and b.to_dict() == {"status": "no", "reason": "r"}
    given = {"levels": [1, 2], "e_max": 2}
    v = GfsVerdict("unknown", evidence=given)
    assert v.evidence is given
    assert v.to_dict() == {"status": "unknown", "evidence": {"e_max": 2, "levels": [1, 2]}}
    assert GfsVerdict("unknown", evidence={}).to_dict() == {"status": "unknown"}


def test_record_fields_and_defaults():
    assert H0Interval(m=2, lower=1, upper=1).pinned
    assert KappaResult(0, 0, True).evidence == () and KappaResult(0, 0, True).note == ""
    assert CurveSectionGrowth(1, 0).degree_zero is None
    assert GfsVerdict("no") == GfsVerdict("no", None, None, (), "", None)
