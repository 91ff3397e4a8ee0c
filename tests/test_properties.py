"""Property suites with seeded sampling; each suite runs >= 100 assertions.

Each run_* function returns the number of checks it performed so the
acceptance gate can verify the advertised volume.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from frobsplit.arith import ExtFieldElement, FieldElement
from frobsplit.cli import run
from frobsplit.fedder import nu
from frobsplit.gsplit import gfs_p1_level, parse_divisor
from frobsplit.mpoly import MPoly


def run_field_axiom_suite() -> int:
    """Associativity, commutativity, distributivity, inverses: 1000 samples
    per prime in {3, 5, 7, 13, 101}, plus extension-field samples."""
    checks = 0
    for p in (3, 5, 7, 13, 101):
        rng = random.Random(p * 1000 + 1)
        for _ in range(1000):
            a = FieldElement(rng.randrange(p), p)
            b = FieldElement(rng.randrange(p), p)
            c = FieldElement(rng.randrange(p), p)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == 1
            checks += 1
        for _ in range(200):
            x = ExtFieldElement(rng.randrange(p), rng.randrange(p), p)
            y = ExtFieldElement(rng.randrange(p), rng.randrange(p), p)
            z = ExtFieldElement(rng.randrange(p), rng.randrange(p), p)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == 1
            checks += 1
    return checks


def run_nu_monotonicity_suite() -> int:
    """nu_f(p^(e+1)) >= p * nu_f(p^e) across a polynomial family."""
    checks = 0
    rng = random.Random(202)
    family = []
    for p in (3, 5):
        for _ in range(25):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = (rng.randrange(0, 4), rng.randrange(0, 4))
                if exps == (0, 0):
                    exps = (1, 1)
                terms[exps] = rng.randrange(1, p)
            family.append(MPoly(2, p, terms))
    for f in family:
        values = [nu(f, e) for e in (1, 2)]
        assert values[1] >= f.p * values[0], f
        checks += 1
        assert 0 <= Fraction(values[0], f.p) <= 1
        checks += 1
    return checks


def run_boundary_monotonicity_suite() -> int:
    """B' <= B splitting monotonicity at fixed level, seeded quadruples."""
    checks = 0
    rng = random.Random(303)
    for p in (3, 5, 7):
        denom = p - 1
        points = ["0", "1", "2", "inf"]
        for _ in range(40):
            nums = [rng.randrange(0, denom + 1) for _ in points]
            smaller = [rng.randrange(0, n + 1) for n in nums]
            B = parse_divisor(
                ",".join(f"{n}/{denom}@{pt}" for n, pt in zip(nums, points) if n), p)
            Bp = parse_divisor(
                ",".join(f"{n}/{denom}@{pt}" for n, pt in zip(smaller, points) if n), p)
            assert Bp <= B
            if gfs_p1_level(B, 1)[0]:
                assert gfs_p1_level(Bp, 1)[0], (B, Bp)
            checks += 1
    return checks


def run_power_qm1_oracle_suite() -> int:
    """Frobenius-factored powering equals naive repeated squaring."""
    checks = 0
    rng = random.Random(404)
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        for _ in range(22):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = (rng.randrange(0, 4), rng.randrange(0, 4))
                terms[exps] = rng.randrange(1, p)
            f = MPoly(2, p, terms)
            assert f.power_qm1(e) == f ** (p ** e - 1), (p, e)
            checks += 1
    return checks


def run_json_roundtrip_suite() -> int:
    """Every emitted report parses back to the identical structure."""
    checks = 0
    invocations = []
    for p in (3, 5, 7, 13):
        invocations.append(["supersingular", "--p", str(p)])
        invocations.append(["fdisc", "--p", str(p)])
        invocations.append(["kgfr", "--p", str(p)])
        invocations.append(["cbf", "--p", str(p)])
        for lam in range(2, p):
            invocations.append(["hasse", "--p", str(p), "--lambda", str(lam)])
            invocations.append(
                ["gfs-p1", "--p", str(p),
                 "--divisor", f"1/2@0,1/2@1,1/2@{lam},1/2@inf"])
    for a in range(1, 5):
        for b in range(1, 5):
            invocations.append(["hasse", "--p", "5", "--lambda", f"{a}+{b}t"])
    for p in (3, 5, 7):
        for lam in range(2, p):
            invocations.append(
                ["cover-check", "--p", str(p), "--cover", "legendre",
                 "--lambda", str(lam),
                 "--divisor", f"1/2@0,1/2@1,1/2@{lam},1/2@inf"])
            invocations.append(
                ["gfs-cy", "--p", str(p), "--vars", "x,y,z",
                 "--poly", f"y^2*z - x*(x-z)*(x-{lam}*z)"])
    for poly in ("x*y", "y^2 - x^3 + x^2", "x^2 + y^3"):
        invocations.append(["fedder-nu", "--p", "5", "--poly", poly, "--vars", "x,y"])
        invocations.append(["fpt", "--p", "5", "--poly", poly, "--vars", "x,y",
                            "--emax", "2"])
    invocations.append(["scan", "--range", "3..13"])
    invocations.append(["catalog"])
    invocations.append(["kappa", "--case", "ruled:g=2,d=3"])
    invocations.append(["gfr-p1", "--p", "5", "--divisor", "1/2@inf"])
    for argv in invocations:
        with contextlib.redirect_stdout(io.StringIO()):
            code, report = run(argv + ["--json"])
        assert code == 0, argv
        blob = json.dumps(report, default=str)
        assert json.loads(blob) == json.loads(json.dumps(json.loads(blob)))
        assert json.loads(blob)["schema_version"] == "2"
        checks += 1
    return checks


def run_gfs_sublc_necessary_suite() -> int:
    """Splitting never happens above boundary degree 2 (1000 random B)."""
    checks = 0
    rng = random.Random(505)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        denom = p - 1
        points = ["0", "1", "2", "inf"]
        nums = [rng.randrange(0, denom + 1) for _ in points]
        B = parse_divisor(
            ",".join(f"{n}/{denom}@{pt}" for n, pt in zip(nums, points) if n), p)
        if gfs_p1_level(B, 1)[0]:
            assert B.degree <= 2
        checks += 1
    return checks


def test_field_axioms():
    assert run_field_axiom_suite() >= 100


def test_nu_monotonicity():
    assert run_nu_monotonicity_suite() >= 100


def test_boundary_monotonicity():
    assert run_boundary_monotonicity_suite() >= 100


def test_power_qm1_oracle():
    assert run_power_qm1_oracle_suite() >= 100


def test_json_roundtrip():
    assert run_json_roundtrip_suite() >= 100


def test_gfs_sublc_necessary():
    assert run_gfs_sublc_necessary_suite() >= 100
