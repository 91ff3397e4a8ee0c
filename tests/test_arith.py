import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from frobsplit.arith import (ExtFieldElement, FieldElement,
                             ZpViolationError, _factorials, binom_mod_p, is_prime,
                             legendre_symbol, parse_int, quadratic_nonresidue,
                             splitting_level)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101]
    composites = [0, 1, 4, 9, 15, 91, 100]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def test_parse_int_reads_what_int_reads_in_ascii():
    # sign and surrounding whitespace as int() takes them, ASCII digits only
    for text in ("5", " 5", "5\n", "+5", "-5", " -007 ", "0", "-0", "9" * 30):
        assert parse_int(text) == int(text), text
    for text in ("", " ", "+", "-", "1_0", "\u0665", "5\u0665", "+-5", "- 5", "5 5", "0x5",
                 "5.0", "\uff15"):
        with pytest.raises(ValueError):
            parse_int(text)


def test_field_element_basics():
    a = FieldElement(15, 31)
    b = FieldElement(20, 31)
    assert a + b == 4
    assert a - b == 26
    assert a * b == (15 * 20) % 31
    assert (a / b) * b == a
    assert -a == 16
    assert a ** 0 == 1
    assert a.inverse() * a == 1
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, 31).inverse()


def test_even_or_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 2)
    with pytest.raises(ValueError):
        FieldElement(1, 9)
    with pytest.raises(ValueError):
        binom_mod_p(4, 2, 10)


def test_nonresidue_by_euler():
    for p in (3, 5, 7, 13, 101):
        n = quadratic_nonresidue(p)
        assert legendre_symbol(n, p) == -1
        # everything below n is a square
        for m in range(1, n):
            assert legendre_symbol(m, p) in (0, 1)


def test_ext_field_basics():
    x = ExtFieldElement(3, 2, 5)
    y = ExtFieldElement(1, 4, 5)
    assert (x * y) * x == x * (y * x)
    assert x * x.inverse() == 1
    assert x.frobenius().frobenius() == x
    # Frobenius is conjugation: t -> -t
    assert x.frobenius() == ExtFieldElement(3, -2, 5)
    assert ExtFieldElement(4, 0, 5).is_base()
    assert ExtFieldElement(4, 0, 5).to_base() == FieldElement(4, 5)
    with pytest.raises(ValueError):
        ExtFieldElement(1, 1, 5).to_base()
    # one model of F_{p^2}, t^2 = quadratic_nonresidue(p): no other nonresidue
    with pytest.raises(TypeError):
        ExtFieldElement(0, 1, 7, 5)


def test_ext_field_norm_and_square_structure():
    # x * conj(x) equals the norm, and the norm is multiplicative
    for p in (3, 5, 13):
        rng = random.Random(p)
        for _ in range(50):
            x = ExtFieldElement(rng.randrange(p), rng.randrange(p), p)
            y = ExtFieldElement(rng.randrange(p), rng.randrange(p), p)
            assert x * x.frobenius() == x.norm()
            assert (x * y).norm() == x.norm() * y.norm()


# one arithmetic for F_p and F_{p^2}, against int formulas ----------------------

def _model_field(p):
    """(n, mul, inv) on pairs (a, b) = a + b*t, t^2 = n: n by a scan for a
    non-square and the inverse by search, sharing nothing with arith."""
    squares = {y * y % p for y in range(p)}
    n = min(x for x in range(2, p) if x not in squares)

    def mul(x, y):
        return (x[0] * y[0] + n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

    pairs = [(a, b) for a in range(p) for b in range(p)]
    inv = {x: next(y for y in pairs if mul(x, y) == (1, 0)) for x in pairs if x != (0, 0)}
    return n, mul, inv


def _model_pow(x, k, mul, inv):
    base, r = (inv[x] if k < 0 else x), (1, 0)
    for _ in range(abs(k)):
        r = mul(r, base)
    return r


@pytest.mark.parametrize("p", [3, 5])
def test_field_arithmetic_against_int_formulas(p):
    n, mul, inv = _model_field(p)
    # (operand, its pair, its kind): every element of both classes, and ints
    operands = ([(FieldElement(a, p), (a, 0), "F") for a in range(p)]
                + [(ExtFieldElement(a, b, p), (a, b), "E") for a in range(p) for b in range(p)]
                + [(k, (k % p, 0), "int") for k in (-p - 1, -1, 0, 1, 2, p, 3 * p + 2)])

    def check(got, pair, kind):
        assert (type(got), got.a, got.b, got.modulus) == (
            FieldElement if kind == "F" else ExtFieldElement, *pair, p)
        assert repr(got) == (f"F{p}({pair[0]})" if kind == "F"
                             else f"F{p}^2({pair[0]}+{pair[1]}t)")

    for x, (a1, b1), k1 in operands:
        for y, (a2, b2), k2 in operands:
            if k1 == k2 == "int":
                continue
            # F_p with F_p or an int stays in F_p; anything else is F_{p^2}
            kind = "F" if {k1, k2} <= {"F", "int"} else "E"
            check(x + y, ((a1 + a2) % p, (b1 + b2) % p), kind)
            check(x - y, ((a1 - a2) % p, (b1 - b2) % p), kind)
            check(x * y, mul((a1, b1), (a2, b2)), kind)
            if (a2, b2) != (0, 0):
                check(x / y, mul((a1, b1), inv[a2, b2]), kind)
            assert (x == y) == ((a1, b1) == (a2, b2)) == (y == x) == (not x != y)
            if (x == y) and k1 != "int" and k2 != "int":
                assert hash(x) == hash(y)
        if k1 == "int":
            continue
        check(-x, (-a1 % p, -b1 % p), k1)
        check(x.frobenius(), _model_pow((a1, b1), p, mul, inv), k1)
        norm = mul((a1, b1), (a1, -b1 % p))
        assert norm[1] == 0
        check(x.norm(), norm, "F")
        assert bool(x) == (not x.is_zero()) == ((a1, b1) != (0, 0))
        for k in range(-p - 2, 2 * p + 3):
            if (a1, b1) == (0, 0) and k < 0:
                with pytest.raises(ZeroDivisionError):
                    x ** k
            else:
                check(x ** k, _model_pow((a1, b1), k, mul, inv), k1)
        if (a1, b1) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            with pytest.raises(ZeroDivisionError):
                1 / x
        else:
            check(x.inverse(), inv[a1, b1], k1)
            check(3 / x, mul((3 % p, 0), inv[a1, b1]), k1)
    # elements of different fields compare unequal, whichever class
    for x in (FieldElement(1, 3), ExtFieldElement(1, 0, 3)):
        for y in (FieldElement(1, 5), ExtFieldElement(1, 0, 5)):
            assert x != y and not x == y and y != x


def test_one_arithmetic_result_builds_one_element(field_elements_built):
    x, y = FieldElement(2, 7), FieldElement(3, 7)
    z = ExtFieldElement(2, 5, 7)
    cases = [(lambda: x + y, FieldElement), (lambda: x * 3, FieldElement),
             (lambda: 3 - x, FieldElement), (lambda: x / y, FieldElement),
             (lambda: 1 / x, FieldElement), (lambda: -x, FieldElement),
             (lambda: x ** -5, FieldElement), (lambda: x.inverse(), FieldElement),
             (lambda: x.frobenius(), FieldElement), (lambda: z.norm(), FieldElement),
             (lambda: x + z, ExtFieldElement), (lambda: z * x, ExtFieldElement),
             (lambda: 4 / z, ExtFieldElement), (lambda: x / z, ExtFieldElement),
             (lambda: z ** 9, ExtFieldElement), (lambda: z.frobenius(), ExtFieldElement)]
    for op, cls in cases:
        field_elements_built.clear()
        assert type(op()) is cls
        assert field_elements_built == [cls]


def test_elements_pickle_and_copy():
    # the constructor rebuilds them: the slots cannot be set past __setattr__
    for x in (FieldElement(1, 5), FieldElement(2, 7), ExtFieldElement(1, 2, 5),
              ExtFieldElement(3, 0, 7)):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and type(y) is type(x) and hash(y) == hash(x), (x, y)
            assert (y.a, y.b, y.modulus) == (x.a, x.b, x.modulus)


# binomials ------------------------------------------------------------------

def test_binom_examples():
    assert binom_mod_p(4, 2, 5) == 1        # 6 mod 5
    assert binom_mod_p(2, 1, 5) == 2
    assert binom_mod_p(7, 1, 7) == 0        # C(p, 1) = 0 mod p
    assert binom_mod_p(3, 7, 5) == 0        # k > n


def test_binom_against_exact_factorials():
    # oracle: exact big-integer factorials, every n < 3p
    for p in (3, 5, 7, 13):
        for n in range(3 * p):
            for k in range(n + 1):
                exact = math.factorial(n) // (math.factorial(k) * math.factorial(n - k))
                assert binom_mod_p(n, k, p) == exact % p, (n, k, p)


def test_factorial_table_against_exact_factorials():
    # the one table of k! and 1/k! mod p that elliptic and fedder share
    from frobsplit import elliptic, fedder
    assert elliptic._factorials is fedder._factorials is _factorials
    for p in (3, 5, 7, 13, 101):
        fact, inv_fact = _factorials(p)
        assert len(fact) == len(inv_fact) == p
        for k in range(p):
            assert fact[k] == math.factorial(k) % p, (p, k)
            assert fact[k] * inv_fact[k] % p == 1, (p, k)


def _binom_mod_p_multiplicative(n, k, p):
    """Factorial-free oracle: prod (n-k+i)/i with the p-adic valuation
    tracked separately so every factor is a unit mod p."""
    if k > n:
        return 0
    val, unit = 0, 1
    for i in range(1, k + 1):
        num, den = n - k + i, i
        while num % p == 0:
            num //= p
            val += 1
        while den % p == 0:
            den //= p
            val -= 1
        unit = unit * (num % p) * pow(den % p, p - 2, p) % p
    return 0 if val > 0 else unit


def test_binom_large_against_multiplicative_formula():
    rng = random.Random(12345)
    assert binom_mod_p(10 ** 6, 5 * 10 ** 5, 101) == \
        _binom_mod_p_multiplicative(10 ** 6, 5 * 10 ** 5, 101)
    for _ in range(6):
        n = rng.randrange(10 ** 4)
        k = rng.randrange(10 ** 4)
        assert binom_mod_p(n, k, 101) == _binom_mod_p_multiplicative(n, k, 101), (n, k)
        # second opinion from exact big integers on the smaller cases
        if k <= n:
            assert binom_mod_p(n, k, 101) == math.comb(n, k) % 101


# splitting levels -------------------------------------------------------------

def _splitting_level_oracle(coeffs, p):
    e = 1
    while True:
        if all((Fraction(c) * (p ** e - 1)).denominator == 1 for c in coeffs):
            return e
        e += 1


def test_splitting_level_examples():
    assert splitting_level([Fraction(1, 2)], 5) == 1           # 2 | 4
    # order of 5 mod 4 is 1 (5 = 4 + 1), confirmed by the direct scan
    assert splitting_level([Fraction(1, 2), Fraction(1, 4)], 5) == 1
    assert _splitting_level_oracle([Fraction(1, 2), Fraction(1, 4)], 5) == 1
    assert splitting_level([Fraction(1, 3)], 5) == 2           # 25 = 1 mod 3
    assert _splitting_level_oracle([Fraction(1, 3)], 5) == 2


def test_splitting_level_against_scan_oracle():
    rng = random.Random(7)
    for p in (3, 5, 7, 13):
        for _ in range(30):
            coeffs = []
            for _ in range(rng.randrange(1, 4)):
                den = rng.randrange(1, 30)
                while den % p == 0:
                    den = rng.randrange(1, 30)
                coeffs.append(Fraction(rng.randrange(0, den + 1), den))
            assert splitting_level(coeffs, p) == _splitting_level_oracle(coeffs, p)


def test_splitting_level_minimality():
    for p, coeffs in [(5, [Fraction(1, 3)]), (3, [Fraction(1, 5)]), (7, [Fraction(2, 9)])]:
        e = splitting_level(coeffs, p)
        for c in coeffs:
            assert (c * (p ** e - 1)).denominator == 1
        for smaller in range(1, e):
            assert any((c * (p ** smaller - 1)).denominator != 1 for c in coeffs)


def test_zp_violation():
    with pytest.raises(ZpViolationError):
        splitting_level([Fraction(1, 5)], 5)
