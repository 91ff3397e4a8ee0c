import io
from functools import lru_cache

import pytest

from frobsplit import elliptic
from frobsplit.arith import (ExtFieldElement, FieldElement, _square_roots,
                             _times, binom_mod_p, is_prime, legendre_symbol)
from frobsplit.cli import run
from frobsplit.elliptic import (_CM_J, CurveKgfrVerdict, LegendreCurve,
                                _supersingular_start, classify_curve_kgfr, count_points,
                                hasse_closed, hasse_coeff,
                                hasse_closed_symbolic, hasse_coeff_symbolic,
                                is_supersingular_by_count,
                                supersingular_report, write_hasse_table)
from frobsplit.fibration import f_discriminant_legendre
from frobsplit.upoly import univ_eval, univ_squarefree
from upoly_oracle import univ_roots


def test_hasse_examples():
    # both methods, frozen values confirmed against each other
    assert hasse_closed(2, 3) == 0 and hasse_coeff(2, 3) == 0
    assert hasse_closed(2, 5) == 3 and hasse_coeff(2, 5) == 3


def test_hasse_symbolic_examples():
    # lambda^2 + 4*lambda + 1, as c[0..m]
    assert hasse_coeff_symbolic(5) == (1, 4, 1)
    assert hasse_closed_symbolic(5) == hasse_coeff_symbolic(5)
    # degree 1 polynomial with both coefficients -1 mod 3
    assert hasse_coeff_symbolic(3) == (2, 2)


def _cubic_hasse_symbolic(p):
    """[x^m]((x-1)(x-lam))^m by m multiplications with x^2 - (1+lam)x + lam,
    x-degrees truncated at m, every entry a dense lambda-coefficient list:
    O(m^3), the extraction the library ran before Pascal's rule."""
    m = (p - 1) // 2
    table = [[1]] + [[] for _ in range(m)]
    for _ in range(m):
        new = []
        for i in range(m + 1):
            acc = [0] * (m + 1)   # lambda-degrees stay at most m
            for src, shift, scale in ((table[i - 2] if i >= 2 else [], 0, 1),
                                      (table[i - 1] if i >= 1 else [], 0, -1),
                                      (table[i - 1] if i >= 1 else [], 1, -1),
                                      (table[i], 1, 1)):
                for d, c in enumerate(src):
                    if c:
                        acc[d + shift] = (acc[d + shift] + scale * c) % p
            new.append(acc)
        table = new
    return tuple(table[m])


def _odd_primes(lo, hi):
    return [p for p in range(max(lo, 3), hi + 1) if is_prime(p)]


def test_hasse_symbolic_against_cubic_extraction():
    primes = _odd_primes(3, 61)
    assert {p % 4 for p in primes} == {1, 3}   # both signs (-1)^m
    for p in primes:
        assert hasse_coeff_symbolic(p) == _cubic_hasse_symbolic(p), p


def test_hasse_symbolic_routes_agree_to_400():
    primes = _odd_primes(3, 400) + [1009, 4001]
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        assert hasse_coeff_symbolic(p) == hasse_closed_symbolic(p), p


def test_hasse_closed_symbolic_against_lucas_binomials():
    # the O(p) ratio recurrence against binom_mod_p's base-p digits
    for p in (1009, 4001):
        m = (p - 1) // 2
        sign = (-1) ** m
        assert hasse_closed_symbolic(p) == tuple(
            sign * binom_mod_p(m, i, p) ** 2 % p for i in range(m + 1)), p


_ROOT_PRIMES = _odd_primes(3, 400) + [1009]


@lru_cache(maxsize=None)
def _oracle_roots(p):
    """The gcd route's roots of the extracted H_p, in the report's order."""
    return tuple(univ_roots(hasse_coeff_symbolic(p), p))


def test_walk_roots_equal_univ_roots_on_h_p():
    # the oracle is univ_roots and univ_squarefree on H_p itself, at full degree
    assert {p % 4 for p in _ROOT_PRIMES} == {1, 3}
    for p in _ROOT_PRIMES:
        rep = supersingular_report(p)
        assert rep.roots == _oracle_roots(p), p
        if p < 400:
            assert rep.squarefree == univ_squarefree(rep.poly, p), p


def _walk_from(monkeypatch, table, p):
    """The report at p with `_CM_J` replaced by table, and its start."""
    monkeypatch.setattr(elliptic, "_CM_J", table)
    supersingular_report.cache_clear()
    try:
        return supersingular_report(p), _supersingular_start(p, hasse_closed_symbolic(p))
    finally:
        supersingular_report.cache_clear()


def test_each_cm_start_walks_to_the_oracle_roots(monkeypatch):
    # each (D, j) row alone, at every prime 5 <= p < 400 inert in Q(sqrt(D)):
    # its curve's lambda is a root of H_p and the walk from it is the locus
    assert len(_CM_J) == 9
    for d, j in _CM_J:
        primes = [p for p in _odd_primes(5, 400) if legendre_symbol(d, p) == -1]
        assert primes, d
        for p in primes:
            rep, start = _walk_from(monkeypatch, ((d, j),), p)
            assert univ_eval(hasse_coeff_symbolic(p), start, p) == (0, 0), (d, p)
            assert rep.roots == _oracle_roots(p), (d, p)


def test_fallback_start_walks_to_the_oracle_roots(monkeypatch):
    # with no CM row the start is the first supersingular j in F_p, as at
    # the primes where all nine orders split (the first is 15073)
    for p in _odd_primes(3, 400):
        rep, start = _walk_from(monkeypatch, (), p)
        assert univ_eval(hasse_coeff_symbolic(p), start, p) == (0, 0), p
        assert rep.roots == _oracle_roots(p), p


def _shift_half(dense, p):
    """f(1/2 + mu) as c[0..deg] in mu, by Horner's rule in mu + 1/2: O(deg^2)."""
    half = (p + 1) // 2
    shifted = []
    for c in reversed(dense):
        # shifted * (mu + 1/2) + c
        shifted = [(lo + half * hi) % p for lo, hi in zip([c] + shifted, shifted + [0])]
    return shifted


def test_shift_half_is_mu_eps_times_a_polynomial_in_mu_squared():
    for p in _ROOT_PRIMES:
        hp, m, half = hasse_coeff_symbolic(p), (p - 1) // 2, (p + 1) // 2
        shifted = _shift_half(hp, p)
        assert len(shifted) == m + 1 and not any(shifted[1 - m % 2::2]), p
        # and it is the Taylor shift: G(mu) = H_p(1/2 + mu)
        for a, b in ((0, 0), (3, 0), (p - 2, 5), (1, 1)):
            assert univ_eval(shifted, (a, b), p) == univ_eval(hp, ((a + half) % p, b), p), p


def _class_number(d):
    """h(d) for a discriminant d = -p, p prime: the reduced forms
    (a, b, c), b^2 - 4ac = d, |b| <= a <= c, b >= 0 when |b| = a or a = c
    (each is primitive, as a common factor g would have g^2 | p)."""
    count, a = 0, 1
    while 3 * a * a <= -d:
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - d, 4 * a)
            if not r and c >= a and not (b < 0 and c == a):
                count += 1
        a += 1
    return count


def test_fp_supersingular_count_is_three_times_the_class_number():
    # Brillhart and Morton, J. Number Theory 106 (2004): H_p has no root in
    # F_p for p = 1 mod 4 and 3 h(-p) of them for p = 3 mod 4 (p > 3)
    assert [_class_number(-p) for p in (7, 11, 19, 23, 31, 47, 71)] == [1, 1, 1, 3, 3, 5, 7]
    primes = [p for p in _ROOT_PRIMES if p > 3]
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        in_fp = sum(1 for (_, b), _ in supersingular_report(p).roots if not b)
        assert in_fp == (3 * _class_number(-p) if p % 4 == 3 else 0), p


def test_supersingular_report_needs_no_extraction(monkeypatch, capsys):
    # the O(p^2) coefficient extraction is the hasse command's and the
    # tests' oracle, never a step of the report or of the commands built on it
    def refuse(p):
        raise AssertionError("coefficient extraction called")

    monkeypatch.setattr(elliptic, "hasse_coeff_symbolic", refuse)
    caches = (supersingular_report, f_discriminant_legendre)
    for cached in caches:
        cached.cache_clear()
    try:
        for p in (3, 5, 13, 1009):
            assert supersingular_report(p).root_count == (p - 1) // 2
        for argv in (["kgfr", "--p", "13"], ["fdisc", "--p", "29"], ["cbf", "--p", "7"],
                     ["supersingular", "--p", "61"], ["supersingular", "--p", "199", "--json"]):
            assert run(argv)[0] == 0, argv
            capsys.readouterr()
    finally:
        for cached in caches:
            cached.cache_clear()


def test_square_roots_exhaustive():
    for p in (3, 5, 7, 11, 13):
        field = [(a, b) for a in range(p) for b in range(p)]
        squares = {tuple(c % p for c in _times(*z, *z, p)) for z in field}
        assert len(squares) == (p * p + 1) // 2, p
        for z, r in zip(field, _square_roots(field, p)):
            if z in squares:
                assert tuple(c % p for c in _times(*r, *r, p)) == z, (p, z, r)
                assert all(0 <= c < p for c in r), (p, z, r)
            else:
                assert r is None, (p, z, r)


def test_supersingular_report_refuses_a_broken_polynomial(monkeypatch):
    # each run-time check fires: at p = 13 the start comes from j = -3375
    # (D = -7), a planted H_p with one coefficient off does not vanish there;
    # a planted step that never yields one root leaves the walk one short
    # of Deuring's count; planted square roots that miss every lambda off
    # F_p, which at p = 13 = 1 mod 4 is every lambda, stop it
    true_hp = hasse_closed_symbolic(13)
    broken = (true_hp[0], (true_hp[1] + 1) % 13) + true_hp[2:]
    start = _supersingular_start(13, true_hp)
    lost = next(lam for lam, _ in supersingular_report(13).roots if lam != start)
    step = elliptic._neighbours

    def lossy_step(lam, s, p):
        return [nxt for nxt in step(lam, s, p) if nxt != lost]

    def no_roots_off_fp(zs, p):
        for z in zs:
            yield next(_square_roots([z], p)) if z[1] == 0 else None

    for name, fake, match in (("hasse_closed_symbolic", lambda p: broken, "not a root of H_p"),
                              ("_neighbours", lossy_step, "finds 5 supersingular lambda, not the 6"),
                              ("_square_roots", no_roots_off_fp, "no square root")):
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, name, fake)
            supersingular_report.cache_clear()
            try:
                with pytest.raises(RuntimeError, match=match):
                    supersingular_report(13)
            finally:
                supersingular_report.cache_clear()


def test_eichler_deuring_supersingular_j_count():
    # the supersingular lambda give floor(p/12) + {0, 1, 1, 2} distinct
    # j = 256(lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2) for p = 1, 5, 7, 11 mod 12
    extra = {1: 0, 5: 1, 7: 1, 11: 2}
    primes = _odd_primes(5, 109)
    assert {p % 12 for p in primes} == set(extra)
    for p in primes:
        js = set()
        for (a, b), _ in supersingular_report(p).roots:
            lam = ExtFieldElement(a, b, p)
            js.add(256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2))
        assert len(js) == p // 12 + extra[p % 12], p


def test_hasse_factorisation_against_sympy():
    # over GF(p), H_p's linear factors are its F_p roots and its quadratic
    # factors the conjugate pairs of F_{p^2} roots, each once
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    kinds = set()
    primes = _odd_primes(3, 61)
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        rep = supersingular_report(p)
        _, factors = sympy.Poly(rep.poly[::-1], lam, modulus=p).factor_list()
        linear, quadratic = set(), set()
        for g, mult in factors:
            coeffs = [int(c) % p for c in g.all_coeffs()]
            assert mult == 1 and coeffs[0] == 1 and len(coeffs) in (2, 3), (p, g)
            if len(coeffs) == 2:
                linear.add(-coeffs[1] % p)
            else:
                quadratic.add(tuple(coeffs[1:]))
        fp_roots = {a for (a, b), _ in rep.roots if not b}
        pairs = {((-2 * a) % p, ExtFieldElement(a, b, p).norm().value)
                 for (a, b), _ in rep.roots if b}
        assert linear == fp_roots and quadratic == pairs, p
        if linear:
            kinds.add("linear")
        if quadratic:
            kinds.add("quadratic")
    assert kinds == {"linear", "quadratic"}


def test_hasse_rejects_nodal_parameters():
    for bad in (0, 1):
        with pytest.raises(ValueError):
            hasse_closed(bad, 5)
        with pytest.raises(ValueError):
            hasse_coeff(bad, 5)


def test_two_methods_agree_on_extension_values():
    # includes the F_9 \ F_3 sample
    for p in (3, 5, 7):
        for a in range(p):
            for b in range(p):
                lam = ExtFieldElement(a, b, p)
                if lam == 0 or lam == 1:
                    continue
                assert hasse_closed(lam, p) == hasse_coeff(lam, p), (p, a, b)


def test_count_examples():
    assert count_points(2, 5) == 8            # ordinary: count differs from p+1
    assert hasse_closed(2, 5) != 0
    assert count_points(2, 3) == 4            # the count itself is fine at p = 3
    with pytest.raises(ValueError):
        is_supersingular_by_count(2, 3)        # but the inference is rejected


def test_count_enumeration_oracle():
    # oracle: direct enumeration of affine points plus infinity
    for p in (5, 7, 13):
        for lv in range(2, p):
            affine = 0
            for x in range(p):
                for y in range(p):
                    if (y * y - x * (x - 1) * (x - lv)) % p == 0:
                        affine += 1
            assert count_points(lv, p) == affine + 1, (p, lv)


def test_hasse_bound():
    import math
    for p in (5, 7, 13, 31):
        for lv in range(2, p):
            assert abs(count_points(lv, p) - (p + 1)) <= 2 * math.isqrt(4 * p) / 2 + 1
            assert abs(count_points(lv, p) - (p + 1)) <= 2 * p ** 0.5 + 1e-9


def test_supersingular_reports():
    rep = supersingular_report(3)
    assert rep.poly == (2, 2)
    assert rep.roots == (((2, 0), 1),)
    assert rep.root_count == 1 and rep.squarefree

    rep = supersingular_report(5)
    assert rep.root_count == 2 and rep.squarefree
    assert all(b for (_, b), _ in rep.roots)  # no root in F_5

    rep = supersingular_report(13)
    assert rep.root_count == 6 and rep.squarefree


def test_lambda_locus_frobenius_and_symmetry_stability():
    # Lambda_p is stable under x -> x^p and under lambda -> 1 - lambda, 1/lambda
    for p in (5, 7, 13, 31):
        rep = supersingular_report(p)
        h = rep.poly
        for (a, b), _ in rep.roots:
            r = ExtFieldElement(a, b, p)
            for image in (r ** p, 1 - r, r ** (-1)):
                assert sum(c * image ** i for i, c in enumerate(h)) == 0, (p, r, image)


def test_supersingular_iff_count_for_p_ge_5():
    for p in (5, 7, 13, 31):
        for lv in range(2, p):
            lam = FieldElement(lv, p)
            assert hasse_closed(lam, p).is_zero() == (count_points(lam, p) == p + 1)


def test_classify_curve_kgfr():
    assert classify_curve_kgfr(0) == CurveKgfrVerdict(True, "rational curve")
    ordinary = LegendreCurve(FieldElement(2, 5), 5)
    super_ = LegendreCurve(FieldElement(2, 3), 3)
    assert classify_curve_kgfr(1, ordinary).kgfr
    assert not classify_curve_kgfr(1, super_).kgfr
    assert not classify_curve_kgfr(2).kgfr
    with pytest.raises(ValueError):
        classify_curve_kgfr(1)  # missing curve data


def test_legendre_curve_validation():
    nodal = r"^lambda in \{0, 1\} gives a nodal fiber, not an elliptic curve$"
    with pytest.raises(ValueError, match=nodal):
        LegendreCurve(FieldElement(0, 5), 5)
    with pytest.raises(ValueError, match=nodal):
        LegendreCurve(FieldElement(1, 5), 5)
    with pytest.raises(ValueError, match=nodal):
        LegendreCurve(6, 5)
    c = LegendreCurve(FieldElement(2, 5), 5)
    assert c.is_ordinary() and not c.is_supersingular()
    assert c.count_points() == 8


def test_csv_emitter():
    buf = io.StringIO()
    rows = write_hasse_table(7, buf)
    assert rows == 5
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "p,lambda,hasse,count,ordinary"
    assert len(lines) == 6
    # spot check: lambda = 2 row carries consistent data
    cells = lines[1].split(",")
    assert cells[0] == "7" and cells[1] == "2"


def test_degree_and_squarefree_up_to_101():
    for p in range(3, 102):
        if not is_prime(p):
            continue
        rep = supersingular_report(p)
        assert len(rep.poly) - 1 == (p - 1) // 2 and rep.poly[-1], p
        assert rep.squarefree
        assert rep.root_count == (p - 1) // 2


def test_hasse_coeff_builds_one_element(field_elements_built):
    # the extraction runs on int pairs: the value is the only element built
    p = 1009
    for lam in (FieldElement(5, p), ExtFieldElement(5, 3, p)):
        field_elements_built.clear()
        value = hasse_coeff(lam, p)
        assert field_elements_built == [type(lam)] and type(value) is type(lam)


def test_two_methods_agree_at_large_primes():
    for p in (1009, 4001):
        lams = [FieldElement(v, p) for v in (2, 5, p - 1)]
        lams += [ExtFieldElement(a, b, p) for a, b in ((0, 1), (5, 3), (p - 1, p - 2), (7, 0))]
        for lam in lams:
            assert hasse_closed(lam, p) == hasse_coeff(lam, p), (p, lam)
    # and at supersingular lambda, where both vanish
    for (a, b), _ in supersingular_report(1009).roots[:4]:
        lam = ExtFieldElement(a, b, 1009)
        assert hasse_coeff(lam, 1009).is_zero() and hasse_closed(lam, 1009).is_zero()
