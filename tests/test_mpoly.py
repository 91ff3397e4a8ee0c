import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import cli
from frobsplit.arith import (ExtFieldElement, is_prime, legendre_symbol,
                             quadratic_nonresidue)
from frobsplit.cli import run
from frobsplit.elliptic import SupersingularReport, hasse_closed_symbolic, supersingular_report
from frobsplit.mpoly import MAX_POWER_TERMS, MPoly, PolyParseError, format_poly, parse_poly
from frobsplit.upoly import univ_eval, univ_squarefree
from mpoly_oracle import oracle_parse
from upoly_oracle import _norm_character, _Residues, univ_roots


def _random_sparse(rng, nvars, p, max_exp=4, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exps] = rng.randrange(1, p)
    return MPoly(nvars, p, terms)


def test_ring_examples():
    f = parse_poly("x^2 + 3*x*y + 1", ["x", "y"], 5)
    assert (f + (-f)).is_zero()
    assert f * MPoly.one(2, 5) == f
    g = parse_poly("(x+1)*(x-1)", ["x"], 5)
    assert g == parse_poly("x^2 + 4", ["x"], 5)


def test_arity_and_modulus_mismatch():
    f = MPoly.variable(0, 1, 5)
    g = MPoly.variable(0, 2, 5)
    h = MPoly.variable(0, 1, 7)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * h


def test_constructor_refuses_non_integer_coefficients_and_exponents():
    # int() would read 1/2 as 0 and 2.7 as 2, and a float exponent would stay a key
    for terms, match in (({(0,): Fraction(1, 2)}, "coefficient"), ({(0,): 2.7}, "coefficient"),
                         ({(1.5,): 1}, "non-integer"), ({(2, 1.0): 1}, "non-integer")):
        with pytest.raises(ValueError, match=match):
            MPoly(len(next(iter(terms))), 5, terms)
    assert MPoly(1, 5, {(1,): 7, (0,): -1}).terms == {(1,): 2, (0,): 4}


def test_coeff_examples():
    f = parse_poly("x^2 + 4", ["x"], 5)
    assert f.coeff((2,)) == 1
    assert f.coeff((0,)) == 4
    assert f.coeff((1,)) == 0
    with pytest.raises(ValueError):
        f.coeff((1, 1))


def test_power_qm1_examples():
    x = MPoly.variable(0, 1, 5)
    assert x.power_qm1(2) == MPoly(1, 5, {(24,): 1})
    f = parse_poly("x + 1", ["x"], 3)
    assert f.power_qm1(1) == parse_poly("x^2 + 2*x + 1", ["x"], 3)


def test_power_qm1_against_naive_powering():
    # oracle: naive repeated squaring through __pow__
    rng = random.Random(99)
    cases = 0
    for p, e in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        if p ** e > 27:
            continue
        for _ in range(10):
            f = _random_sparse(rng, 2, p, max_exp=3)
            assert f.power_qm1(e) == f ** (p ** e - 1), (p, e, f)
            cases += 1
    assert cases >= 40


def test_power_qm1_degree():
    rng = random.Random(5)
    for p, e in [(3, 2), (5, 1), (7, 1)]:
        for _ in range(10):
            f = _random_sparse(rng, 2, p)
            assert f.power_qm1(e).degree() == (p ** e - 1) * f.degree()


def test_frobenius_twist_is_pth_power():
    rng = random.Random(11)
    for _ in range(20):
        f = _random_sparse(rng, 2, 5, max_exp=3)
        g = f ** 4  # f^(p-1)
        assert g.frobenius_twist(1) == g ** 5


def test_univ_squarefree_examples():
    assert univ_squarefree(_dense(parse_poly("x^2 - 1", ["x"], 5)), 5)
    assert not univ_squarefree(_dense(parse_poly("(x-1)^2", ["x"], 5)), 5)
    # derivative of x^p - x is -1
    for p in (3, 5, 7):
        assert univ_squarefree([0, p - 1] + [0] * (p - 2) + [1], p)
    with pytest.raises(ValueError):
        univ_squarefree([], 5)


def _dense(f):
    """The coefficient list c[0..deg] of a univariate MPoly."""
    dense = [0] * (f.degree() + 1)
    for (e,), c in f.terms.items():
        dense[e] = c
    return dense


def _roots(f):
    return univ_roots(_dense(f), f.p)


def _in_fp(roots):
    """The roots with b = 0, those in F_p."""
    return [r for r in roots if not r[0][1]]


def test_univ_roots_examples():
    f = parse_poly("x^2 - 1", ["x"], 5)
    assert _roots(f) == [((1, 0), 1), ((4, 0), 1)]
    g = parse_poly("x^2 + 4*x + 1", ["x"], 5)
    # discriminant 12 = 2 is a nonsquare mod 5: no rational roots
    ext_roots = _roots(g)
    assert _in_fp(ext_roots) == []
    assert len(ext_roots) == 2
    r1, r2 = (ExtFieldElement(a, b, 5) for (a, b), _ in ext_roots)
    assert r1.b != 0 and r1.frobenius() == r2  # conjugate pair off F_5
    for r, (_, mult) in zip((r1, r2), ext_roots):
        assert mult == 1
        assert (r * r + 4 * r + 1).is_zero()


def _roots_by_full_scan(f):
    """Oracle: evaluate at every element of F_{p^2}."""
    p = f.p
    points = [ExtFieldElement(a, b, p) for a in range(p) for b in range(p)]
    found = []
    for x in points:
        if f.eval_univariate(x).is_zero():
            found.append(x)
    return found


def test_univ_roots_against_full_scan():
    rng = random.Random(17)
    for p in (3, 5):
        for _ in range(15):
            f = _random_sparse(rng, 1, p, max_exp=6, max_terms=4)
            got = _roots(f)
            want = _roots_by_full_scan(f)
            got_points = {r for r, _ in got}
            want_points = {(x.a, x.b) for x in want}
            assert got_points == want_points, f
            assert sum(m for _, m in got) <= f.degree()


def test_multiplicity_sum_vs_degree():
    # x^2(x-1)^3 has total multiplicity 5 = its degree
    f = parse_poly("x^2 * (x-1)^3", ["x"], 7)
    roots = _roots(f)
    assert sorted(roots) == [((0, 0), 2), ((1, 0), 3)]
    assert sum(m for _, m in roots) == f.degree()


def test_multiplicity_sum_equals_degree_iff_split():
    # splits into linears and quadratics over F_{p^2}: equality
    f = parse_poly("(x-1) * (x^2 + 4*x + 1)", ["x"], 5)
    assert sum(m for _, m in _roots(f)) == 3
    # x^3 + x + 1 takes the values 1, 3, 1, 1, 4 at x = 0..4, so it has no
    # root over F_5; a cubic without a root is irreducible, so its roots live
    # in F_{5^3}, which meets F_{25} only in F_5, and the F_{25} count falls
    # short of the degree. (x^3 - x - 1 is not usable here: over F_5 it is
    # (x - 2)(x^2 + 2x + 3), with x = 2 a root.)
    g = parse_poly("x^3 + x + 1", ["x"], 5)
    assert [v for v in range(5) if (v ** 3 + v + 1) % 5 == 0] == []
    assert _roots_by_full_scan(g) == []
    assert sum(m for _, m in _roots(g)) == 0 < g.degree()


def _long_division(a, b, p):
    """Quotient and remainder of a by the monic b, dense lists mod p."""
    a = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = a[i + len(b) - 1] % p
        for j, c in enumerate(b):
            a[i + j] = (a[i + j] - quot[i] * c) % p
    return quot, a[:len(b) - 1]


def _scan_roots(dense, p):
    """The F_{p^2} scan univ_roots ran before its gcd route, as an oracle:
    every r in F_p, then every a + b*t with 1 <= b <= (p-1)/2 and a in F_p,
    each root's multiplicity by dividing it out of the deflating polynomial."""
    cur = list(dense)
    roots = []

    def deflate(divisor):
        nonlocal cur
        mult = 0
        while len(cur) >= len(divisor):
            quot, rem = _long_division(cur, divisor, p)
            if any(rem):
                break
            cur, mult = quot, mult + 1
        return mult

    for r in range(p):
        if len(cur) <= 1:
            break
        if sum(c * pow(r, i, p) for i, c in enumerate(cur)) % p == 0:
            roots.append(((r, 0), deflate([-r % p, 1])))
    n = quadratic_nonresidue(p)
    for b in range(1, (p - 1) // 2 + 1):
        for a in range(p):
            if len(cur) <= 2:
                return roots
            u, v = 0, 0   # cur(a + b*t) = u + v*t, t^2 = n
            for c in reversed(cur):
                u, v = (u * a + v * b * n + c) % p, (u * b + v * a) % p
            if u == v == 0:
                mult = deflate([(a * a - n * b * b) % p, -2 * a % p, 1])
                roots += [((a, b), mult), ((a, p - b), mult)]
    return roots


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def _univariates(draw):
    """(dense, p) of degree <= 12 over F_p, p <= 13: either free coefficients (constants
    included) or a product of monic factors of degree <= 3 taken up to three
    times, so repeated and irreducible factors are common."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    coeff = st.integers(0, p - 1)
    if draw(st.booleans()):
        dense = draw(st.lists(coeff, max_size=12)) + [draw(st.integers(1, p - 1))]
    else:
        dense = [draw(st.integers(1, p - 1))]
        for _ in range(draw(st.integers(0, 4))):
            factor = draw(st.lists(coeff, min_size=1, max_size=3)) + [1]
            for _ in range(draw(st.integers(1, 3))):
                if len(dense) + len(factor) > 14:
                    break
                dense = _times(dense, factor, p)
    return dense, p


def test_univ_roots_equals_scan_drawn():
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_univariates())
    def check(drawn):
        dense, p = drawn
        assert univ_roots(dense, p) == _scan_roots(dense, p)

    check()


def test_univ_eval_equals_element_horner_drawn():
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.integers(0, p - 1), max_size=10),
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)))))
    def check(case):
        p, dense, x = case
        elt = ExtFieldElement(*x, p)
        acc = elt - elt
        for c in reversed(dense):
            acc = acc * elt + c
        assert univ_eval(dense, x, p) == (acc.a, acc.b), case

    check()


def test_supersingular_output_equals_scan(monkeypatch, capsys):
    # H_p at every prime < 100 and at the benchmark's primes 101..199: the
    # supersingular command prints the same bytes from a report whose roots
    # are the scan's on H_p, with no walk
    primes = [p for p in range(3, 100) if is_prime(p)] + [101, 127, 151, 173, 199]

    def scanned_report(p):
        hp = hasse_closed_symbolic(p)
        roots = tuple(_scan_roots(hp, p))
        return SupersingularReport(p, hp, roots, all(k == 1 for _, k in roots))

    def printed():
        outs = []
        for p in primes:
            assert run(["supersingular", "--p", str(p), "--json"])[0] == 0
            outs.append(capsys.readouterr().out)
        return outs

    supersingular_report.cache_clear()
    try:
        got = printed()
    finally:
        supersingular_report.cache_clear()
    monkeypatch.setattr(cli, "supersingular_report", scanned_report)
    assert printed() == got


def test_univ_roots_against_sympy_factorisation():
    # over GF(p), the linear factors of f are its F_p roots and its quadratic
    # factors its conjugate pairs, with the same multiplicities; irreducible
    # cubics and quartics have no root in F_{p^2}
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(29)
    kinds = set()
    for p in (3, 5, 7, 11, 13):
        for _ in range(6):
            f = MPoly.one(1, p)
            # (degree, how many factors at most, multiplicity at most)
            for deg, count, max_mult in ((1, 3, 3), (2, 2, 2), (3, 1, 1), (4, 1, 1)):
                for _ in range(rng.randrange(count + 1)):
                    while True:
                        g = [rng.randrange(p) for _ in range(deg)] + [1]
                        if deg == 1 or sympy.Poly(g[::-1], x, modulus=p).is_irreducible:
                            break
                    f = f * MPoly(1, p, {(i,): c for i, c in enumerate(g)}) ** rng.randrange(
                        1, max_mult + 1)
            _, factors = sympy.Poly(_dense(f)[::-1], x, modulus=p).factor_list()
            linear, quadratic = {}, {}
            for g, mult in factors:
                coeffs = [int(c) % p for c in g.all_coeffs()]
                assert coeffs[0] == 1
                if len(coeffs) == 2:
                    linear[-coeffs[1] % p] = mult
                elif len(coeffs) == 3:
                    quadratic[tuple(coeffs[1:])] = mult
                kinds.add((len(coeffs) - 1, mult > 1))
            got = _roots(f)
            fp_roots = {a: m for (a, b), m in got if not b}
            pairs = {((-2 * a) % p, ExtFieldElement(a, b, p).norm().value): m
                     for (a, b), m in got if b}
            assert fp_roots == linear and pairs == quadratic, (p, f)
            assert len(got) == len(linear) + 2 * len(quadratic)
            assert _in_fp(got) == got[:len(linear)]
    assert {(1, True), (2, True), (3, False), (4, False)} <= kinds


def test_norm_character_separates_quadratics():
    # univ_roots splits quadratic factors by chi(q(-a)), a = 0, 1, 2, ...;
    # Weil's bound shows two distinct irreducible quadratics differ at some
    # a in F_p once p >= 11, and here every pair is checked for p <= 13.
    # The library's character must equal chi(q(-a)), so a sign slip in its
    # u = (x + a)(x^p + a) shows here as well.
    for p in (3, 5, 7, 11, 13):
        quadratics = [(s, c) for s in range(p) for c in range(p)
                      if legendre_symbol(s * s - 4 * c, p) == -1]
        assert len(quadratics) == (p * p - p) // 2
        signatures = set()
        for s, c in quadratics:
            ring = _Residues([c, s, 1], p)
            x_q = ring.pow([0, 1], p)
            chis = tuple(legendre_symbol(a * a - s * a + c, p) for a in range(p))
            assert [_norm_character(ring, x_q, a) for a in range(p)] == [[v % p] for v in chis]
            signatures.add(chis)
        assert len(signatures) == len(quadratics), p


def test_residue_products_against_schoolbook():
    # slots of 1, 2, 4 and 8 bytes pack through array; wider ones byte by byte
    rng = random.Random(41)
    widths = set()
    for p in (3, 13, 199, 1000003, 2 ** 61 - 1):
        for d in (1, 2, 5, 17):
            modulus = [rng.randrange(p) for _ in range(d)] + [1]
            ring = _Residues(modulus, p)
            widths.add(ring.w)
            for _ in range(4):
                a, b = ([rng.randrange(p) for _ in range(rng.randrange(d + 1))]
                        for _ in range(2))
                want = _long_division(_times(a, b, p), modulus, p)[1]
                while want and want[-1] == 0:
                    want.pop()
                assert ring.mul(a, b) == want, (p, modulus, a, b)
    assert {1, 2, 4, 8} < widths and max(widths) > 8


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("x + q", ["x"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("x ^ y", ["x", "y"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("(x + 1", ["x"], 5)
    with pytest.raises(PolyParseError):
        parse_poly("x + ", ["x"], 5)
    # the modulus is checked before any token is read, so an empty text
    # gets the same message as any other
    for text in ("", "x", "x + "):
        with pytest.raises(ValueError, match="modulus must be an odd prime >= 3, got 4"):
            parse_poly(text, ["x"], 4)
    # a repeated name, or one that no token can spell, is refused up front
    for names in (["x", "x"], ["x", "1"], ["x", "y z"], ["x", ""], ["x", "y-1"]):
        with pytest.raises(PolyParseError, match="variable"):
            parse_poly("x", names, 5)
    assert parse_poly("_a1 + B", ["_a1", "B"], 5).nvars == 2


def test_power_size_guard():
    # a power of a base with several terms is refused once its expansion could
    # exceed MAX_POWER_TERMS monomials, C(n + k*deg, n); a monomial never is
    with pytest.raises(PolyParseError):
        parse_poly("(x+y+1)^1000000000 - 1", ["x", "y"], 5)
    k = MAX_POWER_TERMS - 1                       # C(1 + k, 1) == MAX_POWER_TERMS
    assert parse_poly(f"(x+1)^{k}", ["x"], 5).degree() == k
    with pytest.raises(PolyParseError):
        parse_poly(f"(x+1)^{k + 1}", ["x"], 5)
    assert parse_poly("x^1000000000 - 1", ["x", "y"], 5).degree() == 10 ** 9
    assert parse_poly("(2*x^3*y)^1000000000", ["x", "y"], 5).degree() == 4 * 10 ** 9
    assert parse_poly("(3)^1000000000", ["x"], 5) == MPoly.constant(1, 1, 5)


def test_product_size_guard():
    # a product A*B of two multi-term factors is refused once both its work
    # |A|*|B| and its size bound C(n + deg A + deg B, n) exceed MAX_POWER_TERMS
    names = ["x", "y", "z"]
    with pytest.raises(PolyParseError):
        parse_poly("(x+y+z+1)^20*(x+y+z+1)^20", names, 101)
    with pytest.raises(PolyParseError):                  # C(33, 3) = 5456
        parse_poly("(x+y+1)^15*(x+y+1)^15", names, 101)
    assert parse_poly("(x+y+1)^14*(x+y+1)^15", names, 101).degree() == 29   # C(32, 3) = 4960
    with pytest.raises(PolyParseError):                  # 71 * 71 = 5041 products
        parse_poly("(x+1)^70*(y+1)^70", ["x", "y"], 101)
    # few term products, or a monomial factor, pass whatever the degrees
    assert len(parse_poly("(x+1)^70*(y+1)^69", ["x", "y"], 101).terms) == 4970
    assert len(parse_poly("(x^100+1)*(y^100+1)", names, 101).terms) == 4
    big = "(x+1)^70*(y+1)^69 + x^200*(x+1)^70*(y+1)^69"
    assert len(parse_poly(f"y*({big})*x^40", ["x", "y"], 101).terms) == 9940


def test_format_parse_roundtrip():
    rng = random.Random(23)
    names = ["x", "y", "z"]
    for _ in range(40):
        f = _random_sparse(rng, 3, 7, max_exp=5, max_terms=6)
        text = format_poly(f, names)
        assert parse_poly(text, names, 7) == f
        # printing is canonical: formatting again is bit-identical
        assert format_poly(parse_poly(text, names, 7), names) == text


@st.composite
def _polys(draw):
    p = draw(st.sampled_from([3, 5, 7, 101]))
    nvars = draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = draw(st.dictionaries(monomial, st.integers(1, p - 1), max_size=6))
    return MPoly(nvars, p, terms), ["x", "y", "z"][:nvars]


def test_format_parse_roundtrip_drawn():
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_polys())
    def check(case):
        f, names = case
        assert parse_poly(format_poly(f, names), names, f.p) == f

    check()


def _schoolbook(f, g):
    """f*g, every pair of terms through the checked constructor."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return MPoly(f.nvars, f.p, acc)


def _well_formed(f):
    """Keys are exponent tuples of f's arity, coefficients lie in [1, p)."""
    return (all(type(e) is tuple and len(e) == f.nvars and all(type(a) is int and a >= 0
                                                               for a in e)
                for e in f.terms)
            and all(type(c) is int and 1 <= c < f.p for c in f.terms.values()))


@st.composite
def _monomial_cases(draw):
    g, _ = draw(_polys())
    p, n = g.p, g.nvars
    exps = draw(st.tuples(*[st.integers(0, 6)] * n))
    c = draw(st.integers(-3 * p, 3 * p) | st.sampled_from([0, p, -p, 3 * p]))  # may vanish
    k = draw(st.sampled_from([0, 1, 2, 3 * p - 1, 3 * p, 3 * p + 1]) | st.integers(0, 3 * p + 1))
    return MPoly(n, p, {exps: c}), c, g, k


def test_monomial_products_and_powers_match_schoolbook():
    # a factor of at most one term is multiplied by a shift and raised by
    # scaling its exponents; multi-term powers by squaring
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_monomial_cases())
    def check(case):
        m, c, g, k = case
        n, p = g.nvars, g.p
        const = MPoly.constant(c, n, p)
        for want, results in ((_schoolbook(m, g), (m * g, g * m)),
                              (_schoolbook(const, g), (g * c, c * g, g * const, const * g))):
            for got in results:
                assert got == want and _well_formed(got), (m, c, g, got)
        want = MPoly.one(n, p)
        for _ in range(k):
            want = _schoolbook(want, m)
        assert m ** k == want and _well_formed(m ** k), (m, k)
        want = MPoly.one(n, p)
        for j in range(4):
            assert g ** j == want and _well_formed(g ** j), (g, j)
            want = _schoolbook(want, g)

    check()


# the grammar's tokens, an undeclared name and whitespace
_POLY_TOKENS = ["x", "y", "z", "q", "0", "1", "2", "7", "10", "+", "-", "*", "^", "(", ")", " "]


def test_parse_poly_fuzz_parses_or_rejects():
    outcomes = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.sampled_from(_POLY_TOKENS), max_size=12).map("".join))
    def check(text):
        try:
            parse_poly(text, ["x", "y", "z"], 5)
            outcomes.add("parsed")
        except PolyParseError:
            outcomes.add("rejected")

    check()
    assert outcomes == {"parsed", "rejected"}


# the token alphabet, undeclared names, and characters that start no token
_FUZZ_TOKENS = ["x", "y", "z", "w", "q", "x1", "0", "1", "2", "3", "7", "10", "101",
                "1000000000", "+", "-", "*", "^", "(", ")", " ", "!", ".", "\u0663", "\u00b2"]
# multi-term factors whose products pass or fail the size checks by their
# degrees, and runs that raise the degree or zero the product, so that a run
# multiplied in late would change the verdict
_FUZZ_FACTORS = ["(x+1)^70", "(x+y+1)^15", "(x+y+1)^14", "(x+y+1)^13", "-(x-y+2)^12"]
_FUZZ_RUNS = ["x^5000", "y^40", "0", "3", "-1", "z"]


def _fuzz_texts(rng, count):
    """Token soup, grammar-shaped sums and products, and one point edits of them."""
    def shaped(names, depth=0):
        k = rng.random()
        if depth > 2 or k < 0.3:
            atom = rng.choice(names + ["0", "1", "2", "3", "7", "10", "q"])
            return atom + ("^" + rng.choice(["0", "1", "2", "3", "10"]) if rng.random() < 0.3
                           else "")
        if k < 0.55:
            return "*".join(shaped(names, depth + 1) for _ in range(rng.randint(1, 4)))
        if k < 0.65:
            return "-" + shaped(names, depth + 1)
        terms = [shaped(names, depth + 1) for _ in range(rng.randint(1, 4))]
        text = "(" + rng.choice(["", "-"]) + terms[0] + "".join(
            rng.choice(["+", "-"]) + t for t in terms[1:]) + ")"
        return text + ("^" + rng.choice(["0", "1", "2", "5", "12"]) if rng.random() < 0.4 else "")

    for i in range(count):
        p = rng.choice([3, 5, 7, 101])
        names = rng.choice([["x"], ["x", "y"], ["x", "y", "z"], ["z", "x"], ["y", "x", "w"]])
        if i % 2:
            text = "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randrange(14)))
        else:
            text = shaped(names)
            if rng.random() < 0.3:
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice(_FUZZ_TOKENS + [""]) + text[at + 1:]
        yield text, names, p


def _outcome(parse, text, names, p):
    try:
        return list(parse(text, names, p).terms.items())
    except PolyParseError as exc:
        return str(exc)


def test_parse_poly_matches_the_recursive_descent_oracle():
    # the same terms in the same insertion order, or the same error text, as
    # the parser that builds an MPoly per leaf and applies one operator at a time
    rng = random.Random(34)
    cases = list(_fuzz_texts(rng, 100_000))
    for _ in range(150):
        pieces = rng.sample(_FUZZ_FACTORS, 2) + rng.sample(_FUZZ_RUNS, rng.randint(1, 2))
        rng.shuffle(pieces)
        cases.append(("*".join(pieces), ["x", "y", "z"], 101))
    parsed = refused = 0
    for text, names, p in cases:
        got = _outcome(parse_poly, text, names, p)
        assert got == _outcome(oracle_parse, text, names, p), (text, names, p)
        parsed += isinstance(got, list)
        refused += "more than" in str(got)
    assert parsed > 20_000 and refused > 40, (parsed, refused)


def test_parse_poly_wraps_one_mpoly(monkeypatch):
    raw, calls = MPoly._raw, []

    def counted(cls, nvars, p, terms):
        calls.append(terms)
        return raw(nvars, p, terms)

    monkeypatch.setattr(MPoly, "_raw", classmethod(counted))
    for text in ("x", "0", "-3*x^2*y*2 - (x+y)^3*(x-1) + -(y)^2", "y^2*z-x*(x-z)*(x-3*z)"):
        calls.clear()
        f = parse_poly(text, ["x", "y", "z"], 7)
        assert len(calls) == 1 and calls[0] is f.terms, text


def test_format_zero_and_constants():
    assert format_poly(MPoly.zero(2, 5), ["x", "y"]) == "0"
    assert format_poly(MPoly.constant(3, 1, 5), ["x"]) == "3"
    assert parse_poly("0", ["x"], 5).is_zero()


def test_derivative():
    assert _dense(parse_poly("x^2 + 4", ["x"], 5)) == [4, 0, 1]
