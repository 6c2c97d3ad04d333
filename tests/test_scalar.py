import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propnet import scalar
from propnet.scalar import (DivisionByZero, FIELDS, MAX_EXPONENT, Poly, QQ,
                            QS, RatFunc, ScalarParseError, format_poly,
                            format_scalar, parse_rat, parse_ratfunc, poly_gcd,
                            stored)

from helpers import (PROPERTY, oracle_add, oracle_divmod, oracle_monic,
                     oracle_mul, oracle_neg, oracle_scale, oracle_trim,
                     is_stored, is_stored_qs, rand_poly, rand_ratfunc,
                     scalars, sympy_poly, to_sympy)


def test_poly_basics():
    p = Poly([1, 2])          # 1 + 2s
    q = Poly([0, 0, 3])       # 3s^2
    assert (p + q).degree == 2
    assert (p * q) == Poly([0, 0, 3, 6])
    assert Poly([0]).is_zero and Poly().degree == -1
    assert Poly([2, 4]).monic() == Poly([Fraction(1, 2), 1])


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly([0.1, 1])
    with pytest.raises(TypeError):
        Poly.const(0.5)
    with pytest.raises(TypeError):
        Poly([1, 2]).scale(0.5)
    assert Poly([Fraction(1, 10), 1]).coeffs == (Fraction(1, 10), 1)


def test_rationals_are_ints_when_integral():
    assert (type(QQ.zero), type(QQ.one)) == (int, int)
    for x, want in ((Fraction(4, 2), 2), (True, 1), (-3, -3)):
        got = QQ.coerce(x)
        assert type(got) is int and got == want
    assert type(QQ.coerce(Fraction(1, 2))) is Fraction
    assert type(parse_rat("4/2")) is int and parse_rat("4/2") == 2
    assert parse_rat("(1/2)^-1") == 2 and type(parse_rat("(1/2)^-1")) is int
    for x, want in ((2, Fraction(1, 2)), (Fraction(-1, 3), -3),
                    (Fraction(2, 3), Fraction(3, 2)), (-1, -1)):
        got = QQ.inv(x)
        assert got == want and is_stored(got)
    assert format_scalar(2) == format_scalar(Fraction(2)) == "2"
    assert Poly.const(Fraction(6, 3)).content == 2
    assert type(RatFunc(Poly([1, 2]), Poly([2])).num.content) is Fraction
    assert type(RatFunc(Poly([2, 4]), Poly([2])).num.content) is int


@st.composite
def _wide_coeffs(draw):
    """Zero to five coefficients of 3 to 64 bits, zero ones and a
    negative leading one included."""
    bits = draw(st.integers(3, 64))
    top = 2 ** bits
    coeff = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-top, top), st.integers(1, top)))
    return tuple(draw(st.lists(coeff, max_size=5)))


def _assert_stored_form(p):
    """Primitive integers with a positive leading one, or none and content
    0; the content and every coefficient an int exactly when integral;
    rebuilt from its coefficients it is equal and hashes equal."""
    if p.prim:
        assert all(type(x) is int for x in p.prim)
        assert math.gcd(*p.prim) == 1 and p.prim[-1] > 0
        assert p.content != 0
    else:
        assert p.content == 0
    assert all(map(is_stored, (p.content, *p.coeffs)))
    again = Poly(p.coeffs)
    assert again == p and hash(again) == hash(p)


@PROPERTY
@given(_wide_coeffs(), _wide_coeffs(), _wide_coeffs())
def test_poly_matches_fraction_oracle(a, b, c):
    pa, pb = Poly(a), Poly(b)
    a, b = oracle_trim(a), oracle_trim(b)
    c = c[0] if c else Fraction(0)
    cases = [(pa, a), (pb, b),
             (pa + pb, oracle_add(a, b)),
             (pa - pb, oracle_add(a, oracle_neg(b))),
             (pa - Poly(a), ()),
             (-pa, oracle_neg(a)),
             (pa * pb, oracle_mul(a, b)),
             (pa.scale(c), oracle_scale(a, c)),
             (pa.monic(), oracle_monic(a))]
    if b:
        q, r = divmod(pa, pb)
        want_q, want_r = oracle_divmod(a, b)
        cases += [(q, want_q), (r, want_r)]
    for got, want in cases:
        assert got.coeffs == want
        _assert_stored_form(got)


def test_poly_divmod():
    rng = random.Random(1)
    for _ in range(100):
        a = rand_poly(rng, 4)
        b = rand_poly(rng, 2)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_divides():
    rng = random.Random(2)
    for _ in range(60):
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert (a % g).is_zero() and (b % g).is_zero()
        assert g == g.monic()


def test_ratfunc_canonical():
    # denominators are monic, fractions are reduced
    r = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))      # 2s / 4s^2
    assert r == RatFunc(Poly([Fraction(1, 2)]), Poly([0, 1]))
    assert r.den.monic() == r.den


def test_ratfunc_field_axioms():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_ratfunc_zero_division():
    with pytest.raises(DivisionByZero):
        RatFunc.s() / QS.coerce(0)
    with pytest.raises(DivisionByZero):
        RatFunc(Poly([1]), Poly([0]))
    with pytest.raises(DivisionByZero):
        RatFunc(0, 0)
    with pytest.raises(DivisionByZero):
        RatFunc(Poly.s(), 0)
    with pytest.raises(DivisionByZero):
        RatFunc(0).inv()


def test_parse_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2") == -2
    assert parse_rat("(1+1)/4") == Fraction(1, 2)
    assert parse_rat("2^-3") == Fraction(1, 8)
    with pytest.raises(ScalarParseError):
        parse_rat("s")


@pytest.mark.parametrize("src, position", [("", 0), ("2+", 2), ("2*", 2)])
def test_parse_names_the_end_of_input(src, position):
    for field in (QQ, QS):
        with pytest.raises(ScalarParseError) as err:
            field.parse(src)
        assert str(err.value) == \
            f"unexpected end of input at position {position}"


def test_parse_ratfunc():
    s = RatFunc.s()
    assert parse_ratfunc("s") == s
    assert parse_ratfunc("2s") == QS.coerce(2) * s
    assert parse_ratfunc("s^2 + 1") == s * s + QS.coerce(1)
    assert parse_ratfunc("s^-2") == QS.coerce(1) / (s * s)
    assert parse_ratfunc("1/(s+1)") == QS.coerce(1) / (s + QS.coerce(1))
    assert parse_ratfunc("(3s - 2)/(s^2)") == \
        (QS.coerce(3) * s - QS.coerce(2)) / (s * s)


def test_scalar_exponent_limit():
    s = RatFunc.s()
    assert parse_ratfunc("s^2") == s * s
    assert parse_ratfunc(f"s^{MAX_EXPONENT}").num.degree == MAX_EXPONENT
    for src in (f"s^{MAX_EXPONENT + 1}", "s^100000", "(s+1)^-100000"):
        with pytest.raises(ScalarParseError):
            parse_ratfunc(src)
    with pytest.raises(ScalarParseError):
        parse_rat("2^100000")


def test_power_size_limit():
    # the degree and the coefficient size a power builds are bounded, so
    # nested powers cannot get round the per-exponent limit
    assert parse_ratfunc("(s^2)^500").num.degree == MAX_EXPONENT
    assert parse_rat("(2^1000)^9") == 2 ** 9000
    for src in ("(s^1000)^1000", "(s^30)^1000", "((s+1)^30)^100",
                "(s^2)^501", "(2^1000)^1000", "(1/(s+1))^1001"):
        with pytest.raises(ScalarParseError):
            parse_ratfunc(src)
    with pytest.raises(ScalarParseError):
        parse_rat("(2^1000)^1000")
    # 2^100 has 101 bits
    assert scalar.MAX_POWER_BITS == 20000
    assert parse_rat("(2^100)^198") == 2 ** 19800
    with pytest.raises(ScalarParseError, match="coefficient bits"):
        parse_rat("(2^100)^199")


def test_power_of_ratfunc_is_canonical_and_fast():
    # powers multiply numerator and denominator apart, with no gcd; the
    # power 0 and the powers of a constant are stored rationals
    for src in ("(s+1)/(s+2)", "(s/2 + 1/3)/(3*s^2 - 1)", "2/3", "s", "0"):
        base = parse_ratfunc(src)
        acc = QS.one
        for k in range(11):
            got = parse_ratfunc(f"({src})^{k}")
            assert got == acc and is_stored_qs(got)
            assert type(got) is type(acc)
            if type(got) is RatFunc:
                assert (got.num, got.den) == (acc.num, acc.den)
                assert (got.den is scalar._ONE) == (acc.den is scalar._ONE)
            acc = QS.coerce(acc * base)
    start = time.process_time()
    big = parse_ratfunc("((s+1)/(s+2))^400")
    assert time.process_time() - start < 1.0
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    assert (big.num.coeffs, big.den.coeffs) == \
        _sympy_canonical(sympy, s, ((s + 1) / (s + 2)) ** 400)


def test_format_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        r = rand_ratfunc(rng)
        assert parse_ratfunc(format_scalar(r)) == r
    for _ in range(100):
        p = rand_poly(rng, 3)
        assert parse_ratfunc(format_poly(p)) == RatFunc(p)


def test_field_descriptors():
    assert FIELDS["q"] is QQ and FIELDS["qs"] is QS
    assert QQ.coerce(3) == Fraction(3)
    assert QS.coerce(Fraction(1, 2)) == RatFunc(Poly.const(Fraction(1, 2)))
    assert QS.parse("s/2") == RatFunc.s() * QS.coerce(Fraction(1, 2))
    assert format_scalar(Fraction(-1, 3)) == "-1/3"
    assert QS.format(Fraction(-13, 5)) == "-(13/5)"
    assert QS.format(Fraction(2, 3)) == "(2/3)" and QS.format(-4) == "-4"


def test_qs_constants_are_stored_rationals():
    """A value of Q(s) is a RatFunc exactly when it holds s: 0 and 1,
    coerced and parsed constants, and the constant results of RatFunc
    arithmetic are stored rationals.  A constant RatFunc built by the
    constructor equals and hashes as its rational, and ``QS.coerce``
    demotes it."""
    assert (QS.zero, QS.one) == (0, 1)
    assert type(QS.zero) is int and type(QS.one) is int
    for c in (0, 3, Fraction(-1, 2)):
        built = RatFunc(Poly.const(c))
        assert built == c and c == built and hash(built) == hash(c)
        for got in (QS.coerce(built), QS.coerce(Poly.const(c)),
                    QS.coerce(c), QS.parse(str(c))):
            assert got == c and type(got) is type(c)
    assert QS.coerce(True) == 1 and type(QS.coerce(True)) is int
    with pytest.raises(TypeError):
        QS.coerce(0.5)
    s = RatFunc.s()
    for src, want in (("s/s", 1), ("(s/s)/(s/s)", 1), ("s - s", 0),
                      ("(s+1)/(2s+2)", Fraction(1, 2)), ("(s/s)^-1", 1),
                      ("s^0", 1), ("2/3 * (s - s + 1)", Fraction(2, 3))):
        got = QS.parse(src)
        assert got == want and type(got) is type(want), src
    for got, want in ((s + 1 - s, 1), (s * QS.inv(s), 1), (s / s, 1),
                      ((s + 1) / (2 * s + 2), Fraction(1, 2)), (s - s, 0)):
        assert got == want and type(got) is type(want)
    assert s != 0 and s != 1 and s * 0 == 0 and type(s * 0) is int
    with pytest.raises(DivisionByZero):
        s / 0
    with pytest.raises(DivisionByZero):
        QS.inv(0)


# ---------------------------------------------------------------------------
# differential check of Q(s) arithmetic against sympy

def _operand(rng):
    """Random element of Q(s) in its stored form: zero, constant,
    polynomial, quotient, or a quotient built with a common factor that
    construction must cancel."""
    kind = rng.randrange(5)
    if kind == 0:
        return QS.zero
    if kind == 1:
        return QS.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if kind == 2:
        return QS.coerce(rand_poly(rng, 2))
    num, den = rand_poly(rng, 2), rand_poly(rng, 2)
    while den.is_zero():
        den = rand_poly(rng, 2)
    if kind == 4:
        common = Poly([rng.randint(-3, 3), rng.choice([1, 2])])
        num, den = num * common, den * common
    return QS.coerce(RatFunc(num, den))


def _parts(x):
    """Coefficients of the numerator and the monic denominator of a value
    of Q(s), a rational's included."""
    if type(x) is RatFunc:
        return x.num.coeffs, x.den.coeffs
    return ((x,) if x else ()), (1,)


def _sympy_canonical(sympy, s, expr):
    """Coefficients, lowest degree first, of sympy's reduced quotient of
    expr, scaled so that the denominator is monic."""
    p, q = sympy.fraction(sympy.cancel(expr))
    lead = sympy.Poly(q, s).LC()

    def coeffs(e):
        poly = sympy.Poly(sympy.expand(e / lead), s)
        cs = [Fraction(int(c.p), int(c.q))
              for c in reversed(poly.all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    return coeffs(p), coeffs(q)


def _assert_canonical(r):
    assert r.den.leading() == 1
    assert poly_gcd(r.num, r.den) == Poly.const(1)


def test_ratfunc_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(5)
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    # two rationals divide by QS.inv, since int / int is a float
    engine = dict(ops, **{"/": lambda a, b: a / b if RatFunc in (
        type(a), type(b)) else a * QS.inv(b)})
    checked = 0
    for _ in range(400):
        a = _operand(rng)
        b = _operand(rng)
        if rng.random() < 0.3 and type(a) is RatFunc:
            # equal denominators
            b = QS.coerce(RatFunc(rand_poly(rng, 2), a.den))
        op = rng.choice(sorted(ops))
        if op == "/" and not b:
            with pytest.raises(DivisionByZero):
                engine[op](a, b)
            continue
        got = engine[op](a, b)
        if RatFunc not in (type(a), type(b)):
            got = stored(got)  # plain Fraction arithmetic
        assert is_stored_qs(got), (a, op, b, got)
        if type(got) is RatFunc:
            _assert_canonical(got)
        want = _sympy_canonical(
            sympy, s, ops[op](to_sympy(sympy, s, a), to_sympy(sympy, s, b)))
        assert _parts(got) == want, (a, op, b)
        checked += 1
    assert checked > 300


def test_ratfunc_construction_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(6)
    for _ in range(300):
        num = rand_poly(rng, rng.randint(0, 3))
        den = rand_poly(rng, rng.randint(0, 2))
        if den.is_zero():
            continue
        if rng.random() < 0.4:
            common = Poly([rng.randint(-3, 3), 1])
            num, den = num * common, den * common
        got = RatFunc(num, den)
        _assert_canonical(got)
        expr = sympy_poly(sympy, s, num) / sympy_poly(sympy, s, den)
        assert (got.num.coeffs, got.den.coeffs) == \
            _sympy_canonical(sympy, s, expr)


@PROPERTY
@given(scalars(QS))
def test_neg_and_inv_build_canonical_values(x):
    if type(x) is not RatFunc:
        for got, want in ((-x, -Fraction(x)), (QS.inv(x), 1 / Fraction(x))):
            assert got == want and is_stored(got)
        return
    for got, want in ((-x, RatFunc(-x.num, x.den)),
                      (QS.inv(x), RatFunc(x.den, x.num))):
        assert is_stored_qs(got)
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den.leading() == 1
        assert poly_gcd(got.num, got.den) == Poly.const(1)
        if got.den.degree == 0:
            # the shared constant denominator keeps RatFunc.__mul__'s fast
            # path for products of polynomials
            assert got.den is scalar._ONE


# ---------------------------------------------------------------------------
# the gcd over the integers (GCDHEU) against sympy and the Euclidean loop

def _big_poly(rng, degree, bits):
    """Random polynomial of exactly ``degree`` with coefficients of up to
    ``bits`` bits, a third of them with a denominator too."""
    def coeff():
        c = Fraction(rng.randint(-2 ** bits, 2 ** bits))
        if rng.random() < 0.33:
            c /= rng.randint(1, 2 ** bits)
        return c

    cs = [coeff() for _ in range(degree)]
    lead = coeff()
    while not lead:
        lead = coeff()
    return Poly(cs + [lead])


def _gcd_cases(rng, count):
    """Pairs with a planted common factor (total degree at most 8), coprime
    pairs, and pairs where one part is a constant multiple of the other."""
    for k in range(count):
        bits = rng.choice([3, 16, 64])
        kind = k % 3
        if kind == 0:
            g = _big_poly(rng, rng.randint(1, 4), bits)
            a = g * _big_poly(rng, rng.randint(0, 8 - g.degree), bits)
            b = g * _big_poly(rng, rng.randint(0, 8 - g.degree), bits)
        elif kind == 1:
            a = _big_poly(rng, rng.randint(1, 8), bits)
            b = _big_poly(rng, rng.randint(1, 8), bits)
        else:
            a = _big_poly(rng, rng.randint(1, 8), bits)
            b = a.scale(Fraction(rng.randint(-2 ** bits, -1),
                                 rng.randint(1, 2 ** bits)))
        if rng.random() < 0.5:
            a = -a
        yield a, b


def _sympy_monic_gcd(sympy, s, a, b):
    g = sympy.gcd(sympy_poly(sympy, s, a), sympy_poly(sympy, s, b))
    g = sympy.Poly(g, s, domain="QQ").monic()
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in reversed(g.all_coeffs()))


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    rng = random.Random(7)
    for a, b in _gcd_cases(rng, 150):
        want = _sympy_monic_gcd(sympy, s, a, b)
        assert poly_gcd(a, b).coeffs == want, (a, b)
        assert poly_gcd(b, a).coeffs == want, (b, a)
        # the common factor is divided out exactly, the value kept
        got = RatFunc(a, b)
        _assert_canonical(got)
        assert got.num * b == got.den * a


def test_euclidean_fallback_agrees_with_gcdheu():
    rng = random.Random(8)
    for a, b in _gcd_cases(rng, 90):
        assert scalar._heu_gcd(a.prim, b.prim) is not None
        assert poly_gcd(a, b) == scalar._euclid_gcd(a, b)
    for a, b in ((Poly(), Poly()), (Poly([0, 2]), Poly()),
                 (Poly(), Poly([3, -6])), (Poly([5]), Poly([0, 1]))):
        assert poly_gcd(a, b) == scalar._euclid_gcd(a, b)


def test_poly_gcd_falls_back_when_gcdheu_gives_up(monkeypatch):
    cases = list(_gcd_cases(random.Random(9), 30))
    want = [poly_gcd(a, b) for a, b in cases]
    monkeypatch.setattr(scalar, "HEU_TRIES", 0)
    for (a, b), g in zip(cases, want):
        assert scalar._heu_gcd(a.prim, b.prim) is None
        assert poly_gcd(a, b) == g


def test_gcdheu_rejects_a_candidate_that_does_not_divide(monkeypatch):
    # at the first evaluation point the digits of gcd(f(xi), g(xi)) spell
    # a polynomial that does not divide f; the next point finds s(2s - 3)
    s = Poly.s()
    common = s * Poly([-3, 2])
    a = common * Poly([-1, -1])
    b = common * Poly([-2, 1, -3])
    quotients = []
    exact_quo = scalar._exact_quo

    def spy(f, g):
        q = exact_quo(f, g)
        quotients.append(q)
        return q

    monkeypatch.setattr(scalar, "_exact_quo", spy)
    assert poly_gcd(a, b) == common.monic()
    assert quotients[0] is None
    assert quotients[-1] is not None
    monkeypatch.undo()
    assert RatFunc(a, b) == RatFunc(Poly([-1, -1]), Poly([-2, 1, -3]))


# ---------------------------------------------------------------------------
# field axioms of Q(s), up to degree 3 with rational coefficients

_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
_polys3 = st.lists(_coeffs, max_size=4).map(Poly)
_nonzero_polys3 = _polys3.filter(lambda p: not p.is_zero())
_qs = st.builds(RatFunc, _polys3, _nonzero_polys3).map(QS.coerce)


@PROPERTY
@given(_qs, _qs, _qs)
def test_qs_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(_qs.filter(bool))
def test_qs_inverse(x):
    # a RatFunc times its inverse is demoted to the int 1; a rational
    # product is stored as exactla stores it
    one = stored(x * QS.inv(x))
    assert one == 1 and type(one) is int


_S = QS.parse("s")


@settings(PROPERTY, max_examples=60)  # sympy's cancel is slow
@given(_qs.filter(lambda x: type(x) is RatFunc),
       _qs | st.builds(Fraction, st.integers(-9, 9),
                       st.integers(1, 4)).map(QS.coerce))
@example(_S + 1, -_S)  # a sum that cancels to a constant
@example((_S + 1) / (_S - 1), (_S - 1) / (_S + 1))  # a product that is 1
@example(_S, _S)
def test_mixed_arithmetic_matches_sympy(a, b):
    """A RatFunc ``a`` with ``b``, a RatFunc or a rational: +, -, * and /
    in both operand orders, unary -, inverse, == and hash agree with sympy,
    and every result is in its stored form."""
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    sa, sb = to_sympy(sympy, s, a), to_sympy(sympy, s, b)
    cases = [((a + b, b + a), sa + sb), ((a - b,), sa - sb),
             ((b - a,), sb - sa), ((a * b, b * a), sa * sb), ((-a,), -sa),
             ((-b,), -sb), ((b / a,), sb / sa), ((QS.inv(a),), 1 / sa)]
    if b:
        cases += [((a / b,), sa / sb), ((QS.inv(b),), 1 / sb)]
    else:
        with pytest.raises(DivisionByZero):
            a / b
    for results, want in cases:
        want = _sympy_canonical(sympy, s, want)
        for got in results:
            assert is_stored_qs(got), got
            assert _parts(got) == want
    equal = sympy.cancel(sa - sb) == 0
    assert (a == b) == (b == a) == equal and (a != b) != equal
    if equal:
        assert hash(a) == hash(b)


@PROPERTY
@given(_polys3, _nonzero_polys3, _nonzero_polys3)
def test_common_factor_cancels(n, d, g):
    got, want = RatFunc(n * g, d * g), RatFunc(n, d)
    assert (got.num.coeffs, got.den.coeffs) == \
        (want.num.coeffs, want.den.coeffs)
    assert (got.den is scalar._ONE) == (want.den is scalar._ONE)
