"""Exact coefficient arithmetic in Q(v) and Q(sqrt(q))."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diskhall.presentation import SELF_EXT
from diskhall.scalar import (ONE, Q, V, ZERO, PoleError, QuadraticScalar,
                             RationalFunctionV, _padd, _pdivmod, _pgcd, _pmul, _poly,
                             _pscale,
                             evaluate_at, is_prime_power, prime_power_decompose)
from hall_oracle import sqrt_q_power

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_canonical_form_is_structural():
    # (v^2 - 1)/(v - 1) must reduce to v + 1 on construction
    x = (V * V - ONE) / (V - ONE)
    assert x == V + ONE
    assert hash(x) == hash(V + ONE)


def test_v_and_q_powers():
    assert V * V == Q
    assert RationalFunctionV.v_power(-3) * RationalFunctionV.v_power(3) == ONE
    assert RationalFunctionV.q_power(2) == V ** 4
    assert V ** 0 == ONE


def test_negative_integer_pow():
    assert V ** -2 == ONE / Q
    x = (V + ONE) ** -1
    assert x * (V + ONE) == ONE


def test_pow_rejects_fractional_exponent():
    with pytest.raises(TypeError):
        V ** 0.5


def test_zero_and_division():
    assert ZERO.is_zero()
    assert (V - V).is_zero()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@given(rationals, rationals)
def test_rational_embedding_is_a_homomorphism(a, b):
    ra = RationalFunctionV.from_rational(a)
    rb = RationalFunctionV.from_rational(b)
    assert ra + rb == RationalFunctionV.from_rational(a + b)
    assert ra * rb == RationalFunctionV.from_rational(a * b)


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_v_power_additivity(n, k):
    assert RationalFunctionV.v_power(n) * RationalFunctionV.v_power(k) \
        == RationalFunctionV.v_power(n + k)


def test_field_inverse_roundtrip():
    x = (V ** 3 - 2 * V + ONE) / (V ** 2 + 7)
    assert x * x.inverse() == ONE
    assert ONE / x == x.inverse()


def general_canonical(num, den):
    """The canonical form by the general route: divide by the monic gcd,
    then make the denominator monic."""
    num, den = _poly(num), _poly(den)
    if not num:
        return (), (Fraction(1),)
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    return _pscale(num, 1 / den[-1]), _pscale(den, 1 / den[-1])


polys = st.lists(rationals, max_size=5)
laurent = st.tuples(st.integers(0, 4), rationals.filter(bool)).map(
    lambda kc: [0] * kc[0] + [kc[1]])


@given(num=polys, den=st.one_of(laurent, polys.filter(lambda p: any(p))))
def test_laurent_fast_path_matches_general_route(num, den):
    """A denominator c*v^k takes the fast path (strip v^min(k, ord num));
    every other one the gcd route.  Both must give the general canonical
    form: monic denominator coprime to the numerator."""
    x = RationalFunctionV(num, den)
    assert (x.num, x.den) == general_canonical(num, den)


nonzero_polys = st.one_of(laurent, polys.filter(lambda p: any(p)))


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_memoised_arithmetic_matches_polynomial_route(n1, d1, n2, d2):
    """``+`` and ``*`` are memoised per operand pair: the first call and the
    memo hit both equal the canonical form of the polynomial formula, an
    equal operand built anew finds the same result object, and the hash
    stored at construction is hash((num, den))."""
    x, y = RationalFunctionV(n1, d1), RationalFunctionV(n2, d2)
    product = RationalFunctionV(_pmul(x.num, y.num), _pmul(x.den, y.den))
    total = RationalFunctionV(_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)),
                              _pmul(x.den, y.den))
    for _ in range(2):
        assert x * y == product
        assert x + y == total
    assert RationalFunctionV(n1, d1) * RationalFunctionV(n2, d2) is x * y
    assert RationalFunctionV(n1, d1) + RationalFunctionV(n2, d2) is x + y
    for z in (x, y, x * y, x + y, -x):
        assert hash(z) == hash((z.num, z.den))


def test_laurent_fast_path_examples():
    assert (RationalFunctionV([0, 0, 3], [0, 0, 0, 2]).num,
            RationalFunctionV([0, 0, 3], [0, 0, 0, 2]).den) == ((Fraction(3, 2),), (0, 1))
    assert RationalFunctionV([0, 0, 0, 5], [0, -5]) == -(V * V)
    x = SELF_EXT
    assert (x.num, x.den) == general_canonical((1,), (0, -1, 0, 1))
    assert (x.num, x.den) == ((1,), (0, -1, 0, 1))


def test_str_is_readable():
    assert str(V) == "v"
    assert str(ONE / (V ** 2 - ONE)) == "1/(-1 + v^2)"


# -- specialization at v = sqrt(q) ------------------------------------------

def test_evaluate_at_non_square():
    s = evaluate_at(V, 2)
    assert (s.a, s.b) == (0, 1)
    assert evaluate_at(V ** 2, 2) == 2


def test_evaluate_at_perfect_square_folds():
    s = evaluate_at(V, 4)
    assert (s.a, s.b) == (2, 0)
    assert evaluate_at(V ** -1 / (V ** 2 - ONE), 4) == Fraction(1, 6)
    assert evaluate_at(V ** -1 / (V ** 2 - ONE), 9) == Fraction(1, 24)


def test_evaluate_pole():
    with pytest.raises(PoleError):
        evaluate_at(ONE / (V ** 2 - 2), 2)


@given(rationals, rationals, rationals, rationals)
def test_quadratic_scalar_ring_laws(a, b, c, d):
    x = QuadraticScalar(2, a, b)
    y = QuadraticScalar(2, c, d)
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    if not x.is_zero():
        assert x * x.inverse() == QuadraticScalar(2, 1)


@pytest.mark.parametrize("q", [2, 4, 9])
@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_arithmetic_matches_constructor(q, a, b, c, d):
    """+, - and * build results without re-validating q; each must equal and
    hash like the value the validating constructor builds (which folds b
    into a when q is a square)."""
    x, y = QuadraticScalar(q, a, b), QuadraticScalar(q, c, d)
    for got, want in ((x + y, QuadraticScalar(q, a + c, b + d)),
                      (-x, QuadraticScalar(q, -a, -b)),
                      (x - y, QuadraticScalar(q, a - c, b - d)),
                      (x * y, QuadraticScalar(q, a * c + b * d * q, a * d + b * c))):
        assert got == want and hash(got) == hash(want)
        assert (got.q, got.a, got.b) == (want.q, want.a, want.b)
        assert type(got.a) is Fraction and type(got.b) is Fraction


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@given(a=st.one_of(st.just(0), rationals), b=st.one_of(st.just(0), rationals),
       c=st.one_of(st.just(0), rationals), d=st.one_of(st.just(0), rationals))
def test_sparse_product_matches_full_formula(q, a, b, c, d):
    """* skips the zero halves of its operands; the product must still be
    (a + b r)(c + d r) = (ac + bd q) + (ad + bc) r with r = sqrt(q), in both
    orders and with Fraction parts."""
    x, y = QuadraticScalar(q, a, b), QuadraticScalar(q, c, d)
    want = QuadraticScalar(q, x.a * y.a + x.b * y.b * q, x.a * y.b + x.b * y.a)
    for got in (x * y, y * x):
        assert (got.q, got.a, got.b) == (want.q, want.a, want.b)
        assert type(got.a) is Fraction and type(got.b) is Fraction


def test_constructor_validates_q():
    with pytest.raises(ValueError):
        QuadraticScalar(6, 1)


def test_quadratic_scalar_mixed_q_rejected():
    with pytest.raises(ValueError):
        QuadraticScalar(2, 1) + QuadraticScalar(3, 1)


def test_sqrt_q_power():
    assert sqrt_q_power(2, 2) == 2
    assert sqrt_q_power(2, -2) == Fraction(1, 2)
    odd = sqrt_q_power(3, 3)
    assert (odd.a, odd.b) == (0, 3)


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(7) == (7, 1)
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(1) is None
    assert is_prime_power(27) and not is_prime_power(6)
