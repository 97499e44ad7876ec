from hypothesis import given, strategies as st

from colshuffle.mpoly import (MPoly, divide_by_factors, monomial,
                              monomial_mul, multiply_by_factors)
from conftest import laurent_polys

VARS = [("x",), ("p", 0), ("p", 1), ("z",)]
T = ("t",)  # the series variable, kept apart from VARS

monomials = st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)),
                     max_size=2).map(lambda pairs: monomial(*pairs))
coefficients = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=5))


@st.composite
def mpolys(draw):
    n_terms = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n_terms):
        coeffs[draw(monomials)] = draw(coefficients)
    return MPoly(coeffs)


def test_monomial_normalisation():
    assert monomial((("x",), 2), (("x",), 1)) == ((("x",), 3),)
    assert monomial((("x",), 0)) == ()
    assert monomial_mul(monomial((("x",), 1)), monomial((("p", 1), 2))) == \
        ((("p", 1), 2), (("x",), 1))


@given(mpolys(), mpolys(), mpolys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MPoly.zero() == a
    assert a * MPoly.one() == a
    assert (a - a).is_zero()


def test_mul_monomial_matches_term_product():
    p = MPoly.variable(("x",), 2) + MPoly.constant(3)
    mono = monomial((("z",), 1))
    assert p.mul_monomial(mono, 2) == p * MPoly.term(mono, 2)


@st.composite
def series_and_factors(draw):
    """A truncated series with MPoly or LaurentPoly coefficients and factors
    (c, key) of its key type; c may be zero, negative or a fraction, and a
    factor may repeat."""
    laurent = draw(st.booleans())
    coeffs = draw(st.lists(laurent_polys() if laurent else mpolys(),
                           min_size=1, max_size=5))
    keys = st.integers(-4, 4) if laurent else monomials
    factors = draw(st.lists(st.tuples(coefficients, keys), max_size=4))
    if factors and draw(st.booleans()):
        factors.append(draw(st.sampled_from(factors)))
    return coeffs, factors


@given(series_and_factors())
def test_multiply_and_divide_by_factors_are_inverse(case):
    coeffs, factors = case
    product = multiply_by_factors(coeffs, factors)
    assert len(product) == len(coeffs)
    assert divide_by_factors(product, factors) == coeffs
    assert multiply_by_factors(divide_by_factors(coeffs, factors),
                               factors) == coeffs


def t_series(coeffs):
    """coeffs[0] + coeffs[1]*t + ... as one MPoly in t and VARS."""
    out = MPoly.zero()
    for k, c in enumerate(coeffs):
        out = out + c.mul_monomial(monomial((T, k)))
    return out


@given(st.lists(mpolys(), min_size=1, max_size=5),
       st.lists(st.tuples(coefficients, monomials), max_size=4))
def test_multiply_by_factors_is_the_truncated_product(coeffs, factors):
    # the schoolbook product with every 1 - c*m*t, cut at the series order
    product = t_series(coeffs)
    for c, key in factors:
        product = product * (MPoly.one() - MPoly.term(key, c)
                             * MPoly.variable(T))
    truncated = MPoly({mono: c for mono, c in product.coeffs.items()
                       if dict(mono).get(T, 0) < len(coeffs)})
    assert t_series(multiply_by_factors(coeffs, factors)) == truncated
