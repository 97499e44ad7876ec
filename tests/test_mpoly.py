from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from colshuffle import LaurentPoly
from colshuffle.mpoly import divide_by_factors, multiply_by_factors
from conftest import assert_no_zero_stored, laurent_polys
from polyoracle import MPoly, monomial, monomial_mul

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


def dict_and_sort_product(a, b):
    """The product of two monomials as a dict of exponents, sorted."""
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in acc.items() if e))


# variables of every shape the library uses; qvar-style keys sort among the
# others, and negative exponents let a product cancel a variable
PRODUCT_VARS = VARS + [("p", 2), ("x", 1, 0), ("x", 1, 2), ("x", 3, 1)]
signed_monomials = st.dictionaries(
    st.sampled_from(PRODUCT_VARS),
    st.integers(-2, 3).filter(bool), max_size=5).map(
        lambda exps: tuple(sorted(exps.items())))


@given(signed_monomials, signed_monomials)
def test_monomial_mul_is_the_dict_and_sort_product(a, b):
    """One-variable right operands are spliced in, others go through
    ``monomial``: both give the reference product, one variable at a time
    too."""
    assert monomial_mul(a, b) == dict_and_sort_product(a, b)
    for pair in b:
        assert monomial_mul(a, (pair,)) == dict_and_sort_product(a, (pair,))


@pytest.mark.parametrize("var,exp", [
    (("p", 0), 1),      # before every variable of a
    (("p", 2), 2),      # between two of them
    (("x", 1, 2), 1),   # between two of them
    (("z",), 1),        # after every one
    (("x",), 2),        # equal: the exponents add
    (("x", 1, 0), -1),  # equal: the variable cancels
])
def test_monomial_mul_splices_one_variable(var, exp):
    a = ((("p", 1), 1), (("x",), 1), (("x", 1, 0), 1), (("x", 3, 1), 2))
    assert monomial_mul(a, ((var, exp),)) == dict_and_sort_product(
        a, ((var, exp),))


@pytest.mark.parametrize("b", [
    ((("p", 0), 1), (("z",), 1)),                  # around every variable of a
    ((("p", 2), 1), (("x", 1, 2), 3)),             # between them
    ((("p", 1), -1), (("x",), 2), (("z",), 1)),    # a cancel, a sum, a tail
    ((("p", 1), -1), (("x",), -1), (("x", 1, 0), -1), (("x", 3, 1), -2)),
    ((("x", 1, 0), 1), (("x", 3, 1), -2)),         # a's head is the tail
])
def test_monomial_mul_merges_several_variables(b):
    a = ((("p", 1), 1), (("x",), 1), (("x", 1, 0), 1), (("x", 3, 1), 2))
    for left, right in ((a, b), (b, a)):
        assert monomial_mul(left, right) == dict_and_sort_product(left, right)


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
    assert_no_zero_stored(a + b, a - b, -a, a * b, (a + b) * c,
                          a.mul_monomial(monomial((("z",), 1)), -2),
                          a.add_mul(b, monomial((("x",), 1)), 3))


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
    assert_no_zero_stored(*product, *divide_by_factors(coeffs, factors))
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


# -- Laurent products against the schoolbook ----------------------------------

def schoolbook(a, b):
    """The product of two Laurent polynomials, term by term."""
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dense(coefficients, low=0):
    return LaurentPoly({low + i: c for i, c in enumerate(coefficients)})


SCALES = (1, 2**7, 2**8, 2**63, 2**64, 2**65, 2**200)


@st.composite
def dense_laurent_polys(draw):
    """A Laurent polynomial of 1 to 21 terms on a span of at most 4 times
    its term count, at a drawn coefficient scale."""
    n = draw(st.integers(1, 21))
    low = draw(st.integers(-30, 30))
    exponents = draw(st.lists(st.integers(low, low + 4 * n - 1),
                              min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from(SCALES))
    values = st.integers(-scale, scale).filter(bool)
    return LaurentPoly({e: draw(values) for e in exponents})


@given(dense_laurent_polys(), dense_laurent_polys())
def test_packed_product_is_the_schoolbook_product(a, b):
    expected = schoolbook(a, b)
    product = a * b
    assert product.coeffs == expected
    assert_no_zero_stored(product)


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 200])
def test_packed_product_at_the_digit_width_boundaries(n, bits):
    # all-equal operands put the bound n*|t| itself in the middle
    # coefficient: just below, at and just above 2^bits, with either sign
    for t in (2**bits // n - 1, 2**bits // n, 2**bits // n + 1):
        for sign_a, sign_b in ((1, 1), (1, -1), (-1, 1)):
            a = dense([sign_a] * n, low=-n)
            b = dense([sign_b * t] * n, low=3)
            expected = schoolbook(a, b)
            assert (a * b).coeffs == expected


def test_packed_product_cancels():
    # (1 + X + ... + X^7)(1 - X + ... - X^7) = (1 - X^8)(1 + X^2 + X^4 + X^6):
    # every odd coefficient cancels to zero
    n = 8
    a, b = dense([1] * n), dense([(-1) ** i for i in range(n)])
    product = a * b
    assert product.coeffs == {0: 1, 2: 1, 4: 1, 6: 1,
                              8: -1, 10: -1, 12: -1, 14: -1}
    # huge terms that cancel, and a product that is zero altogether
    big = dense([2**200 + i for i in range(n)], low=-5)
    assert (big * a - a * big).is_zero()
    assert (big * LaurentPoly.zero()).is_zero()
    assert (big * (a - a)).is_zero()


def test_fraction_coefficients_take_the_dict_product():
    a = dense([1, 2, Fraction(1, 3), -4, 5, 6, 7, 8], low=-2)
    b = dense(range(1, 9))
    assert (a * b).coeffs == schoolbook(a, b)
    assert (a * b).coeffs[-2] == 1
    assert (b * a) == a * b
    assert_no_zero_stored(a * b, b * a)


def test_sparse_operands_take_the_dict_product():
    a = LaurentPoly({0: 1, 10**6: 1})
    assert (a * a).coeffs == {0: 1, 10**6: 2, 2 * 10**6: 1}
    wide = dense([1] * 7) + LaurentPoly({10**6: -1})
    assert (wide * wide).coeffs == schoolbook(wide, wide)


@pytest.mark.parametrize("coeffs,text", [
    ({0: 1}, "1"), ({0: -1}, "-1"),
    ({0: Fraction(1, 2)}, "1/2"), ({0: Fraction(-1, 2)}, "-1/2"),
    ({1: -1}, "-X"), ({}, "0"),
])
def test_laurent_text_pinned(coeffs, text):
    """Constants print their sign and value, a unit coefficient is elided."""
    p = LaurentPoly(coeffs)
    assert p.to_text() == p.to_text(latex=True) == text
