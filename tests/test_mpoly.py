from hypothesis import given, strategies as st

from colshuffle.mpoly import MPoly, monomial, monomial_mul


@st.composite
def mpolys(draw):
    vars_ = [("x",), ("p", 0), ("p", 1), ("z",)]
    n_terms = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n_terms):
        mono = monomial(*[(draw(st.sampled_from(vars_)), draw(st.integers(1, 3)))
                          for _ in range(draw(st.integers(0, 2)))])
        coeffs[mono] = draw(st.one_of(
            st.integers(-5, 5),
            st.fractions(min_value=-5, max_value=5, max_denominator=5)))
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
