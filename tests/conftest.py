import pytest
from hypothesis import strategies as st

from colshuffle import ColouredInteger, ColouredPermutation, LaurentPoly


@st.composite
def coloured_integers(draw, max_symbol=9, max_colour=4):
    return ColouredInteger(draw(st.integers(1, max_symbol)),
                           draw(st.integers(0, max_colour)))


@st.composite
def coloured_permutations(draw, max_len=5, max_colour=3, symbol_pool=12):
    length = draw(st.integers(0, max_len))
    symbols = draw(st.permutations(range(1, symbol_pool + 1)))[:length]
    colours = draw(st.lists(st.integers(0, max_colour),
                            min_size=length, max_size=length))
    return ColouredPermutation(zip(symbols, colours))


@st.composite
def laurent_polys(draw, max_terms=4, exp_range=4):
    terms = draw(st.dictionaries(
        st.integers(-exp_range, exp_range),
        st.one_of(st.integers(-9, 9),
                  st.fractions(min_value=-9, max_value=9, max_denominator=5)),
        max_size=max_terms))
    return LaurentPoly(terms)


@pytest.fixture
def two_letter_pair():
    """The pair of one-symbol configurations whose shuffle has 8 terms."""
    from colshuffle import parse_labelled_configuration
    lhs = parse_labelled_configuration("1 * 1^0\n1 * 1^1\n1 -> -X^-1\n")
    rhs = parse_labelled_configuration("1 * 2^0\n1 * 2^2\n2 -> -X^-2\n")
    return lhs, rhs
