import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from colshuffle import (ColouredConfiguration, Label, LabelledConfiguration,
                        LaurentPoly, OrderMismatch, RationalGF, SeriesY,
                        SignedMonomial, ZeroSubstitution, canonicalize, equal,
                        evaluate_label, expand, parse_permutation, scale_y,
                        substitute, w_of)
from colshuffle.ratfun import _ypoly_add, _ypoly_from_factors, _ypoly_mul
from conftest import coloured_permutations, laurent_polys

P = parse_permutation
one = Fraction(1)


def lp(**monomials):
    """LaurentPoly from keyword exponents written as e<k> / em<k>."""
    out = {}
    for key, coeff in monomials.items():
        exp = int(key[2:]) * -1 if key.startswith("em") else int(key[1:])
        out[exp] = Fraction(coeff)
    return LaurentPoly(out)


def remultiply(series, rgf):
    """Oracle: multiply an expansion back by the denominator, compare with
    the numerator through the truncation order."""
    den = _ypoly_from_factors(rgf.denominator)
    product = series.cauchy_mul(den)
    want = [rgf.numerator.get(k, LaurentPoly.zero())
            for k in range(series.order + 1)]
    return list(product.coefficients) == want


# -- Laurent polynomial ring laws ---------------------------------------------

@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert (a - a).is_zero()


def test_int_and_fraction_coefficients_agree():
    plain, rational = LaurentPoly({0: 1}), LaurentPoly({0: Fraction(1)})
    assert plain == rational
    assert hash(plain) == hash(rational)
    assert (RationalGF({0: plain}, [(1, 0)]).to_json()
            == RationalGF({0: rational}, [(Fraction(1), 0)]).to_json())


def test_laurent_eval():
    p = lp(e1=1, e0=-2, em1=1)  # X - 2 + X^-1
    assert p.eval_at(Fraction(2)) == Fraction(1, 2)
    with pytest.raises(ZeroSubstitution):
        p.eval_at(Fraction(0))


# -- expansion -----------------------------------------------------------------

def test_expand_geometric():
    r = RationalGF.geometric()
    series = expand(r, 3)
    assert list(series.coefficients) == [LaurentPoly.one()] * 4


def test_expand_golden_two_factor():
    # (1 - X^-1 Y) / ((1 - Y)(1 - X Y)) to order 1
    r = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1)])
    series = expand(r, 1)
    assert series[0] == LaurentPoly.one()
    assert series[1] == lp(e1=1, e0=1, em1=-1)  # 1 + X - X^-1
    assert remultiply(series, r)


def test_expand_of_two_letter_configuration():
    # W = (1 + XY)/((1 - Y)(1 - XY)); the Y coefficient is
    # (1 + X) from the geometric part plus X from the numerator term
    f = LabelledConfiguration(
        ColouredConfiguration([(P("1^0"), 1), (P("1^1"), 1)]), Label())
    r = w_of(f, 1)
    series = expand(r, 2)
    assert series[0] == LaurentPoly.one()
    assert series[1] == lp(e1=2, e0=1)  # 1 + 2X
    assert remultiply(series, r)


@settings(max_examples=40)
@given(st.integers(0, 8), st.data())
def test_expand_remultiply_round_trip(order, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    numerator = {k: LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)})
                 for k in range(rng.randint(0, 3))}
    denominator = [(Fraction(rng.choice((1, -1, 2))), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 4))]
    r = RationalGF(numerator, denominator)
    assert remultiply(expand(r, order), r)


# -- Hadamard products of series -------------------------------------------------

def test_hadamard_identity_series():
    ones = expand(RationalGF.geometric(), 2)
    assert ones.hadamard(ones) == ones


def test_hadamard_componentwise():
    a = SeriesY([lp(e0=1), lp(e1=1), lp(e2=1)])
    b = SeriesY([lp(e0=1), lp(e0=2), lp(e0=3)])
    result = a.hadamard(b)
    assert list(result.coefficients) == [lp(e0=1), lp(e1=2), lp(e2=3)]


def test_hadamard_order_mismatch():
    with pytest.raises(OrderMismatch):
        SeriesY([lp(e0=1)]).hadamard(SeriesY([lp(e0=1), lp(e0=1)]))


# -- the generating function ------------------------------------------------------

def two_letter_lc(exponent):
    return LabelledConfiguration(
        ColouredConfiguration([(P("1^0"), 1), (P("1^1"), 1)]),
        Label({1: SignedMonomial(-1, exponent)}))


@pytest.mark.parametrize("eps", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("exponent", [-2, 0, 3])
def test_w_of_single_symbol_form(eps, exponent):
    # (1 + alpha(1) X^eps Y) / ((1 - Y)(1 - X^eps Y))
    r = w_of(two_letter_lc(exponent), eps)
    expected = RationalGF(
        {0: LaurentPoly.one(), 1: LaurentPoly.monomial(-1, exponent + eps)},
        [(one, 0), (one, eps)])
    assert r == expected


def test_w_of_degenerate_cases():
    assert w_of(LabelledConfiguration(ColouredConfiguration(), Label()), 1) \
        .is_zero()
    empty_perm = LabelledConfiguration(
        ColouredConfiguration([(P(""), 1)]), Label())
    assert w_of(empty_perm, 5) == RationalGF.geometric()


def w_of_per_term(lc, eps):
    """Reference: one monomial per support term, each brought over the
    common denominator by its own cofactor and added in."""
    config, label = lc.config, lc.label
    if config.is_zero():
        return RationalGF.zero()
    max_len = config.max_length()
    denominator = [(Fraction(1), eps * i) for i in range(max_len + 1)]
    numerator = {}
    for perm, mult in config.terms:
        st_ = perm.stat_triple()
        value = evaluate_label(label, perm)
        base = LaurentPoly.monomial(mult * value.sign,
                                    value.exponent + eps * st_.comaj)
        term = {st_.des: base}
        cofactor = [(Fraction(1), eps * i)
                    for i in range(len(perm) + 1, max_len + 1)]
        if cofactor:
            term = _ypoly_mul(term, _ypoly_from_factors(cofactor))
        numerator = _ypoly_add(numerator, term)
    return RationalGF(numerator, denominator)


@st.composite
def labelled_configurations(draw):
    """Mixed lengths including the empty permutation; small label exponents
    and colours, so that terms often cancel; may be the zero configuration."""
    config = ColouredConfiguration(draw(st.lists(
        st.tuples(coloured_permutations(max_len=4, max_colour=3),
                  st.integers(1, 3)), max_size=6)))
    label = Label({c: SignedMonomial(draw(st.sampled_from((1, -1))),
                                     draw(st.integers(-1, 1)))
                   for c in sorted(config.palette_star())})
    return LabelledConfiguration(config, label)


# 1^1 and 1^2 share (des, comaj) = (1, 1) and carry labels -1 and +1
_CANCELLING = LabelledConfiguration(
    ColouredConfiguration([(P("1^1"), 1), (P("1^2"), 1)]),
    Label({1: SignedMonomial(-1, 0)}))


@example(_CANCELLING, 1)
@example(LabelledConfiguration(ColouredConfiguration(), Label()), 0)
@example(LabelledConfiguration(ColouredConfiguration([(P(""), 2)])), -2)
@given(labelled_configurations(), st.integers(-2, 2))
def test_w_of_structurally_equals_per_term_reference(lc, eps):
    assert w_of(lc, eps) == w_of_per_term(lc, eps)


def test_w_of_cancelling_terms_keep_the_denominator():
    assert w_of(_CANCELLING, 1) == RationalGF({}, [(one, 0), (one, 1)])


# the eight shuffles and their (des, comaj), frozen from the worked example
EIGHT_TERM_TABLE = [
    ("1^0 2^0", 0, 0), ("2^0 1^0", 1, 1), ("1^0 2^2", 1, 1), ("2^2 1^0", 1, 2),
    ("1^1 2^0", 1, 2), ("2^0 1^1", 1, 1), ("1^1 2^2", 2, 3), ("2^2 1^1", 1, 2),
]


def test_w_of_eight_term_oracle():
    """Term-by-term oracle for the shuffled two-symbol configuration with
    alpha(1) = -X^-1, beta(2) = -X^-2 and eps = 1."""
    label = Label({1: SignedMonomial(-1, -1), 2: SignedMonomial(-1, -2)})
    config = ColouredConfiguration((P(t), 1) for t, _, _ in EIGHT_TERM_TABLE)
    lc = LabelledConfiguration(config, label)
    result = w_of(lc, 1)

    # oracle: sum the displayed terms directly from the frozen table
    numerator: dict[int, LaurentPoly] = {}
    for text, des, comaj in EIGHT_TERM_TABLE:
        sign, exponent = 1, comaj
        for token in text.split():
            colour = int(token.split("^")[1])
            if colour == 1:
                sign, exponent = -sign, exponent - 1
            elif colour == 2:
                sign, exponent = -sign, exponent - 2
        term = LaurentPoly.monomial(sign, exponent)
        numerator[des] = numerator.get(des, LaurentPoly.zero()) + term
    expected = RationalGF(numerator, [(one, 0), (one, 1), (one, 2)])
    assert result == expected
    # and the numerator agrees with the closed pattern
    # 1 + (1+A+B)X Y + (A+B+AB)X^2 Y + A B X^3 Y^2 at A=-1/X, B=-1/X^2
    assert result.numerator[0] == LaurentPoly.one()
    assert result.numerator[1] == LaurentPoly.monomial(-2, 0)
    assert result.numerator[2] == LaurentPoly.one()


# -- semantic equality --------------------------------------------------------------

def test_equal_common_factor():
    a = RationalGF.from_factors([(one, -1)], [(one, 0), (one, -1)])
    b = RationalGF.geometric()
    assert equal(a, b)
    assert a != b  # structurally different representations stay distinct


def test_equal_distinguishes():
    two_letter = w_of(two_letter_lc(-2), 1)
    assert not equal(two_letter, RationalGF.geometric())
    assert not equal(RationalGF.zero(), RationalGF.geometric())
    assert equal(RationalGF.zero(), RationalGF({}, [(one, 5)]))
    # label -X^0 cancels against the denominator: W collapses to 1/(1-Y)
    assert equal(w_of(two_letter_lc(0), 1), RationalGF.geometric())


@given(st.integers(0, 10**6))
def test_equal_invariant_under_common_factors(seed):
    rng = random.Random(seed)
    numerator = {k: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                 for k in range(rng.randint(1, 3))}
    denominator = [(Fraction(1), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 3))]
    r = RationalGF(numerator, denominator)
    factor = (Fraction(rng.choice((1, -1, 2))), rng.randint(-2, 2))
    scaled = RationalGF(_ypoly_mul(r.numerator, _ypoly_from_factors([factor])),
                        r.denominator + (factor,))
    assert equal(r, scaled)
    assert equal(scaled, r)


@given(st.integers(0, 10**6))
def test_hadamard_commutative_associative(seed):
    rng = random.Random(seed)

    def random_series():
        return SeriesY([LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                        for _ in range(5)])

    a, b, c = random_series(), random_series(), random_series()
    assert a.hadamard(b) == b.hadamard(a)
    assert a.hadamard(b).hadamard(c) == a.hadamard(b.hadamard(c))


@given(st.integers(0, 10**6))
def test_w_invariant_under_canonicalize(seed):
    rng = random.Random(seed)
    from colshuffle.verify import random_coherent_pair
    lc, _ = random_coherent_pair(rng)
    eps = rng.randint(-2, 2)
    assert equal(w_of(lc, eps), w_of(canonicalize(lc), eps))


# -- substitution and rescaling --------------------------------------------------------

def test_substitute_matrix_entry():
    # d=2, e=1 at q=3: (1 - 3^-1 Y) / ((1 - Y)(1 - 3 Y))
    r = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1)])
    s = substitute(r, 3)
    expected = RationalGF({0: LaurentPoly.one(),
                           1: LaurentPoly.monomial(Fraction(-1, 3), 0)},
                          [(Fraction(1), 0), (Fraction(3), 0)])
    assert s == expected
    with pytest.raises(ZeroSubstitution):
        substitute(r, 0)


def test_scale_y_identity():
    r = w_of(two_letter_lc(-2), 1)
    assert scale_y(r, SignedMonomial.one()) == r


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_rescaled_hadamard_of_series(seed):
    """A(uY) *_Y B(vY) agrees with (A *_Y B)(uvY) on truncations."""
    rng = random.Random(seed)

    def random_rgf():
        numerator = {k: LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3)})
                     for k in range(rng.randint(1, 3))}
        denominator = [(Fraction(1), rng.randint(-2, 2))
                       for _ in range(rng.randint(1, 3))]
        return RationalGF(numerator, denominator)

    A, B = random_rgf(), random_rgf()
    u = SignedMonomial(rng.choice((1, -1)), rng.randint(-2, 2))
    v = SignedMonomial(rng.choice((1, -1)), rng.randint(-2, 2))
    order = 8
    lhs = expand(scale_y(A, u), order).hadamard(expand(scale_y(B, v), order))
    uv = u * v
    rhs = expand(A, order).hadamard(expand(B, order)) \
        .scale_y_monomial(Fraction(uv.sign), uv.exponent)
    assert lhs == rhs


# -- exactness ------------------------------------------------------------------------

def _coefficients(obj):
    """Every coefficient held by a RationalGF, a SeriesY, a Y-polynomial or
    a LaurentPoly."""
    if isinstance(obj, RationalGF):
        yield from _coefficients(obj.numerator)
        yield from (c for c, _ in obj.denominator)
    elif isinstance(obj, SeriesY):
        for lp in obj.coefficients:
            yield from lp.coeffs.values()
    elif isinstance(obj, dict):
        for lp in obj.values():
            yield from lp.coeffs.values()
    else:
        yield from obj.coeffs.values()


@settings(max_examples=60, deadline=None)
@example(seed=0, eps=0, q=Fraction(1, 2), low_y=-1)
@given(st.integers(0, 10**6), st.integers(-2, 2),
       st.fractions(min_value=-5, max_value=5, max_denominator=7)
       .filter(lambda q: q.denominator > 1),
       st.integers(-3, -1))
def test_coefficients_are_int_or_fraction(seed, eps, q, low_y):
    """No float or bool is reachable, whatever the path: W, expansion,
    Hadamard products, rescaling (also of a negative Y-degree read from
    JSON), substitution at a non-integral X and cross-multiplication."""
    from colshuffle import hadamard_general
    from colshuffle.verify import random_coherent_pair
    rng = random.Random(seed)
    lhs, rhs = random_coherent_pair(rng)
    a, b = w_of(lhs, eps), w_of(rhs, eps)
    sm = SignedMonomial(rng.choice((1, -1)), rng.randint(-2, 2))
    obj = a.to_json_obj()
    obj["numerator"].append({"y": low_y,
                             "coefficient": [{"x": 1, "value": "-3"}]})
    parsed = RationalGF.from_json_obj(obj)
    series = expand(a, 6)
    reached = [a, b, series, series.hadamard(expand(b, 6)),
               hadamard_general(lhs, rhs, eps), scale_y(a, sm),
               substitute(a, q), substitute(b, q, sm),
               _ypoly_mul(a.numerator, _ypoly_from_factors(b.denominator)),
               parsed, scale_y(parsed, sm)]
    for obj in reached:
        for c in _coefficients(obj):
            assert type(c) in (int, Fraction), (obj, c)


# -- serialisation -------------------------------------------------------------------

def test_json_round_trip():
    r = w_of(two_letter_lc(-2), 1)
    assert RationalGF.from_json(r.to_json()) == r


def test_display_forms():
    r = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1), (one, 1)])
    assert r.to_text() == "(1 - X^-1*Y) / ((1 - Y)(1 - X*Y)^2)"
    assert r.to_latex() == r"\frac{1 - X^{-1}Y}{(1 - Y)(1 - XY)^{2}}"
    assert RationalGF.zero().to_text() == "0"
