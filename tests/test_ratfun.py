import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from colshuffle import (BadParameters, ColouredConfiguration, Label,
                        LabelledConfiguration, LaurentPoly, OrderMismatch,
                        ParseError, RationalGF, SeriesY, SignedMonomial,
                        ZeroSubstitution, canonicalize, equal, evaluate_label,
                        expand, hadamard_iterated, hadamard_ud,
                        parse_labelled_configuration, parse_permutation,
                        scale_y, stat_triple, substitute, w_of)
from colshuffle import mpoly, ratfun
from colshuffle.configurations import MAX_SHUFFLE_WORDS
from colshuffle.mpoly import multiply_by_factors
from colshuffle.ratfun import _times_factors, hadamard
from conftest import (assert_no_zero_stored, coloured_permutations,
                      laurent_polys)
from polyoracle import geometric, scale_y_series

P = parse_permutation
one = Fraction(1)


def lp(**monomials):
    """LaurentPoly from keyword exponents written as e<k> / em<k>."""
    out = {}
    for key, coeff in monomials.items():
        exp = int(key[2:]) * -1 if key.startswith("em") else int(key[1:])
        out[exp] = Fraction(coeff)
    return LaurentPoly(out)


# Schoolbook products of Y-polynomials {Y-degree: LaurentPoly}: the oracles
# below do not share the library's factor-at-a-time route.

def ypoly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, LaurentPoly.zero()) + v
    return {k: v for k, v in out.items() if v}


def ypoly_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out = ypoly_add(out, {k1 + k2: v1 * v2})
    return out


def ypoly_from_factors(factors):
    """prod(1 - c*X^a*Y) expanded."""
    out = {0: LaurentPoly.one()}
    for c, a in factors:
        out = ypoly_mul(out, {0: LaurentPoly.one(),
                              1: LaurentPoly.monomial(-c, a)})
    return out


def remultiply(series, rgf):
    """Oracle: multiply an expansion back by the denominator, compare with
    the numerator through the truncation order."""
    product = ypoly_mul(dict(enumerate(series.coefficients)),
                        ypoly_from_factors(rgf.denominator))
    return all(product.get(k, LaurentPoly.zero())
               == rgf.numerator.get(k, LaurentPoly.zero())
               for k in range(series.order + 1))


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
    assert_no_zero_stored(a + b, a - b, -a, a * b, (a + b) * c,
                          a.mul_monomial(-3, 2), a.add_mul(b, 2, -1))


def test_int_and_fraction_coefficients_agree():
    plain, rational = LaurentPoly({0: 1}), LaurentPoly({0: Fraction(1)})
    assert plain == rational
    assert hash(plain) == hash(rational)
    assert (json.dumps(RationalGF({0: plain}, [(1, 0)]).to_json_obj())
            == json.dumps(RationalGF({0: rational},
                                     [(Fraction(1), 0)]).to_json_obj()))


def test_laurent_eval():
    p = lp(e1=1, e0=-2, em1=1)  # X - 2 + X^-1
    assert p.eval_at(Fraction(2)) == Fraction(1, 2)
    with pytest.raises(ZeroSubstitution):
        p.eval_at(Fraction(0))


# -- expansion -----------------------------------------------------------------

def test_expand_geometric():
    r = geometric()
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
    ones = expand(geometric(), 2)
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
    assert w_of(empty_perm, 5) == geometric()


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
        st_ = stat_triple(perm)
        value = evaluate_label(label, perm)
        base = LaurentPoly.monomial(mult * value.sign,
                                    value.exponent + eps * st_.comaj)
        term = {st_.des: base}
        cofactor = [(Fraction(1), eps * i)
                    for i in range(len(perm) + 1, max_len + 1)]
        if cofactor:
            term = ypoly_mul(term, ypoly_from_factors(cofactor))
        numerator = ypoly_add(numerator, term)
    return RationalGF(numerator, denominator)


@st.composite
def labelled_configurations(draw, max_len=4, max_size=6):
    """Mixed lengths including the empty permutation; small label exponents
    and colours, so that terms often cancel; may be the zero configuration."""
    config = ColouredConfiguration(draw(st.lists(
        st.tuples(coloured_permutations(max_len=max_len, max_colour=3),
                  st.integers(1, 3)), max_size=max_size)))
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


@pytest.mark.parametrize("n", [1, 2, 40])
def test_w_of_one_word_takes_linear_row_steps(monkeypatch, n):
    """The Horner pass starts at the shortest length and each factor
    multiplies only the rows up to its length: one n-letter word takes at
    most n + 1 ``add_mul`` calls, not one per row and length."""
    add_mul, calls = LaurentPoly.add_mul, []

    def counted(self, *args):
        calls.append(args)
        return add_mul(self, *args)

    word = " ".join(str(s) for s in range(n, 0, -1))
    lc = parse_labelled_configuration(f"1 * {word}\n")
    monkeypatch.setattr(LaurentPoly, "add_mul", counted)
    result = w_of(lc, 1)
    monkeypatch.undo()
    assert len(calls) <= n + 1
    assert result == w_of_per_term(lc, 1)


_ZERO = LabelledConfiguration(ColouredConfiguration(), Label())
_EMPTY_PERMUTATION = LabelledConfiguration(
    ColouredConfiguration([(P(""), 2)]))


@settings(deadline=None)
@example([_CANCELLING, two_letter_lc(-1)], 0)
@example([two_letter_lc(2), _ZERO], 1)
@example([_EMPTY_PERMUTATION, _CANCELLING, two_letter_lc(0)], -2)
@given(st.lists(labelled_configurations(max_len=2, max_size=3),
                min_size=1, max_size=3),
       st.integers(-2, 2))
def test_hadamard_kernel_equals_shuffle_route(lcs, eps):
    _, expected = hadamard_iterated(lcs, eps)
    assert hadamard([w_of(lc, eps) for lc in lcs], eps) == expected


def test_hadamard_kernel_without_operands_is_the_identity():
    for eps in (-1, 0, 2):
        assert hadamard([], eps) == geometric()
    result = hadamard_ud([])
    assert (result.rgf, result.t_size) == (geometric(), 1)


def test_hadamard_kernel_multiplies_no_series_by_one(monkeypatch):
    products = []
    product = mpoly._balanced_product
    monkeypatch.setattr(mpoly, "_balanced_product",
                        lambda values: products.append(len(values))
                        or product(values))
    w = RationalGF({0: LaurentPoly.one()}, [(1, 0), (1, 1)])
    v = RationalGF({0: LaurentPoly.monomial(2)}, [(1, 0), (1, 1)])
    hadamard([w, w, w], 1)
    # one power per Y^k of the series through Y^3, multiplied by nothing
    assert products == [1] * 4
    products.clear()
    hadamard([w, v, w], 1)
    assert products == [2] * 4


def test_hadamard_refuses_spans_over_the_cap():
    """No packed int spans more than MAX_SHUFFLE_WORDS digits: the exponent
    spread and eps are bounded before anything is packed."""
    def spread(top):
        return RationalGF({0: LaurentPoly({0: 1, top: 1})}, [(1, 0)])
    at_cap = spread(MAX_SHUFFLE_WORDS - 1)
    assert hadamard([at_cap], 0) == at_cap
    with pytest.raises(BadParameters, match="1000001"):
        hadamard([spread(MAX_SHUFFLE_WORDS)], 0)
    # two W's of length 1 span up to 8*|eps| + 1 digits
    eps = MAX_SHUFFLE_WORDS // 8 + 1
    for e in (eps, -eps):
        w = RationalGF({0: LaurentPoly.one()}, [(1, 0), (1, e)])
        with pytest.raises(BadParameters, match="1000009"):
            hadamard([w, w], e)


def test_hadamard_expands_each_distinct_operand_once(monkeypatch):
    w = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1)])
    copy = RationalGF(dict(w.numerator), w.denominator)
    other = RationalGF.from_factors([(one, -2)], [(one, 0), (one, 1)])
    assert copy is not w and copy == w
    packed = []
    pack = mpoly._packed
    monkeypatch.setattr(mpoly, "_packed",
                        lambda p, *args: packed.append(p) or pack(p, *args))
    product = hadamard([w, copy, w], 1)
    # the rows of the one distinct operand, each packed (and expanded) once
    assert packed == [w.numerator[0].coeffs, w.numerator[1].coeffs]
    packed.clear()
    assert hadamard([w, other, copy], 1) == hadamard([other, w, w], 1)
    assert len(packed) == 2 * 4
    monkeypatch.undo()
    # against the coefficientwise product of the three series
    series = expand(w, 6)
    assert expand(product, 6) == series.hadamard(series).hadamard(series)


def hadamard_by_series(rgfs, eps):
    """The series route, the oracle of ``hadamard``: expand every operand
    through Y^N, take the coefficientwise product and multiply it by the W
    denominator of N one factor at a time."""
    if any(r.is_zero() and not r.denominator for r in rgfs):
        return RationalGF.zero()
    n = sum(len(r.denominator) - 1 for r in rgfs)
    series = SeriesY([LaurentPoly.one()] * (n + 1))
    for r in rgfs:
        series = series.hadamard(expand(r, n))
    denominator = [(1, eps * i) for i in range(n + 1)]
    numerator = multiply_by_factors(series.coefficients, denominator)
    return RationalGF(dict(enumerate(numerator)), denominator)


def json_round_trip(r):
    return RationalGF.from_json_obj(json.loads(json.dumps(r.to_json_obj())))


@st.composite
def w_series(draw, eps, max_len=3):
    """A W of ``eps`` with a random numerator, up to one Y-degree past its
    length, and int, integral Fraction (via JSON) or Fraction coefficients."""
    n = draw(st.integers(0, max_len))
    numerator = draw(st.dictionaries(st.integers(0, n + 1), laurent_polys(),
                                     max_size=n + 2))
    r = RationalGF(numerator, [(1, eps * i) for i in range(n + 1)])
    return json_round_trip(r) if draw(st.booleans()) else r


@st.composite
def hadamard_operands(draw):
    eps = draw(st.integers(-2, 2))
    distinct = draw(st.lists(w_series(eps), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(distinct), max_size=4)), eps


_WIDE = RationalGF({0: LaurentPoly({0: 10**12, -1: -3}),
                    1: LaurentPoly({2: Fraction(10**9, 7)})},
                   [(1, 0), (1, -2)])
_THREE = [RationalGF.from_factors([(one, -1)], [(1, 0), (1, 1)]),
          RationalGF({0: LaurentPoly.monomial(2)}, [(1, 0), (1, 1)]),
          RationalGF({0: LaurentPoly.monomial(Fraction(1, 2), 1),
                      1: LaurentPoly.monomial(-1, 2)},
                     [(1, 0), (1, 1), (1, 2)])]


@settings(deadline=None)
@example(([], 1))
@example((_THREE, 1))
@example((_THREE[1:] + _THREE, 1))
@example(([_WIDE, RationalGF.zero(), _WIDE], -2))
@example(([_WIDE, RationalGF({}, [(1, 0)]), _WIDE], -2))
@example(([_WIDE, json_round_trip(_WIDE), _WIDE], -2))  # 18-byte digits
@given(hadamard_operands())
def test_hadamard_kernel_equals_series_route(case):
    rgfs, eps = case
    result = hadamard(rgfs, eps)
    assert result == hadamard_by_series(rgfs, eps)
    assert_no_zero_stored(*result.numerator.values())
    assert all(type(c) is int for lp in result.numerator.values()
               for c in lp.coeffs.values() if c.denominator == 1)


def test_hadamard_kernel_rejects_non_w_denominators():
    w = RationalGF({0: LaurentPoly.one()}, [(one, 0), (one, 1)])
    parsed = RationalGF.from_json_obj(json.loads(json.dumps(w.to_json_obj())))
    assert hadamard([w, w], 1) == hadamard([w, parsed], 1)
    with pytest.raises(ValueError):
        hadamard([w], 2)
    for bad in (RationalGF({0: LaurentPoly.one()}),
                RationalGF.from_factors([], [(1, 0), (1, 2)]),
                RationalGF.from_factors([], [(2, 0), (1, 1)])):
        with pytest.raises(ValueError):
            hadamard([w, bad], 1)


def test_expand_refuses_an_order_over_the_cap(monkeypatch):
    # numerator 1 - X^-1 Y (span 1) over exponents 0 and 1: the series
    # through Y^k may have 2(k + 1) + k(k + 1)/2 terms, 27 at k = 5 and 35
    # at k = 6
    r = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1)])
    monkeypatch.setattr(ratfun, "MAX_SHUFFLE_WORDS", 30)
    assert len(expand(r, 5).coefficients) == 6
    with pytest.raises(BadParameters, match="30"):
        expand(r, 6)


def test_expand_counts_the_terms_of_a_growing_series(monkeypatch):
    """right.txt's W is 2 / ((1 - Y)(1 - X Y)(1 - X^2 Y)), whose Y^k
    coefficient has 2k + 1 terms: (order + 1)^2 through Y^order, which is
    the bound.  At a cap of 10^4, order 100 is refused, though the order
    times the numerator's terms plus one is only 200."""
    text = (Path(__file__).parent / "golden" / "right.txt").read_text()
    w = w_of(parse_labelled_configuration(text), 1)
    monkeypatch.setattr(ratfun, "MAX_SHUFFLE_WORDS", 10**4)
    series = expand(w, 99).coefficients
    assert sum(len(c.coeffs) for c in series) == 100 ** 2
    with pytest.raises(BadParameters, match="10201 terms"):
        expand(w, 100)


@settings(max_examples=60)
@given(st.integers(0, 10),
       st.dictionaries(st.integers(0, 3), laurent_polys(), max_size=3),
       st.lists(st.tuples(st.sampled_from((one, -one, 2 * one)),
                          st.integers(-3, 3)), max_size=4))
# (1 + Y) / (1 - X^2 Y): the Y^k coefficient X^(2k) + X^(2k - 2) spans 2,
# the spread with 0 included, though the denominator's own spread is 0
@example(3, {0: LaurentPoly.one(), 1: LaurentPoly.one()}, [(one, 2)])
def test_series_terms_bound_the_expansion(order, numerator, denominator):
    r = RationalGF(numerator, denominator)
    terms = sum(len(c.coeffs) for c in expand(r, order).coefficients)
    assert max(terms, order + 1) <= ratfun._series_terms(r, order)


def test_expand_rejects_negative_y_degrees():
    r = RationalGF({-1: LaurentPoly.one()}, [(1, 0)])
    with pytest.raises(BadParameters, match="-1"):
        expand(r, 3)


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
    b = geometric()
    assert equal(a, b)
    assert a != b  # structurally different representations stay distinct


def test_equal_distinguishes():
    two_letter = w_of(two_letter_lc(-2), 1)
    assert not equal(two_letter, geometric())
    assert not equal(RationalGF.zero(), geometric())
    assert equal(RationalGF.zero(), RationalGF({}, [(one, 5)]))
    # label -X^0 cancels against the denominator: W collapses to 1/(1-Y)
    assert equal(w_of(two_letter_lc(0), 1), geometric())


def test_equal_offsets_negative_y_degrees():
    # from_json_obj accepts negative Y-degrees, and equal cross-multiplies them
    r = RationalGF({-2: lp(e1=1), 0: lp(e0=3)}, [(one, 1)])
    factor = (Fraction(2), -1)
    scaled = RationalGF(ypoly_mul(r.numerator, ypoly_from_factors([factor])),
                        r.denominator + (factor,))
    assert min(scaled.numerator) == -2
    assert equal(r, scaled) and equal(scaled, r)
    # without its Y^-2 term r differs, also after cross-multiplication
    truncated = RationalGF(ypoly_mul({0: lp(e0=3)}, ypoly_from_factors([factor])),
                           scaled.denominator)
    assert not equal(r, truncated) and not equal(truncated, r)


@given(st.integers(0, 10**6))
def test_equal_invariant_under_common_factors(seed):
    rng = random.Random(seed)
    numerator = {k: LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                 for k in range(rng.randint(1, 3))}
    denominator = [(Fraction(1), rng.randint(-2, 2))
                   for _ in range(rng.randint(0, 3))]
    r = RationalGF(numerator, denominator)
    factor = (Fraction(rng.choice((1, -1, 2))), rng.randint(-2, 2))
    scaled = RationalGF(ypoly_mul(r.numerator, ypoly_from_factors([factor])),
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
    rhs = scale_y_series(expand(A, order).hadamard(expand(B, order)),
                         Fraction(uv.sign), uv.exponent)
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
               _times_factors(a.numerator, b.denominator),
               _times_factors(parsed.numerator, b.denominator),
               ypoly_mul(a.numerator, ypoly_from_factors(b.denominator)),
               parsed, scale_y(parsed, sm)]
    for obj in reached:
        for c in _coefficients(obj):
            assert type(c) in (int, Fraction), (obj, c)


# -- serialisation -------------------------------------------------------------------

def test_json_round_trip():
    r = w_of(two_letter_lc(-2), 1)
    assert RationalGF.from_json_obj(json.loads(json.dumps(r.to_json_obj()))) == r


def _gf_json(y="0", x="0", denominator_x="0"):
    return (f'{{"numerator": [{{"y": {y}, "coefficient": '
            f'[{{"x": {x}, "value": "1"}}]}}], '
            f'"denominator": [{{"coeff": "1", "x": {denominator_x}}}]}}')


@pytest.mark.parametrize("text", [
    pytest.param(_gf_json(y="1.5", x="true", denominator_x="0.5"),
                 id="float_y_bool_x_float_denominator"),
    pytest.param(_gf_json(y="true"), id="bool_y"),
    pytest.param(_gf_json(x="2.7"), id="float_x"),
    pytest.param(_gf_json(denominator_x='"1"'), id="string_denominator_x"),
    pytest.param(_gf_json(y="1.0"), id="integral_float_y"),
])
def test_json_rejects_non_integer_exponents(text):
    """Exponents must be JSON integers; they are never truncated."""
    with pytest.raises(ParseError):
        RationalGF.from_json_obj(json.loads(text))
    assert RationalGF.from_json_obj(json.loads(_gf_json(y="1", x="2")))


def test_display_forms():
    r = RationalGF.from_factors([(one, -1)], [(one, 0), (one, 1), (one, 1)])
    assert r.to_text() == "(1 - X^-1*Y) / ((1 - Y)(1 - X*Y)^2)"
    assert r.to_latex() == r"\frac{1 - X^{-1}Y}{(1 - Y)(1 - XY)^{2}}"
    assert RationalGF.zero().to_text() == "0"
