"""The packed series oracle behind ``hadamard --verify``: its FAIL verdicts,
its agreement with the dict route, its digit width and its refusals."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colshuffle import (BadParameters, ColouredConfiguration,
                        ColouredPermutation, Label, LabelledConfiguration,
                        LaurentPoly, RationalGF, SignedMonomial,
                        hadamard_via_theorem, make_strongly_disjoint,
                        parse_labelled_configuration, verify)
from colshuffle.ratfun import _series_terms, _times_factors, w_of
from colshuffle.verify import random_coherent_pair, series_oracle
from polyoracle import expanded_series_oracle

GOLDEN = Path(__file__).parent / "golden"
ZERO = LabelledConfiguration(ColouredConfiguration(), Label())


def golden_pair():
    lhs, rhs = (parse_labelled_configuration((GOLDEN / f"{side}.txt")
                                             .read_text())
                for side in ("left", "right"))
    return lhs, make_strongly_disjoint(lhs, rhs)


def plus(closed: RationalGF, k: int, e: int, delta) -> RationalGF:
    """``closed`` with delta*X^e added to its Y^k numerator coefficient."""
    numerator = dict(closed.numerator)
    numerator[k] = (numerator.get(k, LaurentPoly.zero())
                    + LaurentPoly.monomial(delta, e))
    return RationalGF(numerator, closed.denominator)


def off_by_one(closed: RationalGF):
    """Each one-coefficient change by +1 and -1 at the largest coefficient
    and at the lowest and highest X-exponent of the first and last rows."""
    first, last = min(closed.numerator), max(closed.numerator)
    largest = max(((k, e) for k, lp in closed.numerator.items()
                   for e in lp.coeffs),
                  key=lambda ke: abs(closed.numerator[ke[0]].coeffs[ke[1]]))
    spots = [largest] + [(k, f(closed.numerator[k].coeffs))
                         for k in (first, last) for f in (min, max)]
    for k, e in spots:
        for delta in (1, -1):
            yield plus(closed, k, e, delta)


def pairs():
    yield golden_pair()
    rng = random.Random(11)
    for _ in range(4):
        yield random_coherent_pair(rng)


@pytest.mark.parametrize("eps", [-2, -1, 0, 1, 2])
def test_oracle_fails_every_wrong_closed_form(eps):
    for lhs, rhs in pairs():
        _, closed = hadamard_via_theorem(lhs, rhs, eps)
        n = max(closed.numerator) + 3  # a denominator shows from row 1 on
        assert series_oracle(lhs, rhs, closed, eps, n)
        wrong = list(off_by_one(closed))
        (c, a), *rest = closed.denominator
        wrong.append(RationalGF(closed.numerator, [(c, a + 1), *rest]))
        wrong.append(RationalGF.zero())
        for bad in wrong:
            assert not series_oracle(lhs, rhs, bad, eps, n)
            assert not expanded_series_oracle(lhs, rhs, bad, eps, n)


def times_factor(closed: RationalGF, c: int, a: int) -> RationalGF:
    """``closed`` with its numerator and denominator times 1 - c*X^a*Y."""
    return RationalGF(_times_factors(closed.numerator, [(c, a)]),
                      [*closed.denominator, (c, a)])


@pytest.mark.parametrize("c", [-2, -1, 0, 2, 3])
def test_oracle_divides_by_factors_other_than_one(c):
    """The closed form times (1 - c*X^a*Y)/(1 - c*X^a*Y) still passes and a
    one-coefficient change of it fails: the packed division multiplies by
    c where c is not 1."""
    for lhs, rhs in pairs():
        for eps, a in ((-1, 2), (1, -1), (2, 0)):
            _, closed = hadamard_via_theorem(lhs, rhs, eps)
            expanded = times_factor(closed, c, a)
            n = max(expanded.numerator) + 2
            assert series_oracle(lhs, rhs, expanded, eps, n)
            wrong = plus(expanded, 0, 0, 1)
            assert not series_oracle(lhs, rhs, wrong, eps, n)
            assert not expanded_series_oracle(lhs, rhs, wrong, eps, n)


def test_theorem_suite_names_the_failing_oracle(monkeypatch):
    def wrong_theorem(lhs, rhs, eps):
        lc, closed = hadamard_via_theorem(lhs, rhs, eps)
        return lc, plus(closed, 0, 0, 1)

    monkeypatch.setattr(verify, "hadamard_via_theorem", wrong_theorem)
    report = verify.theorem_suite(trials=10, order=6, seed=3)
    failing = {f["case"] for f in report["failures"]
               if f["check"] == "series_oracle"}
    assert failing == set(range(10))


@st.composite
def oracle_cases(draw):
    """A coherent pair (either side possibly 0), eps, an order and a closed
    form: the true one, a one-coefficient change by an int or a Fraction,
    the true one with Fraction coefficients, one scaled by 1/2, or the true
    one times (1 - c*X^a*Y)/(1 - c*X^a*Y), changed or not."""
    lhs, rhs = random_coherent_pair(random.Random(draw(st.integers(0, 10**6))))
    lhs, rhs = draw(st.sampled_from([(lhs, rhs), (ZERO, rhs), (lhs, ZERO)]))
    eps = draw(st.integers(-2, 2))
    _, closed = hadamard_via_theorem(lhs, rhs, eps)
    change = draw(st.sampled_from(["none", "int", "fraction", "as fractions",
                                   "half", "factor"]))
    if change == "factor":
        closed = times_factor(closed, draw(st.integers(-3, 3)),
                              draw(st.integers(-3, 3)))
        if draw(st.booleans()):
            closed = plus(closed, draw(st.integers(0, 4)),
                          draw(st.integers(-4, 4)), draw(st.integers(-2, 2)))
    elif change in ("int", "fraction"):
        delta = (draw(st.integers(-2, 2)) if change == "int" else
                 draw(st.fractions(-2, 2, max_denominator=6)))
        closed = plus(closed, draw(st.integers(0, 4)),
                      draw(st.integers(-4, 4)), delta)
    elif closed.numerator and change != "none":
        ratio = Fraction(1) if change == "as fractions" else Fraction(1, 2)
        closed = RationalGF({k: LaurentPoly({e: c * ratio for e, c
                                             in lp.coeffs.items()})
                             for k, lp in closed.numerator.items()},
                            closed.denominator)
    return lhs, rhs, closed, eps, draw(st.integers(0, 8))


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_packed_oracle_agrees_with_the_dict_route(case):
    assert series_oracle(*case) == expanded_series_oracle(*case)


def single_word(mult: int, sign: int) -> LabelledConfiguration:
    """mult * 1^1 under 1 -> sign*X^0, one descent: W is
    sign*mult*Y/((1 - Y)(1 - X^eps Y)), whose Y^1 coefficient is sign*mult."""
    word = ColouredPermutation([(1, 1)])
    return LabelledConfiguration(ColouredConfiguration([(word, mult)]),
                                 Label({1: SignedMonomial(sign, 0)}))


def empty_word(mult: int) -> LabelledConfiguration:
    """mult times the empty word: W is mult/(1 - Y)."""
    return LabelledConfiguration(
        ColouredConfiguration([(ColouredPermutation([]), mult)]), Label())


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("sign", [1, -1])
def test_oracle_digit_width_is_just_enough(width, sign):
    """A coefficient one below half the digit range, the Y^1 coefficient of
    the product: the exact closed form passes through Y^1, one 1 off fails,
    and so does one that differs by X - B for the digit base B of the next
    narrower width, which a digit too narrow for the coefficient would read
    as equal."""
    c = 2 ** (8 * width - 1) - 1
    lhs, rhs = single_word(c, sign), empty_word(1)
    for eps in (-1, 0, 1):
        _, closed = hadamard_via_theorem(lhs, rhs, eps)
        [(e, coeff)] = closed.numerator[1].coeffs.items()
        assert coeff == sign * c and list(closed.numerator) == [1]
        assert series_oracle(lhs, rhs, closed, eps, 1)
        for delta in (1, -1):
            assert not series_oracle(lhs, rhs, plus(closed, 1, e, delta),
                                     eps, 1)
        if width > 1:
            base = 2 ** (8 * {2: 1, 4: 2, 8: 4, 9: 8}[width])
            carried = plus(plus(closed, 1, e, -sign * base), 1, e + 1, sign)
            assert not series_oracle(lhs, rhs, carried, eps, 1)


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_oracle_width_covers_the_product_of_the_norms(width):
    """Operands of 2^(4*width) multiply to the digit base B = 2^(8*width);
    X/(1 - Y) is 1 digit up, which reads as B only at this width.  The
    product of the two sides' norms asks for a wider digit, where the two
    differ."""
    m = 2 ** (4 * width)
    lhs, rhs = empty_word(m), empty_word(m)
    _, closed = hadamard_via_theorem(lhs, rhs, 0)
    assert series_oracle(lhs, rhs, closed, 0, 4)
    shifted = RationalGF({0: LaurentPoly.monomial(1, 1)}, [(1, 0)])
    assert not series_oracle(lhs, rhs, shifted, 0, 4)
    assert not expanded_series_oracle(lhs, rhs, shifted, 0, 4)


def test_oracle_refuses_in_the_order_of_expand():
    lhs, rhs = golden_pair()
    _, closed = hadamard_via_theorem(lhs, rhs, 1)
    negative = RationalGF({-1: LaurentPoly.one()}, [(1, 0)])
    with pytest.raises(BadParameters, match="order must be >= 0"):
        series_oracle(lhs, rhs, negative, 1, -1)
    with pytest.raises(BadParameters, match="negative Y-degree -1"):
        series_oracle(lhs, rhs, negative, 1, 4)
    # every side is over the term cap; lhs, the first, names its own count
    for left in (ZERO, lhs):
        count = _series_terms(w_of(left, 1), 10**6)
        with pytest.raises(BadParameters, match=f"may have {count} terms"):
            series_oracle(left, rhs, closed, 1, 10**6)
    halves = RationalGF(closed.numerator,
                        [(Fraction(1, 2), 0), *closed.denominator[1:]])
    with pytest.raises(ValueError):
        series_oracle(lhs, rhs, halves, 1, 4)
