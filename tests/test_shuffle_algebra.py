import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colshuffle import (ColouredConfiguration, Label, LabelledConfiguration,
                        MPoly, NotCoherent, RationalGF, SignedMonomial,
                        StatTriple, all_coloured_permutations,
                        canonical_statistics_class, check_shuffle_compatibility,
                        equal, expand, h_map, h_of, h_tilde_map,
                        hadamard_general, hadamard_identity,
                        hadamard_iterated,
                        hadamard_via_theorem, make_strongly_disjoint,
                        parse_permutation, shuffles, w_of)
from colshuffle.mpoly import monomial
from colshuffle.shuffle_algebra import STATISTICS, X_VAR, Z_VAR, p_var
from colshuffle.verify import random_coherent_pair

P = parse_permutation
one = Fraction(1)


def lc_of(label_assignments, *texts):
    config = ColouredConfiguration((P(t), 1) for t in texts)
    return LabelledConfiguration(config, Label(label_assignments))


# -- the closed-form Hadamard product ------------------------------------------

def closed_two_block_form(A, B, eps):
    """The closed form for (1^0+1^1) x (2^0+2^2) built directly from the
    displayed numerator pattern, independent of the shuffle machinery."""
    from colshuffle import LaurentPoly

    def mono(sm, shift=0):
        return LaurentPoly.monomial(sm.sign, sm.exponent + shift)

    lp_one = LaurentPoly.one()
    y1 = (mono(A, eps) + mono(B, eps) + LaurentPoly.monomial(1, eps)
          + mono(A, 2 * eps) + mono(B, 2 * eps) + mono(A * B, 2 * eps))
    y2 = mono(A * B, 3 * eps)
    return RationalGF({0: lp_one, 1: y1, 2: y2},
                      [(one, 0), (one, eps), (one, 2 * eps)])


def test_theorem_matches_displayed_closed_form(two_letter_pair):
    lhs, rhs = two_letter_pair
    A = SignedMonomial(-1, -1)
    B = SignedMonomial(-1, -2)
    for eps in (-1, 0, 1, 2):
        lc, result = hadamard_via_theorem(lhs, rhs, eps)
        assert lc.config.total_multiplicity() == 8
        assert equal(result, closed_two_block_form(A, B, eps))


def test_theorem_identity_operand(two_letter_pair):
    lhs, _ = two_letter_pair
    lc, result = hadamard_via_theorem(lhs, hadamard_identity(), 1)
    assert lc == lhs
    assert result == w_of(lhs, 1)


def test_theorem_rejects_incoherent():
    a = lc_of({1: SignedMonomial(-1, 1)}, "1^1")
    b = lc_of({1: SignedMonomial(1, 1)}, "2^1")
    with pytest.raises(NotCoherent):
        hadamard_via_theorem(a, b, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_theorem_against_series_oracle(seed):
    rng = random.Random(seed)
    lhs, rhs = random_coherent_pair(rng)
    for eps in (-2, -1, 0, 1, 2):
        _, closed = hadamard_via_theorem(lhs, rhs, eps)
        oracle = expand(w_of(lhs, eps), 10).hadamard(
            expand(w_of(rhs, eps), 10))
        assert expand(closed, 10) == oracle


def test_hadamard_general_same_symbols(two_letter_pair):
    lhs, _ = two_letter_pair
    # squaring an operand that shares its own symbols and colours
    result = hadamard_general(lhs, lhs, 1)
    oracle = expand(w_of(lhs, 1), 10).hadamard(expand(w_of(lhs, 1), 10))
    assert expand(result, 10) == oracle


def test_hadamard_general_zero():
    zero = LabelledConfiguration(ColouredConfiguration(), Label())
    other = lc_of({}, "1^0")
    assert hadamard_general(zero, other, 1).is_zero()
    assert hadamard_general(other, zero, 1).is_zero()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_hadamard_general_commutative_associative(seed):
    rng = random.Random(seed)
    a, _ = random_coherent_pair(rng, max_support=2, max_len=2)
    b, _ = random_coherent_pair(rng, max_support=2, max_len=2)
    c, _ = random_coherent_pair(rng, max_support=2, max_len=2)
    eps = rng.randint(-1, 2)
    assert equal(hadamard_general(a, b, eps), hadamard_general(b, a, eps))
    ab_lc, _ = hadamard_via_theorem(a, make_strongly_disjoint(a, b), eps)
    bc_lc, _ = hadamard_via_theorem(b, make_strongly_disjoint(b, c), eps)
    assert equal(hadamard_general(ab_lc, c, eps),
                 hadamard_general(a, bc_lc, eps))


def test_hadamard_iterated_is_w_of_its_configuration():
    entries = [lc_of({1: SignedMonomial(-1, -2)}, "1^0", "1^1"),
               lc_of({1: SignedMonomial(-1, -3)}, "1^0", "1^1")]
    lc, rgf = hadamard_iterated(entries, 1)
    assert rgf == w_of(lc, 1)
    oracle = expand(w_of(entries[0], 1), 8).hadamard(
        expand(w_of(entries[1], 1), 8))
    assert expand(rgf, 8) == oracle


# -- the embedding into the Hadamard power-series ring ----------------------------

def test_h_map_empty_class():
    image = h_map((0, StatTriple(0, 0, ())))
    assert image.numerator == MPoly.one()
    assert image.t_power == 0
    assert image.denom_powers == (0,)
    # 1/(1-t): all-ones series
    assert image.series(3) == [MPoly.one()] * 4


def test_h_map_golden():
    image = h_of(P("1^1 2^2"))
    expected = MPoly.term(monomial((p_var(1), 1), (p_var(2), 1), (X_VAR, 3)))
    assert image.numerator == expected
    assert image.t_power == 2
    assert image.denom_powers == (0, 1, 2)
    assert image.to_latex() == \
        r"\frac{p_{1}p_{2}x^{3}t^{2}}{(1 - t)(1 - xt)(1 - x^{2}t)}"


def test_h_map_validates_colour_sum():
    with pytest.raises(ValueError):
        h_map((3, StatTriple(1, 1, ((0, 1),))))


def hadamard_t(s1, s2):
    return [a * b for a, b in zip(s1, s2)]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_h_map_multiplicative_on_shuffles(seed):
    rng = random.Random(seed)
    n, m = rng.randint(0, 2), rng.randint(1, 2)
    a = ColouredPermutation_random(rng, n, range(1, 3))
    b = ColouredPermutation_random(rng, m, range(5, 7))
    order = 8
    lhs = hadamard_t(h_of(a).series(order), h_of(b).series(order))
    rhs = [MPoly.zero()] * (order + 1)
    for c in shuffles(a, b):
        rhs = [x + y for x, y in zip(rhs, h_of(c).series(order))]
    assert lhs == rhs


def ColouredPermutation_random(rng, length, symbol_range):
    from colshuffle import ColouredPermutation
    symbols = rng.sample(list(symbol_range), length)
    return ColouredPermutation((s, rng.randint(0, 2)) for s in symbols)


def test_h_tilde_map():
    assert h_tilde_map((0, StatTriple(0, 0, ()))).series(2) == [MPoly.one()] * 3
    image = h_tilde_map((2, StatTriple(2, 3, ((1, 1), (2, 1)))))
    expected = MPoly.term(monomial((p_var(1), 1), (p_var(2), 1),
                                   (X_VAR, 3), (Z_VAR, 2)))
    assert image.numerator == expected
    assert image.t_power == 3
    # the z-graded image is t * z^n times the plain one
    plain = h_map((2, StatTriple(2, 3, ((1, 1), (2, 1)))))
    shifted = [p.mul_monomial(monomial((Z_VAR, 2))) for p in plain.series(7)]
    assert image.series(8)[1:] == shifted
    assert image.series(8)[0] == MPoly.zero()


def test_leading_terms_distinct_across_classes():
    """Classes with distinct (des, comaj, col, length) have distinct leading
    monomials p^col x^comaj at t-degree des."""
    seen = {}
    for n in range(0, 4):
        for a in all_coloured_permutations(n, 3):
            key = canonical_statistics_class(a)
            if key in seen:
                continue
            image = h_of(a)
            t_power, lead = image.leading_term()
            mono = next(iter(lead.coeffs))
            seen[key] = (t_power, mono)
    assert len(set(seen.values())) == len(seen)


# -- the compatibility harness ------------------------------------------------------

def test_descent_statistics_compatible_small():
    for name in ("des_comaj_col", "sdes"):
        report = check_shuffle_compatibility(
            STATISTICS[name], trials=100, max_len=4, statistic_name=name)
        assert report.ok, report.counterexample
        assert report.classes > 0


def test_planted_control_is_caught():
    report = check_shuffle_compatibility(
        STATISTICS["first_symbol"], trials=100, max_len=4,
        statistic_name="first_symbol")
    assert not report.ok
    assert report.counterexample["kind"] == "relabelling"
    obj = report.to_json_obj()
    assert obj["statistic"] == "first_symbol"
    assert "counterexample" in obj


def test_incompatible_statistic_found_by_multiset_search():
    """Inversion count: a relabelling-invariant statistic that is not
    shuffle compatible; the pair search must expose it."""

    def inversions(a):
        ents = a.entries
        return sum(1 for i in range(len(ents)) for j in range(i + 1, len(ents))
                   if (-ents[i].colour, ents[i].symbol)
                   > (-ents[j].colour, ents[j].symbol))

    report = check_shuffle_compatibility(inversions, trials=50, max_len=4,
                                         colours=1, statistic_name="inv")
    assert not report.ok
    assert report.counterexample["kind"] == "shuffle"
