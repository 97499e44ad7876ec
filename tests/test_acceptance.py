"""Acceptance suite: every criterion at its stated bound, all exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

from colshuffle import (ColouredConfiguration, Label, LabelledConfiguration,
                        LaurentPoly, RationalGF, SignedMonomial, build_entry,
                        check_shuffle_compatibility, equal, expand,
                        hadamard_entries, hadamard_mde, hadamard_ud, hadamard_via_theorem, parse_permutation,
                        scale_y, stat_triple)
from colshuffle.shuffle_algebra import STATISTICS
from colshuffle.verify import (catalog_suite, psi_suite, qsym_suite,
                               theorem_suite)

P = parse_permutation
one = Fraction(1)


def report(number, text):
    print(f"\n[acceptance {number}] PASS  {text}")


# -- 1: the two-block golden identity -----------------------------------------

EIGHT_TERM_TABLE = [
    ("1^0 2^0", 0, 0), ("2^0 1^0", 1, 1), ("1^0 2^2", 1, 1), ("2^2 1^0", 1, 2),
    ("1^1 2^0", 1, 2), ("2^0 1^1", 1, 1), ("1^1 2^2", 2, 3), ("2^2 1^1", 1, 2),
]


def displayed_closed_form(A, B, eps):
    """1 + (1+A+B)X^e Y + (A+B+AB)X^2e Y + AB X^3e Y^2 over
    (1-Y)(1-X^e Y)(1-X^2e Y), built without the shuffle machinery."""
    def lp(sm, shift=0):
        return LaurentPoly.monomial(sm.sign, sm.exponent + shift)

    y1 = (LaurentPoly.monomial(1, eps) + lp(A, eps) + lp(B, eps)
          + lp(A, 2 * eps) + lp(B, 2 * eps) + lp(A * B, 2 * eps))
    return RationalGF({0: LaurentPoly.one(), 1: y1, 2: lp(A * B, 3 * eps)},
                      [(one, 0), (one, eps), (one, 2 * eps)])


def test_criterion_1_two_block_golden():
    start = time.time()
    f_cfg = ColouredConfiguration([(P("1^0"), 1), (P("1^1"), 1)])
    g_cfg = ColouredConfiguration([(P("2^0"), 1), (P("2^2"), 1)])

    # the descent statistics of the eight shuffles match the table exactly
    shuffled = None
    monomials = [SignedMonomial(s, k) for s in (1, -1) for k in range(-3, 4)]
    cases = 0
    for eps in (-1, 0, 1, 2):
        for A in monomials:
            for B in monomials:
                lhs = LabelledConfiguration(f_cfg, Label({1: A}))
                rhs = LabelledConfiguration(g_cfg, Label({2: B}))
                lc, got = hadamard_via_theorem(lhs, rhs, eps)
                shuffled = lc
                assert equal(got, displayed_closed_form(A, B, eps)), \
                    (eps, A, B)
                cases += 1

    table = {P(text): (des, comaj) for text, des, comaj in EIGHT_TERM_TABLE}
    assert len(shuffled.config.support()) == 8
    for perm, mult in shuffled.config:
        assert mult == 1
        st = stat_triple(perm)
        assert (st.des, st.comaj) == table[perm], str(perm)

    elapsed = time.time() - start
    assert cases == 784
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"two-block golden identity, {cases} label/eps instantiations "
              f"and the 8-column statistics table, in {elapsed:.2f}s")


# -- 2: random coherent pairs vs the series oracle ------------------------------

def test_criterion_2_series_oracle_equivalence():
    result = theorem_suite(trials=200, order=10, seed=20240612,
                           max_support=3, max_len=3, exp_range=3)
    assert result["cases"] == 200
    assert result["failures"] == []
    report(2, "200 seeded coherent pairs match the series oracle to "
              "Y-order 10, eps in [-2, 2]")


# -- 3: the specialisation closed form ------------------------------------------

def test_criterion_3_specialisation_closed_form():
    start = time.time()
    result = psi_suite(max_len=4, t_order=8, colours=3)
    elapsed = time.time() - start
    assert result["failures"] == []
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(3, f"specialisation closed form through t^8 for "
              f"{result['cases']} descent classes (lengths <= 4, "
              f"colours < 3) in {elapsed:.1f}s")


# -- 4: the product rule for fundamental expansions -------------------------------

def test_criterion_4_product_rule():
    result = qsym_suite(max_len=2, cutoff=4, colours=3)
    assert result["failures"] == []
    assert result["cases"] == 22 * 22  # (empty + 3 + 18) per side
    report(4, f"monomial-level product rule at cutoff 4 over "
              f"{result['cases']} disjoint pairs")


# -- 5: the compatibility falsification harness -----------------------------------

def test_criterion_5_compatibility_harness():
    start = time.time()
    for name in ("des_comaj_col", "sdes"):
        result = check_shuffle_compatibility(
            STATISTICS[name], trials=200, max_len=6, colours=3,
            statistic_name=name)
        assert result.ok, (name, result.counterexample)
    control = check_shuffle_compatibility(
        STATISTICS["first_symbol"], trials=200, max_len=6, colours=3,
        statistic_name="first_symbol")
    assert not control.ok
    assert control.counterexample["kind"] == "relabelling"
    elapsed = time.time() - start
    report(5, f"no counterexamples for the descent statistics over all "
              f"pairs with total length <= 6, colours < 3; the planted "
              f"control is caught; in {elapsed:.1f}s")


# -- 6: catalog closed forms -------------------------------------------------------

def test_criterion_6_catalog_identities():
    result = catalog_suite(max_n=4, max_d=5)
    assert result["failures"] == []
    assert result["cases"] == 25 + 5 + 5 + 4 + 4 + 4 + 4 + 5
    report(6, f"all {result['cases']} catalog rows (d, e <= 5, n <= 4) "
              f"verified symbolically in X")


# -- 7: the triple matrix product ----------------------------------------------------

def test_criterion_7_matrix_triple_product():
    dims = [(2, 1), (3, 2), (4, 3)]
    direct = hadamard_mde(dims)
    entries = [build_entry("mat", d=d, e=e) for d, e in dims]
    combined = hadamard_entries(entries)
    assert equal(direct, combined.rgf)
    series = [expand(entry.closed_form, 10) for entry in entries]
    oracle = series[0].hadamard(series[1]).hadamard(series[2])
    assert expand(direct, 10) == oracle
    report(7, "three-block matrix product: direct formula == shuffle "
              "route == series oracle at order 10 (48 terms)")


# -- 8: the unitriangular product ------------------------------------------------------

def test_criterion_8_unitriangular_product():
    result = hadamard_ud([2, 3])
    assert result.t_size == 10 == math.comb(5, 2) * math.comb(2, 2)
    lhs = RationalGF.from_factors([(one, -1)] * 2, [(one, 0)] * 3)
    rhs = RationalGF.from_factors([(one, -1)] * 3, [(one, 0)] * 4)
    oracle = expand(lhs, 10).hadamard(expand(rhs, 10))
    assert expand(result.rgf, 10) == oracle
    # single blocks collapse to the binomial closed form
    for d in range(1, 6):
        single = hadamard_ud([d])
        binomial = RationalGF.from_factors([(one, -1)] * d, [(one, 0)] * (d + 1))
        assert equal(single.rgf, binomial)
    report(8, "unitriangular blocks (2,3): 10 shuffle words, series oracle "
              "match at order 10, binomial reduction for single blocks")


# -- 9: rescaled Hadamard products -------------------------------------------------------

def test_criterion_9_rescaled_hadamard():
    rng = random.Random(987654321)
    order = 8

    def random_rgf():
        numerator = {k: LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3)})
                     for k in range(rng.randint(1, 3))}
        denominator = [(Fraction(1), rng.randint(-2, 2))
                       for _ in range(rng.randint(1, 3))]
        return RationalGF(numerator, denominator)

    for case in range(50):
        A, B = random_rgf(), random_rgf()
        u = SignedMonomial(rng.choice((1, -1)), rng.randint(-2, 2))
        v = SignedMonomial(rng.choice((1, -1)), rng.randint(-2, 2))
        lhs = expand(scale_y(A, u), order).hadamard(
            expand(scale_y(B, v), order))
        uv = u * v
        rhs = expand(A, order).hadamard(expand(B, order)) \
            .scale_y_monomial(Fraction(uv.sign), uv.exponent)
        assert lhs == rhs, case
    report(9, "argument rescaling commutes with Hadamard products on 50 "
              "seeded random pairs at order 8")
