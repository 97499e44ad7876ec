import functools
import itertools
import math
from fractions import Fraction

import pytest

from colshuffle import (BadParameters, DeltaMismatch, Label,
                        LabelledConfiguration, LaurentPoly, RationalGF,
                        SignedMonomial, UnknownFamily, build_entry, equal,
                        expand, hadamard_entries, hadamard_f2d, hadamard_mde,
                        hadamard_ud,
                        parse_permutation, pi_of, scale_y, underline, w_of)
from colshuffle import mpoly, zeta
from colshuffle.configurations import MAX_SHUFFLE_WORDS
from colshuffle.permutations import stat_triple_raw
from colshuffle.zeta import FAMILY_PARAMS, MAX_UNITRIANGULAR_D

P = parse_permutation
one = Fraction(1)


def closed(num_exps, den_exps):
    return RationalGF.from_factors([(one, a) for a in num_exps],
                                   [(one, b) for b in den_exps])


# -- building blocks ---------------------------------------------------------

def test_underline_structure():
    cfg = underline(3)
    assert sum(m for _, m in cfg) == 8
    assert len(cfg.support()) == 8
    for perm, mult in cfg:
        assert mult == 1
        assert [e.symbol for e in perm.entries] == [1, 2, 3]
        for e in perm.entries:
            assert e.colour in (0, e.symbol)
    assert pi_of([range(3, 3)]).support() == (P(""),)


def test_pi_of_golden():
    cfg = pi_of([(1, 2)])
    expected = {P("1^0 2^0"), P("1^0 2^2"), P("1^1 2^0"), P("1^1 2^2")}
    assert set(cfg.support()) == expected


def test_pi_of_symmetric_group_count():
    import itertools
    for n in (1, 2, 3):
        cfg = pi_of(itertools.permutations(range(1, n + 1)))
        assert sum(m for _, m in cfg) == 2 ** n * math.factorial(n)
    assert pi_of([]).is_zero()


def test_pi_of_rejects_coloured_input():
    with pytest.raises(ValueError):
        pi_of([P("1^1")])


# -- catalog entries ---------------------------------------------------------

def test_build_entry_matrix_golden():
    entry = build_entry("mat", d=2, e=1)
    assert entry.eps == 1
    assert entry.shift == SignedMonomial.one()
    assert entry.lc.config == underline(1)
    assert entry.lc.label(1) == SignedMonomial(-1, -2)
    assert equal(entry.closed_form, closed([-1], [0, 1]))


def test_build_entry_threshold_golden():
    entry = build_entry("threshold", n=2)
    assert entry.eps == 1
    assert entry.shift == SignedMonomial(1, -1)
    assert entry.lc.label(1) == entry.lc.label(2) == SignedMonomial(-1, -3)
    # the zeta function itself: raw W with the argument shift applied
    assert equal(entry.closed_form, closed([-2, -3], [-1, 0, 1]))
    # and the unshifted generating function has the factored column form
    assert equal(entry.w, closed([-1, -2], [0, 1, 2]))


def test_build_entry_unitriangular_golden():
    entry = build_entry("unitriangular_oc", d=3)
    assert entry.eps == 0
    assert entry.shift == SignedMonomial(1, 1)
    assert equal(entry.w, closed([-1] * 3, [0] * 4))
    assert equal(entry.closed_form, closed([0] * 3, [1] * 4))
    assert entry.conditions == ("gcd(q, 3!) = 1",)


def test_build_entry_class_counting_shifts():
    # the class-counting variants differ from their plain rows only in the
    # argument shift, which must match the graph's edge count
    for n in (1, 2, 3):
        ask = build_entry("threshold", n=n)
        cc = build_entry("threshold_cc", n=n)
        edges = 3 * math.comb(n + 1, 2)
        assert cc.shift.exponent - ask.shift.exponent == edges
        assert ask.lc == cc.lc and ask.eps == cc.eps

        ask = build_entry("Tn", n=n)
        cc = build_entry("Tn_cc", n=n)
        edges = (math.comb(n + 4, 2) + 3 * math.comb(n + 1, 2)
                 + (n + 4) * (3 * n + 3))
        assert cc.shift.exponent - ask.shift.exponent == edges
        assert ask.lc == cc.lc and ask.eps == cc.eps


def test_build_entry_free_nilpotent_matches_antisymmetric():
    # the class-counting form is the antisymmetric ask form with Y rescaled
    for d in (2, 3, 4):
        so = build_entry("so", d=d)
        cc = build_entry("f2d_cc", d=d)
        assert equal(cc.closed_form,
                     scale_y(so.closed_form, SignedMonomial(1, math.comb(d, 2))))


def test_build_entry_errors():
    with pytest.raises(UnknownFamily):
        build_entry("nope", d=1)
    with pytest.raises(BadParameters):
        build_entry("mat", d=2)
    with pytest.raises(BadParameters):
        build_entry("so", d=0)


def test_entry_json_shape():
    obj = build_entry("mat", d=3, e=2).to_json_obj()
    assert obj["family"] == "mat"
    assert obj["params"] == {"d": 3, "e": 2}
    assert obj["shift"] == {"sign": 1, "exponent": 0}
    assert "numerator" in obj and "denominator" in obj


def test_every_family_builds_at_small_parameters():
    for family, names in FAMILY_PARAMS.items():
        build_entry(family, **{name: 2 for name in names})


def test_entry_keeps_the_w_it_checked():
    for family, names in FAMILY_PARAMS.items():
        for value in (1, 2, 3):
            entry = build_entry(family, **{name: value for name in names})
            assert entry.w == w_of(entry.lc, entry.eps)


# -- one row per process ------------------------------------------------------

@pytest.fixture
def fresh_rows():
    """An empty row cache before and after the test, so that no row built
    under a patched check reaches another test."""
    zeta._checked_entry.cache_clear()
    yield
    zeta._checked_entry.cache_clear()


def test_build_entry_returns_one_row_per_process(fresh_rows):
    entry = build_entry("mat", d=3, e=2)
    assert build_entry("mat", d=3, e=2) is entry
    assert build_entry("mat", e=2, d=3) is entry
    assert build_entry("mat", d=2, e=3) is not entry
    assert zeta._checked_entry.cache_info().currsize == 2


def test_build_entry_checks_each_row_once(fresh_rows, monkeypatch):
    checked = []
    check = zeta.w_of
    monkeypatch.setattr(zeta, "w_of",
                        lambda lc, eps: checked.append(lc) or check(lc, eps))
    rows = [build_entry("mat", d=2, e=1), build_entry("so", d=3),
            build_entry("mat", e=1, d=2), build_entry("so", d=3),
            build_entry("mat", d=2, e=1)]
    assert checked == [rows[0].lc, rows[1].lc]


def test_a_failed_check_is_not_cached(fresh_rows, monkeypatch):
    monkeypatch.setattr(zeta, "equal", lambda a, b: False)
    for _ in range(2):
        with pytest.raises(AssertionError, match="catalog identity failed"):
            build_entry("mat", d=2, e=1)
    assert zeta._checked_entry.cache_info().currsize == 0
    monkeypatch.undo()
    assert build_entry("mat", d=2, e=1).closed_form == closed([-1], [0, 1])


def test_bad_parameters_raise_every_time(fresh_rows):
    build_entry("unitriangular_oc", d=2)
    bad = [("nope", {"d": 1}, UnknownFamily),
           ("mat", {"d": 2}, BadParameters),
           ("mat", {"d": 2, "e": 1, "n": 1}, BadParameters),
           ("so", {"d": 0}, BadParameters),
           ("unitriangular_oc", {"d": MAX_UNITRIANGULAR_D + 1}, BadParameters)]
    for _ in range(2):
        for family, params, error in bad:
            with pytest.raises(error):
                build_entry(family, **params)
    assert zeta._checked_entry.cache_info().currsize == 1


def test_unitriangular_cap_is_the_shuffle_cap():
    assert 2 ** MAX_UNITRIANGULAR_D <= MAX_SHUFFLE_WORDS
    assert 2 ** (MAX_UNITRIANGULAR_D + 1) > MAX_SHUFFLE_WORDS


# -- iterated Hadamard products ------------------------------------------------

def test_mde_single_block_reduces_to_matrix_entry():
    assert equal(hadamard_mde([(2, 1)]), build_entry("mat", d=2, e=1).closed_form)
    assert equal(hadamard_mde([(3, 3)]), build_entry("mat", d=3, e=3).closed_form)


def test_mde_two_blocks_against_shuffle_route():
    entries = [build_entry("mat", d=2, e=1), build_entry("mat", d=3, e=2)]
    combined = hadamard_entries(entries)
    direct = hadamard_mde([(2, 1), (3, 2)])
    assert equal(direct, combined.rgf)
    # and against the series oracle
    oracle = expand(entries[0].closed_form, 10).hadamard(
        expand(entries[1].closed_form, 10))
    assert expand(direct, 10) == oracle
    # and against the two-block closed pattern with A = -X^-2, B = -X^-3
    A = LaurentPoly.monomial(-1, -2)
    B = LaurentPoly.monomial(-1, -3)
    x, x2, x3 = (LaurentPoly.monomial(1, k) for k in (1, 2, 3))
    pattern = RationalGF(
        {0: LaurentPoly.one(),
         1: (LaurentPoly.one() + A + B) * x + (A + B + A * B) * x2,
         2: A * B * x3},
        [(one, 0), (one, 1), (one, 2)])
    assert equal(direct, pattern)


def test_mde_series_positivity_after_substitution():
    # with all blocks square the specialised series coefficients are
    # averages of kernel sizes, hence >= 1 at rational points above 1
    from colshuffle import substitute
    direct = hadamard_mde([(1, 1)] * 3)
    for q in (Fraction(2), Fraction(3, 2), Fraction(7)):
        series = expand(substitute(direct, q), 10)
        values = [lp.eval_at(Fraction(1)) for lp in series.coefficients]
        assert all(v >= 1 for v in values)


def test_mde_delta_zero_against_series_oracle():
    direct = hadamard_mde([(1, 1)] * 3)
    factor = build_entry("mat", d=1, e=1).closed_form
    series = expand(factor, 10)
    oracle = series.hadamard(series).hadamard(series)
    assert expand(direct, 10) == oracle


def test_mde_six_blocks_against_series_oracle():
    dims = [(d + 1, d) for d in range(1, 7)]
    direct = hadamard_mde(dims)
    series = [expand(build_entry("mat", d=d, e=e).closed_form, 12)
              for d, e in dims]
    oracle = series[0]
    for s in series[1:]:
        oracle = oracle.hadamard(s)
    assert expand(direct, 12) == oracle


def series_oracle(factors, order):
    """The coefficientwise product of the factors' expansions."""
    product = expand(factors[0], order)
    for f in factors[1:]:
        product = product.hadamard(expand(f, order))
    return product


def test_mde_errors():
    with pytest.raises(DeltaMismatch):
        hadamard_mde([(2, 1), (3, 1)])
    with pytest.raises(BadParameters):
        hadamard_mde([])
    # no enumeration bound: 8 and 12 blocks against the series oracle,
    # to an order that determines the closed form
    for n in (8, 12):
        dims = [(d % 3 + 2, d % 3 + 1) for d in range(n)]
        direct = hadamard_mde(dims)
        factors = [build_entry("mat", d=d, e=e).closed_form for d, e in dims]
        assert expand(direct, 2 * n + 1) == series_oracle(factors, 2 * n + 1)


# -- the colouring sums, as the oracle of the direct formulas ----------------

@functools.cache
def colouring_statistics(n):
    """For each word of S_n, the (des, comaj, coloured symbols) of each of
    its colourings in ``pi_of``, with its multiplicity.  Built once per n:
    between block lists only the label changes."""
    table = {}
    for p, mult in pi_of(itertools.permutations(range(1, n + 1))).terms:
        des, comaj, _ = stat_triple_raw(p.entries)
        table.setdefault(tuple(s for s, _ in p.entries), []).append(
            (des, comaj, [s for s, c in p.entries if c], mult))
    return table


def colouring_sum(words, exponents, delta):
    """W, with eps = delta, of all colourings of ``words`` (entry s coloured
    0 or s) under the label s -> -X^(exponents[s-1]), summed from the
    definition: a coloured word contributes its sign * Y^des *
    X^(label exponent + delta * comaj) over prod_(i <= n) (1 - X^(delta*i) Y).
    """
    table = colouring_statistics(len(exponents))
    numerator = {}
    for word in words:
        for des, comaj, coloured, mult in table[tuple(word)]:
            row = numerator.setdefault(des, {})
            x = delta * comaj + sum(exponents[s - 1] for s in coloured)
            row[x] = row.get(x, 0) + mult * (-1) ** len(coloured)
    return RationalGF({des: LaurentPoly(c) for des, c in numerator.items()},
                      [(1, delta * i) for i in range(len(exponents) + 1)])


def test_colouring_sum_is_w_of_the_colourings():
    """The oracle's sum is ``w_of`` of the ``pi_of`` configuration under
    the same label, for whole symmetric groups and for a subset of words."""
    cases = [(itertools.permutations(range(1, n + 1)), es, delta)
             for n, es in enumerate([[], [-1], [-2, 0], [-1, -3, -2]])
             for delta in (-1, 0, 2)]
    cases.append(([(1, 2, 3, 4), (3, 1, 4, 2), (2, 4, 1, 3)], [-1] * 4, 0))
    for words, es, delta in cases:
        words = list(words)
        label = Label({s: SignedMonomial(-1, k)
                       for s, k in enumerate(es, start=1)})
        assert colouring_sum(words, es, delta) == w_of(
            LabelledConfiguration(pi_of(words), label), delta)


def block_lists(values, max_blocks=5):
    for n in range(1, max_blocks + 1):
        yield from itertools.combinations_with_replacement(values, n)


@pytest.mark.parametrize("delta", [-1, 0, 1, 2])
def test_mde_equals_colouring_sum(delta):
    lo = max(1, 1 - delta)
    for es in block_lists(range(lo, lo + 3)):
        n = len(es)
        expected = colouring_sum(itertools.permutations(range(1, n + 1)),
                                 [-e - delta for e in es], delta)
        assert hadamard_mde([(e + delta, e) for e in es]) == expected


def test_repeated_blocks_equal_colouring_sum(monkeypatch):
    """Repeated blocks are packed and expanded once each, and the products
    still match the colouring sums."""
    packed = []
    pack = mpoly._packed
    monkeypatch.setattr(mpoly, "_packed",
                        lambda p, *args: packed.append(p) or pack(p, *args))
    for es, distinct in [((2, 2, 2), 1), ((1, 3, 1, 3), 2),
                         ((2, 1, 2, 2, 1), 2)]:
        n = len(es)
        words = list(itertools.permutations(range(1, n + 1)))
        packed.clear()
        assert (hadamard_mde([(e + 1, e) for e in es])
                == colouring_sum(words, [-e - 1 for e in es], 1))
        # each block's numerator 1 - X^(-e) Y has two rows
        assert len(packed) == 2 * distinct
        packed.clear()
        assert (hadamard_f2d(list(es)).rgf
                == colouring_sum(words, [-d for d in es], 1))
        assert len(packed) == 2 * distinct


def test_f2d_equals_colouring_sum():
    for ds in block_lists(range(1, 4)):
        n = len(ds)
        expected = colouring_sum(itertools.permutations(range(1, n + 1)),
                                 [-d for d in ds], 1)
        assert hadamard_f2d(list(ds)).rgf == expected


def ud_shapes(max_total):
    """Every composition of a total <= max_total, and each of them with one
    empty block inserted at every position."""
    yield from ([], [0])
    for total in range(1, max_total + 1):
        for k in range(total):
            for cuts in itertools.combinations(range(1, total), k):
                bounds = (0, *cuts, total)
                shape = [b - a for a, b in zip(bounds, bounds[1:])]
                yield shape
                for i in range(len(shape) + 1):
                    yield shape[:i] + [0] + shape[i:]


def ud_colouring_sum(shape):
    """The colouring sum over the shuffles of the consecutive increasing
    blocks of the given sizes, and the number of those shuffles."""
    total = sum(shape)
    blocks = [range(lo + 1, lo + d + 1) for lo, d in
              zip(itertools.accumulate(shape, initial=0), shape)]
    words = []
    for w in itertools.permutations(range(1, total + 1)):
        position = {s: i for i, s in enumerate(w)}
        if all(position[s] < position[s + 1] for b in blocks for s in b[:-1]):
            words.append(w)
    return colouring_sum(words, [-1] * total, 0), len(words)


def test_ud_equals_colouring_sum():
    # the product is symmetric in the blocks and empty blocks are the
    # identity, so shapes with the same nonzero sizes share one oracle
    oracles = {}
    for shape in ud_shapes(6):
        key = tuple(sorted(d for d in shape if d))
        if key not in oracles:
            oracles[key] = ud_colouring_sum(key)
        result = hadamard_ud(shape)
        assert (result.rgf, result.t_size) == oracles[key], shape


# -- the statistic-class recurrence, the large-n oracle of mde and f2d ------
#
# Colour each entry s of a word in S_n with 0 or s, and send the k coloured
# symbols to 1..k in reverse order and the rest to k+1..n in order.  This is
# a bijection onto S_n that keeps the descents at positions 1..n-1, and the
# word starts with a descent at position 0 iff its image starts at most k.
# So the colouring sum depends on the coloured set only through its size k:
#
#   numerator = sum_k e_k(-X^(a_1), ..., -X^(a_n)) * D_{n,k}(Y, X^delta)
#   T_m(r) = Y q^(m-1) sum_{r' < r} T_{m-1}(r') + sum_{r' >= r} T_{m-1}(r')
#   D_{n,k} = Y q^n sum_{r <= k} T_n(r) + sum_{r > k} T_n(r)
#
# where T_m(r) sums Y^des q^comaj over sigma in S_m with sigma_1 = r.  No
# shuffle, series or LaurentPoly arithmetic is used: polynomials are dicts
# of int counts.

def _add_into(acc, poly, des=0, comaj=0, sign=1):
    """acc += sign * Y^des * q^comaj * poly, dropping zero counts."""
    for (d, c), count in poly.items():
        key = (d + des, c + comaj)
        value = acc.get(key, 0) + sign * count
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)


def descent_classes(n):
    """[T_n(1), ..., T_n(n)] as dicts {(des, comaj): count}."""
    rows = [{(0, 0): 1}]
    for m in range(2, n + 1):
        below, above = {}, {}  # sums of T_{m-1}(r') over r' < r, r' >= r
        for row in rows:
            _add_into(above, row)
        new = []
        for r in range(1, m + 1):
            row = {}
            _add_into(row, below, 1, m - 1)
            _add_into(row, above)
            new.append(row)
            if r < m:
                _add_into(below, rows[r - 1])
                _add_into(above, rows[r - 1], sign=-1)
        rows = new
    return rows


def statistic_class_sum(exponents, delta):
    """``colouring_sum`` over all of S_n, n = len(exponents), by the
    recurrence above."""
    n = len(exponents)
    elementary = [{0: 1}] + [{} for _ in exponents]  # e_k(-X^a_1, ...)
    for a in exponents:
        for k in range(n, 0, -1):
            for x, count in elementary[k - 1].items():
                elementary[k][x + a] = elementary[k].get(x + a, 0) - count
    rows = descent_classes(n)
    numerator = {}
    for k, e_k in enumerate(elementary):
        d_nk = {}
        for r, row in enumerate(rows, start=1):
            _add_into(d_nk, row, *((1, n) if r <= k else (0, 0)))
        for (des, comaj), count in d_nk.items():
            coeff = numerator.setdefault(des, {})
            for x, e in e_k.items():
                key = x + delta * comaj
                coeff[key] = coeff.get(key, 0) + count * e
    return RationalGF({des: LaurentPoly(c) for des, c in numerator.items()},
                      [(1, delta * i) for i in range(n + 1)])


def test_statistic_class_sum_equals_colouring_sum():
    for delta in (-1, 0, 2):
        for exponents in ([-1], [-2, -3], [-1, -1, -4], [0, -2, -1, -3]):
            words = itertools.permutations(range(1, len(exponents) + 1))
            assert (statistic_class_sum(exponents, delta)
                    == colouring_sum(words, exponents, delta))


@pytest.mark.parametrize("delta", [-1, 1, 2])
def test_mde_equals_statistic_class_sum(delta):
    lo = max(1, 1 - delta)
    for n in (*range(7, 13), 20):
        es = [lo + i % 3 for i in range(n)]
        assert (hadamard_mde([(e + delta, e) for e in es])
                == statistic_class_sum([-e - delta for e in es], delta))


def test_f2d_equals_statistic_class_sum():
    for ds in ([1] * 7, [2, 3, 1, 4, 2, 3, 1, 2], [3] * 10):
        assert (hadamard_f2d(ds).rgf
                == statistic_class_sum([-d for d in ds], 1))


# -- class-counting products -----------------------------------------------------

def test_f2d_single_matches_antisymmetric_form():
    result = hadamard_f2d([4])
    assert equal(result.rgf, build_entry("so", d=4).closed_form)
    assert result.arg_shift == SignedMonomial(1, -math.comb(4, 2))
    assert result.conditions == ("odd residue field size",)


def test_f2d_equal_blocks_symmetric_numerator():
    result = hadamard_f2d([3, 3]).rgf
    # alpha is the same on both colours, so the numerator is the direct
    # two-block pattern with A = B = -X^-3
    A = LaurentPoly.monomial(-1, -3)
    x = LaurentPoly.monomial(1, 1)
    x2 = LaurentPoly.monomial(1, 2)
    x3 = LaurentPoly.monomial(1, 3)
    expected = RationalGF(
        {0: LaurentPoly.one(),
         1: (LaurentPoly.one() + A + A) * x + (A + A + A * A) * x2,
         2: A * A * x3},
        [(one, 0), (one, 1), (one, 2)])
    assert equal(result, expected)


def test_f2d_two_blocks_against_oracles():
    result = hadamard_f2d([2, 3])
    lhs = build_entry("so", d=2).closed_form
    rhs = build_entry("so", d=3).closed_form
    oracle = expand(lhs, 10).hadamard(expand(rhs, 10))
    assert expand(result.rgf, 10) == oracle
    combined = hadamard_entries([build_entry("so", d=2), build_entry("so", d=3)])
    assert equal(result.rgf, combined.rgf)


# -- orbit-counting products -------------------------------------------------------

def test_ud_single_block_binomial_identity():
    for d in (1, 2, 3, 4):
        result = hadamard_ud([d])
        assert result.t_size == 1
        assert equal(result.rgf, closed([-1] * d, [0] * (d + 1)))


def test_ud_conditions_are_the_rows():
    for d in (1, 2, 3, 4):
        assert (hadamard_ud([d]).conditions
                == build_entry("unitriangular_oc", d=d).conditions)
    # a product holds where its largest factor does
    assert (hadamard_ud([1, 4, 2]).conditions
            == build_entry("unitriangular_oc", d=4).conditions)


def test_ud_two_blocks():
    result = hadamard_ud([2, 3])
    assert result.t_size == math.comb(5, 2)
    lhs = closed([-1] * 2, [0] * 3)
    rhs = closed([-1] * 3, [0] * 4)
    oracle = expand(lhs, 10).hadamard(expand(rhs, 10))
    assert expand(result.rgf, 10) == oracle
    assert result.arg_shift == SignedMonomial(1, -2)


def test_ud_with_empty_block():
    result = hadamard_ud([2, 0])
    assert result.t_size == 1
    assert equal(result.rgf, closed([-1] * 2, [0] * 3))


def test_ud_ones_against_oracle():
    result = hadamard_ud([1, 1])
    factor = closed([-1], [0, 0])
    oracle = expand(factor, 8).hadamard(expand(factor, 8))
    assert expand(result.rgf, 8) == oracle


# -- combining catalog entries ------------------------------------------------------

def test_hadamard_entries_mixed_families():
    # antisymmetric and matrix entries share eps = 1 when d - e = 1
    entries = [build_entry("so", d=3), build_entry("mat", d=4, e=3)]
    combined = hadamard_entries(entries)
    oracle = expand(entries[0].closed_form, 8).hadamard(
        expand(entries[1].closed_form, 8))
    assert expand(combined.rgf, 8) == oracle
    assert combined.conditions == ("residue characteristic != 2",)


def test_hadamard_entries_rejects_mixed_eps():
    with pytest.raises(BadParameters):
        hadamard_entries([build_entry("mat", d=3, e=1),
                          build_entry("so", d=2)])


def test_hadamard_entries_applies_shifts():
    entries = [build_entry("f2d_cc", d=2), build_entry("so", d=3)]
    combined = hadamard_entries(entries)
    oracle = expand(entries[0].closed_form, 8).hadamard(
        expand(entries[1].closed_form, 8))
    assert expand(combined.rgf, 8) == oracle
    assert combined.shift == SignedMonomial(1, 1)  # binom(2,2)... X^1 from f2d
