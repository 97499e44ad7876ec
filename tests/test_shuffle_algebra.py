import collections
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colshuffle import (BadParameters, ColouredConfiguration,
                        ColouredInteger, ColouredPermutation, Label,
                        LabelledConfiguration, NotCoherent, RationalGF,
                        SignedMonomial, StatTriple, all_coloured_permutations,
                        check_shuffle_compatibility,
                        equal, expand,
                        hadamard_general, hadamard_identity,
                        hadamard_iterated,
                        hadamard_via_theorem, make_strongly_disjoint,
                        parse_permutation, shuffles, stat_triple, w_of)
from colshuffle import shuffle_algebra
from colshuffle.shuffle_algebra import STATISTICS, CompatReport
from colshuffle.verify import random_coherent_pair
from conftest import relabel_symbols
from polyoracle import (X_VAR, Z_VAR, MPoly, h_map, h_of, h_tilde_map,
                        monomial, p_var)

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
        assert sum(m for _, m in lc.config) == 8
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


def test_shuffle_step_label_passes_the_support_check():
    """``_shuffle_step`` skips the constructor's support check; its label
    passes that check on random coherent pairs."""
    rng = random.Random(5)
    for _ in range(200):
        lc = shuffle_algebra._shuffle_step(*random_coherent_pair(rng))
        assert LabelledConfiguration(lc.config, lc.label) == lc


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


def test_theorem_suite_names_the_failed_check(monkeypatch):
    from colshuffle import verify
    clean = verify.theorem_suite(trials=3, order=6, seed=1)
    monkeypatch.setattr(verify, "hadamard_general",
                        lambda lhs, rhs, eps: RationalGF.zero())
    broken = verify.theorem_suite(trials=3, order=6, seed=1)
    assert clean.keys() == broken.keys() and clean["failures"] == []
    assert [(f["case"], f["check"]) for f in broken["failures"]] == \
        [(case, "hadamard_general") for case in range(3)]


@pytest.mark.parametrize("bounds", [
    {"max_len": 12}, {"max_len": 7}, {"max_len": -1}, {"max_support": 0},
    {"exp_range": -1}, {"max_len": 6, "max_support": 33}])
def test_random_coherent_pair_rejects_bounds(bounds):
    """The generator rejects, as theorem_suite does, bounds it cannot
    draw at."""
    with pytest.raises(BadParameters):
        random_coherent_pair(random.Random(1), **bounds)


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
            key = (len(a), stat_triple(a))
            if key in seen:
                continue
            image = h_of(a)
            t_power, lead = image.t_power, image.numerator
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


def test_planted_control_draws_cases_lazily(monkeypatch):
    """The control fails within the first few checks, so a huge ``trials``
    draws no more random cases than the checks performed."""
    original = shuffle_algebra._random_relabelling_case
    drawn = 0

    def counting(*args):
        nonlocal drawn
        drawn += 1
        return original(*args)

    monkeypatch.setattr(shuffle_algebra, "_random_relabelling_case", counting)
    report = check_shuffle_compatibility(
        STATISTICS["first_symbol"], trials=10**5, max_len=4,
        statistic_name="first_symbol")
    assert report.counterexample["kind"] == "relabelling"
    assert drawn <= report.trials


def inversions(a):
    ents = a.entries
    return sum(1 for i in range(len(ents)) for j in range(i + 1, len(ents))
               if (-ents[i].colour, ents[i].symbol)
               > (-ents[j].colour, ents[j].symbol))


def test_incompatible_statistic_found_by_multiset_search():
    """Inversion count: a relabelling-invariant statistic that is not
    shuffle compatible; the pair search must expose it."""
    report = check_shuffle_compatibility(inversions, trials=50, max_len=4,
                                         colours=1, statistic_name="inv")
    assert not report.ok
    assert report.counterexample["kind"] == "shuffle"


# -- the harness against the per-pair reference sweep ------------------------------

def _reference_relabelling_case(rng, max_len, colours):
    n = rng.randint(0, max_len)
    symbols = rng.sample(range(1, 4 * max_len + 2), n)
    entries = [(s, rng.randrange(colours)) for s in symbols]
    targets = sorted(rng.sample(range(1, 8 * max_len + 4), n))
    mapping = dict(zip(sorted(symbols), targets))
    return ColouredPermutation(entries), mapping


def _reference_side_variants(symbols, colours, raw_stat):
    out = []
    colour_words = list(itertools.product(range(colours), repeat=len(symbols)))
    for order in itertools.permutations(symbols):
        for cols in colour_words:
            entries = tuple(ColouredInteger(s, c)
                            for s, c in zip(order, cols))
            out.append((entries, raw_stat(entries)))
    return out


def reference_check_shuffle_compatibility(stat, trials=200, max_len=5, *,
                                          colours=3, seed=0,
                                          statistic_name=None):
    """The harness as it was before words were scored once: every shuffle
    of every pair is evaluated and counted into a dict."""
    name = statistic_name or getattr(stat, "__name__", "statistic")
    performed = 0

    rng = random.Random(seed)
    cases = []
    for n in range(0, min(max_len, 3) + 1):
        for perm in all_coloured_permutations(n, colours):
            cases.append((perm, {s: s + 1 for s in perm.symbols()}))
            cases.append((perm, {s: 2 * s for s in perm.symbols()}))
    for _ in range(trials):
        cases.append(_reference_relabelling_case(rng, max_len, colours))
    for perm, mapping in cases:
        performed += 1
        relabelled = relabel_symbols(perm, mapping)
        if stat(perm) != stat(relabelled):
            return CompatReport(name, performed, 0, {
                "kind": "relabelling",
                "permutation": str(perm),
                "relabelled": str(relabelled),
                "values": [repr(stat(perm)), repr(stat(relabelled))],
            })

    raw_stat = getattr(stat, "raw", None)
    make = ColouredPermutation._raw
    if raw_stat is None:
        def raw_stat(entries):
            return stat(make(tuple(entries)))
    groups: dict = {}
    for total in range(2, max_len + 1):
        all_symbols = range(1, total + 1)
        word: list = [None] * total
        for n in range(1, total // 2 + 1):
            m = total - n
            placements = [(mask, tuple(p for p in range(total) if p not in mask))
                          for mask in itertools.combinations(range(total), n)]
            for a_symbols in itertools.combinations(all_symbols, n):
                b_symbols = tuple(s for s in all_symbols if s not in a_symbols)
                lhs = _reference_side_variants(a_symbols, colours, raw_stat)
                rhs = _reference_side_variants(b_symbols, colours, raw_stat)
                for a_entries, sa in lhs:
                    for b_entries, sb in rhs:
                        multiset: dict = {}
                        for mask, comp in placements:
                            for e, p in zip(a_entries, mask):
                                word[p] = e
                            for e, p in zip(b_entries, comp):
                                word[p] = e
                            v = raw_stat(word)
                            multiset[v] = multiset.get(v, 0) + 1
                        performed += 1
                        key = (n, sa, m, sb)
                        prev = groups.get(key)
                        if prev is None:
                            groups[key] = (multiset,
                                           (str(make(a_entries)),
                                            str(make(b_entries))))
                        elif prev[0] != multiset:
                            pair = [str(make(a_entries)), str(make(b_entries))]
                            return CompatReport(name, performed, len(groups), {
                                "kind": "shuffle",
                                "first_pair": list(prev[1]),
                                "second_pair": pair,
                                "first_multiset": sorted(
                                    (repr(k), v) for k, v in prev[0].items()),
                                "second_multiset": sorted(
                                    (repr(k), v) for k, v in multiset.items()),
                            })
    return CompatReport(name, performed, len(groups), None)


def descent_triple_blackbox(a):
    """stat_triple with no ``raw`` fast path."""
    return stat_triple(a)


def des_parity(a):
    return stat_triple(a).des % 2


def inversions_from_length_4(a):
    """Compatible up to total length 3; falsified partway through total 4."""
    return stat_triple(a) if len(a) < 4 else inversions(a)


def symbol_spread(a):
    """Invariant under s -> s + 1 but not under s -> 2s: phase 1 fails on
    the s -> 2s image of 1^0 2^0."""
    symbols = [e.symbol for e in a.entries]
    return max(symbols) - min(symbols) if symbols else 0


def last_symbol_at_length_3(a):
    """Not relabelling invariant on length-3 words whose last colour is
    nonzero, and only there."""
    last = a.entries[-1] if len(a) == 3 else None
    return last.symbol if last and last.colour else stat_triple(a)


def first_symbol_from_length_4(a):
    """Not relabelling invariant from length 4 on, beyond the sweep of
    phase 1, so that only its random trials can catch it."""
    return a.entries[0].symbol if len(a) >= 4 else stat_triple(a)


HARNESS_STATISTICS = {
    "des": STATISTICS["des"],
    "comaj": STATISTICS["comaj"],
    "col": STATISTICS["col"],
    "des_comaj_col": STATISTICS["des_comaj_col"],
    "sdes": STATISTICS["sdes"],
    "first_symbol": STATISTICS["first_symbol"],
    "blackbox": descent_triple_blackbox,
    "inversions": inversions,
    "des_parity": des_parity,
    "inversions_from_length_4": inversions_from_length_4,
    "symbol_spread": symbol_spread,
    "last_symbol_at_length_3": last_symbol_at_length_3,
    "first_symbol_from_length_4": first_symbol_from_length_4,
}
HARNESS_BOUNDS = [(0, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 2), (5, 1),
                  (5, 3)]


@pytest.mark.parametrize("max_len,colours", HARNESS_BOUNDS)
@pytest.mark.parametrize("name", sorted(HARNESS_STATISTICS))
def test_harness_matches_reference(name, max_len, colours):
    stat = HARNESS_STATISTICS[name]
    kwargs = dict(trials=20, max_len=max_len, colours=colours,
                  seed=10 * max_len + colours, statistic_name=name)
    got = check_shuffle_compatibility(stat, **kwargs).to_json_obj()
    want = reference_check_shuffle_compatibility(stat, **kwargs).to_json_obj()
    assert json.dumps(got) == json.dumps(want)


def test_harness_stops_partway_through_a_total():
    report = check_shuffle_compatibility(inversions_from_length_4, trials=20,
                                         max_len=5, colours=2)
    full_length_3 = check_shuffle_compatibility(
        inversions_from_length_4, trials=20, max_len=3, colours=2)
    assert full_length_3.ok
    assert report.counterexample["kind"] == "shuffle"
    assert full_length_3.trials < report.trials < exhaustive_checks(4, 2, 20)


def exhaustive_checks(max_len, colours, trials):
    """Phase-1 cases plus one check per pair: sum over totals T and left
    lengths n <= T/2 of C(T, n) * n! c^n * (T - n)! c^(T - n)."""
    def coloured(n):
        return math.factorial(n) * colours ** n
    relabellings = trials + sum(2 * coloured(n)
                                for n in range(min(max_len, 3) + 1))
    return relabellings + sum(
        math.comb(total, n) * coloured(n) * coloured(total - n)
        for total in range(2, max_len + 1) for n in range(1, total // 2 + 1))


@pytest.mark.parametrize("max_len,colours", [
    (0, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1)])
def test_harness_performs_every_check(max_len, colours):
    report = check_shuffle_compatibility(
        STATISTICS["des_comaj_col"], trials=7, max_len=max_len,
        colours=colours)
    assert report.ok
    assert report.trials == exhaustive_checks(max_len, colours, 7)


def _never_called(a):
    raise AssertionError("the statistic was evaluated")


@pytest.mark.parametrize("trials,max_len,colours", [
    (-5, 3, 2), (0, -1, 2), (0, 3, 0), (0, 9, 5), (0, 10, 1)])
def test_harness_rejects_bounds_before_any_work(trials, max_len, colours):
    with pytest.raises(BadParameters):
        check_shuffle_compatibility(_never_called, trials=trials,
                                    max_len=max_len, colours=colours)



def test_harness_scores_each_word_once():
    """Phase 2 evaluates the statistic once on each word it needs: every
    coloured permutation of 1..total, and every variant of each operand's
    symbol set."""
    evaluated = []

    def des_comaj_col(a):
        return stat_triple(a)

    def raw(entries):
        evaluated.append(tuple(entries))
        return stat_triple(ColouredPermutation._raw(tuple(entries)))

    des_comaj_col.raw = raw
    max_len, colours = 4, 2
    report = check_shuffle_compatibility(des_comaj_col, trials=0,
                                         max_len=max_len, colours=colours)
    assert report.ok

    def variants(symbols):
        return {tuple(map(ColouredInteger, order, cols))
                for order in itertools.permutations(symbols)
                for cols in itertools.product(range(colours),
                                              repeat=len(symbols))}

    needed = set()
    for total in range(2, max_len + 1):
        needed |= variants(range(1, total + 1))
        for n in range(1, total // 2 + 1):
            for lhs in itertools.combinations(range(1, total + 1), n):
                needed |= variants(lhs)
                needed |= variants([s for s in range(1, total + 1)
                                    if s not in lhs])
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == needed


def test_black_box_statistic_shares_phase_one_scores():
    """A statistic without ``.raw`` is scored through phase 1's scorer in
    phase 2 as well: outside the random trials, which evaluate both sides
    of each case, no word is evaluated twice, and the report is the one the
    separate scorers gave."""
    evaluated = []

    def des(a):
        evaluated.append(a.entries)
        return stat_triple(a).des

    max_len, colours, trials = 4, 3, 200
    report = check_shuffle_compatibility(des, trials=trials, max_len=max_len,
                                         colours=colours)
    assert report.ok and report.trials == 4636
    assert len(evaluated) == 3275
    rng = random.Random(0)
    sampled = collections.Counter(
        perm.entries for _ in range(trials)
        for perm in shuffle_algebra._random_relabelling_case(rng, max_len,
                                                             colours))
    swept = collections.Counter(evaluated)
    assert not sampled - swept
    swept -= sampled
    assert max(swept.values()) == 1


def test_theorem_with_a_zero_operand_is_zero_under_the_empty_label():
    zero = LabelledConfiguration(ColouredConfiguration(), Label())
    labelled = lc_of({1: SignedMonomial(-1, 2)}, "1^1 2^0")
    disjoint = lc_of({1: SignedMonomial(-1, 2)}, "3^1")
    for lhs, rhs in ((zero, labelled), (disjoint, zero)):
        lc, result = hadamard_via_theorem(lhs, rhs, 1)
        assert lc.config.is_zero()
        assert lc.label == Label()
        assert result == RationalGF.zero()


# -- the built-in statistics read off descent masks ---------------------------

MASK_ROUTE = ("des", "comaj", "col", "des_comaj_col", "sdes")


def raw_values(words):
    """Each built-in statistic's ``raw`` on each word.  On more than 10,000
    words des, comaj and col are read off the des_comaj_col triple, whose
    components their ``raw`` functions return, to keep the test short."""
    values = {name: list(map(STATISTICS[name].raw, words))
              for name in ("des_comaj_col", "sdes")}
    for k, name in enumerate(("des", "comaj", "col")):
        values[name] = ([triple[k] for triple in values["des_comaj_col"]]
                        if len(words) > 10_000
                        else list(map(STATISTICS[name].raw, words)))
    return values


@pytest.mark.parametrize("colours", [1, 2, 3, 4])
def test_mask_route_values_equal_raw(colours):
    """Phase 2 reads the five built-in statistics off descent masks; on
    every order and colouring of contiguous, non-contiguous and unsorted
    symbol sets of length 0..6 within the sweep's cap, the values are those
    of ``raw`` word by word."""
    for n in range(7):
        count = math.factorial(n) * colours ** n
        if count > shuffle_algebra.MAX_COMPAT_WORDS:
            continue
        symbol_sets = [tuple(range(1, n + 1))]
        if count <= 10_000:
            symbol_sets += [(2, 5, 7, 11, 12, 20)[:n],
                            (7, 2, 20, 5, 12, 9)[:n]]
        for symbols in symbol_sets:
            words = list(shuffle_algebra._Scorer(None, colours).words(symbols))
            want = raw_values(words)
            for name in MASK_ROUTE:
                scorer = shuffle_algebra._Scorer(STATISTICS[name].raw, colours)
                assert scorer._masked is not None
                got = [scorer.values[i] for i in scorer.ids(symbols, words)]
                assert got == want[name], (name, symbols)


@pytest.mark.parametrize("max_len,colours", [(4, 2), (5, 3)])
@pytest.mark.parametrize("name", MASK_ROUTE)
def test_wrapped_builtin_keeps_the_per_word_route(name, max_len, colours):
    """A wrapper with its own ``raw``, as the benchmark's tracer makes, is
    scored word by word and reports what the built-in reports."""
    builtin = STATISTICS[name]
    evaluated = 0

    def wrapped(a):
        return builtin(a)

    def raw(entries):
        nonlocal evaluated
        evaluated += 1
        return builtin.raw(entries)

    wrapped.raw = raw
    kwargs = dict(trials=20, max_len=max_len, colours=colours, seed=3,
                  statistic_name=name)
    got = check_shuffle_compatibility(wrapped, **kwargs).to_json_obj()
    want = check_shuffle_compatibility(builtin, **kwargs).to_json_obj()
    assert evaluated >= math.factorial(max_len) * colours ** max_len
    assert json.dumps(got) == json.dumps(want)
