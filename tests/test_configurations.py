import json
import random

import pytest
from hypothesis import given, strategies as st

from colshuffle import (BadParameters, ColouredConfiguration, Label,
                        LabelledConfiguration, NotCoherent, ParseError, SignedMonomial, SymbolOverlap,
                        canonicalize, check_coherence, config_shuffle,
                        evaluate_label, make_strongly_disjoint, merge_labels,
                        parse_labelled_configuration, parse_permutation,
                        shuffles, stat_triple)
from colshuffle.verify import random_coherent_pair
from conftest import coloured_permutations, relabel_symbols

P = parse_permutation


def config_of(*texts, mult=1):
    return ColouredConfiguration((P(t), mult) for t in texts)


@st.composite
def labelled_configurations(draw, symbol_pool, max_support=3, max_len=3):
    perms = draw(st.lists(
        coloured_permutations(max_len=max_len, symbol_pool=6),
        min_size=1, max_size=max_support))
    offset = min(symbol_pool) - 1
    perms = [relabel_symbols(p, {s: s + offset for s in p.symbols()})
             for p in perms]
    config = ColouredConfiguration((p, draw(st.integers(1, 2))) for p in perms)
    label = Label({
        c: SignedMonomial(draw(st.sampled_from((1, -1))), draw(st.integers(-3, 3)))
        for c in config.palette_star()})
    return LabelledConfiguration(config, label)


# -- signed monomials ---------------------------------------------------------

def test_signed_monomial_arithmetic():
    a = SignedMonomial(-1, -2)
    b = SignedMonomial(-1, 5)
    assert a * b == SignedMonomial(1, 3)
    assert SignedMonomial.one().is_one()
    assert a ** 2 == SignedMonomial(1, -4)
    assert a ** 3 == SignedMonomial(-1, -6)


@pytest.mark.parametrize("text,expected", [
    ("-X^-2", SignedMonomial(-1, -2)),
    ("X", SignedMonomial(1, 1)),
    ("-X", SignedMonomial(-1, 1)),
    ("1", SignedMonomial(1, 0)),
    ("-1", SignedMonomial(-1, 0)),
    ("+X^3", SignedMonomial(1, 3)),
])
def test_signed_monomial_parse_round_trip(text, expected):
    assert SignedMonomial.parse(text) == expected
    assert SignedMonomial.parse(str(expected)) == expected


@pytest.mark.parametrize("sign,exponent,text", [
    (1, -1, "X^-1"), (1, 0, "1"), (1, 1, "X"), (1, 2, "X^2"),
    (-1, -1, "-X^-1"), (-1, 0, "-1"), (-1, 1, "-X"), (-1, 2, "-X^2"),
])
def test_signed_monomial_text_pinned(sign, exponent, text):
    sm = SignedMonomial(sign, exponent)
    assert str(sm) == text
    assert SignedMonomial.parse(str(sm)) == sm


# -- labels -------------------------------------------------------------------

def test_evaluate_label_examples():
    label = Label({1: SignedMonomial(-1, -4)})
    assert evaluate_label(label, P("1^1 2^0")) == SignedMonomial(-1, -4)
    assert evaluate_label(label, P("1 2 3")) == SignedMonomial.one()
    both = Label({1: SignedMonomial(-1, -1), 2: SignedMonomial(-1, -1)})
    assert evaluate_label(both, P("1^1 2^2")) == SignedMonomial(1, -2)
    assert evaluate_label(both, P("")) == SignedMonomial.one()


def test_label_rejects_colour_zero():
    with pytest.raises(ValueError):
        Label({0: SignedMonomial(-1, 1)})
    # identity assignments are dropped, support stays clean
    assert Label({3: SignedMonomial(1, 0)}).support() == frozenset()


def test_labelled_configuration_support_check():
    config = config_of("1^0 2^2")
    LabelledConfiguration(config, Label({2: SignedMonomial(-1, 0)}))
    with pytest.raises(ValueError):
        LabelledConfiguration(config, Label({1: SignedMonomial(-1, 0)}))


# -- configuration shuffles ----------------------------------------------------

def test_config_shuffle_eight_terms():
    f = config_of("1^0", "1^1")
    g = config_of("2^0", "2^2")
    result = config_shuffle(f, g)
    expected = config_of("1^0 2^0", "2^0 1^0", "1^0 2^2", "2^2 1^0",
                         "1^1 2^0", "2^0 1^1", "1^1 2^2", "2^2 1^1")
    assert result == expected


def test_config_shuffle_unit_and_counts():
    f = config_of("2^1 1^0", mult=3)
    unit = config_of("")
    assert config_shuffle(f, unit) == f
    g = config_of("3^0 4^2")
    import math
    assert (sum(m for _, m in config_shuffle(f, g))
            == 3 * math.comb(4, 2))


def test_config_shuffle_symbol_overlap():
    with pytest.raises(SymbolOverlap):
        config_shuffle(config_of("1^0"), config_of("1^1"))


def test_config_shuffle_word_cap():
    # term pairs, not multiplicities, count: 2 * 3 * C(20, 10) + 3 * C(10, 0)
    def word(*symbols):
        return " ".join(map(str, symbols))

    f = ColouredConfiguration([(P(word(*range(1, 11))), 5),
                               (P(word(*range(10, 0, -1))), 1), (P(""), 1)])
    g = config_of(word(*range(11, 21)), word(*range(20, 10, -1)),
                  word(12, 11, *range(13, 21)))
    with pytest.raises(BadParameters, match="1108539 words"):
        config_shuffle(f, g)


@given(labelled_configurations(range(1, 7)), labelled_configurations(range(11, 17)),
       labelled_configurations(range(21, 27)))
def test_config_shuffle_commutative_associative(x, y, z):
    f, g, h = x.config, y.config, z.config
    assert config_shuffle(f, g) == config_shuffle(g, f)
    assert (config_shuffle(config_shuffle(f, g), h)
            == config_shuffle(f, config_shuffle(g, h)))
    assert (config_shuffle(f, g).palette_star()
            == f.palette_star() | g.palette_star())


@given(labelled_configurations(range(1, 7)), labelled_configurations(range(11, 17)))
def test_config_shuffle_is_the_normal_form_of_its_words(x, y):
    f, g = x.config, y.config
    words = ColouredConfiguration((c, fa * gb) for a, fa in f.terms
                                  for b, gb in g.terms for c in shuffles(a, b))
    assert config_shuffle(f, g).terms == words.terms


# -- canonical forms ------------------------------------------------------------

def test_canonicalize_golden():
    lc = LabelledConfiguration(config_of("5^0 7^9"),
                               Label({9: SignedMonomial(-1, 2)}))
    out = canonicalize(lc)
    assert out.config == config_of("1^0 2^1")
    assert out.label == Label({1: SignedMonomial(-1, 2)})


@given(labelled_configurations(range(1, 7)))
def test_canonicalize_idempotent_and_stat_preserving(lc):
    once = canonicalize(lc)
    assert canonicalize(once) == once
    # des and comaj are preserved entrywise; col transports along the
    # colour relabelling
    def des_comaj(config):
        return sorted((stat_triple(p)[:2], m) for p, m in config)
    assert des_comaj(once.config) == des_comaj(lc.config)
    # label values transport exactly
    assert sorted(v for v in once.label.assignments.values()) == \
        sorted(v for v in lc.label.assignments.values())


def test_make_strongly_disjoint_golden():
    lhs = LabelledConfiguration(config_of("1^1"),
                                Label({1: SignedMonomial(-1, 0)}))
    rhs = LabelledConfiguration(config_of("1^0", "1^1"),
                                Label({1: SignedMonomial(-1, 1)}))
    out = make_strongly_disjoint(lhs, rhs)
    assert out.config == config_of("2^0", "2^2")
    assert out.label == Label({2: SignedMonomial(-1, 1)})


@given(labelled_configurations(range(1, 7)), labelled_configurations(range(4, 10)))
def test_make_strongly_disjoint_properties(lhs, rhs):
    out = make_strongly_disjoint(lhs, rhs)
    assert not out.config.symbols() & lhs.config.symbols()
    assert not out.config.palette_star() & lhs.config.palette_star()
    assert canonicalize(out) == canonicalize(rhs)
    assert check_coherence(lhs, out)


# -- coherence and label merging -------------------------------------------------

def test_check_coherence_cases():
    f = LabelledConfiguration(config_of("1^0", "1^1"),
                              Label({1: SignedMonomial(-1, -1)}))
    g = LabelledConfiguration(config_of("2^0", "2^2"),
                              Label({2: SignedMonomial(-1, -2)}))
    assert check_coherence(f, g)

    shared_disagree = LabelledConfiguration(
        config_of("2^0", "2^1"), Label({1: SignedMonomial(1, 1)}))
    f2 = LabelledConfiguration(config_of("1^0", "1^1"),
                               Label({1: SignedMonomial(-1, 1)}))
    assert not check_coherence(f2, shared_disagree)

    shared_agree = LabelledConfiguration(
        config_of("2^0", "2^1"), Label({1: SignedMonomial(-1, 1)}))
    assert check_coherence(f2, shared_agree)

    overlapping_symbols = LabelledConfiguration(config_of("1^0"), Label())
    assert not check_coherence(f, overlapping_symbols)


def test_merge_labels_golden():
    f = LabelledConfiguration(config_of("1^0", "1^1"),
                              Label({1: SignedMonomial(-1, -1)}))
    g = LabelledConfiguration(config_of("2^0", "2^2"),
                              Label({2: SignedMonomial(-1, -2)}))
    merged = merge_labels(f, g)
    assert merged(1) == SignedMonomial(-1, -1)
    assert merged(2) == SignedMonomial(-1, -2)
    assert merged.support() <= (f.config.palette_star()
                                | g.config.palette_star())


def test_merge_labels_trivial_and_error():
    f = LabelledConfiguration(config_of("1^0"), Label())
    g = LabelledConfiguration(config_of("2^0"), Label())
    assert merge_labels(f, g) == Label()
    bad = LabelledConfiguration(config_of("1^1"),
                                Label({1: SignedMonomial(1, 1)}))
    other = LabelledConfiguration(config_of("2^1"),
                                  Label({1: SignedMonomial(-1, 1)}))
    with pytest.raises(NotCoherent):
        merge_labels(bad, other)


@given(labelled_configurations(range(1, 7)), labelled_configurations(range(11, 17)))
def test_merge_equals_pointwise_product_when_strongly_disjoint(lhs, rhs):
    rhs = make_strongly_disjoint(lhs, rhs)
    merged = merge_labels(lhs, rhs)
    for c in lhs.config.palette_star() | rhs.config.palette_star():
        assert merged(c) == lhs.label(c) * rhs.label(c)


# -- multiset normal form and serialisation ---------------------------------------

def test_multiset_normal_form():
    a = ColouredConfiguration([(P("1^0"), 1), (P("1^0"), 2)])
    assert a.terms == ((P("1^0"), 3),)
    assert ColouredConfiguration([(P("1^0"), 0)]).is_zero()


def test_text_round_trip(two_letter_pair):
    lhs, _ = two_letter_pair
    assert parse_labelled_configuration(lhs.to_text()) == lhs
    # empty permutation line round-trips too
    lc = LabelledConfiguration(ColouredConfiguration([(P(""), 2)]), Label())
    assert parse_labelled_configuration(lc.to_text()) == lc


def test_json_round_trip(two_letter_pair):
    lhs, _ = two_letter_pair
    obj = lhs.to_json_obj()
    assert LabelledConfiguration.from_json_obj(obj) == lhs
    assert parse_labelled_configuration(json.dumps(obj)) == lhs


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_labelled_configuration("1 * 1^0 * oops\n")
    with pytest.raises(ParseError):
        parse_labelled_configuration("2 -> -X^\n")
    with pytest.raises(ParseError):
        parse_labelled_configuration("1 * 1^0\n1 -> -X\n")  # label off-palette
    with pytest.raises(ParseError):
        parse_labelled_configuration('{"config": 3}')


# -- the coherent-pair pipeline against its former routes -----------------------

def relabelled_by_maps(lc, symbol_map, colour_map):
    """``lc`` under the two maps, rebuilt through the sorting constructor."""
    config = ColouredConfiguration(
        (p.relabel(symbol_map, colour_map), m) for p, m in lc.config.terms)
    return LabelledConfiguration(config, Label(
        {colour_map[c]: v for c, v in lc.label.assignments.items()}))


def canonical_form(lc):
    """Oracle: symbols onto 1..k and nonzero colours onto 1..m in order."""
    return relabelled_by_maps(
        lc, {s: i for i, s in enumerate(sorted(lc.config.symbols()), 1)},
        {c: i for i, c in enumerate(sorted(lc.config.palette_star()), 1)})


def shifted_canonical_form(lhs, rhs):
    """Oracle: the canonical form of ``rhs``, then its symbols and colours
    shifted above those of ``lhs``, in two relabellings."""
    symbol_off = max(lhs.config.symbols(), default=0)
    colour_off = max(lhs.config.palette_star(), default=0)
    canon = canonical_form(rhs)
    return relabelled_by_maps(
        canon, {s: s + symbol_off for s in canon.config.symbols()},
        {c: c + colour_off for c in canon.config.palette_star()})


def merged_colour_by_colour(lhs, rhs):
    """Oracle: lhs's nontrivial values on lhs's colours, then rhs's on the
    colours lhs does not have, one colour at a time."""
    merged = {}
    left_palette = lhs.config.palette_star()
    for c in left_palette:
        if not lhs.label(c).is_one():
            merged[c] = lhs.label(c)
    for c in rhs.config.palette_star() - left_palette:
        if not rhs.label(c).is_one():
            merged[c] = rhs.label(c)
    return Label(merged)


@given(labelled_configurations(range(1, 7)), labelled_configurations(range(4, 10)))
def test_make_strongly_disjoint_is_the_shifted_canonical_form(lhs, rhs):
    # ColouredConfiguration equality compares the ordered terms, so this
    # also checks that the one relabelling keeps the normal-form order
    assert make_strongly_disjoint(lhs, rhs) == shifted_canonical_form(lhs, rhs)
    assert canonicalize(rhs) == canonical_form(rhs)


@pytest.mark.parametrize("seed", range(3))
def test_merge_labels_is_the_colour_by_colour_merge(seed):
    rng = random.Random(seed)
    shared = 0
    for _ in range(60):
        lhs, rhs = random_coherent_pair(rng)
        assert merge_labels(lhs, rhs) == merged_colour_by_colour(lhs, rhs)
        assert merge_labels(rhs, lhs) == merged_colour_by_colour(rhs, lhs)
        shared += bool(lhs.label.support() & rhs.label.support())
    # the draws exercise labels that share colours
    assert shared


def test_merge_labels_refuses_a_shared_symbol_and_a_disagreeing_colour():
    lhs = LabelledConfiguration(config_of("1^1 2^0"),
                                Label({1: SignedMonomial(-1, 1)}))
    shared_symbol = LabelledConfiguration(config_of("2^1"),
                                          Label({1: SignedMonomial(-1, 1)}))
    disagreeing = LabelledConfiguration(config_of("3^1"),
                                        Label({1: SignedMonomial(-1, 2)}))
    for rhs in (shared_symbol, disagreeing):
        with pytest.raises(NotCoherent):
            merge_labels(lhs, rhs)
        with pytest.raises(NotCoherent):
            merge_labels(rhs, lhs)
