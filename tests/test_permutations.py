import itertools
import json
import math
import time

import pytest
from hypothesis import given, strategies as st

from colshuffle import (ColouredInteger, ColouredPermutation, ParseError,
                        StatTriple, SymbolOverlap, descent_data, descent_set,
                        parse_permutation, s_des, shuffles, stat_triple)
from colshuffle import BadParameters, configurations
from colshuffle.permutations import (MAX_SHUFFLE_WORDS,
                                     all_coloured_permutations, s_des_raw)
from conftest import (coloured_integers, coloured_permutations,
                      relabel_symbols)

P = parse_permutation


# -- test-local oracles ------------------------------------------------------

def colour_order_key(e):
    # the defining chain: larger colours sort lower, then by symbol
    return (-e.colour, e.symbol)


def descents_by_scan(perm):
    """Oracle: descent set straight from the definition, via sort keys."""
    ents = perm.entries
    out = set()
    if ents and ents[0].colour != 0:
        out.add(0)
    for i in range(len(ents) - 1):
        if colour_order_key(ents[i]) > colour_order_key(ents[i + 1]):
            out.add(i + 1)
    return frozenset(out)


# -- colour order ------------------------------------------------------------

def test_colour_order_examples():
    assert ColouredInteger(1, 1) < ColouredInteger(2, 0)
    assert ColouredInteger(1, 0) < ColouredInteger(2, 0)
    assert not (ColouredInteger(3, 5) < ColouredInteger(3, 5)
                or ColouredInteger(3, 5) > ColouredInteger(3, 5))
    # the chain ... < 1^1 < 2^1 < ... < 1^0 < 2^0 < ...
    chain = [ColouredInteger(1, 1), ColouredInteger(2, 1),
             ColouredInteger(1, 0), ColouredInteger(2, 0)]
    assert all(a < b for a, b in zip(chain, chain[1:]))


@given(coloured_integers(), coloured_integers(), coloured_integers())
def test_colour_order_trichotomy_transitivity(a, b, c):
    assert (a < b) + (a == b) + (a > b) == 1
    if a < b and b < c:
        assert a < c


# -- descent sets and statistics --------------------------------------------

def test_descent_set_examples():
    assert descent_set(P("1^1 2^0")) == {0}
    assert descent_set(P("1^0 2^0")) == frozenset()
    assert descent_set(P("2 1 3")) == {1}
    assert descent_set(P("")) == frozenset()


@given(coloured_permutations())
def test_descent_set_matches_scan_oracle(a):
    assert descent_set(a) == descents_by_scan(a)


@given(coloured_permutations())
def test_zero_descent_iff_first_colour_nonzero(a):
    if len(a):
        assert (0 in descent_set(a)) == (a.entries[0].colour != 0)


def test_stat_triple_examples():
    assert stat_triple(P("1^1 2^2")) == StatTriple(2, 3, ((1, 1), (2, 1)))
    assert stat_triple(P("2^2 1^1")) == StatTriple(1, 2, ((1, 1), (2, 1)))
    assert stat_triple(P("")) == StatTriple(0, 0, ())


# the eight shuffles of 1^0 + 1^1 with 2^0 + 2^2 and their statistics
EIGHT_TERM_TABLE = [
    ("1^0 2^0", 0, 0),
    ("2^0 1^0", 1, 1),
    ("1^0 2^2", 1, 1),
    ("2^2 1^0", 1, 2),
    ("1^1 2^0", 1, 2),
    ("2^0 1^1", 1, 1),
    ("1^1 2^2", 2, 3),
    ("2^2 1^1", 1, 2),
]


def test_stat_triple_eight_term_table():
    for text, des, comaj in EIGHT_TERM_TABLE:
        st_ = stat_triple(P(text))
        assert (st_.des, st_.comaj) == (des, comaj), text


@given(coloured_permutations())
def test_comaj_recomputed_independently(a):
    st_ = stat_triple(a)
    n = len(a)
    assert st_.des == len(descent_set(a))
    assert st_.comaj == sum(n - i for i in descent_set(a))
    assert 0 <= st_.des <= n
    assert st_.comaj <= st_.des * n
    assert sum(k for _, k in st_.col) == n


@given(coloured_permutations(), st.integers(1, 20))
def test_statistics_invariant_under_relabelling(a, gap):
    # order-preserving symbol map: spread the symbols apart
    mapping = {s: i * gap + s for i, s in enumerate(sorted(a.symbols()))}
    assert stat_triple(relabel_symbols(a, mapping)) == stat_triple(a)
    assert s_des(relabel_symbols(a, mapping)) == s_des(a)


# -- coloured descent sets ----------------------------------------------------

def test_s_des_examples():
    assert list(s_des(P("1^0 2^0"))) == [(2, 0)]
    assert list(s_des(P("1^1 2^0"))) == [(1, 1), (2, 0)]
    assert len(s_des(P(""))) == 0


def test_s_des_is_the_raw_tuple():
    for n in range(5):
        for a in all_coloured_permutations(n, 3):
            assert s_des(a) == s_des_raw(a.entries)


@given(coloured_permutations())
def test_s_des_length_and_extraction(a):
    A = s_des(a)
    if len(a):
        assert A[-1][0] == len(a)
    des, colours = descent_data(A)
    assert des == descent_set(a)
    assert colours == tuple(e.colour for e in a.entries)


# -- shuffles -----------------------------------------------------------------

def test_shuffle_golden_order():
    result = shuffles(P("1^0"), P("2^2"))
    assert [str(c) for c in result] == ["1^0 2^2", "2^2 1^0"]


def test_shuffle_with_empty():
    a = P("3^1 1^0")
    assert shuffles(a, P("")) == [a]
    assert shuffles(P(""), a) == [a]


def test_shuffle_count_length_two():
    assert len(shuffles(P("1 2"), P("3 4"))) == math.comb(4, 2)


def test_shuffle_symbol_overlap():
    with pytest.raises(SymbolOverlap):
        shuffles(P("1 2"), P("2^1"))


@given(coloured_permutations(max_len=3, symbol_pool=6),
       coloured_permutations(max_len=3, symbol_pool=6))
def test_shuffle_counts_and_supports(a, b):
    if a.symbols() & b.symbols():
        b = relabel_symbols(b, {s: s + 10 for s in b.symbols()})
    result = shuffles(a, b)
    assert len(result) == math.comb(len(a) + len(b), len(a))
    for c in result:
        assert c.symbols() == a.symbols() | b.symbols()
        assert ({e.colour for e in c} == {e.colour for e in a}
                | {e.colour for e in b})
    # relative orders are preserved
    for c in result:
        sub_a = [e for e in c.entries if e.symbol in a.symbols()]
        assert tuple(sub_a) == a.entries


@given(coloured_permutations(max_len=4, symbol_pool=6),
       coloured_permutations(max_len=4, symbol_pool=6))
def test_shuffle_order_is_lexicographic_in_positions_of_a(a, b):
    b = relabel_symbols(b, {s: s + 10 for s in b.symbols()})
    expected = []
    for positions in itertools.combinations(range(len(a) + len(b)), len(a)):
        from_a, from_b = iter(a.entries), iter(b.entries)
        expected.append(tuple(next(from_a) if p in positions else next(from_b)
                              for p in range(len(a) + len(b))))
    assert [c.entries for c in shuffles(a, b)] == expected


# -- statistic classes --------------------------------------------------------

def test_canonical_statistics_class():
    def key(a):
        return (len(a), stat_triple(a))

    assert key(P("1^1 2^2")) == (2, StatTriple(2, 3, ((1, 1), (2, 1))))
    assert key(P("2^0 1^1")) == key(P("3^0 1^1"))
    assert key(P("1^0 2^0")) != key(P("2^0 1^0"))


# -- parsing and serialisation -------------------------------------------------

def test_parse_forms():
    assert P("1 2^2") == ColouredPermutation([(1, 0), (2, 2)])
    assert P("   ") == ColouredPermutation(())
    assert str(P("1 2^2")) == "1^0 2^2"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        P("1^0 x^2")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        P("1 1^2")  # repeated symbol
    with pytest.raises(ParseError):
        P("0^1")


@given(coloured_permutations())
def test_text_and_json_round_trips(a):
    assert parse_permutation(str(a)) == a
    assert ColouredPermutation(json.loads(json.dumps(a.to_pairs()))) == a


def test_validation():
    with pytest.raises(ValueError):
        ColouredPermutation([(1, 0), (1, 2)])
    with pytest.raises(ValueError):
        ColouredPermutation([(0, 0)])
    with pytest.raises(ValueError):
        ColouredPermutation([(2, -1)])


def test_shuffles_refuse_over_the_cap_before_enumerating():
    a = ColouredPermutation((s, 0) for s in range(1, 13))
    b = ColouredPermutation((s, 1) for s in range(13, 25))
    assert math.comb(24, 12) > MAX_SHUFFLE_WORDS
    start = time.perf_counter()
    with pytest.raises(BadParameters, match="2704156 words"):
        shuffles(a, b)
    assert time.perf_counter() - start < 0.5
    # the cap is the one config_shuffle counts against
    assert configurations.MAX_SHUFFLE_WORDS is MAX_SHUFFLE_WORDS
