import itertools
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import colshuffle.qsym as qsym
from colshuffle import (ColourOutOfRange, SymbolOverlap, parse_permutation,
                        psi_closed_form_check, s_des, shuffles, stat_triple,
                        verify_product_rule)
from colshuffle.qsym import psi_rows
from colshuffle.permutations import (all_coloured_permutations, descent_set,
                                     s_des_raw)
from colshuffle.verify import psi_suite, qsym_suite
from conftest import coloured_permutations, relabel_symbols
from polyoracle import (X_VAR, Monomial, MPoly, expand_F, monomial, p_var,
                        qvar)

P = parse_permutation


# -- test-local oracles ------------------------------------------------------

def count_sequences(n, m, strict):
    """Independent recursive count of weakly increasing sequences of length
    n bounded by m with strict rises after positions in ``strict``."""
    def rec(pos, lo):
        if pos == n:
            return 1
        total = 0
        for v in range(lo, m + 1):
            total += rec(pos + 1, v + 1 if (pos + 1) in strict else v)
        return total
    return rec(0, 1) if n else 1


def psi_by_direct_enumeration(a, m):
    """Oracle for the specialisation: sum over sequences
    1 = i_0 <= i_1 <= ... <= i_n <= m with strict rises at every descent
    (including the artificial position 0), of p^col x^(sum i_k - n)."""
    ents = a.entries
    n = len(ents)
    des = descent_set(a)
    out = MPoly.zero()

    def rec(pos, lo, total):
        nonlocal out
        if pos == n:
            col = {}
            for _, c in ents:
                col[c] = col.get(c, 0) + 1
            mono = monomial(*[(p_var(c), k) for c, k in col.items()],
                            (X_VAR, total - n))
            out = out + MPoly.term(mono)
            return
        for v in range(lo, m + 1):
            rec(pos + 1, v + 1 if (pos + 1) in des else v, total + v)

    start = 2 if 0 in des else 1
    rec(0, start, 0)
    return out


def psi_series(F: MPoly, m: int, cutoff: int) -> list[MPoly]:
    """[psi_1(F), ..., psi_cutoff(F)] from the monomial expansion F
    truncated at index m; requires m >= cutoff so that every surviving
    monomial (all indices <= cutoff) is present in the truncation.

    Each monomial of F is specialised once and filed under its largest
    index M (the index of its last variable, as variables are sorted);
    psi_m is the sum of the files for M <= m."""
    if cutoff < 1:
        raise ValueError("m must be >= 1")
    if m < cutoff:
        raise ValueError(f"truncation cutoff {m} is below m = {cutoff}")
    files: list[dict[Monomial, int]] = [{} for _ in range(cutoff)]
    targets: dict[tuple, Monomial] = {}  # (colour exponents, x exponent)
    for mono, coeff in F.coeffs.items():
        top = mono[-1][0][1] if mono else 1
        if top > cutoff:
            continue
        x_exp = 0
        p_exps: dict[int, int] = {}
        for (_, index, colour), exp in mono:
            if index == 1 and colour >= 1:
                break
            x_exp += (index - 1) * exp
            p_exps[colour] = p_exps.get(colour, 0) + exp
        else:
            key = (tuple(p_exps.items()), x_exp)
            target = targets.get(key)
            if target is None:
                target = targets[key] = monomial(
                    *[(p_var(c), e) for c, e in key[0]], (X_VAR, x_exp))
            file = files[top - 1]
            file[target] = file.get(target, 0) + coeff
    out = []
    running: dict[Monomial, int] = {}
    for file in files:
        for mono, coeff in file.items():
            running[mono] = running.get(mono, 0) + coeff
        out.append(MPoly(running))
    return out


def psi_m_reference(F, truncation, m):
    """One specialisation on its own: a scan of all of F (truncated at
    index ``truncation``) per m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if truncation < m:
        raise ValueError(f"truncation cutoff {truncation} is below m = {m}")
    out = MPoly.zero()
    for mono, coeff in F.coeffs.items():
        x_exp = 0
        p_exps = {}
        dead = False
        for var, exp in mono:
            _, index, colour = var
            if index > m or (index == 1 and colour >= 1):
                dead = True
                break
            x_exp += (index - 1) * exp
            p_exps[colour] = p_exps.get(colour, 0) + exp
        if dead:
            continue
        target = monomial(*[(p_var(c), e) for c, e in p_exps.items()],
                          (X_VAR, x_exp))
        out = out + MPoly.term(target, coeff)
    return out


# -- the fundamental expansion --------------------------------------------------

def test_expand_F_empty():
    # the constant 1: one monomial, of degree 0
    assert expand_F(P(""), 3) == MPoly.one()


def test_expand_F_golden_two_letters():
    F = expand_F(P("1 2"), 2)
    expected = (MPoly.term(monomial((qvar(1, 0), 2)))
                + MPoly.term(monomial((qvar(1, 0), 1), (qvar(2, 0), 1)))
                + MPoly.term(monomial((qvar(2, 0), 2))))
    assert F == expected


def test_expand_F_colour_out_of_range():
    with pytest.raises(ColourOutOfRange):
        expand_F(P("1^3"), 2, r=3)


@given(coloured_permutations(max_len=4, max_colour=2), st.integers(1, 4))
def test_expand_F_homogeneous_with_counted_monomials(a, m):
    F = expand_F(a, m)
    n = len(a)
    for mono in F.coeffs:
        assert sum(e for _, e in mono) == n
    strict = frozenset(i for i in descent_set(a) if i != 0)
    assert len(F.coeffs) == count_sequences(n, m, strict)
    # distinct sequences produce distinct monomials, so coefficients are 1
    assert all(c == 1 for c in F.coeffs.values())


def expand_F_by_index_sequences(a, m):
    """Oracle for the expansion: every weakly increasing index sequence,
    kept if it rises strictly after each interior descent, read as a
    monomial through ``monomial``."""
    colours = [c for _, c in a.entries]
    strict = [i for i in descent_set(a) if 0 < i < len(a)]
    coeffs = {}
    for seq in itertools.combinations_with_replacement(range(1, m + 1),
                                                       len(a)):
        if all(seq[i - 1] < seq[i] for i in strict):
            mono = monomial(*[(qvar(i, c), 1) for i, c in zip(seq, colours)])
            coeffs[mono] = coeffs.get(mono, 0) + 1
    return MPoly(coeffs)


def test_expand_F_matches_index_sequence_oracle():
    """Every coloured permutation of length <= 4 with colours < 3, at every
    cutoff m <= 5: the same monomials (as tuples, so in the same order) and
    coefficients, each of degree n in variables of index <= m and colour
    < 3, and the colour bound 3 accepted."""
    for n in range(5):
        for a in all_coloured_permutations(n, 3):
            for m in range(1, 6):
                F, ref = expand_F(a, m), expand_F_by_index_sequences(a, m)
                assert F.coeffs == ref.coeffs
                assert expand_F(a, m, r=3) == F
                for mono in F.coeffs:
                    assert sum(e for _, e in mono) == n
                    assert all(i <= m and c < 3 for (_, i, c), _ in mono)


@given(coloured_permutations(max_len=4, max_colour=2),
       coloured_permutations(max_len=4, max_colour=2), st.integers(1, 3))
def test_expand_F_depends_only_on_coloured_descents(a, b, m):
    if len(a) == len(b) and s_des(a) == s_des(b):
        assert expand_F(a, m, r=3) == expand_F(b, m, r=3)
    # and a permutation always agrees with itself relabelled
    relabelled = relabel_symbols(a, {s: s + 5 for s in a.symbols()})
    assert expand_F(a, m, r=3) == expand_F(relabelled, m, r=3)


# -- the product rule ------------------------------------------------------------

def test_product_rule_examples():
    assert verify_product_rule(P("1"), P("2^2"), 3)
    assert verify_product_rule(P(""), P("1^1 2^0"), 3)
    with pytest.raises(SymbolOverlap):
        verify_product_rule(P("1"), P("1^1"), 3)


@settings(deadline=None)
@given(coloured_permutations(max_len=2, max_colour=2, symbol_pool=4),
       coloured_permutations(max_len=2, max_colour=2, symbol_pool=4))
def test_product_rule_random_pairs(a, b):
    if a.symbols() & b.symbols():
        b = relabel_symbols(b, {s: s + 10 for s in b.symbols()})
    assert verify_product_rule(a, b, 4)


def suite_pairs(max_len, colours):
    """Every (a, b) pair ``qsym_suite`` checks, in its order."""
    for n in range(max_len + 1):
        for k in range(max_len + 1):
            for a in all_coloured_permutations(n, colours):
                for b in all_coloured_permutations(k, colours,
                                                   first_symbol=n + 1):
                    yield a, b


def product_rule_by_monomials(a, b, m, expansions=None):
    """Oracle for the product rule: F_a * F_b as an ``MPoly`` product of
    (variable, exponent) monomials, against the sum of F_c over every
    shuffle c, each expansion read off the index sequences and shared per
    (coloured descent set, m) in ``expansions``."""
    if expansions is None:
        expansions = {}

    def fundamental(c):
        key = (s_des_raw(c.entries), m)
        if key not in expansions:
            expansions[key] = expand_F_by_index_sequences(c, m)
        return expansions[key]

    total = {}
    for c in shuffles(a, b):
        for mono, coeff in fundamental(c).coeffs.items():
            total[mono] = total.get(mono, 0) + coeff
    return fundamental(a) * fundamental(b) == MPoly(total)


def decode(keys, m):
    """A cached expansion (a list of id monomials, x_i^(c) being id
    c*m + i - 1) or a cached product ({id monomial: coefficient}) as an
    ``MPoly`` in the variables ``qvar``."""
    counts = keys if isinstance(keys, dict) else Counter(keys)
    return MPoly({monomial(*[(qvar(k % m + 1, k // m), 1) for k in key]): c
                  for key, c in counts.items()})


def test_product_rule_matches_monomial_oracle():
    """The same verdict as the oracle on every pair of
    ``qsym_suite(2, 3, 2)``, on a pile-up of one variable (x_1^(0) to the
    power 4 at cutoff 1) and on mixed-colour pairs at cutoff 50."""
    shared, oracle_shared = {}, {}
    for a, b in suite_pairs(2, 2):
        assert (verify_product_rule(a, b, 3, shared)
                == product_rule_by_monomials(a, b, 3, oracle_shared)), (a, b)
    for a, b, m in [(P("1 2"), P("3 4"), 1), (P("2 1"), P("3 4"), 1),
                    (P("1^1 2^0"), P("3^2"), 50), (P("1^2"), P("2^1"), 50)]:
        expansions = {}
        assert (verify_product_rule(a, b, m, expansions)
                == product_rule_by_monomials(a, b, m))
        # x_1^(0) with exponent 4 is the product's one monomial for 1 2
        # and 3 4 at cutoff 1; 2 1 must rise, so it has none there
        assert expansions[s_des(a), s_des(b), m].get((0, 0, 0, 0), 0) == (
            m == 1 and a == P("1 2"))


def test_qsym_suite_expands_each_class_once(monkeypatch):
    calls = []
    expansion = qsym._expansion

    def counted(sdes, m):
        calls.append((sdes, m))
        return expansion(sdes, m)

    monkeypatch.setattr(qsym, "_expansion", counted)
    report = qsym_suite(max_len=2, cutoff=3, colours=2)
    assert report["failures"] == []
    assert len(calls) == len(set(calls)) == 81


@settings(deadline=None)
@given(st.lists(st.tuples(
    coloured_permutations(max_len=2, max_colour=2, symbol_pool=4),
    coloured_permutations(max_len=2, max_colour=2, symbol_pool=4),
    st.integers(1, 3)), min_size=1, max_size=4))
def test_product_rule_shared_expansions(cases):
    expansions = {}
    for a, b, m in cases:
        b = relabel_symbols(b, {s: s + 10 for s in b.symbols()})
        assert (verify_product_rule(a, b, m, expansions)
                == verify_product_rule(a, b, m))
        for c in [a, b, *shuffles(a, b)]:
            assert decode(expansions[s_des_raw(c.entries), m], m) == \
                expand_F(c, m)
        assert decode(expansions[s_des(a), s_des(b), m], m) == \
            expand_F(a, m) * expand_F(b, m)


def test_qsym_suite_catches_a_dropped_shuffle(monkeypatch):
    monkeypatch.setattr(qsym, "shuffles", lambda a, b: shuffles(a, b)[1:])
    report = qsym_suite(max_len=2, cutoff=3, colours=2)
    # every pair fails but one: the first shuffle of 2 1 and 4^1 3^1 rises
    # strictly three times, so it has no monomial at cutoff 3
    assert len(report["failures"]) == report["cases"] - 1 == 120
    assert {"a": "2^0 1^0", "b": "4^1 3^1"} not in report["failures"]


@pytest.mark.parametrize("word", ["1^1", "1^0 2^1", "2 4 1 3"])
def test_qsym_suite_catches_a_dropped_monomial(monkeypatch, word):
    """One monomial missing from one class's expansion fails exactly the
    pairs where that class is F_a, F_b or the class of a shuffle, except
    those with an empty operand: there F_b = 1 and the one shuffle is a
    itself (or the other way round), so both sides lose the monomial."""
    planted = s_des(P(word))
    expansion = qsym._expansion

    def dropped(sdes, m):
        keys = expansion(sdes, m)
        return keys[1:] if sdes == planted else keys

    monkeypatch.setattr(qsym, "_expansion", dropped)
    report = qsym_suite(max_len=2, cutoff=3, colours=2)
    touched = [{"a": str(a), "b": str(b)} for a, b in suite_pairs(2, 2)
               if len(a) and len(b) and planted in
               {s_des(a), s_des(b), *map(s_des, shuffles(a, b))}]
    assert touched and report["failures"] == touched


# -- the specialisations -----------------------------------------------------------

def test_psi_boundary_cases():
    assert psi_series(expand_F(P("1^1"), 1), 1, 1)[-1] == MPoly.zero()
    assert psi_series(expand_F(P(""), 1), 1, 1)[-1] == MPoly.one()
    # first index substitutes to p with x^0: psi_1 of an uncoloured letter
    assert (psi_series(expand_F(P("1"), 1), 1, 1)[-1]
            == MPoly.variable(p_var(0)))


def test_psi_requires_cutoff():
    with pytest.raises(ValueError):
        psi_series(expand_F(P("1"), 2), 2, 3)
    F = expand_F(P("1 2^1"), 2)
    for cutoff in (0, 3):
        with pytest.raises(ValueError):
            psi_series(F, 2, cutoff)
    # a truncation beyond the cutoff specialises the same way
    assert psi_series(expand_F(P("1 2^1"), 4), 4, 2) == psi_series(F, 2, 2)


@given(coloured_permutations(max_len=3, max_colour=2), st.integers(1, 5))
@example(P(""), 3)
@example(P("2^1 1 3^2"), 4)
def test_psi_series_matches_per_m_reference(a, k):
    F = expand_F(a, k)
    assert psi_series(F, k, k) == [psi_m_reference(F, k, m)
                                   for m in range(1, k + 1)]


@given(coloured_permutations(max_len=3, max_colour=2), st.integers(1, 4))
def test_psi_matches_direct_enumeration(a, m):
    assert (psi_series(expand_F(a, m), m, m)[-1]
            == psi_by_direct_enumeration(a, m))


@given(coloured_permutations(max_len=2, max_colour=2, symbol_pool=4),
       coloured_permutations(max_len=2, max_colour=2, symbol_pool=4),
       st.integers(1, 3))
def test_psi_is_multiplicative(a, b, m):
    if a.symbols() & b.symbols():
        b = relabel_symbols(b, {s: s + 10 for s in b.symbols()})
    r = 3
    F, G = expand_F(a, m, r), expand_F(b, m, r)
    assert (psi_series(F * G, m, m)[-1]
            == psi_series(F, m, m)[-1] * psi_series(G, m, m)[-1])


# -- the closed form ---------------------------------------------------------------

def test_closed_form_small_cases():
    assert psi_closed_form_check(P("1"), 5)
    assert psi_closed_form_check(P(""), 4)
    assert psi_closed_form_check(P("1^1 2^2"), 6)


def test_closed_form_exhaustive_short():
    for n in range(0, 3):
        for a in all_coloured_permutations(n, 2):
            assert psi_closed_form_check(a, 6), str(a)


# -- the transfer count --------------------------------------------------------------

def descent_classes(max_len, colours):
    """The first coloured permutation of each coloured descent set of
    length <= max_len, in the order ``psi_suite`` checks them."""
    for n in range(max_len + 1):
        seen = set()
        for a in all_coloured_permutations(n, colours):
            if s_des(a) not in seen:
                seen.add(s_des(a))
                yield a


def psi_by_transfer_count(a, m):
    """``psi_rows`` unpacked: each row's digits as x-coefficients, times
    p^col read from the letters."""
    n = len(a)
    bits = math.comb(m + n - 1, n).bit_length()
    colours = [c for _, c in a.entries]
    col = {}
    for c in colours:
        col[c] = col.get(c, 0) + 1
    p_part = [(p_var(c), k) for c, k in col.items()]
    out = []
    for row in psi_rows(descent_set(a), colours, m, bits):
        coeffs = {}
        for j in range(n * (m - 1) + 1):
            digit = (row >> (bits * j)) & ((1 << bits) - 1)
            coeffs[monomial(*p_part, (X_VAR, j))] = digit
        assert row >> (bits * (n * (m - 1) + 1)) == 0
        out.append(MPoly(coeffs))
    return out


@pytest.mark.parametrize("max_len,t_order,colours", [(4, 8, 3), (3, 12, 2)])
def test_transfer_count_is_the_specialised_expansion(max_len, t_order,
                                                     colours):
    """Every class at the acceptance bounds and one longer t-order: the
    rows of the transfer count are psi_1 .. psi_m of the expansion."""
    m = t_order + 1
    for a in descent_classes(max_len, colours):
        assert (psi_by_transfer_count(a, m)
                == psi_series(expand_F(a, m), m, m)), str(a)


@pytest.mark.parametrize("wrong", [
    lambda st: st._replace(comaj=st.comaj + 1),
    lambda st: st._replace(des=st.des + 1),
    lambda st: st._replace(col=st.col + ((3, 1),)),
], ids=["comaj", "des", "col"])
def test_psi_suite_catches_a_wrong_statistic(monkeypatch, wrong):
    monkeypatch.setattr(qsym, "stat_triple",
                        lambda a: wrong(stat_triple(a)))
    report = psi_suite(2, 6, 3)
    assert len(report["failures"]) == report["cases"] == 16


def test_psi_suite_catches_a_coloured_letter_at_index_one(monkeypatch):
    """Without the rule that psi sends x_1^(j), j >= 1, to zero, exactly
    the classes whose first letter is coloured fail: a coloured letter
    after an uncoloured one follows a descent, so its index is 2 or more
    anyway."""
    monkeypatch.setattr(qsym, "psi_rows", lambda strict, colours, m, bits:
                        psi_rows(strict, [0] * len(colours), m, bits))
    report = psi_suite(2, 6, 3)
    first_coloured = [{"a": str(a)} for a in descent_classes(2, 3)
                      if a.entries and a.entries[0].colour]
    assert first_coloured and report["failures"] == first_coloured
