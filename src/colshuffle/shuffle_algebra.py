"""Hadamard products of rational generating functions via shuffles.

The central fact driving this module: for coherent labelled coloured
configurations, the Hadamard product (in Y) of their generating functions is
the generating function of the shuffled configuration under the merged
label.  ``hadamard_via_theorem`` computes the closed form that way;
``hadamard_general`` first replaces the right operand by an equivalent,
strongly disjoint copy so that arbitrary operands can be multiplied.

The module also hosts the embedding of statistic classes into a power
series ring in t with Hadamard multiplication (``h_map``/``h_tilde_map``)
and an empirical falsification harness for shuffle compatibility of
arbitrary coloured permutation statistics.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import (chain, combinations, islice, permutations, product,
                       repeat)
from operator import add, itemgetter, mul
from typing import Callable, Hashable

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, config_shuffle,
                             make_strongly_disjoint, merge_labels)
from .errors import BadParameters
from .mpoly import MPoly, divide_by_factors, monomial
from .permutations import (ColouredInteger, ColouredPermutation, EMPTY,
                           StatTriple, all_coloured_permutations, s_des,
                           s_des_raw, stat_triple, stat_triple_raw)
from .ratfun import RationalGF, w_of

__all__ = [
    "hadamard_via_theorem",
    "hadamard_general",
    "hadamard_identity",
    "hadamard_iterated",
    "HImage",
    "h_map",
    "h_tilde_map",
    "h_of",
    "check_shuffle_compatibility",
    "CompatReport",
    "STATISTICS",
    "MAX_COMPAT_WORDS",
]

X_VAR = ("x",)
Z_VAR = ("z",)


def p_var(colour: int) -> tuple:
    return ("p", colour)


def hadamard_via_theorem(lhs: LabelledConfiguration,
                         rhs: LabelledConfiguration,
                         eps: int) -> tuple[LabelledConfiguration, RationalGF]:
    """Closed-form Hadamard product of coherent labelled configurations.

    Returns the shuffled labelled configuration and its generating
    function; the latter equals the coefficientwise product of the
    operands' generating functions as series in Y.
    """
    lc = _shuffle_step(lhs, rhs)
    return lc, w_of(lc, eps)


def _shuffle_step(lhs: LabelledConfiguration,
                  rhs: LabelledConfiguration) -> LabelledConfiguration:
    """The shuffled configuration under the merged label."""
    label = merge_labels(lhs, rhs)
    config = config_shuffle(lhs.config, rhs.config)
    return LabelledConfiguration(config,
                                 label.restrict(config.palette_star()))


def hadamard_general(lhs: LabelledConfiguration,
                     rhs: LabelledConfiguration,
                     eps: int) -> RationalGF:
    """Hadamard product of arbitrary labelled configurations.

    The right operand is replaced by an equivalent strongly disjoint copy,
    which leaves its generating function unchanged; the result is again the
    generating function of a labelled configuration.
    """
    rhs_disjoint = make_strongly_disjoint(lhs, rhs)
    _, result = hadamard_via_theorem(lhs, rhs_disjoint, eps)
    return result


def hadamard_identity() -> LabelledConfiguration:
    """The configuration of the empty permutation: its W is 1/(1-Y)."""
    return LabelledConfiguration(
        ColouredConfiguration([(EMPTY, 1)]), Label())


def hadamard_iterated(lcs: list[LabelledConfiguration],
                      eps: int) -> tuple[LabelledConfiguration, RationalGF]:
    """Fold the shuffle step of ``hadamard_general`` over a list; W is
    computed once, for the final configuration."""
    acc = hadamard_identity()
    for lc in lcs:
        acc = _shuffle_step(acc, make_strongly_disjoint(acc, lc))
    return acc, w_of(acc, eps)


# -- the embedding into Q[p, x][[t]] with Hadamard multiplication ----------

@dataclass(frozen=True)
class HImage:
    """numerator * t^t_power / prod_i (1 - x^i t), i over denom_powers.

    The numerator is a polynomial in the colour variables p_j, in x and
    (for the z-graded variant) in z.
    """

    numerator: MPoly
    t_power: int
    denom_powers: tuple[int, ...]

    def series(self, order: int) -> list[MPoly]:
        """Exact coefficients of t^0 .. t^order."""
        coeffs = [MPoly.zero()] * (order + 1)
        if self.t_power <= order:
            coeffs[self.t_power] = self.numerator
        return divide_by_factors(
            coeffs, [(monomial((X_VAR, i)), 1) for i in self.denom_powers])

    def leading_term(self) -> tuple[int, MPoly]:
        """The lowest t-degree and its coefficient (numerator itself)."""
        return self.t_power, self.numerator

    def to_latex(self) -> str:
        num_parts = []
        mono_items = list(self.numerator.coeffs.items())
        if len(mono_items) == 1 and mono_items[0][1] == 1:
            mono, _ = mono_items[0]
            for var, e in mono:
                name = f"{var[0]}_{{{var[1]}}}" if len(var) == 2 else var[0]
                num_parts.append(name if e == 1 else f"{name}^{{{e}}}")
        else:
            num_parts.append(repr(self.numerator))
        if self.t_power:
            num_parts.append("t" if self.t_power == 1 else f"t^{{{self.t_power}}}")
        num = "".join(num_parts) or "1"
        den = "".join(
            "(1 - t)" if i == 0 else
            ("(1 - xt)" if i == 1 else f"(1 - x^{{{i}}}t)")
            for i in self.denom_powers)
        return rf"\frac{{{num}}}{{{den}}}"


def _class_key(key) -> tuple[int, StatTriple]:
    length, st = key
    st = StatTriple(*st)
    if sum(c for _, c in st.col) != length:
        raise ValueError("colour multiplicities do not sum to the length")
    return int(length), st


def h_map(key: tuple[int, StatTriple]) -> HImage:
    """Image of the statistic class (length, (des, comaj, col)):
    p^col x^comaj t^des over (1-t)(1-xt)...(1-x^length t)."""
    length, st = _class_key(key)
    mono = monomial(*[(p_var(c), k) for c, k in st.col],
                    (X_VAR, st.comaj))
    return HImage(MPoly.term(mono), st.des, tuple(range(length + 1)))


def h_tilde_map(key: tuple[int, StatTriple]) -> HImage:
    """The z-graded variant: an extra factor t z^length for nonempty
    classes, and exactly 1/(1-t) for the empty class."""
    length, st = _class_key(key)
    if length == 0:
        return HImage(MPoly.one(), 0, (0,))
    mono = monomial(*[(p_var(c), k) for c, k in st.col],
                    (X_VAR, st.comaj), (Z_VAR, length))
    return HImage(MPoly.term(mono), st.des + 1, tuple(range(length + 1)))


def h_of(a: ColouredPermutation) -> HImage:
    return h_map((len(a), stat_triple(a)))


# -- empirical shuffle-compatibility checking ------------------------------

Statistic = Callable[[ColouredPermutation], Hashable]

# The exhaustive sweep keeps one score per coloured permutation of the
# largest total length, max_len! * colours**max_len of them; the acceptance
# bound (length 6, 3 colours) needs 524,880.
MAX_COMPAT_WORDS = 1_000_000


def _with_raw(func: Statistic, raw) -> Statistic:
    """Attach an entries-sequence fast path used by the exhaustive sweep."""
    func.raw = raw  # type: ignore[attr-defined]
    return func


STATISTICS: dict[str, Statistic] = {
    "des": _with_raw(lambda a: stat_triple(a).des,
                     lambda entries: stat_triple_raw(entries)[0]),
    "comaj": _with_raw(lambda a: stat_triple(a).comaj,
                       lambda entries: stat_triple_raw(entries)[1]),
    "col": _with_raw(lambda a: stat_triple(a).col,
                     lambda entries: stat_triple_raw(entries)[2]),
    "des_comaj_col": _with_raw(stat_triple, stat_triple_raw),
    "sdes": _with_raw(s_des, s_des_raw),
    # planted control: not invariant under symbol relabelling
    "first_symbol": _with_raw(
        lambda a: a.entries[0].symbol if a.entries else 0,
        lambda entries: entries[0][0] if entries else 0),
}


def _raw_statistic(stat: Statistic):
    raw = getattr(stat, "raw", None)
    if raw is not None:
        return raw
    make = ColouredPermutation._raw
    return lambda entries: stat(make(tuple(entries)))


@dataclass
class CompatReport:
    statistic: str
    trials: int
    classes: int
    counterexample: dict | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json_obj(self) -> dict:
        obj = {"statistic": self.statistic, "trials": self.trials,
               "classes": self.classes}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


def _random_relabelling_case(rng: random.Random, max_len: int, colours: int):
    n = rng.randint(0, max_len)
    symbols = rng.sample(range(1, 4 * max_len + 2), n)
    entries = [(s, rng.randrange(colours)) for s in symbols]
    targets = sorted(rng.sample(range(1, 8 * max_len + 4), n))
    mapping = dict(zip(sorted(symbols), targets))
    return ColouredPermutation(entries), mapping


def _relabelling_cases(rng: random.Random, trials: int, max_len: int,
                       colours: int):
    """Phase 1's cases, drawn one at a time so that a violation found early
    stops the drawing: a sweep over short permutations, then ``trials``
    random cases."""
    for n in range(0, min(max_len, 3) + 1):
        for perm in all_coloured_permutations(n, colours):
            yield perm, {s: s + 1 for s in perm.symbols()}
            yield perm, {s: 2 * s for s in perm.symbols()}
    for _ in range(trials):
        yield _random_relabelling_case(rng, max_len, colours)


def _check_compat_bounds(trials: int, max_len: int, colours: int) -> None:
    for name, value, minimum in (("trials", trials, 0), ("max_len", max_len, 0),
                                 ("colours", colours, 1)):
        if value < minimum:
            raise BadParameters(f"{name} must be >= {minimum}, got {value}")
    words = 1
    for length in range(1, max_len + 1):
        words *= length * colours
        if words > MAX_COMPAT_WORDS:
            raise BadParameters(
                f"max_len {max_len} with {colours} colours exceeds the "
                f"{MAX_COMPAT_WORDS} words the sweep may score "
                f"(max_len! * colours**max_len)")


def _parts(digit_words, position_sets: list[tuple[int, ...]],
           weights: list[int]) -> list[list[int]]:
    """For each digit word, its weighted sum placed at each position set:
    digit i at position p contributes digit * weights[p].  The sum for an
    interleaved word is the sum of the parts of its two sides."""
    placed = [[weights[p] for p in positions] for positions in position_sets]
    return [[sum(map(mul, digits, w)) for w in placed] for digits in digit_words]


def _gather(indices: list[int]):
    """``seq -> tuple(seq[i] for i in indices)``, in one C call."""
    if len(indices) == 1:
        return lambda seq: (seq[indices[0]],)
    return itemgetter(*indices)


class _Scorer:
    """Evaluates a statistic once per word and interns its values to small
    ids, so that multisets of values are sorted lists of ints."""

    def __init__(self, raw_stat, colours: int):
        self.raw_stat = raw_stat
        self.colours = colours
        self.values: list = []  # id -> statistic value
        self._ids: dict = {}    # statistic value -> id
        self._letters: dict = {}  # symbol -> its ColouredInteger per colour
        self._sides: dict = {}  # symbol set -> (words, ids) of its variants

    def score(self, words) -> list[int]:
        """The value id of each word, evaluating the statistic once per
        word; new values get the next ids in order of first occurrence."""
        ids: list[int] = []
        values = map(self.raw_stat, words)
        while chunk := list(islice(values, 4096)):
            for value in dict.fromkeys(chunk):
                if value not in self._ids:
                    self._ids[value] = len(self.values)
                    self.values.append(value)
            ids += map(self._ids.__getitem__, chunk)
        return ids

    def words(self, symbols: tuple[int, ...]):
        """Every order and colouring of ``symbols``: orders in
        ``permutations`` order, each with its colourings in ``product``
        order."""
        for s in symbols:
            if s not in self._letters:
                self._letters[s] = [ColouredInteger(s, c)
                                    for c in range(self.colours)]
        return chain.from_iterable(
            product(*map(self._letters.__getitem__, order))
            for order in permutations(symbols))

    def side(self, symbols: tuple[int, ...]) -> tuple[list, list[int]]:
        """The variants of one operand's symbol set and their value ids."""
        cached = self._sides.get(symbols)
        if cached is None:
            words = list(self.words(symbols))
            cached = self._sides[symbols] = (words, self.score(words))
        return cached

    def counts(self, multiset: list[int]) -> list[tuple[str, int]]:
        """A multiset of ids as reports print it: (repr of value, count)
        pairs, sorted."""
        return sorted((repr(self.values[i]), k)
                      for i, k in Counter(multiset).items())


def _sweep(scorer: _Scorer, max_len: int, colours: int):
    """Yield ``(n, sa, m, lhs, sbs, rhs_words, multisets)`` for each left
    operand variant, in the order of the exhaustive pair enumeration: its
    value id, and for every right variant in order its value id, its word
    and the sorted value ids of the pair's shuffles.

    Each total length scores the words over 1..total once, in ``words``
    order: the word with the r-th symbol order and colour digits
    c_0..c_{total-1} sits at r * colours**total + sum(c_p * colours**(total
    - 1 - p)).  Both terms are sums over the two sides of a pair, so one
    pair of symbol orders and one placement of the left operand select one
    block of the table, and the colourings of the two sides pick from that
    block in the same way for every pair of orders.
    """
    for total in range(2, max_len + 1):
        symbols = tuple(range(1, total + 1))
        # a shorter total's words recur as the variants of the side 1..total
        table = (scorer.side(symbols)[1] if total < max_len
                 else scorer.score(scorer.words(symbols)))
        block = colours ** total
        symbol_weights = [total ** p for p in range(total)]
        colour_weights = [colours ** (total - 1 - p) for p in range(total)]
        offset_by_order = {
            sum(map(mul, order, symbol_weights)): rank * block
            for rank, order in enumerate(permutations(range(total)))}
        order_offset = offset_by_order.__getitem__
        for n in range(1, total // 2 + 1):
            m = total - n
            masks = list(combinations(range(total), n))
            comps = [tuple(p for p in range(total) if p not in mask)
                     for mask in masks]
            b_colourings = colours ** m
            # per placement: the colour digits of each (left colouring,
            # right colouring), left colourings outermost
            gathers = [_gather([x + y for x in xs for y in ys])
                       for xs, ys in zip(
                           zip(*_parts(product(range(colours), repeat=n),
                                       masks, colour_weights)),
                           zip(*_parts(product(range(colours), repeat=m),
                                       comps, colour_weights)))]
            for a_symbols in combinations(symbols, n):
                b_symbols = tuple(s for s in symbols if s not in a_symbols)
                a_words, a_ids = scorer.side(a_symbols)
                b_words, b_ids = scorer.side(b_symbols)
                b_orders = _parts(permutations([s - 1 for s in b_symbols]),
                                  comps, symbol_weights)
                lhs = zip(a_ids, a_words)
                for a_order in _parts(permutations([s - 1 for s in a_symbols]),
                                      masks, symbol_weights):
                    # per right order, the multisets of all colouring pairs
                    by_order = []
                    for b_order in b_orders:
                        offsets = map(order_offset, map(add, a_order, b_order))
                        columns = [gather(table[o:o + block])
                                   for gather, o in zip(gathers, offsets)]
                        by_order.append(list(map(sorted, zip(*columns))))
                    for lo in range(0, block, b_colourings):
                        sa, a_word = next(lhs)
                        yield n, sa, m, a_word, b_ids, b_words, list(
                            chain.from_iterable(ms[lo:lo + b_colourings]
                                                for ms in by_order))


class _Groups:
    """Pairs grouped by their key (n, sa, m, sb), each group keeping the
    multiset and operands of its first pair."""

    def __init__(self):
        self._rows: dict = {}  # (n, sa, m) -> {sb: (multiset, lhs, rhs)}
        self.classes = 0

    def add(self, row: tuple, sbs: list[int], multisets: list, lhs,
            rhs_words: list):
        """Add the pairs of one left variant with every right variant, in
        order.  Returns None, or ``(j, (multiset, lhs, rhs))``: the index of
        the first pair whose multiset differs from that of its group's first
        pair, and that first pair.  ``classes`` then counts the groups opened
        before pair j."""
        firsts_by_sb = self._rows.setdefault(row, {})
        known = len(firsts_by_sb)
        firsts = list(map(firsts_by_sb.setdefault, sbs,
                          zip(multisets, repeat(lhs), rhs_words)))
        if list(map(itemgetter(0), firsts)) == multisets:
            self.classes += len(firsts_by_sb) - known
            return None
        j = next(j for j, (first, multiset) in enumerate(zip(firsts, multisets))
                 if first[0] != multiset)
        # a pair that opened its group stored its own multiset
        self.classes += sum(first[0] is multiset
                            for first, multiset in zip(firsts[:j], multisets))
        return j, firsts[j]


def check_shuffle_compatibility(stat: Statistic, trials: int = 200,
                                max_len: int = 5, *, colours: int = 3,
                                seed: int = 0,
                                statistic_name: str | None = None) -> CompatReport:
    """Search for evidence that ``stat`` is not a shuffle-compatible
    coloured permutation statistic.

    Two phases.  First, invariance of ``stat`` under order-preserving symbol
    relabellings is sampled (a deterministic sweep over short permutations
    plus ``trials`` random cases); a violation means ``stat`` is not a
    coloured permutation statistic at all.  Second, symbol-disjoint pairs
    with total length at most ``max_len`` and colours below ``colours`` are
    enumerated exhaustively up to joint relabelling: the symbols 1..n+m are
    split between the operands in every way, each side takes every order
    and colouring, and the multiset of statistic values over the shuffles
    of the pair is collected.  Multisets are compared across pairs whose
    operands agree in length and statistic value; a mismatch is a
    counterexample to shuffle compatibility.

    Phase 2 evaluates ``stat`` once on each word it needs: for each total
    length, every coloured permutation of 1..total, kept in a table indexed
    by the rank of its symbol order and its colouring; and every order and
    colouring of each operand's symbol set.  Values are interned to small
    ints, and a pair's multiset is the sorted list of the table entries of
    its shuffles.  The table holds max_len! * colours**max_len entries;
    bounds beyond ``MAX_COMPAT_WORDS`` of them, negative ``trials`` or
    ``max_len``, and ``colours`` < 1 raise ``BadParameters`` before any
    work.

    Returns a report whose ``counterexample`` is None when nothing was
    found.
    """
    _check_compat_bounds(trials, max_len, colours)
    name = statistic_name or getattr(stat, "__name__", "statistic")
    performed = 0

    # phase 1: relabelling invariance
    for perm, mapping in _relabelling_cases(random.Random(seed), trials,
                                            max_len, colours):
        performed += 1
        relabelled = perm.relabel(mapping)
        if stat(perm) != stat(relabelled):
            return CompatReport(name, performed, 0, {
                "kind": "relabelling",
                "permutation": str(perm),
                "relabelled": str(relabelled),
                "values": [repr(stat(perm)), repr(stat(relabelled))],
            })

    # phase 2: shuffle multisets across statistic classes
    scorer = _Scorer(_raw_statistic(stat), colours)
    make = ColouredPermutation._raw
    groups = _Groups()
    for n, sa, m, lhs, sbs, rhs_words, multisets in _sweep(scorer, max_len,
                                                           colours):
        mismatch = groups.add((n, sa, m), sbs, multisets, lhs, rhs_words)
        if mismatch is not None:
            j, (first_multiset, first_lhs, first_rhs) = mismatch
            return CompatReport(name, performed + j + 1, groups.classes, {
                "kind": "shuffle",
                "first_pair": [str(make(first_lhs)), str(make(first_rhs))],
                "second_pair": [str(make(lhs)), str(make(rhs_words[j]))],
                "first_multiset": scorer.counts(first_multiset),
                "second_multiset": scorer.counts(multisets[j]),
            })
        performed += len(multisets)
    return CompatReport(name, performed, groups.classes, None)
