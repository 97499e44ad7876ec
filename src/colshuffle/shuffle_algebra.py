"""Hadamard products of rational generating functions via shuffles.

The central fact driving this module: for coherent labelled coloured
configurations, the Hadamard product (in Y) of their generating functions is
the generating function of the shuffled configuration under the merged
label.  ``hadamard_via_theorem`` and ``hadamard_iterated`` build that
shuffled configuration, for callers that need the configuration itself and
as the oracle of the theorem; ``hadamard_general`` multiplies arbitrary
operands by the series kernel ``ratfun.hadamard``, without shuffling.

The module also hosts an empirical falsification harness for shuffle
compatibility of arbitrary coloured permutation statistics.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import (chain, combinations, islice, permutations, product,
                       repeat)
from operator import add, and_, getitem, itemgetter, mul
from typing import Callable, Hashable

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, config_shuffle,
                             make_strongly_disjoint, merge_labels)
from .errors import MAX_SHUFFLE_WORDS as MAX_COMPAT_WORDS
from .errors import check_at_least, check_cap
from .permutations import (ColouredInteger, ColouredPermutation, EMPTY,
                           s_des, s_des_raw, stat_triple, stat_triple_raw)
from .ratfun import RationalGF, hadamard, w_of

__all__ = [
    "hadamard_via_theorem",
    "hadamard_general",
    "hadamard_identity",
    "hadamard_iterated",
    "check_shuffle_compatibility",
    "CompatReport",
    "STATISTICS",
    "MAX_COMPAT_WORDS",
]


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
    """The shuffled configuration under the merged label, which fits it as
    it is, so it is not checked again: a nonzero shuffle carries every
    colour of both operands."""
    label = merge_labels(lhs, rhs)
    config = config_shuffle(lhs.config, rhs.config)
    return LabelledConfiguration._trusted(
        config, Label() if config.is_zero() else label)


def hadamard_general(lhs: LabelledConfiguration,
                     rhs: LabelledConfiguration,
                     eps: int) -> RationalGF:
    """Hadamard product of arbitrary labelled configurations.

    Computed by the series kernel from the operands' generating functions.
    By the theorem it is the generating function of the shuffle of ``lhs``
    with a strongly disjoint copy of ``rhs``, which is never built.
    """
    return hadamard([w_of(lhs, eps), w_of(rhs, eps)], eps)


def hadamard_identity() -> LabelledConfiguration:
    """The configuration of the empty permutation: its W is 1/(1-Y)."""
    return LabelledConfiguration(
        ColouredConfiguration([(EMPTY, 1)]), Label())


def hadamard_iterated(lcs: list[LabelledConfiguration],
                      eps: int) -> tuple[LabelledConfiguration, RationalGF]:
    """Fold the shuffle step of ``hadamard_via_theorem`` (``_shuffle_step``)
    over a list, each operand made strongly disjoint from the accumulated
    configuration; W is computed once, for the final configuration."""
    acc = hadamard_identity()
    for lc in lcs:
        acc = _shuffle_step(acc, make_strongly_disjoint(acc, lc))
    return acc, w_of(acc, eps)


# -- empirical shuffle-compatibility checking ------------------------------

Statistic = Callable[[ColouredPermutation], Hashable]

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
        lambda a: a[0].symbol if a else 0,
        lambda entries: entries[0][0] if entries else 0),
}


# phase 2 reads these built-ins off descent masks; a wrapper with its own
# raw, a user statistic and phase 1 keep the per-word route
_MASK_ROUTE = frozenset(STATISTICS[name].raw for name in (
    "des", "comaj", "col", "des_comaj_col", "sdes"))


def _symbol_descents(order: tuple[int, ...]) -> int:
    """Bit j set where ``order`` descends from position j - 1 to j."""
    return sum(1 << j for j, (x, y) in enumerate(zip(order, order[1:]), 1)
               if x > y)


def _colouring_rows(n: int, colours: int, raw) -> tuple[list[int], list[dict]]:
    """For each colouring of length n, in ``product`` order: its eq mask (bit
    j set where colours j - 1 and j are equal), and the values of ``raw``
    keyed by the submasks of eq.  A built-in sees a word only through its
    colouring and its symbol descents where the colour repeats, so the value
    at a submask is ``raw`` of one word: the colouring over the first order
    of 1..n, in ``permutations`` order, with those symbol descents."""
    orders: dict = {}
    for order in permutations(range(1, n + 1)):
        orders.setdefault(_symbol_descents(order), order)
    eqs, rows = [], []
    for c in product(range(colours), repeat=n):
        eq = sum(1 << j for j, (x, y) in enumerate(zip(c, c[1:]), 1) if x == y)
        eqs.append(eq)
        rows.append({sub: raw(tuple(map(ColouredInteger, orders[sub], c)))
                     for sub in range(eq + 1) if sub & eq == sub})
    return eqs, rows


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
    entries = [ColouredInteger(s, rng.randrange(colours)) for s in symbols]
    targets = sorted(rng.sample(range(1, 8 * max_len + 4), n))
    mapping = dict(zip(sorted(symbols), targets))
    return ColouredPermutation._raw_many([tuple(entries), tuple(
        ColouredInteger(mapping[s], c) for s, c in entries)])


def _check_compat_bounds(trials: int, max_len: int, colours: int) -> None:
    """The sweep keeps one score per coloured permutation of the largest
    total length, max_len! * colours**max_len of them, counted here until
    past the cap; the acceptance bound (length 6, 3 colours) needs 524,880."""
    check_at_least(0, trials=trials, max_len=max_len)
    check_at_least(1, colours=colours)
    words = 1
    for length in range(1, max_len + 1):
        words *= length * colours
        if words > MAX_COMPAT_WORDS:
            break
    check_cap(words, f"max_len {max_len} with {colours} colours gives the "
              "sweep at least {} words to score (max_len! * colours**max_len)",
              MAX_COMPAT_WORDS)


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
    ids, so that multisets of values are sorted lists of ints.  A built-in
    whose ``raw`` is in ``_MASK_ROUTE`` is read off descent masks instead:
    the colouring rows of each length are filled once by ``raw`` itself, and
    each symbol order contributes one symbol-descent mask."""

    def __init__(self, raw_stat, colours: int):
        self.raw_stat = raw_stat
        self.colours = colours
        self.values: list = []  # id -> statistic value
        self._ids: dict = {}    # statistic value -> id
        self._letters: dict = {}  # symbol -> its ColouredInteger per colour
        self._sides: dict = {}  # symbol set -> (words, ids) of its variants
        self._masked = raw_stat if raw_stat in _MASK_ROUTE else None
        self._rows: dict = {}   # length -> (eqs, rows) of its colourings
        self._by_order: dict = {}  # (length, sd mask) -> ids of colourings

    def intern(self, values) -> list[int]:
        """The id of each value; new values get the next ids in order of
        first occurrence."""
        ids: list[int] = []
        values = iter(values)
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

    def ids(self, symbols: tuple[int, ...], words) -> list[int]:
        """The value ids of ``words``, the words over ``symbols`` in
        ``words`` order: the statistic evaluated once per word, or read off
        descent masks without looking at ``words``."""
        if self._masked is None:
            return self.intern(map(self.raw_stat, words))
        return list(chain.from_iterable(map(self._order_ids,
                                            permutations(symbols))))

    def _order_ids(self, order: tuple[int, ...]) -> list[int]:
        """The value ids of the colourings of one symbol order, in
        ``product`` order, kept per length and symbol-descent mask."""
        n = len(order)
        sd = _symbol_descents(order)
        ids = self._by_order.get((n, sd))
        if ids is None:
            if n not in self._rows:
                self._rows[n] = _colouring_rows(n, self.colours, self._masked)
            eqs, rows = self._rows[n]
            ids = self._by_order[n, sd] = self.intern(
                map(getitem, rows, map(and_, eqs, repeat(sd))))
        return ids

    def side(self, symbols: tuple[int, ...]) -> tuple[list, list[int]]:
        """The words over ``symbols`` and their value ids, kept per set."""
        cached = self._sides.get(symbols)
        if cached is None:
            words = list(self.words(symbols))
            cached = self._sides[symbols] = (words, self.ids(symbols, words))
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
                 else scorer.ids(symbols, scorer.words(symbols)))
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
    relabellings is sampled; a violation means ``stat`` is not a coloured
    permutation statistic at all.  For each n <= min(max_len, 3), ``stat``
    is evaluated once on every coloured permutation of 1..n and of its
    images under s -> s + 1 and s -> 2s.  The three lists come in the same
    order, so word i maps to word i of each image and the values are
    compared position by position.  Then ``trials`` random permutations are
    compared with random relabellings of themselves.  Second,
    symbol-disjoint pairs with total length at most ``max_len`` and colours
    below ``colours`` are enumerated exhaustively up to joint relabelling:
    the symbols 1..n+m are split between the operands in every way, each
    side takes every order and colouring, and the multiset of statistic
    values over the shuffles of the pair is collected.  Multisets are
    compared across pairs whose operands agree in length and statistic
    value; a mismatch is a counterexample to shuffle compatibility.

    Statistic values must be hashable: both phases intern them to small
    ints.  Phase 2 evaluates ``stat`` once on each word it needs: for each
    total length, every coloured permutation of 1..total, kept in a table
    indexed by the rank of its symbol order and its colouring; and every
    order and colouring of each operand's symbol set.  A statistic without
    ``.raw`` shares phase 1's scores, so no word is evaluated twice outside
    the random trials.  The built-in ``des``, ``comaj``, ``col``,
    ``des_comaj_col`` and ``sdes``, recognised by their ``.raw`` function,
    are not evaluated per word in phase 2: their values are read off
    descent masks, from colouring tables that their own ``.raw`` fills once
    per length and one symbol-descent mask per symbol order.  A pair's
    multiset is the sorted list of the table entries of its shuffles.  The
    table holds max_len! * colours**max_len entries; bounds beyond
    ``MAX_COMPAT_WORDS`` of them, negative ``trials`` or ``max_len``, and
    ``colours`` < 1 raise ``BadParameters`` before any work.

    Returns a report whose ``counterexample`` is None when nothing was
    found.
    """
    _check_compat_bounds(trials, max_len, colours)
    name = statistic_name or getattr(stat, "__name__", "statistic")
    performed = 0

    def relabelling(checks, perm, relabelled):
        return CompatReport(name, checks, 0, {
            "kind": "relabelling",
            "permutation": str(perm),
            "relabelled": str(relabelled),
            "values": [repr(stat(perm)), repr(stat(relabelled))],
        })

    # phase 1: relabelling invariance, swept then sampled
    make = ColouredPermutation._raw
    sweep = _Scorer(lambda entries: stat(make(entries)), colours)
    for n in range(min(max_len, 3) + 1):
        words, ids = sweep.side(tuple(range(1, n + 1)))
        images = [sweep.side(tuple(range(2, n + 2))),  # s -> s + 1
                  sweep.side(tuple(range(2, 2 * n + 1, 2)))]  # s -> 2s
        if any(image_ids != ids for _, image_ids in images):
            # word i's case with image j is case 2i + j
            case = min(2 * i + j for j, (_, image_ids) in enumerate(images)
                       for i, (x, y) in enumerate(zip(ids, image_ids))
                       if x != y)
            i, j = divmod(case, 2)
            return relabelling(performed + case + 1, make(words[i]),
                               make(images[j][0][i]))
        performed += 2 * len(ids)
    rng = random.Random(seed)
    for _ in range(trials):
        performed += 1
        perm, relabelled = _random_relabelling_case(rng, max_len, colours)
        if stat(perm) != stat(relabelled):
            return relabelling(performed, perm, relabelled)

    # phase 2: shuffle multisets across statistic classes
    scorer = _Scorer(stat.raw, colours) if getattr(stat, "raw", None) else sweep
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
