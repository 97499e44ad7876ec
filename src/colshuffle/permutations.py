"""Coloured integers and coloured permutations with their descent statistics.

A coloured integer is a positive symbol decorated with a nonnegative colour;
colour 0 means "uncoloured".  Coloured integers are totally ordered by the
*colour order*: entries with a larger colour sort strictly below entries with
a smaller colour, and entries of equal colour sort by symbol,

    ... < 1^2 < 2^2 < ... < 1^1 < 2^1 < ... < 1^0 < 2^0 < ...

(Colours are encoded as nonnegative machine integers whose comparison is
reversed; the dual convention of encoding colours as negative integers would
turn this into the plain lexicographic order on (colour, symbol).)

A coloured permutation is a string of coloured integers with pairwise
distinct symbols.  The module computes descent sets, the descent number
``des``, the comajor index ``comaj``, the colour multiplicity vector ``col``,
the coloured descent set (which refines all three) as the sorted tuple of
its (position, colour) pairs, and shuffles.
"""

from __future__ import annotations

import itertools
import re
from itertools import repeat
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .errors import MAX_SHUFFLE_WORDS, ParseError, SymbolOverlap, check_cap

__all__ = [
    "ColouredInteger",
    "ColouredPermutation",
    "StatTriple",
    "descent_set",
    "stat_triple",
    "stat_triple_raw",
    "s_des",
    "s_des_raw",
    "descent_data",
    "interleavings",
    "shuffles",
    "MAX_SHUFFLE_WORDS",
    "parse_permutation",
    "all_coloured_permutations",
]


class ColouredInteger(NamedTuple):
    """A symbol with a colour, ordered by the colour order."""

    symbol: int
    colour: int

    def __lt__(self, other):
        return (-self.colour, self.symbol) < (-other.colour, other.symbol)

    def __le__(self, other):
        return (-self.colour, self.symbol) <= (-other.colour, other.symbol)

    def __gt__(self, other):
        return (-self.colour, self.symbol) > (-other.colour, other.symbol)

    def __ge__(self, other):
        return (-self.colour, self.symbol) >= (-other.colour, other.symbol)

    def __str__(self):
        return f"{self.symbol}^{self.colour}"


class StatTriple(NamedTuple):
    """The (des, comaj, col) value of a permutation.

    ``col`` is the sparse colour multiplicity vector, stored as a sorted
    tuple of (colour, count) pairs so the triple is hashable.
    """

    des: int
    comaj: int
    col: tuple[tuple[int, int], ...]


_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?$")


class ColouredPermutation(tuple):
    """An immutable string of coloured integers with distinct symbols.

    It is the tuple of its entries: it equals, hashes, orders and iterates
    as that tuple (the empty permutation equals ``()``), and so compares
    entrywise by the colour order.  ``sort_key`` orders by length first.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[tuple[int, int] | ColouredInteger]):
        ents = tuple(ColouredInteger(int(s), int(c)) for s, c in entries)
        symbols = [e.symbol for e in ents]
        if any(s < 1 for s in symbols):
            raise ValueError("symbols must be positive integers")
        if any(e.colour < 0 for e in ents):
            raise ValueError("colours must be nonnegative integers")
        if len(symbols) != len(set(symbols)):
            raise ValueError("symbols must be pairwise distinct")
        return tuple.__new__(cls, ents)

    @classmethod
    def _raw(cls, entries: tuple[ColouredInteger, ...]) -> "ColouredPermutation":
        # fast constructor for internally generated, already-valid entries
        return tuple.__new__(cls, entries)

    @classmethod
    def _raw_many(cls, words: list[tuple[ColouredInteger, ...]]
                  ) -> list["ColouredPermutation"]:
        # _raw over a list of entry tuples, with the loop in C
        return list(map(tuple.__new__, repeat(cls), words))

    @property
    def entries(self) -> "ColouredPermutation":
        return self

    def __repr__(self):
        return f"ColouredPermutation({str(self)!r})"

    def __str__(self):
        return " ".join(f"{e.symbol}^{e.colour}" for e in self)

    # sort key: length first, then entrywise colour order
    def sort_key(self):
        return (len(self), tuple((-e.colour, e.symbol) for e in self))

    def symbols(self) -> frozenset[int]:
        return frozenset(e.symbol for e in self)

    def palette_star(self) -> frozenset[int]:
        return frozenset(e.colour for e in self if e.colour != 0)

    def relabel(self, symbol_map, colour_map) -> "ColouredPermutation":
        """Apply maps to symbols and to nonzero colours."""
        return ColouredPermutation(
            (symbol_map[e.symbol],
             colour_map[e.colour] if e.colour != 0 else 0)
            for e in self)

    def to_pairs(self) -> list[list[int]]:
        return [[e.symbol, e.colour] for e in self]


EMPTY = ColouredPermutation(())


def parse_permutation(text: str) -> ColouredPermutation:
    """Parse ``"1^1 2^2"``; a missing ``^colour`` means colour 0.

    The empty (or all-whitespace) string parses to the empty permutation.
    """
    entries = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad coloured integer {token!r}", position=pos)
        symbol = int(m.group(1))
        colour = int(m.group(2)) if m.group(2) is not None else 0
        if symbol < 1:
            raise ParseError(f"symbol must be >= 1 in {token!r}", position=pos)
        entries.append((symbol, colour))
        pos += len(token)
    try:
        return ColouredPermutation(entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def descent_set(a: ColouredPermutation) -> frozenset[int]:
    """Positions i in [n-1] where entry i exceeds entry i+1 in colour order,
    together with 0 whenever the first colour is nonzero."""
    return descent_data(s_des(a))[0]


def stat_triple_raw(entries) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(des, comaj, col) from a sequence of (symbol, colour) pairs.

    Allocation-light path used by exhaustive sweeps; ``stat_triple`` wraps
    it for the public type.
    """
    n = len(entries)
    des = 0
    comaj = 0
    counts: dict[int, int] = {}
    if n:
        if entries[0][1] != 0:
            des += 1
            comaj += n
        for i in range(n - 1):
            s1, c1 = entries[i]
            s2, c2 = entries[i + 1]
            if c1 < c2 or (c1 == c2 and s1 > s2):
                des += 1
                comaj += n - (i + 1)
        for _, c in entries:
            counts[c] = counts.get(c, 0) + 1
    return (des, comaj, tuple(sorted(counts.items())))


def stat_triple(a: ColouredPermutation) -> StatTriple:
    """des, comaj = sum of (n - i) over descents i, and colour multiplicities."""
    return StatTriple(*stat_triple_raw(a))


def s_des_raw(entries) -> tuple[tuple[int, int], ...]:
    """The coloured descent set of a sequence of (symbol, colour) pairs:
    interior positions where the colour changes or an equal-colour symbol
    descent occurs, each with the colour at that position, then the final
    position with the final colour; sorted by position."""
    n = len(entries)
    if not n:
        return ()
    elems = []
    for i in range(n - 1):
        s1, c1 = entries[i]
        s2, c2 = entries[i + 1]
        if c1 != c2 or s1 > s2:
            elems.append((i + 1, c1))
    elems.append((n, entries[n - 1][1]))
    return tuple(elems)


def s_des(a: ColouredPermutation) -> tuple[tuple[int, int], ...]:
    """The coloured descent set of ``a``, as ``s_des_raw`` gives it."""
    return s_des_raw(a)


def descent_data(elems: tuple[tuple[int, int], ...]
                 ) -> tuple[frozenset[int], tuple[int, ...]]:
    """Recover (descent set, colour word) from a coloured descent set.

    The colour word is constant between recorded positions; a recorded
    interior position is a descent exactly when its colour is <= the next
    recorded colour (equal colours force a symbol descent, a larger
    following colour in integer order means a drop in colour order).
    """
    if not elems:
        return frozenset(), ()
    n = elems[-1][0]
    colours = []
    prev = 0
    for p, c in elems:
        colours.extend([c] * (p - prev))
        prev = p
    des = set()
    if colours[0] != 0:
        des.add(0)
    for (p, c), (_, c_next) in zip(elems, elems[1:]):
        if c <= c_next:
            des.add(p)
    return frozenset(des), tuple(colours)


def interleavings(xs: tuple, ys: tuple) -> list[tuple]:
    """Every merge of the block sequences xs and ys keeping the order of each.

    xs and ys are sequences of tuples; each merge is returned as the flat
    concatenation of its blocks.  The order is lexicographic in the set of
    positions occupied by blocks of xs, so two calls with sequences of the
    same lengths list corresponding merges at the same index.
    """
    n, m = len(xs), len(ys)
    # row[j] lists the merges of xs[i:] and ys[j:], i running down from n:
    # those starting with xs[i] come before those starting with ys[j]
    row = [[sum(ys[j:], ())] for j in range(m + 1)]
    for i in range(n - 1, -1, -1):
        x = xs[i]
        new = [None] * m + [[sum(xs[i:], ())]]
        for j in range(m - 1, -1, -1):
            y = ys[j]
            new[j] = [x + w for w in row[j]] + [y + w for w in new[j + 1]]
        row = new
    return row[0]


def shuffles(a: ColouredPermutation, b: ColouredPermutation) -> list[ColouredPermutation]:
    """All interleavings of a and b preserving both relative orders.

    Requires disjoint symbol sets, and at most ``MAX_SHUFFLE_WORDS`` words.
    The output order is deterministic: lexicographic in the set of positions
    occupied by entries of ``a``.
    """
    sa, sb = a.symbols(), b.symbols()
    if sa & sb:
        raise SymbolOverlap(f"shared symbols: {sorted(sa & sb)}")
    count = comb(len(a) + len(b), len(a))
    check_cap(count, "the shuffle has {} words", MAX_SHUFFLE_WORDS)
    words = interleavings(tuple((e,) for e in a), tuple((e,) for e in b))
    return ColouredPermutation._raw_many(words)


def all_coloured_permutations(length: int, colours: int,
                              first_symbol: int = 1) -> Iterator[ColouredPermutation]:
    """All coloured permutations of the given length with colours < ``colours``,
    over the symbols first_symbol .. first_symbol+length-1."""
    symbols = range(first_symbol, first_symbol + length)
    for order in itertools.permutations(symbols):
        for cols in itertools.product(range(colours), repeat=length):
            yield ColouredPermutation._raw(
                tuple(ColouredInteger(s, c) for s, c in zip(order, cols)))
