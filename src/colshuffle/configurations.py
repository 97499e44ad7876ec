"""Coloured configurations: finite multisets of coloured permutations,
signed-monomial labels on colours, order-preserving equivalence, coherence,
and the bi-additive shuffle.

A label assigns a signed monomial ``±X^k`` to each colour, with finite
support excluding colour 0 (uncoloured entries always pick up the factor 1).
A labelled configuration pairs a configuration with a label supported on the
nonzero colours that actually occur.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import repeat
from math import comb
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import (MAX_SHUFFLE_WORDS, NotCoherent, ParseError,
                     SymbolOverlap, check_cap)
from .mpoly import term_text
from .permutations import ColouredPermutation, interleavings, parse_permutation

__all__ = [
    "SignedMonomial",
    "Label",
    "ColouredConfiguration",
    "LabelledConfiguration",
    "evaluate_label",
    "config_shuffle",
    "MAX_SHUFFLE_WORDS",
    "canonicalize",
    "make_strongly_disjoint",
    "check_coherence",
    "merge_labels",
    "parse_labelled_configuration",
]


class SignedMonomial(NamedTuple):
    """``sign * X**exponent`` with sign in {+1, -1}."""

    sign: int
    exponent: int

    @classmethod
    def one(cls) -> "SignedMonomial":
        return cls(1, 0)

    @classmethod
    def x_power(cls, k: int) -> "SignedMonomial":
        return cls(1, k)

    def is_one(self) -> bool:
        return self.sign == 1 and self.exponent == 0

    def __mul__(self, other: "SignedMonomial") -> "SignedMonomial":
        return SignedMonomial(self.sign * other.sign,
                              self.exponent + other.exponent)

    def __pow__(self, k: int) -> "SignedMonomial":
        return SignedMonomial(self.sign if k % 2 else 1, self.exponent * k)

    def __str__(self):
        return term_text(self.sign, self.exponent)

    @classmethod
    def parse(cls, text: str) -> "SignedMonomial":
        m = re.fullmatch(r"\s*([+-]?)\s*(?:(1)|X(?:\^(-?\d+))?)\s*", text)
        if not m:
            raise ParseError(f"bad signed monomial {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2):
            return cls(sign, 0)
        exp = int(m.group(3)) if m.group(3) is not None else 1
        return cls(sign, exp)


def _json_int(value) -> int:
    """``value`` if it is a JSON integer (an ``int``, not a ``bool``)."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class Label:
    """Finitely supported map colour -> SignedMonomial; default +X^0.

    The support never contains colour 0.
    """

    __slots__ = ("assignments",)
    _ONE = SignedMonomial(1, 0)  # the value of every colour off the support

    def __init__(self, assignments: Mapping[int, SignedMonomial] | None = None):
        cleaned = {}
        for colour, value in (assignments or {}).items():
            value = SignedMonomial(*value)
            if value.sign not in (1, -1):
                raise ValueError(f"sign must be 1 or -1, got {value.sign}")
            if value.is_one():
                continue
            if colour == 0:
                raise ValueError("colour 0 cannot carry a nontrivial label")
            if colour < 0:
                raise ValueError("colours are nonnegative")
            cleaned[int(colour)] = value
        object.__setattr__(self, "assignments", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Label is immutable")

    def __reduce__(self):
        return Label, (self.assignments,)

    def __call__(self, colour: int) -> SignedMonomial:
        return self.assignments.get(colour, self._ONE)

    def support(self) -> frozenset[int]:
        return frozenset(self.assignments)

    def __eq__(self, other):
        return isinstance(other, Label) and self.assignments == other.assignments

    def __hash__(self):
        return hash(tuple(sorted(self.assignments.items())))

    def __repr__(self):
        inner = ", ".join(f"{c} -> {v}" for c, v in sorted(self.assignments.items()))
        return "Label{" + inner + "}"

    def to_json_obj(self) -> list[dict]:
        return [{"colour": c, "sign": v.sign, "exponent": v.exponent}
                for c, v in sorted(self.assignments.items())]

    @classmethod
    def from_json_obj(cls, obj) -> "Label":
        return cls({_json_int(e["colour"]): SignedMonomial(
                        _json_int(e["sign"]), _json_int(e["exponent"]))
                    for e in obj})


def evaluate_label(label: Label, a: ColouredPermutation) -> SignedMonomial:
    """Product of the label values over the colours of ``a`` (1 when empty)."""
    sign, exp = 1, 0
    for entry in a:
        v = label(entry.colour)
        sign *= v.sign
        exp += v.exponent
    return SignedMonomial(sign, exp)


class ColouredConfiguration(tuple):
    """A finite multiset of coloured permutations.

    Stored in normal form: distinct permutations with multiplicities >= 1,
    sorted by (length, entrywise colour order) for canonical serialisation.
    It is the tuple of its (permutation, multiplicity) terms: it equals,
    hashes and iterates as that tuple, ``len`` counts its terms, and the
    zero configuration equals ``()`` and is falsy.
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple[ColouredPermutation, int]] = ()):
        acc: dict[ColouredPermutation, int] = {}
        for perm, mult in terms:
            mult = int(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                acc[perm] = acc.get(perm, 0) + mult
        return tuple.__new__(
            cls, sorted(acc.items(), key=lambda kv: kv[0].sort_key()))

    @classmethod
    def _normal(cls, terms: Iterable[tuple[ColouredPermutation, int]]
                ) -> "ColouredConfiguration":
        # fast constructor for terms already distinct, positive and sorted
        return tuple.__new__(cls, terms)

    @property
    def terms(self) -> "ColouredConfiguration":
        return self

    @classmethod
    def from_permutations(cls, perms: Iterable[ColouredPermutation]) -> "ColouredConfiguration":
        return cls((p, 1) for p in perms)

    def support(self) -> tuple[ColouredPermutation, ...]:
        return tuple(p for p, _ in self)

    def is_zero(self) -> bool:
        return not self

    def symbols(self) -> frozenset[int]:
        out: set[int] = set()
        for p, _ in self:
            out |= p.symbols()
        return frozenset(out)

    def palette_star(self) -> frozenset[int]:
        out: set[int] = set()
        for p, _ in self:
            out |= p.palette_star()
        return frozenset(out)

    def max_length(self) -> int:
        return max((len(p) for p, _ in self), default=0)

    def __repr__(self):
        inner = " + ".join(
            (f"{m}*{p}" if m != 1 else str(p)) if len(p) else
            (f"{m}*()" if m != 1 else "()")
            for p, m in self)
        return inner or "0"


def config_shuffle(f: ColouredConfiguration,
                   g: ColouredConfiguration) -> ColouredConfiguration:
    """Bi-additive extension of the shuffle to configurations."""
    if f.symbols() & g.symbols():
        raise SymbolOverlap(
            f"shared symbols: {sorted(f.symbols() & g.symbols())}")
    f_lengths = Counter(len(a) for a, _ in f)
    g_lengths = Counter(len(b) for b, _ in g)
    words = sum(k * l * comb(n + m, n) for n, k in f_lengths.items()
                for m, l in g_lengths.items())
    check_cap(words, "the shuffle has {} words", MAX_SHUFFLE_WORDS)
    # Restricting a shuffle of a and b to the symbols of f gives back a, so
    # the words are pairwise distinct over all term pairs and already in
    # normal form once sorted.  An entry is coded by its rank in the colour
    # order, as fixed-width big-endian bytes; a word's sort key is its
    # length's code followed by its entries' codes, so sorting compares
    # bytes.  Each word and its key are picked out of a + b and its codes
    # by one itemgetter per position pattern.
    ranked = sorted({e for h in (f, g) for p, _ in h for e in p})
    width = max(1, (max(len(ranked), f.max_length() + g.max_length())
                    .bit_length() + 7) // 8)
    code = {e: r.to_bytes(width, "big") for r, e in enumerate(ranked)}
    join = b"".join
    getters: dict[tuple[int, int], tuple[list, list]] = {}
    keys: list[bytes] = []
    terms: list[tuple[ColouredPermutation, int]] = []
    for a, fa in f:
        for b, gb in g:
            n, m = len(a), len(b)
            if (n, m) not in getters:
                getters[n, m] = _shuffle_getters(n, m)
            word_getters, key_getters = getters[n, m]
            ab = a + b
            codes = ((n + m).to_bytes(width, "big"), *map(code.__getitem__, ab))
            keys += [join(get(codes)) for get in key_getters]
            terms += zip(ColouredPermutation._raw_many(
                [get(ab) for get in word_getters]), repeat(fa * gb))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return ColouredConfiguration._normal(map(terms.__getitem__, order))


def _shuffle_getters(n: int, m: int) -> tuple[list, list]:
    """Itemgetters taking the concatenation of an n-word and an m-word to its
    shuffles, in the order of ``shuffles``: one list on the entries, one on
    the length followed by the entries."""
    if n + m < 2:
        # the one shuffle is the concatenation itself; an itemgetter of
        # fewer than two indices would not return a tuple
        return [tuple], [tuple]
    patterns = interleavings(tuple((i,) for i in range(n)),
                             tuple((i,) for i in range(n, n + m)))
    return ([itemgetter(*pattern) for pattern in patterns],
            [itemgetter(0, *[i + 1 for i in pattern]) for pattern in patterns])


class LabelledConfiguration(tuple):
    """A configuration together with a label supported on its nonzero colours.

    It is the pair (config, label): it equals, hashes and unpacks as that
    tuple.
    """

    __slots__ = ()
    config = property(itemgetter(0))
    label = property(itemgetter(1))

    def __new__(cls, config: ColouredConfiguration, label: Label | None = None):
        label = label or Label()
        stray = label.support() - config.palette_star()
        if stray:
            raise ValueError(
                f"label supported outside the configuration's colours: {sorted(stray)}")
        return tuple.__new__(cls, (config, label))

    @classmethod
    def _trusted(cls, config: ColouredConfiguration,
                 label: Label) -> "LabelledConfiguration":
        # no support check: for a label known to fit the configuration's
        # colours, such as the merged label of a nonzero shuffle
        return tuple.__new__(cls, (config, label))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"LabelledConfiguration({self.config!r}, {self.label!r})"

    # -- serialisation ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "config": [{"perm": p.to_pairs(), "mult": m}
                       for p, m in self.config],
            "label": self.label.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LabelledConfiguration":
        config = ColouredConfiguration(
            (ColouredPermutation((_json_int(s), _json_int(c))
                                 for s, c in t["perm"]),
             _json_int(t["mult"]))
            for t in obj["config"])
        return cls(config, Label.from_json_obj(obj.get("label", [])))

    def to_text(self) -> str:
        lines = [f"{m} * {p}" if len(p) else f"{m} *" for p, m in self.config]
        lines += [f"{c} -> {v}" for c, v in sorted(self.label.assignments.items())]
        return "\n".join(lines) + "\n"


_LABEL_LINE = re.compile(r"(\d+)\s*->\s*(.+)")
_CONFIG_LINE = re.compile(r"(?:(\d+)\s*\*)?\s*([^*]*)")


def parse_labelled_configuration(text: str) -> LabelledConfiguration:
    """Parse the line-based text form (or JSON when the text is an object).

    Configuration lines look like ``2 * 1^0 2^2`` (multiplicity optional),
    label lines like ``1 -> -X^2``.  ``#`` starts a comment.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return LabelledConfiguration.from_json_obj(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad JSON configuration: {exc}") from exc
    terms = []
    assignments: dict[int, SignedMonomial] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LABEL_LINE.fullmatch(line)
        if m:
            colour = int(m.group(1))
            try:
                assignments[colour] = SignedMonomial.parse(m.group(2))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            continue
        m = _CONFIG_LINE.fullmatch(line)
        if not m:
            raise ParseError(f"line {lineno}: unrecognised line {line!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        try:
            perm = parse_permutation(m.group(2))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        terms.append((perm, mult))
    try:
        return LabelledConfiguration(ColouredConfiguration(terms),
                                     Label(assignments))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def canonicalize(lc: LabelledConfiguration) -> LabelledConfiguration:
    """The canonical representative of the equivalence class of ``lc``.

    Symbols are relabelled order-preservingly onto 1..k and nonzero colours
    onto 1..m (order-preserving on positive colours is the usual integer
    order); the label is transported along.  Two labelled configurations are
    equivalent exactly when their canonical forms coincide.
    """
    return _relabelled(lc, 0, 0)


def make_strongly_disjoint(lhs: LabelledConfiguration,
                           rhs: LabelledConfiguration) -> LabelledConfiguration:
    """An equivalent copy of ``rhs`` sharing no symbol and no nonzero colour
    with ``lhs``: the canonical form of ``rhs`` with its symbols and colours
    shifted above those of ``lhs``, built in one relabelling."""
    return _relabelled(rhs, max(lhs.config.symbols(), default=0),
                       max(lhs.config.palette_star(), default=0))


def _relabelled(lc: LabelledConfiguration, symbol_off: int,
                colour_off: int) -> LabelledConfiguration:
    """``lc`` with its symbols relabelled order-preservingly onto
    ``symbol_off + 1, symbol_off + 2, ...`` and its nonzero colours onto
    ``colour_off + 1, ...``; the label is transported along."""
    config = lc.config
    symbol_map = {s: i for i, s in
                  enumerate(sorted(config.symbols()), symbol_off + 1)}
    colour_map = {c: i for i, c in
                  enumerate(sorted(config.palette_star()), colour_off + 1)}
    # an order-preserving relabelling keeps the terms distinct and sorted
    new_config = ColouredConfiguration._normal(
        (p.relabel(symbol_map, colour_map), m) for p, m in config)
    label = Label({colour_map[c]: v for c, v in lc.label.assignments.items()})
    return LabelledConfiguration(new_config, label)


def check_coherence(lhs: LabelledConfiguration,
                    rhs: LabelledConfiguration) -> bool:
    """Symbol-disjoint with labels agreeing on every shared nonzero colour."""
    if lhs.config.symbols() & rhs.config.symbols():
        return False
    shared = lhs.config.palette_star() & rhs.config.palette_star()
    return all(lhs.label(c) == rhs.label(c) for c in shared)


def merge_labels(lhs: LabelledConfiguration,
                 rhs: LabelledConfiguration) -> Label:
    """The merged label: lhs's values on lhs's colours, rhs's on the rest.

    Each label holds only its nontrivial values on its own colours, and
    coherence makes the two agree on shared colours, so the merge is the
    union of the two assignments.  For strongly disjoint operands this is
    the pointwise product.  Raises NotCoherent when the operands share a
    symbol or disagree on a shared colour.
    """
    if not check_coherence(lhs, rhs):
        raise NotCoherent("configurations share symbols or disagree on a colour")
    return Label({**rhs.label.assignments, **lhs.label.assignments})
