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

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Hashable

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, config_shuffle,
                             make_strongly_disjoint, merge_labels)
from .mpoly import MPoly, ONE_MONOMIAL, monomial
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
        coeffs = [MPoly.zero() for _ in range(order + 1)]
        if self.t_power <= order:
            coeffs[self.t_power] = self.numerator
        for i in self.denom_powers:
            mono = monomial((X_VAR, i)) if i else ONE_MONOMIAL
            prev = coeffs[0]
            for k in range(1, order + 1):
                prev = coeffs[k] + prev.mul_monomial(mono)
                coeffs[k] = prev
        return coeffs

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


def _side_variants(symbols: tuple[int, ...], colours: int, raw_stat):
    """All orderings and colourings of a symbol set, with their statistic."""
    out = []
    colour_words = list(itertools.product(range(colours), repeat=len(symbols)))
    for order in itertools.permutations(symbols):
        for cols in colour_words:
            entries = tuple(ColouredInteger(s, c)
                            for s, c in zip(order, cols))
            out.append((entries, raw_stat(entries)))
    return out


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

    Returns a report whose ``counterexample`` is None when nothing was
    found.
    """
    name = statistic_name or getattr(stat, "__name__", "statistic")
    performed = 0

    # phase 1: relabelling invariance
    rng = random.Random(seed)
    cases = []
    for n in range(0, min(max_len, 3) + 1):
        for perm in all_coloured_permutations(n, colours):
            cases.append((perm, {s: s + 1 for s in perm.symbols()}))
            cases.append((perm, {s: 2 * s for s in perm.symbols()}))
    for _ in range(trials):
        cases.append(_random_relabelling_case(rng, max_len, colours))
    for perm, mapping in cases:
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
    raw_stat = _raw_statistic(stat)
    make = ColouredPermutation._raw
    groups: dict = {}
    for total in range(2, max_len + 1):
        all_symbols = range(1, total + 1)
        word: list = [None] * total  # reused interleaving buffer
        for n in range(1, total // 2 + 1):
            m = total - n
            placements = [(mask, tuple(p for p in range(total) if p not in mask))
                          for mask in itertools.combinations(range(total), n)]
            for a_symbols in itertools.combinations(all_symbols, n):
                b_symbols = tuple(s for s in all_symbols if s not in a_symbols)
                lhs = _side_variants(a_symbols, colours, raw_stat)
                rhs = _side_variants(b_symbols, colours, raw_stat)
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
