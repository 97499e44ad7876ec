"""Truncated coloured quasisymmetric functions.

``expand_F`` expands the fundamental function of a coloured permutation in
the doubly indexed variables x_i^(j) (i a positive index up to a cutoff m,
j a colour below a cutoff r): the sum over weakly increasing index
sequences i_1 <= ... <= i_n <= m that increase strictly at every interior
descent, of the monomials x_{i_1}^(c_1) ... x_{i_n}^(c_n).

psi_m specialises x_i^(0) -> x^(i-1) p_0 for i <= m and
x_i^(j) -> x^(i-1) p_j for 1 < i <= m (all other variables, including every
x_1^(j) with j >= 1, go to zero); ``psi_series`` gives psi_1, ..., psi_m in
one pass over the expansion.  Summing psi_m against t^(m-1) over m
recovers, per permutation class, the closed form

    p^col x^comaj t^des / ((1-t)(1-xt)...(1-x^n t)),

which ``psi_closed_form_check`` verifies through a given t-order.
"""

from __future__ import annotations

from collections import Counter

from .errors import ColourOutOfRange, SymbolOverlap
from .mpoly import MPoly, Monomial, monomial, monomial_mul
from .permutations import (ColouredPermutation, descent_set, s_des_raw,
                           shuffles, stat_triple)
from .shuffle_algebra import HImage, X_VAR, p_var

__all__ = [
    "TruncatedQSym",
    "expand_F",
    "verify_product_rule",
    "psi_series",
    "psi_closed_form_check",
]


def qvar(index: int, colour: int) -> tuple:
    """The variable x_index^(colour)."""
    return ("x", index, colour)


class TruncatedQSym:
    """A homogeneous polynomial truncation of a coloured quasisymmetric
    function: only variables with index <= m and colour < r appear."""

    __slots__ = ("poly", "m", "r", "degree")

    def __init__(self, poly: MPoly, m: int, r: int, degree: int):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "degree", int(degree))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedQSym is immutable")

    def __eq__(self, other):
        return (isinstance(other, TruncatedQSym)
                and self.m == other.m and self.poly == other.poly)

    def __hash__(self):
        return hash((self.poly, self.m))

    def __mul__(self, other: "TruncatedQSym") -> "TruncatedQSym":
        if self.m != other.m:
            raise ValueError("cutoffs differ")
        return TruncatedQSym(self.poly * other.poly, self.m,
                             max(self.r, other.r), self.degree + other.degree)

    def __repr__(self):
        return f"TruncatedQSym(m={self.m}, r={self.r}, deg={self.degree}, {self.poly!r})"


def expand_F(a: ColouredPermutation, m: int, r: int | None = None) -> TruncatedQSym:
    """Monomial expansion of the fundamental function of ``a`` truncated to
    variable indices <= m.  ``r`` defaults to (max colour of a) + 1."""
    colours = [e.colour for e in a.entries]
    if r is None:
        r = max(colours, default=0) + 1
    if any(c >= r for c in colours):
        raise ColourOutOfRange(f"colour >= {r} present")
    if m < 1:
        raise ValueError("cutoff m must be >= 1")
    strict = descent_set(a)
    # one level per letter: (monomial so far, its last index, the least
    # index of the next letter); a rising index sorts after every variable
    # before it, an equal one is spliced in
    level: list[tuple[Monomial, int, int]] = [((), 0, 1)]
    for pos, c in enumerate(colours, 1):
        step = pos in strict
        grown = []
        for mono, last, lo in level:
            if lo == last:
                grown.append((monomial_mul(mono, ((qvar(lo, c), 1),)),
                              lo, lo + step))
                lo += 1
            grown += [(mono + ((qvar(i, c), 1),), i, i + step)
                      for i in range(lo, m + 1)]
        level = grown
    return TruncatedQSym(MPoly(Counter(mono for mono, _, _ in level)), m, r,
                         len(colours))


def verify_product_rule(a: ColouredPermutation, b: ColouredPermutation,
                        m: int, expansions: dict | None = None) -> bool:
    """Check F_a * F_b against the sum of F_c over all shuffles c, both
    truncated at cutoff m (truncation commutes with the product, so this
    compares every monomial in variables with index <= m).

    F depends only on the coloured descent set, so expansions are looked up
    in ``expansions`` by (coloured descent set, m); a caller checking many
    pairs passes one dict to expand each class once."""
    if a.symbols() & b.symbols():
        raise SymbolOverlap("operands share a symbol")
    if expansions is None:
        expansions = {}

    def fundamental(c: ColouredPermutation) -> MPoly:
        key = (s_des_raw(c.entries), m)
        poly = expansions.get(key)
        if poly is None:
            poly = expansions[key] = expand_F(c, m).poly
        return poly

    total: dict[Monomial, int] = {}
    for c in shuffles(a, b):
        for mono, coeff in fundamental(c).coeffs.items():
            total[mono] = total.get(mono, 0) + coeff
    return fundamental(a) * fundamental(b) == MPoly(total)


def psi_series(F: TruncatedQSym, cutoff: int) -> list[MPoly]:
    """[psi_1(F), ..., psi_cutoff(F)]; requires F.m >= cutoff so that every
    surviving monomial (all indices <= cutoff) is present in the truncation.

    Each monomial of F is specialised once and filed under its largest
    index M (the index of its last variable, as variables are sorted);
    psi_m is the sum of the files for M <= m."""
    if cutoff < 1:
        raise ValueError("m must be >= 1")
    if F.m < cutoff:
        raise ValueError(f"truncation cutoff {F.m} is below m = {cutoff}")
    files: list[dict[Monomial, int]] = [{} for _ in range(cutoff)]
    targets: dict[tuple, Monomial] = {}  # (colour exponents, x exponent)
    for mono, coeff in F.poly.coeffs.items():
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


def psi_closed_form_check(a: ColouredPermutation, t_order: int) -> bool:
    """Compare sum_m psi_m(F_a) t^(m-1) with the closed form
    p^col x^comaj t^des / ((1-t)(1-xt)...(1-x^n t)) through t^t_order."""
    st = stat_triple(a)
    cutoff = t_order + 1
    lhs = psi_series(expand_F(a, cutoff), cutoff)
    numerator = MPoly.term(monomial(*[(p_var(c), k) for c, k in st.col],
                                    (X_VAR, st.comaj)))
    closed = HImage(numerator, st.des, tuple(range(len(a) + 1)))
    return lhs == closed.series(t_order)
