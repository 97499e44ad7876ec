"""Truncated coloured quasisymmetric functions.

The fundamental function F_a of a coloured permutation a, truncated at a
cutoff m, is expanded in the doubly indexed variables x_i^(j) (i a positive
index up to m, j a colour): the sum over weakly increasing index sequences
i_1 <= ... <= i_n <= m that increase strictly at every interior descent, of
the monomials x_{i_1}^(c_1) ... x_{i_n}^(c_n).  ``_expansion`` writes each
monomial as a sorted tuple of variable ids, x_i^(c) being c*m + i - 1
repeated once per unit of exponent, so that two monomials multiply as one
sorted concatenation, with no exponent width or colour bound.
``verify_product_rule`` checks F_a * F_b = sum of F_c over the shuffles c
on these keys.

psi_m specialises x_i^(0) -> x^(i-1) p_0 for i <= m and
x_i^(j) -> x^(i-1) p_j for 1 < i <= m (all other variables, including every
x_1^(j) with j >= 1, go to zero).  Each surviving monomial of F_a goes to
p^col times a power of x, so ``psi_rows`` counts psi_1(F_a), ..., psi_m(F_a)
over index sequences without expanding F_a.  Summing psi_m against t^(m-1)
over m recovers, per permutation class, the closed form

    p^col x^comaj t^des / ((1-t)(1-xt)...(1-x^n t)),

which ``psi_closed_form_check`` verifies through a given t-order, each side
a dense table of x-coefficients with one packed row per power of t.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import SymbolOverlap
from .permutations import (ColouredPermutation, descent_data, descent_set,
                           s_des_raw, shuffles, stat_triple)

__all__ = [
    "verify_product_rule",
    "psi_rows",
    "psi_closed_form_check",
]


def _expansion(sdes: tuple, m: int) -> list[tuple[int, ...]]:
    """The monomials of F_a at cutoff m, for the coloured descent set
    ``sdes`` of a: each a sorted tuple of variable ids, x_i^(c) being
    c*m + i - 1 repeated once per unit of exponent.  Distinct index
    sequences give distinct monomials, so every coefficient is 1.

    One level per letter holds (ids so far, least index of the next
    letter); a letter after a descent takes a strictly larger index."""
    strict, colours = descent_data(sdes)
    level: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for pos, c in enumerate(colours, 1):
        step = pos in strict
        base = c * m - 1
        level = [(key + (base + i,), i + step)
                 for key, lo in level for i in range(lo, m + 1)]
    return [tuple(sorted(key)) for key, _ in level]


def verify_product_rule(a: ColouredPermutation, b: ColouredPermutation,
                        m: int, expansions: dict | None = None) -> bool:
    """Check F_a * F_b against the sum of F_c over all shuffles c, both
    truncated at cutoff m (truncation commutes with the product, so this
    compares every monomial in variables with index <= m).

    F depends only on the coloured descent set, so ``expansions`` keeps
    each class's monomials under (coloured descent set, m) and each product
    F_a * F_b under (sDes(a), sDes(b), m); a caller checking many pairs
    passes one dict.  The right side is summed afresh for every pair, from
    the count of its own shuffles in each class."""
    if a.symbols() & b.symbols():
        raise SymbolOverlap("operands share a symbol")
    if expansions is None:
        expansions = {}

    def fundamental(sdes: tuple) -> list[tuple[int, ...]]:
        keys = expansions.get((sdes, m))
        if keys is None:
            keys = expansions[sdes, m] = _expansion(sdes, m)
        return keys

    da, db = s_des_raw(a.entries), s_des_raw(b.entries)
    fa, fb = fundamental(da), fundamental(db)
    product = expansions.get((da, db, m))
    if product is None:
        product = expansions[da, db, m] = Counter(
            tuple(sorted(ka + kb)) for ka in fa for kb in fb)
    total: dict[tuple[int, ...], int] = {}
    for sdes, count in Counter(s_des_raw(c.entries)
                               for c in shuffles(a, b)).items():
        for key in fundamental(sdes):
            total[key] = total.get(key, 0) + count
    return total == product


def psi_rows(strict: frozenset[int], colours: Sequence[int], m: int,
             bits: int) -> list[int]:
    """psi_1(F_a) / p^col, ..., psi_m(F_a) / p^col for the coloured
    permutation a with descent set ``strict`` and colour word ``colours``,
    each packed into one int whose digit j in base 2^bits is the coefficient
    of x^j.  No coefficient may reach 2^bits; C(m+n-1, n) bounds them all.

    After each letter, entry i sums x^((i_1 - 1) + ... + (i_k - 1)) over the
    prefixes with last index at most i + 1.  A letter takes index i + 1
    after a prefix ending at or (after a descent) strictly below it; psi
    sends a coloured variable of index 1 to zero."""
    sums = [1] * m  # the empty prefix
    for pos, colour in enumerate(colours):
        # position 0 of the descent set is not between two letters
        step = pos > 0 and pos in strict
        run = below = 0
        for i in range(m):
            here = sums[i]
            if i or not colour:
                run += (below if step else here) << (bits * i)
            below = here
            sums[i] = run
    return sums


def psi_closed_form_check(a: ColouredPermutation, t_order: int) -> bool:
    """Compare sum_m psi_m(F_a) t^(m-1) with the closed form
    p^col x^comaj t^des / ((1-t)(1-xt)...(1-x^n t)) through t^t_order.

    Every term of both sides carries p^col, so the p-part is compared once,
    as the letters' colour multiset against ``stat_triple``'s ``col``; the
    rest as rows packed like ``psi_rows``.  The left side reads only the
    descent set and colour word, the right side only ``stat_triple``."""
    st = stat_triple(a)
    colours = [e.colour for e in a.entries]
    if tuple(sorted(Counter(colours).items())) != st.col:
        return False
    n, m = len(colours), t_order + 1
    # C(t_order+n, n) counts the index sequences of the left side and the
    # multisets of denominator factors behind a coefficient of the right
    bits = math.comb(m + n - 1, n).bit_length()
    rows = [0] * m
    if st.des < m:
        rows[st.des] = 1 << (bits * st.comaj)
    for i in range(n + 1):
        # divide by 1 - x^i t: b_k += x^i b_(k-1), upwards in k
        for k in range(st.des + 1, m):
            rows[k] += rows[k - 1] << (bits * i)
    return psi_rows(descent_set(a), colours, m, bits) == rows
