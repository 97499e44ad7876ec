"""Catalog of zeta functions encoded as labelled coloured configurations.

Each catalog family packages a configuration, a label, an exponent ``eps``
and an argument shift ``u(X)`` such that the associated generating function,
with Y rescaled by u(X) and X evaluated at the residue field size, equals a
known zeta function.  Each family is one row function of ``_FAMILIES``;
the stored closed form is the rescaled function, its denominator W's under
the shift, and it is recomputed from the configuration and compared when
the row is first built in a process.

Families (``d``, ``e``, ``n`` positive integers):

    mat d e            ask zeta function of the full d x e matrix module
    so d               ask zeta function of antisymmetric d x d matrices
    f2d_cc d           class counting for the free class-2-nilpotent group
                       on d generators (odd residue field size)
    threshold n        ask zeta function of the join of an edgeless graph
                       on n vertices with a complete graph on n+1
    threshold_cc n     class counting for the graphical group of the same
                       graph
    Tn n               ask zeta function of the four-block threshold graph
                       on 4n+7 vertices
    Tn_cc n            its class-counting variant
    unitriangular_oc d orbit counting for upper unitriangular (d+1) x (d+1)
                       matrices (gcd(q, d!) = 1; d <= 19)

The module also provides the direct formulas for iterated Hadamard
products of matrix-module, class-counting and orbit-counting families: sums
over colourings of permutation sets, computed in polynomial time by the
series kernel ``ratfun.hadamard`` from the W's of the ``mat`` and
``f2d_cc`` rows, and from binomial blocks for ``hadamard_ud``, whose rows
would enumerate 2^d colourings.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from math import comb, factorial, prod
from typing import Iterable, Sequence

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, SignedMonomial)
from .errors import (MAX_SHUFFLE_WORDS, BadParameters, DeltaMismatch,
                     UnknownFamily, check_at_least)
from .permutations import ColouredInteger, ColouredPermutation
from .ratfun import RationalGF, equal, hadamard, scale_y, w_of

__all__ = [
    "ZetaEntry",
    "build_entry",
    "underline",
    "pi_of",
    "hadamard_mde",
    "hadamard_f2d",
    "hadamard_ud",
    "DirectFormula",
    "hadamard_entries",
    "ZetaHadamardResult",
    "FAMILY_PARAMS",
    "family_params",
    "MAX_UNITRIANGULAR_D",
]


@dataclass(frozen=True)
class ZetaEntry:
    """One catalog row: builder data, the cross-checked closed form and the
    unshifted generating function ``w`` that the check computed."""

    family: str
    params: tuple[tuple[str, int], ...]
    lc: LabelledConfiguration
    eps: int
    shift: SignedMonomial
    closed_form: RationalGF
    conditions: tuple[str, ...]
    w: RationalGF = field(compare=False, repr=False)

    def to_json_obj(self) -> dict:
        return _json_obj(self.closed_form, self.eps, self.shift,
                         self.conditions, family=self.family,
                         params=dict(self.params))


def _json_obj(rgf: RationalGF, eps: int, shift: SignedMonomial,
              conditions: tuple[str, ...], **fields) -> dict:
    """The JSON object of a closed form with its eps, shift, conditions and
    any further ``fields``."""
    return {**rgf.to_json_obj(), **fields, "eps": eps,
            "shift": {"sign": shift.sign, "exponent": shift.exponent},
            "conditions": list(conditions)}


def pi_of(perms: Iterable[Sequence[int] | ColouredPermutation]) -> ColouredConfiguration:
    """All entrywise colourings of uncoloured permutations, each entry s
    receiving colour 0 or s."""
    coloured = []
    for word in perms:
        if isinstance(word, ColouredPermutation):
            if word.palette_star():
                raise ValueError("input permutations must be uncoloured")
        else:
            word = ColouredPermutation((s, 0) for s in word)
        choices = [(e, ColouredInteger(e.symbol, e.symbol)) for e in word]
        coloured.extend(map(ColouredPermutation._raw,
                            itertools.product(*choices)))
    return ColouredConfiguration.from_permutations(coloured)


def underline(n: int) -> ColouredConfiguration:
    """The 2^n colourings of 1..n with entry i coloured 0 or i."""
    return pi_of([range(1, n + 1)])


_CONDITION_GCD = "gcd(q, {}!) = 1"


def _threshold(n: int, shift: int) -> tuple:
    return [-n - 1] * 2, 1, shift, [1 - n, -n], ()


def _tn(n: int, shift: int) -> tuple:
    return [-n - 3] * 2 + [-n - 2] * 2, 1, shift, [-n - 1, -n, -n, 1 - n], ()


# family -> function of its parameters giving the row: the exponents k_c,
# one per colour c of underline(n), which is labelled -X^(k_c); eps; the
# shift exponent s; the exponents a of W's numerator prod(1 - X^a Y); and
# the conditions.  The closed form is W with Y rescaled by X^s, so its
# factors have exponents a + s over s + eps*i for i = 0..n.
_FAMILIES = {
    "mat": lambda d, e: ([-d], d - e, 0, [-e], ()),
    "so": lambda d: ([-d], 1, 0, [1 - d], ("residue characteristic != 2",)),
    "f2d_cc": lambda d: ([-d], 1, comb(d, 2), [1 - d],
                         ("odd residue field size",)),
    "threshold": lambda n: _threshold(n, -1),
    # the edge count of the graph, minus one
    "threshold_cc": lambda n: _threshold(n, 3 * comb(n + 1, 2) - 1),
    "Tn": lambda n: _tn(n, -3),
    # the edge count minus the ask-row shift
    "Tn_cc": lambda n: _tn(n, 5 * (n + 1) * (n + 3)),
    "unitriangular_oc": lambda d: ([-1] * d, 0, 1, [-1] * d,
                                   (_CONDITION_GCD.format(d),)),
}

FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    family: tuple(inspect.signature(row).parameters)
    for family, row in _FAMILIES.items()}


def _closed(num_exps: Sequence[int], den_exps: Sequence[int]) -> RationalGF:
    """prod(1 - X^a Y) over prod(1 - X^b Y) from exponent lists."""
    return RationalGF.from_factors([(1, a) for a in num_exps],
                                   [(1, b) for b in den_exps])


# over 5x the 45 rows a bench stream uses; a parameter sweep stays bounded
_ENTRY_CACHE_SIZE = 256

# unitriangular_oc d builds all 2^d colourings of underline(d)
MAX_UNITRIANGULAR_D = MAX_SHUFFLE_WORDS.bit_length() - 1


def family_params(family: str) -> tuple[str, ...]:
    """The parameter names of ``family``, or ``UnknownFamily``."""
    if family not in FAMILY_PARAMS:
        raise UnknownFamily(f"unknown family {family!r}; "
                            f"known: {', '.join(sorted(FAMILY_PARAMS))}")
    return FAMILY_PARAMS[family]


def build_entry(family: str, **params: int) -> ZetaEntry:
    """Construct a catalog entry, checking the defining identity.

    The identity checked: the generating function of the stored labelled
    configuration, with Y rescaled by the stored shift, equals the stored
    closed form symbolically in X.  Parameters are validated on every call
    (``unitriangular_oc`` d at most ``MAX_UNITRIANGULAR_D``); each row is
    built and checked once per process and then shared, so a cached row
    keeps its configuration alive.
    """
    expected = family_params(family)
    if set(params) != set(expected):
        raise BadParameters(
            f"family {family} takes parameters {expected}, got {tuple(params)}")
    check_at_least(1, **params)
    if family == "unitriangular_oc" and params["d"] > MAX_UNITRIANGULAR_D:
        raise BadParameters(
            f"unitriangular_oc d = {params['d']} builds 2^d colourings, over "
            f"the cap of {MAX_SHUFFLE_WORDS} (d <= {MAX_UNITRIANGULAR_D})")
    return _checked_entry(family, tuple(sorted(params.items())))


@functools.lru_cache(maxsize=_ENTRY_CACHE_SIZE)
def _checked_entry(family: str, key: tuple[tuple[str, int], ...]) -> ZetaEntry:
    """The row of ``build_entry`` for validated parameters ``key``; a row
    whose identity check fails raises, and so is not cached."""
    labels, eps, s, numerator, conditions = _FAMILIES[family](**dict(key))
    lc = LabelledConfiguration(
        underline(len(labels)),
        Label({c: SignedMonomial(-1, k) for c, k in enumerate(labels, 1)}))
    shift = SignedMonomial.x_power(s)
    closed = _closed([a + s for a in numerator],
                     [s + eps * i for i in range(len(labels) + 1)])
    w = w_of(lc, eps)
    if not equal(scale_y(w, shift), closed):
        raise AssertionError(
            f"catalog identity failed for {family} {dict(key)}")
    return ZetaEntry(family, key, lc, eps, shift, closed, conditions, w)


def _merged(entries: Sequence[ZetaEntry]) -> tuple:
    """The product of the entries' shifts, and their conditions, each once
    in order of first appearance."""
    shift = prod((e.shift for e in entries), start=SignedMonomial.one())
    conditions = dict.fromkeys(c for e in entries for c in e.conditions)
    return shift, tuple(conditions)


# -- direct Hadamard-product formulas ---------------------------------------


def hadamard_mde(dims: Sequence[tuple[int, int]]) -> RationalGF:
    """Hadamard product of matrix-module entries with equal differences.

    For blocks (d_1, e_1) ... (d_n, e_n) with a common delta = d_i - e_i,
    the product of the mat entries equals the sum over all colourings of
    the symmetric group words of -X^(-d_i)-weighted descent terms over the
    denominator (1 - Y)(1 - X^delta Y) ... (1 - X^(n*delta) Y).

    Computed by the series kernel from the blocks' ``mat`` rows' W's
    (1 - X^(-e_i) Y) / ((1 - Y)(1 - X^delta Y)), in time polynomial in n.
    """
    if not dims:
        raise BadParameters("need at least one (d, e) block")
    deltas = {d - e for d, e in dims}
    if len(deltas) != 1:
        raise DeltaMismatch(f"differences d-e differ: {sorted(deltas)}")
    check_at_least(1, d=min(d for d, _ in dims), e=min(e for _, e in dims))
    delta = deltas.pop()
    return hadamard([build_entry("mat", d=d, e=e).w for d, e in dims], delta)


@dataclass(frozen=True)
class DirectFormula:
    """A Hadamard product from ``hadamard_f2d`` or ``hadamard_ud``.

    The zeta function of the product, evaluated at ``arg_shift`` * Y,
    equals ``rgf`` where ``conditions`` hold; ``t_size`` is the number of
    underlying uncoloured shuffle words.
    """

    rgf: RationalGF
    arg_shift: SignedMonomial
    t_size: int
    conditions: tuple[str, ...]


def hadamard_f2d(d_list: Sequence[int]) -> DirectFormula:
    """Hadamard product of the class-counting entries for free
    class-2-nilpotent groups on d_1, ..., d_n generators: ``hadamard_mde``'s
    colouring sum with eps = 1, from the W's of the blocks' ``f2d_cc`` rows,
    whose shifts and conditions (odd residue field size) it takes.  The
    argument shift is X^(-sum binom(d_i, 2)), and ``t_size`` is n!, the
    shuffles of n one-letter blocks."""
    if not d_list:
        raise BadParameters("need at least one d")
    check_at_least(1, d=min(d_list))
    rows = [build_entry("f2d_cc", d=d) for d in d_list]
    shift, conditions = _merged(rows)
    return DirectFormula(hadamard([row.w for row in rows], 1), shift ** -1,
                         factorial(len(d_list)), conditions)


def hadamard_ud(d_list: Sequence[int]) -> DirectFormula:
    """Hadamard product of orbit-counting entries for unitriangular groups
    of sizes d_1 + 1, ..., d_n + 1 (d_i = 0 contributes an empty block),
    evaluated at X^(-n) * Y.

    The sum of (-X)^(-#nonzero colours) Y^des over all colourings of the
    shuffle set of the consecutive increasing blocks, over (1 - Y)^(total
    length + 1), computed by the series kernel from the blocks' binomial
    closed forms; ``t_size``, the size of that set, is the multinomial
    coefficient.  The conditions are the largest block's row's: a product
    holds where all its factors do.
    """
    check_at_least(0, d=min(d_list, default=0))
    rgf = hadamard([_closed([-1] * d, [0] * (d + 1)) for d in d_list], 0)
    t_size = prod(map(comb, itertools.accumulate(d_list), d_list))
    conditions = (_CONDITION_GCD.format(max(d_list, default=0)),)
    return DirectFormula(rgf, SignedMonomial.x_power(-len(d_list)), t_size,
                         conditions)


@dataclass(frozen=True)
class ZetaHadamardResult:
    """Hadamard product of catalog entries: the closed form ``rgf`` with Y
    rescaled by ``shift``, the product of the entries' shifts."""

    eps: int
    shift: SignedMonomial
    rgf: RationalGF
    conditions: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return _json_obj(self.rgf, self.eps, self.shift, self.conditions)


def hadamard_entries(entries: Sequence[ZetaEntry]) -> ZetaHadamardResult:
    """Hadamard product of catalog entries sharing the same eps.

    The series kernel's product of the entries' unshifted generating
    functions, with Y rescaled by the product of the entries' shifts, is
    the Hadamard product of the entries' closed forms.
    """
    if not entries:
        raise BadParameters("need at least one entry")
    eps_values = {entry.eps for entry in entries}
    if len(eps_values) != 1:
        raise BadParameters(
            f"entries must share the exponent eps; got {sorted(eps_values)}")
    eps = eps_values.pop()
    shift, conditions = _merged(entries)
    rgf = hadamard([entry.w for entry in entries], eps)
    return ZetaHadamardResult(eps, shift, scale_y(rgf, shift), conditions)
