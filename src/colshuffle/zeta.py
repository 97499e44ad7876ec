"""Catalog of zeta functions encoded as labelled coloured configurations.

Each catalog family packages a configuration, a label, an exponent ``eps``
and an argument shift ``u(X)`` such that the associated generating function,
with Y rescaled by u(X) and X evaluated at the residue field size, equals a
known zeta function.  The stored closed form is that rescaled function; it
is recomputed from the configuration and compared when the row is first
built in a process.

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
series kernel ``ratfun.hadamard`` from the one-block closed forms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb, prod
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
    "F2dFormula",
    "UdFormula",
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
        obj = self.closed_form.to_json_obj()
        obj.update({
            "family": self.family,
            "params": dict(self.params),
            "eps": self.eps,
            "shift": {"sign": self.shift.sign, "exponent": self.shift.exponent},
            "conditions": list(self.conditions),
        })
        return obj


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
        choices = [(e, ColouredInteger(e.symbol, e.symbol))
                   for e in word.entries]
        coloured.extend(map(ColouredPermutation._raw,
                            itertools.product(*choices)))
    return ColouredConfiguration.from_permutations(coloured)


def underline(n: int) -> ColouredConfiguration:
    """The 2^n colourings of 1..n with entry i coloured 0 or i."""
    return pi_of([range(1, n + 1)])


_CONDITION_SO = "residue characteristic != 2"
_CONDITION_ODD = "odd residue field size"

FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "mat": ("d", "e"),
    "so": ("d",),
    "f2d_cc": ("d",),
    "threshold": ("n",),
    "threshold_cc": ("n",),
    "Tn": ("n",),
    "Tn_cc": ("n",),
    "unitriangular_oc": ("d",),
}


def _one(a: int) -> tuple[int, int]:
    return (1, a)


def _closed(num_exps: Sequence[int], den_exps: Sequence[int]) -> RationalGF:
    """prod(1 - X^a Y) over prod(1 - X^b Y) from exponent lists."""
    return RationalGF.from_factors([_one(a) for a in num_exps],
                                   [_one(b) for b in den_exps])


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
    params = dict(key)
    d = params.get("d")
    e = params.get("e")
    n = params.get("n")

    if family == "mat":
        lc = LabelledConfiguration(underline(1),
                                   Label({1: SignedMonomial(-1, -d)}))
        eps = d - e
        shift = SignedMonomial.one()
        closed = _closed([-e], [0, d - e])
        conditions: tuple[str, ...] = ()
    elif family == "so":
        lc = LabelledConfiguration(underline(1),
                                   Label({1: SignedMonomial(-1, -d)}))
        eps = 1
        shift = SignedMonomial.one()
        closed = _closed([1 - d], [0, 1])
        conditions = (_CONDITION_SO,)
    elif family == "f2d_cc":
        lc = LabelledConfiguration(underline(1),
                                   Label({1: SignedMonomial(-1, -d)}))
        eps = 1
        k = comb(d, 2)
        shift = SignedMonomial.x_power(k)
        closed = _closed([comb(d - 1, 2)], [k, k + 1])
        conditions = (_CONDITION_ODD,)
    elif family in ("threshold", "threshold_cc"):
        lc = LabelledConfiguration(
            underline(2),
            Label({c: SignedMonomial(-1, -n - 1) for c in (1, 2)}))
        eps = 1
        if family == "threshold":
            shift = SignedMonomial.x_power(-1)
            closed = _closed([-n, -n - 1], [-1, 0, 1])
        else:
            k = 3 * comb(n + 1, 2)  # edge count of the graph
            shift = SignedMonomial.x_power(k - 1)
            closed = _closed([k - n, k - n - 1], [k - 1, k, k + 1])
        conditions = ()
    elif family in ("Tn", "Tn_cc"):
        lc = LabelledConfiguration(
            underline(4),
            Label({1: SignedMonomial(-1, -n - 3),
                   2: SignedMonomial(-1, -n - 3),
                   3: SignedMonomial(-1, -n - 2),
                   4: SignedMonomial(-1, -n - 2)}))
        eps = 1
        if family == "Tn":
            shift = SignedMonomial.x_power(-3)
            closed = _closed([-n - 4, -n - 3, -n - 3, -n - 2],
                             [-3, -2, -1, 0, 1])
        else:
            k = 5 * (n + 1) * (n + 3)  # edge count minus the ask-row shift
            shift = SignedMonomial.x_power(k)
            closed = _closed([k - n - 1, k - n, k - n, k + 1 - n],
                             [k + i for i in range(5)])
        conditions = ()
    else:  # unitriangular_oc
        lc = LabelledConfiguration(
            underline(d),
            Label({c: SignedMonomial(-1, -1) for c in range(1, d + 1)}))
        eps = 0
        shift = SignedMonomial.x_power(1)
        closed = _closed([0] * d, [1] * (d + 1))
        conditions = (f"gcd(q, {d}!) = 1",)

    w = w_of(lc, eps)
    if not equal(scale_y(w, shift), closed):
        raise AssertionError(
            f"catalog identity failed for {family} {params}")
    return ZetaEntry(family, key, lc, eps, shift, closed, conditions, w)


# -- direct Hadamard-product formulas ---------------------------------------


def hadamard_mde(dims: Sequence[tuple[int, int]]) -> RationalGF:
    """Hadamard product of matrix-module entries with equal differences.

    For blocks (d_1, e_1) ... (d_n, e_n) with a common delta = d_i - e_i,
    the product of the mat entries equals the sum over all colourings of
    the symmetric group words of -X^(-d_i)-weighted descent terms over the
    denominator (1 - Y)(1 - X^delta Y) ... (1 - X^(n*delta) Y).

    Computed by the series kernel from the blocks' closed forms
    (1 - X^(-e_i) Y) / ((1 - Y)(1 - X^delta Y)), in time polynomial in n.
    """
    if not dims:
        raise BadParameters("need at least one (d, e) block")
    deltas = {d - e for d, e in dims}
    if len(deltas) != 1:
        raise DeltaMismatch(f"differences d-e differ: {sorted(deltas)}")
    check_at_least(1, d=min(d for d, _ in dims), e=min(e for _, e in dims))
    delta = deltas.pop()
    return hadamard([_closed([-e], [0, delta]) for _, e in dims], delta)


@dataclass(frozen=True)
class F2dFormula:
    """Class-counting Hadamard product, valid for odd residue field size.

    The zeta function of the direct product, evaluated at
    X^(-sum binom(d_i, 2)) * Y, equals ``rgf``; ``arg_shift`` records that
    argument scaling.
    """

    rgf: RationalGF
    arg_shift: SignedMonomial
    conditions: tuple[str, ...]


def hadamard_f2d(d_list: Sequence[int]) -> F2dFormula:
    """Hadamard product of the class-counting entries for free
    class-2-nilpotent groups on d_1, ..., d_n generators: ``hadamard_mde``'s
    colouring sum with eps = 1, from the blocks' ``so`` closed forms."""
    if not d_list:
        raise BadParameters("need at least one d")
    check_at_least(1, d=min(d_list))
    rgf = hadamard([_closed([1 - d], [0, 1]) for d in d_list], 1)
    shift = SignedMonomial.x_power(-sum(comb(d, 2) for d in d_list))
    return F2dFormula(rgf, shift, (_CONDITION_ODD,))


@dataclass(frozen=True)
class UdFormula:
    """Orbit-counting Hadamard product for unitriangular groups.

    ``rgf`` is the product evaluated at X^(-n) * Y; ``t_size`` is the
    number of underlying uncoloured shuffle words.
    """

    rgf: RationalGF
    arg_shift: SignedMonomial
    t_size: int
    conditions: tuple[str, ...]


def hadamard_ud(d_list: Sequence[int]) -> UdFormula:
    """Hadamard product of orbit-counting entries for unitriangular groups
    of sizes d_1 + 1, ..., d_n + 1 (d_i = 0 contributes an empty block).

    The sum of (-X)^(-#nonzero colours) Y^des over all colourings of the
    shuffle set of the consecutive increasing blocks, over (1 - Y)^(total
    length + 1), computed by the series kernel from the blocks' closed
    forms; ``t_size``, the size of that set, is the multinomial coefficient.
    """
    check_at_least(0, d=min(d_list, default=0))
    rgf = hadamard([_closed([-1] * d, [0] * (d + 1)) for d in d_list], 0)
    t_size = prod(map(comb, itertools.accumulate(d_list), d_list))
    m = max(d_list, default=0)
    conditions = (f"gcd(q, {max(m - 1, 0)}!) = 1",)
    return UdFormula(rgf, SignedMonomial.x_power(-len(d_list)), t_size,
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
        obj = self.rgf.to_json_obj()
        obj.update({
            "eps": self.eps,
            "shift": {"sign": self.shift.sign, "exponent": self.shift.exponent},
            "conditions": list(self.conditions),
        })
        return obj


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
    shift = SignedMonomial.one()
    conditions: list[str] = []
    for entry in entries:
        shift = shift * entry.shift
        for c in entry.conditions:
            if c not in conditions:
                conditions.append(c)
    rgf = hadamard([entry.w for entry in entries], eps)
    return ZetaHadamardResult(eps, shift, scale_y(rgf, shift),
                              tuple(conditions))
