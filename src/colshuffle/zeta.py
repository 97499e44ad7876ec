"""Catalog of zeta functions encoded as labelled coloured configurations.

Each catalog family packages a configuration, a label, an exponent ``eps``
and an argument shift ``u(X)`` such that the associated generating function,
with Y rescaled by u(X) and X evaluated at the residue field size, equals a
known zeta function.  The stored closed form is that rescaled function; it
is recomputed from the configuration and compared at construction time.

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
                       matrices (gcd(q, d!) = 1)

The module also provides the direct combinatorial formulas for iterated
Hadamard products of matrix-module, class-counting and orbit-counting
families, each as an explicit sum over colourings of permutation sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, SignedMonomial)
from .errors import BadParameters, DeltaMismatch, UnknownFamily
from .permutations import (EMPTY, ColouredInteger, ColouredPermutation,
                           shuffles)
from .ratfun import RationalGF, equal, scale_y, w_of, w_of_terms
from .shuffle_algebra import hadamard_iterated

__all__ = [
    "ZetaEntry",
    "build_entry",
    "underline",
    "underline_block",
    "pi_of",
    "colourings",
    "hadamard_mde",
    "hadamard_f2d",
    "hadamard_ud",
    "F2dFormula",
    "UdFormula",
    "hadamard_entries",
    "ZetaHadamardResult",
    "FAMILY_PARAMS",
    "MAX_PI_SYMBOLS",
]

# exhaustive enumeration bound for sums over all colourings of S_n
MAX_PI_SYMBOLS = 7


@dataclass(frozen=True)
class ZetaEntry:
    """One catalog row: builder data plus the cross-checked closed form."""

    family: str
    params: tuple[tuple[str, int], ...]
    lc: LabelledConfiguration
    eps: int
    shift: SignedMonomial
    closed_form: RationalGF
    conditions: tuple[str, ...]

    def w_raw(self) -> RationalGF:
        """The unshifted generating function of the configuration."""
        return w_of(self.lc, self.eps)

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


def colourings(words: Iterable[Sequence[int] | ColouredPermutation]
               ) -> Iterator[ColouredPermutation]:
    """Each entrywise colouring of uncoloured words, entry s coloured 0 or s,
    yielded one at a time; each word is validated once."""
    make = ColouredPermutation._raw
    for word in words:
        if isinstance(word, ColouredPermutation):
            if word.palette_star():
                raise ValueError("input permutations must be uncoloured")
        else:
            word = ColouredPermutation((s, 0) for s in word)
        choices = [(e, ColouredInteger(e.symbol, e.symbol))
                   for e in word.entries]
        for entries in itertools.product(*choices):
            yield make(entries)


def pi_of(perms: Iterable[Sequence[int] | ColouredPermutation]) -> ColouredConfiguration:
    """All entrywise colourings of uncoloured permutations, each entry s
    receiving colour 0 or s."""
    return ColouredConfiguration.from_permutations(colourings(perms))


def underline_block(lo: int, hi: int) -> ColouredConfiguration:
    """All colourings of the increasing word lo..hi where entry i carries
    colour 0 or i.  An empty range gives the empty permutation."""
    return pi_of([range(lo, hi + 1)])


def underline(n: int) -> ColouredConfiguration:
    """The 2^n colourings of 1..n with entry i coloured 0 or i."""
    return underline_block(1, n)


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


def build_entry(family: str, **params: int) -> ZetaEntry:
    """Construct a catalog entry, checking the defining identity.

    The identity checked: the generating function of the stored labelled
    configuration, with Y rescaled by the stored shift, equals the stored
    closed form symbolically in X.
    """
    if family not in FAMILY_PARAMS:
        raise UnknownFamily(f"unknown family {family!r}; "
                            f"known: {', '.join(sorted(FAMILY_PARAMS))}")
    expected = FAMILY_PARAMS[family]
    if set(params) != set(expected):
        raise BadParameters(
            f"family {family} takes parameters {expected}, got {tuple(params)}")
    if any(v < 1 for v in params.values()):
        raise BadParameters("parameters must be positive integers")

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

    entry = ZetaEntry(family, tuple(sorted(params.items())), lc, eps, shift,
                      closed, conditions)
    if not equal(scale_y(w_of(lc, eps), shift), closed):
        raise AssertionError(
            f"catalog identity failed for {family} {dict(params)}")
    return entry


# -- direct Hadamard-product formulas ---------------------------------------


def _colouring_sum(words: Iterable[Sequence[int] | ColouredPermutation],
                   exponents: Iterable[int], delta: int) -> RationalGF:
    """W of all colourings of ``words`` with eps = delta, where colour s is
    labelled -X^(exponents[s-1]); streamed, never stored."""
    label = Label({s: SignedMonomial(-1, k)
                   for s, k in enumerate(exponents, start=1)})
    return w_of_terms(zip(colourings(words), itertools.repeat(1)), label,
                      delta)


def _check_pi_bound(n: int) -> None:
    if n > MAX_PI_SYMBOLS:
        raise BadParameters(
            f"exhaustive colouring sums are limited to {MAX_PI_SYMBOLS} "
            f"symbols (2^n * n! terms); got n = {n}")


def hadamard_mde(dims: Sequence[tuple[int, int]]) -> RationalGF:
    """Hadamard product of matrix-module entries with equal differences.

    For blocks (d_1, e_1) ... (d_n, e_n) with a common delta = d_i - e_i,
    the product of the mat entries equals the sum over all colourings of
    the symmetric group words of -X^(-d_i)-weighted descent terms over the
    denominator (1 - Y)(1 - X^delta Y) ... (1 - X^(n*delta) Y).

    Computed directly from that sum, independent of the shuffle route.
    """
    if not dims:
        raise BadParameters("need at least one (d, e) block")
    deltas = {d - e for d, e in dims}
    if len(deltas) != 1:
        raise DeltaMismatch(f"differences d-e differ: {sorted(deltas)}")
    if any(d < 1 or e < 1 for d, e in dims):
        raise BadParameters("dimensions must be positive")
    delta = deltas.pop()
    n = len(dims)
    _check_pi_bound(n)
    return _colouring_sum(itertools.permutations(range(1, n + 1)),
                          [-d for d, _ in dims], delta)


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
    class-2-nilpotent groups on d_1, ..., d_n generators."""
    if not d_list:
        raise BadParameters("need at least one d")
    if any(d < 1 for d in d_list):
        raise BadParameters("generator counts must be positive")
    n = len(d_list)
    _check_pi_bound(n)
    rgf = _colouring_sum(itertools.permutations(range(1, n + 1)),
                         [-d for d in d_list], 1)
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

    Builds the shuffle set of the consecutive increasing blocks, colours it
    in all ways, and sums (-X)^(-#nonzero colours) Y^des over the result;
    the denominator is (1 - Y)^(total length + 1).
    """
    if any(d < 0 for d in d_list):
        raise BadParameters("block sizes must be nonnegative")
    bounds = list(itertools.accumulate(d_list, initial=0))
    total = bounds[-1]
    _check_pi_bound(total)
    words = [EMPTY]
    for lo, hi in zip(bounds, bounds[1:]):
        block = ColouredPermutation((s, 0) for s in range(lo + 1, hi + 1))
        words = [sh for w in words for sh in shuffles(w, block)]
    rgf = _colouring_sum(words, [-1] * total, 0)
    m = max(d_list, default=0)
    conditions = (f"gcd(q, {max(m - 1, 0)}!) = 1",)
    return UdFormula(rgf, SignedMonomial.x_power(-len(d_list)), len(words),
                     conditions)


@dataclass(frozen=True)
class ZetaHadamardResult:
    """Hadamard product of catalog entries via the shuffle route."""

    lc: LabelledConfiguration
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

    The shuffled configuration's generating function, with Y rescaled by
    the product of the entries' shifts, is the Hadamard product of the
    entries' closed forms.
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
    lc, rgf = hadamard_iterated([entry.lc for entry in entries], eps)
    return ZetaHadamardResult(lc, eps, shift, scale_y(rgf, shift),
                              tuple(conditions))
