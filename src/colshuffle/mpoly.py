"""Sparse polynomials with exact rational coefficients: the one coefficient
core of the library.

An ``MPoly`` is a dict from key to nonzero coefficient, and its class
attribute ``key_mul`` says how keys multiply.  Here a key is a monomial:
variables are identified by hashable tuple keys, e.g. ``("x",)``,
``("p", 2)`` or ``("x", 3, 1)``, and a monomial is a sorted tuple of
(variable, exponent) pairs with positive exponents; the empty tuple is the
constant monomial.  ``ratfun.LaurentPoly`` reuses the same arithmetic with
integer exponents of X as keys.

Coefficients are stored as they come: integral ones are plain ``int`` and a
``Fraction`` appears only where arithmetic makes a non-integral rational.
Since ``int`` and ``Fraction`` compare and hash alike, the representation
never shows in equality, hashing or printing.  No float is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]

Monomial = tuple[tuple[tuple, int], ...]

ONE_MONOMIAL: Monomial = ()


def monomial(*pairs) -> Monomial:
    """Build a monomial from (variable, exponent) pairs."""
    acc: dict[tuple, int] = {}
    for var, exp in pairs:
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in acc.items() if e))


class MPoly:
    """Immutable sparse polynomial: dict key -> nonzero coefficient."""

    __slots__ = ("coeffs",)

    # the key of the constant term, and the product of two keys
    ONE: Hashable = ONE_MONOMIAL
    key_mul = staticmethod(monomial_mul)

    def __init__(self, coeffs: Mapping[Hashable, Coeff] | None = None):
        object.__setattr__(self, "coeffs",
                           {k: c for k, c in (coeffs or {}).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls.ONE: 1})

    @classmethod
    def constant(cls, c):
        return cls({cls.ONE: c})

    @classmethod
    def term(cls, key, c=1):
        return cls({key: c})

    @classmethod
    def variable(cls, var: tuple, exp: int = 1) -> "MPoly":
        return cls.term(monomial((var, exp)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        key_mul = self.key_mul
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = key_mul(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return type(self)(out)

    def mul_monomial(self, key, c=1):
        """The product with the single term ``c`` times the monomial ``key``."""
        if not c:
            return type(self)()
        key_mul = self.key_mul
        return type(self)({key_mul(k, key): v * c
                           for k, v in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"

        def fmt(mono, c):
            vars_part = "*".join(
                f"{'_'.join(str(x) for x in var)}^{e}" if e != 1
                else "_".join(str(x) for x in var)
                for var, e in mono)
            if not vars_part:
                return str(c)
            if c == 1:
                return vars_part
            if c == -1:
                return "-" + vars_part
            return f"{c}*{vars_part}"

        return " + ".join(fmt(m, c) for m, c in sorted(self.coeffs.items()))


def divide_by_factors(coeffs: Sequence[MPoly],
                      factors: Iterable[tuple[Hashable, Coeff]]) -> list[MPoly]:
    """Divide the truncated series coeffs[0] + coeffs[1]*t + ... by each
    factor 1 - c*m*t, given as (key of m, c), through the same order.

    Division by one factor is the recurrence b_k = a_k + c*m*b_{k-1}.
    """
    coeffs = list(coeffs)
    for key, c in factors:
        prev = coeffs[0]
        for k in range(1, len(coeffs)):
            prev = coeffs[k] + prev.mul_monomial(key, c)
            coeffs[k] = prev
    return coeffs
