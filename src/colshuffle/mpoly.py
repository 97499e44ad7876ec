"""Sparse multivariate polynomials with exact rational coefficients.

Variables are identified by hashable tuple keys, e.g. ``("x",)``, ``("p", 2)``
or ``("x", 3, 1)``.  A monomial is a sorted tuple of (variable, exponent)
pairs with positive exponents; the empty tuple is the constant monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

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
    """Immutable sparse polynomial: dict monomial -> nonzero Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Fraction] | None = None):
        cleaned = {}
        for mono, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                cleaned[mono] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def one(cls) -> "MPoly":
        return cls({ONE_MONOMIAL: Fraction(1)})

    @classmethod
    def constant(cls, c) -> "MPoly":
        return cls({ONE_MONOMIAL: Fraction(c)})

    @classmethod
    def term(cls, mono: Monomial, c=1) -> "MPoly":
        return cls({mono: Fraction(c)})

    @classmethod
    def variable(cls, var: tuple, exp: int = 1) -> "MPoly":
        return cls.term(monomial((var, exp)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            v = out.get(mono, 0) + c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        return MPoly(out)

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                mono = monomial_mul(m1, m2)
                v = out.get(mono, 0) + c1 * c2
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
        return MPoly(out)

    def mul_monomial(self, mono: Monomial, c=1) -> "MPoly":
        c = Fraction(c)
        if not c:
            return MPoly()
        return MPoly({monomial_mul(m, mono): c * v
                      for m, v in self.coeffs.items()})

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
