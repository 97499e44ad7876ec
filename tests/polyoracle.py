"""Polynomials in several variables, as an oracle for the tests.

The library computes with Laurent polynomials in X alone
(``mpoly.LaurentPoly``).  The tests check it against routes in more
variables: schoolbook products in an extra series variable t, the embedding
of statistic classes into Q[p, x][[t]] with Hadamard multiplication
(``HImage``, ``h_map``, ``h_tilde_map``, ``h_of``; Gessel and Zhuang,
Adv. Math. 2018, arXiv:1706.00750), and the monomial expansion of the
fundamental quasisymmetric functions (``expand_F``).

``MPoly`` keys its coefficients by monomials.  A variable is a hashable
tuple, e.g. ``("x",)``, ``("p", 2)`` or ``("x", 3, 1)``, and a monomial is a
sorted tuple of (variable, exponent) pairs; the empty tuple is the constant
monomial.  ``MPoly`` inherits from ``LaurentPoly`` what does not multiply
keys (addition, negation, equality, hashing) and multiplies keys through
``monomial_mul``.  ``mpoly.divide_by_factors`` and
``mpoly.multiply_by_factors`` call only ``add_mul``, so they take it as it
is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from colshuffle import (ColourOutOfRange, ColouredPermutation, LaurentPoly,
                        RationalGF, SeriesY, StatTriple, stat_triple)
from colshuffle.mpoly import divide_by_factors
from colshuffle.permutations import s_des_raw
from colshuffle.qsym import _expansion

Monomial = tuple[tuple[tuple, int], ...]


def monomial(*pairs) -> Monomial:
    """Build a monomial from (variable, exponent) pairs."""
    acc: dict[tuple, int] = {}
    for var, exp in pairs:
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return monomial(*a, *b) if a and b else a or b


class MPoly(LaurentPoly):
    """Immutable sparse polynomial: dict monomial -> nonzero coefficient."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def term(cls, key, c=1):
        return cls({key: c})

    @classmethod
    def variable(cls, var: tuple, exp: int = 1) -> "MPoly":
        return cls.term(monomial((var, exp)))

    def __mul__(self, other):
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = monomial_mul(k1, k2)
                out[k] = out.get(k, 0) + c1 * c2
        return MPoly(out)

    def mul_monomial(self, key, c=1):
        """The product with the single term ``c`` times the monomial ``key``."""
        return MPoly({monomial_mul(k, key): v * c
                      for k, v in self.coeffs.items()})

    def add_mul(self, other, key, c):
        """self + c * m * other for the monomial m of ``key``."""
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            k = monomial_mul(k, key)
            out[k] = out.get(k, 0) + v * c
        return MPoly(out)

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


X_VAR = ("x",)
Z_VAR = ("z",)


def p_var(colour: int) -> tuple:
    return ("p", colour)


def qvar(index: int, colour: int) -> tuple:
    """The variable x_index^(colour)."""
    return ("x", index, colour)


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
        coeffs = [MPoly.zero()] * (order + 1)
        if self.t_power <= order:
            coeffs[self.t_power] = self.numerator
        return divide_by_factors(
            coeffs, [(1, monomial((X_VAR, i))) for i in self.denom_powers])

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


# -- the fundamental quasisymmetric functions ------------------------------

def expand_F(a: ColouredPermutation, m: int, r: int | None = None) -> MPoly:
    """Monomial expansion of the fundamental function of ``a`` truncated to
    variable indices <= m, in the variables ``qvar``, decoded from the
    variable ids of ``qsym._expansion``; a given colour bound ``r`` must
    exceed every colour of ``a``."""
    if r is not None and any(c >= r for _, c in a.entries):
        raise ColourOutOfRange(f"colour >= {r} present")
    if m < 1:
        raise ValueError("cutoff m must be >= 1")
    monos = Counter(tuple(sorted([(qvar(k % m + 1, k // m), key.count(k))
                                  for k in set(key)]))
                    for key in _expansion(s_des_raw(a.entries), m))
    return MPoly(monos)


# -- series in Y ------------------------------------------------------------

def geometric() -> RationalGF:
    """1 / (1 - Y), the Hadamard identity."""
    return RationalGF({0: LaurentPoly.one()}, [(1, 0)])


def scale_y_series(series: SeriesY, coeff, exponent: int) -> SeriesY:
    """Substitute Y <- (coeff*X^exponent) * Y in a truncated series."""
    return SeriesY([c.mul_monomial(exponent * k, coeff ** k)
                    for k, c in enumerate(series.coefficients)])
