"""Exact rational generating functions in X and Y.

The backbone types are Laurent polynomials in X over the rationals (the
``mpoly`` coefficient core keyed by exponent), rational functions whose
denominators are kept factored as products of terms ``1 - c*X^a*Y``, and
truncated power series in Y with Laurent-polynomial coefficients.
Everything is exact: integral coefficients are plain ints, a ``Fraction``
appears only where a non-integral rational does, and no float is used.
``Fraction`` is built only from input that comes from outside the program:
JSON, and the X-values given to ``substitute`` and ``eval_at``.

``w_of`` attaches to a labelled coloured configuration and an integer
exponent ``eps`` the rational series summing, over the support, the terms

    multiplicity * label(a) * X^(eps*comaj(a)) * Y^(des(a))
    ------------------------------------------------------
    (1 - Y)(1 - X^eps Y) ... (1 - X^(eps*|a|) Y)

brought over the common denominator of the longest support element.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .configurations import (Label, LabelledConfiguration, SignedMonomial,
                             evaluate_label)
from .errors import BadParameters, OrderMismatch, ZeroSubstitution
from .mpoly import Coeff, MPoly, divide_by_factors
from .permutations import ColouredPermutation, stat_triple_raw

__all__ = [
    "LaurentPoly",
    "RationalGF",
    "SeriesY",
    "DEFAULT_ORDER",
    "expand",
    "w_of",
    "equal",
    "scale_y",
    "substitute",
]

DEFAULT_ORDER = 12

# A denominator factor (c, a) stands for 1 - c*X^a*Y.
Factor = tuple[Coeff, int]


class LaurentPoly(MPoly):
    """Sparse Laurent polynomial in X: dict exponent -> nonzero coefficient.

    The arithmetic is ``MPoly``'s, with integer exponents as keys.
    """

    __slots__ = ()

    ONE = 0
    key_mul = staticmethod(add)

    @classmethod
    def monomial(cls, coeff, exponent: int = 0) -> "LaurentPoly":
        return cls({exponent: coeff})

    def eval_at(self, q) -> Coeff:
        q = Fraction(q)
        if q == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroSubstitution("negative power of X at X = 0")
        return sum(c * q ** e for e, c in self.coeffs.items())

    def __repr__(self):
        return self.to_text()

    def to_text(self, var: str = "X", latex: bool = False) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                coeff_part = ("" if abs(c) == 1
                              else str(abs(c)) + ("" if latex else "*"))
                exp_part = (var if e == 1 else
                            f"{var}^{{{e}}}" if latex else f"{var}^{e}")
                body = coeff_part + exp_part
            parts.append(("-" if c < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# -- Y-polynomials with LaurentPoly coefficients (numerators) --------------

YPoly = dict  # ydegree -> LaurentPoly


def _ypoly_normal(p: YPoly) -> YPoly:
    return {k: v for k, v in p.items() if not v.is_zero()}


def _ypoly_add(a: YPoly, b: YPoly) -> YPoly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, LaurentPoly.zero()) + v
    return _ypoly_normal(out)


def _ypoly_mul(a: YPoly, b: YPoly) -> YPoly:
    out: YPoly = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, LaurentPoly.zero()) + v1 * v2
    return _ypoly_normal(out)


def _ypoly_from_factors(factors: Iterable[Factor]) -> YPoly:
    """Expand a product of factors 1 - c*X^a*Y into a Y-polynomial."""
    out: YPoly = {0: LaurentPoly.one()}
    for c, a in factors:
        out = _ypoly_mul(out, {0: LaurentPoly.one(),
                               1: LaurentPoly.monomial(-c, a)})
    return out


class SeriesY:
    """Truncated power series in Y with LaurentPoly coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[LaurentPoly]):
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesY is immutable")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> LaurentPoly:
        return self.coefficients[k]

    def __len__(self):
        return len(self.coefficients)

    def __eq__(self, other):
        return (isinstance(other, SeriesY)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(self.coefficients)

    def hadamard(self, other: "SeriesY") -> "SeriesY":
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} != {other.order}")
        return SeriesY([a * b for a, b in
                        zip(self.coefficients, other.coefficients)])

    def cauchy_mul(self, poly: YPoly) -> "SeriesY":
        """Multiply by a Y-polynomial, truncating to the same order."""
        n = self.order
        out = [LaurentPoly.zero() for _ in range(n + 1)]
        for k, lp in poly.items():
            for j, c in enumerate(self.coefficients):
                if j + k > n:
                    break
                out[j + k] = out[j + k] + c * lp
        return SeriesY(out)

    def scale_y_monomial(self, coeff: Coeff, exponent: int) -> "SeriesY":
        """Substitute Y <- (coeff*X^exponent) * Y."""
        return SeriesY([c.mul_monomial(exponent * k, coeff ** k)
                        for k, c in enumerate(self.coefficients)])

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coefficients)
        return f"SeriesY([{inner}])"


class RationalGF:
    """A rational function N(X, Y) / prod (1 - c*X^a*Y).

    The numerator is a Y-polynomial with Laurent coefficients in X; the
    denominator is kept as a multiset of factors.  Structural equality
    compares representations; ``equal`` compares cross-multiplied values.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Mapping[int, LaurentPoly],
                 denominator: Iterable[Factor] = ()):
        num = {int(k): v for k, v in numerator.items() if not v.is_zero()}
        den = tuple(sorted((c, int(a)) for c, a in denominator))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalGF is immutable")

    @classmethod
    def zero(cls) -> "RationalGF":
        return cls({})

    @classmethod
    def from_factors(cls, num_factors: Iterable[Factor],
                     den_factors: Iterable[Factor]) -> "RationalGF":
        """Build prod(1 - c*X^a*Y) / prod(1 - c'*X^a'*Y)."""
        return cls(_ypoly_from_factors(num_factors), den_factors)

    @classmethod
    def geometric(cls) -> "RationalGF":
        """1 / (1 - Y), the Hadamard identity."""
        return cls({0: LaurentPoly.one()}, [(1, 0)])

    def is_zero(self) -> bool:
        return not self.numerator

    def __eq__(self, other):
        return (isinstance(other, RationalGF)
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((tuple(sorted((k, hash(v)) for k, v in self.numerator.items())),
                     self.denominator))

    # -- presentation --------------------------------------------------

    def _den_grouped(self) -> list[tuple[Factor, int]]:
        groups: list[tuple[Factor, int]] = []
        for f in self.denominator:
            if groups and groups[-1][0] == f:
                groups[-1] = (f, groups[-1][1] + 1)
            else:
                groups.append((f, 1))
        return groups

    @staticmethod
    def _factor_text(c: Coeff, a: int, latex: bool) -> str:
        # the factor is 1 - c*X^a*Y; render via the Y-coefficient -c*X^a
        mono = LaurentPoly.monomial(-c, a)
        body = mono.to_text(latex=latex)
        if body.startswith("-"):
            op, mag = "-", body[1:]
        else:
            op, mag = "+", body
        if mag == "1":
            term = "Y"
        else:
            term = f"{mag}Y" if latex else f"{mag}*Y"
        return f"(1 {op} {term})"

    def numerator_text(self, latex: bool = False) -> str:
        if not self.numerator:
            return "0"
        parts = []
        for k in sorted(self.numerator):
            lp = self.numerator[k]
            body = lp.to_text(latex=latex)
            if k == 0:
                parts.append(body)
                continue
            ypart = "Y" if k == 1 else (f"Y^{{{k}}}" if latex else f"Y^{k}")
            if body == "1":
                parts.append(ypart)
            elif body == "-1":
                parts.append(f"-{ypart}")
            elif " " in body:
                sep = "" if latex else "*"
                parts.append(f"({body}){sep}{ypart}")
            else:
                sep = "" if latex else "*"
                parts.append(f"{body}{sep}{ypart}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def denominator_text(self, latex: bool = False) -> str:
        if not self.denominator:
            return "1"
        out = []
        for (c, a), mult in self._den_grouped():
            base = self._factor_text(c, a, latex)
            if mult > 1:
                base += f"^{{{mult}}}" if latex else f"^{mult}"
            out.append(base)
        return "".join(out)

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        return f"({self.numerator_text()}) / ({self.denominator_text()})"

    def to_latex(self) -> str:
        if self.is_zero():
            return "0"
        return (r"\frac{" + self.numerator_text(latex=True) + "}{"
                + self.denominator_text(latex=True) + "}")

    def __repr__(self):
        return f"RationalGF({self.to_text()})"

    def to_json_obj(self) -> dict:
        return {
            "numerator": [
                {"y": k,
                 "coefficient": [{"x": e, "value": str(c)}
                                 for e, c in sorted(lp.coeffs.items())]}
                for k, lp in sorted(self.numerator.items())],
            "denominator": [{"coeff": str(c), "x": a}
                            for c, a in self.denominator],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "RationalGF":
        numerator = {
            int(t["y"]): LaurentPoly({int(e["x"]): Fraction(e["value"])
                                      for e in t["coefficient"]})
            for t in obj["numerator"]}
        denominator = [(Fraction(f["coeff"]), int(f["x"]))
                       for f in obj["denominator"]]
        return cls(numerator, denominator)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "RationalGF":
        return cls.from_json_obj(json.loads(text))


def expand(r: RationalGF, order: int = DEFAULT_ORDER) -> SeriesY:
    """Exact Y-power-series expansion of ``r`` through Y^order.

    Multiplying the result back by the denominator reproduces the numerator
    through the truncation order.
    """
    if order < 0:
        raise BadParameters(f"series order must be >= 0, got {order}")
    coeffs = [r.numerator.get(k, LaurentPoly.zero()) for k in range(order + 1)]
    factors = [(a, c) for c, a in r.denominator]
    return SeriesY(divide_by_factors(coeffs, factors))


def equal(a: RationalGF, b: RationalGF) -> bool:
    """Semantic equality: numer(a)*denom(b) == numer(b)*denom(a)."""
    if a.denominator == b.denominator:
        return a.numerator == b.numerator
    left = _ypoly_mul(a.numerator, _ypoly_from_factors(b.denominator))
    right = _ypoly_mul(b.numerator, _ypoly_from_factors(a.denominator))
    return left == right


def scale_y(r: RationalGF, sm: SignedMonomial) -> RationalGF:
    """Substitute Y <- sm * Y (sm a signed power of X), exactly."""
    sm = SignedMonomial(*sm)
    numerator = {}
    for k, lp in r.numerator.items():
        # k may be negative (from JSON); sm ** k keeps the sign an int
        power = sm ** k
        numerator[k] = lp.mul_monomial(power.exponent, power.sign)
    denominator = [(c * sm.sign, a + sm.exponent) for c, a in r.denominator]
    return RationalGF(numerator, denominator)


def substitute(r: RationalGF, x_value, y_scale: SignedMonomial | None = None) -> RationalGF:
    """Evaluate X at a nonzero rational, optionally rescaling Y by a signed
    power of X first (the power is evaluated at the same point)."""
    q = Fraction(x_value)
    if q == 0:
        raise ZeroSubstitution("X = 0 is outside the domain")
    if y_scale is not None:
        r = scale_y(r, y_scale)
    numerator = {k: LaurentPoly.monomial(lp.eval_at(q), 0)
                 for k, lp in r.numerator.items()}
    denominator = [(c * q ** a, 0) for c, a in r.denominator]
    return RationalGF(numerator, denominator)


def w_of_terms(terms: Iterable[tuple[ColouredPermutation, int]],
               label: Label, eps: int) -> RationalGF:
    """W of the configuration whose (permutation, multiplicity) pairs
    ``terms`` yields, under ``label``; ``terms`` may be a generator.

    Coefficients are summed as integers per (length, des, X-exponent), and
    each length's rows are multiplied once by the cofactor that brings them
    over the common denominator.  No terms give 0.
    """
    rows: dict[int, dict[int, dict[int, int]]] = {}
    for perm, mult in terms:
        des, comaj, _ = stat_triple_raw(perm.entries)
        value = evaluate_label(label, perm)
        by_exp = rows.setdefault(len(perm), {}).setdefault(des, {})
        e = value.exponent + eps * comaj
        by_exp[e] = by_exp.get(e, 0) + mult * value.sign
    if not rows:
        return RationalGF.zero()
    max_len = max(rows)
    numerator: YPoly = {}
    for length, by_des in rows.items():
        term: YPoly = {des: LaurentPoly(by_exp)
                       for des, by_exp in by_des.items()}
        cofactor = [(1, eps * i) for i in range(length + 1, max_len + 1)]
        if cofactor:
            term = _ypoly_mul(term, _ypoly_from_factors(cofactor))
        numerator = _ypoly_add(numerator, term)
    denominator = [(1, eps * i) for i in range(max_len + 1)]
    return RationalGF(numerator, denominator)


def w_of(lc: LabelledConfiguration, eps: int) -> RationalGF:
    """The rational generating function of a labelled configuration.

    The zero configuration gives 0; the configuration consisting of the
    empty permutation alone gives 1/(1-Y).
    """
    return w_of_terms(lc.config.terms, lc.label, eps)
