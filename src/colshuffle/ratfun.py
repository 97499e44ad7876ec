"""Exact rational generating functions in X and Y.

The backbone types are Laurent polynomials in X over the rationals
(``mpoly.LaurentPoly``), rational functions whose denominators are kept
factored as products of terms ``1 - c*X^a*Y``, and truncated power series
in Y with Laurent-polynomial coefficients.
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
``hadamard`` is the one closed form of Hadamard products of W's, computed
end to end on Kronecker-packed ints by ``mpoly.hadamard_numerator``.  Every
other product by denominator factors, in ``w_of``, ``equal`` and
``RationalGF.from_factors``, runs one factor at a time through
``mpoly.multiply_by_factors``, the inverse of the division in ``expand``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .configurations import (LabelledConfiguration, SignedMonomial, _json_int,
                             evaluate_label)
from .errors import (MAX_SHUFFLE_WORDS, BadParameters, OrderMismatch,
                     ParseError, ZeroSubstitution, check_at_least, check_cap)
from .mpoly import (Coeff, LaurentPoly, divide_by_factors,
                    hadamard_numerator, multiply_by_factors)
from .permutations import stat_triple_raw

__all__ = [
    "LaurentPoly",
    "RationalGF",
    "SeriesY",
    "DEFAULT_ORDER",
    "expand",
    "w_of",
    "hadamard",
    "equal",
    "scale_y",
    "substitute",
]

DEFAULT_ORDER = 12

# A denominator factor (c, a) stands for 1 - c*X^a*Y.
Factor = tuple[Coeff, int]


def _times_factors(p: Mapping[int, LaurentPoly],
                   factors: Iterable[Factor]) -> dict[int, LaurentPoly]:
    """p * prod(1 - c*X^a*Y), exactly; Y-degrees of p may be negative."""
    factors = list(factors)
    low = min(p, default=0)
    coeffs = [p.get(k + low, LaurentPoly.zero())
              for k in range(max(p, default=0) - low + len(factors) + 1)]
    return {k + low: v for k, v in
            enumerate(multiply_by_factors(coeffs, factors)) if v}


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
        return cls(_times_factors({0: LaurentPoly.one()}, num_factors),
                   den_factors)

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
        try:
            numerator = {
                _json_int(t["y"]): LaurentPoly({
                    _json_int(e["x"]): Fraction(e["value"])
                    for e in t["coefficient"]})
                for t in obj["numerator"]}
            denominator = [(Fraction(f["coeff"]), _json_int(f["x"]))
                           for f in obj["denominator"]]
        except ValueError as exc:
            raise ParseError(f"bad JSON generating function: {exc}") from exc
        return cls(numerator, denominator)


def _check_power_series(r: RationalGF) -> None:
    """Raise ``BadParameters`` if the numerator has a negative Y-degree."""
    if r.numerator and min(r.numerator) < 0:
        raise BadParameters(f"cannot expand the negative Y-degree "
                            f"{min(r.numerator)} as a power series")


def _series_terms(r: RationalGF, order: int) -> int:
    """A bound on the X-terms of ``expand(r, order)``: with T the
    numerator's terms, S its X-exponent span and D (D0) the spread of the
    denominator's X-exponents (with 0), the Y^k coefficient has at most
    T*(k*D + 1) terms and at most S + k*D0 + 1; the smaller sum over k.
    Each of the order + 1 coefficients counts at least once, zero or not."""
    exps = [a for lp in r.numerator.values() for a in lp.coeffs]
    if not exps:
        return order + 1
    dens = [a for _, a in r.denominator]
    spread = max(dens, default=0) - min(dens, default=0)
    spread0 = max([0, *dens]) - min([0, *dens])
    slots, sum_k = order + 1, order * (order + 1) // 2
    return min(len(exps) * (spread * sum_k + slots),
               (max(exps) - min(exps) + 1) * slots + spread0 * sum_k)


def expand(r: RationalGF, order: int = DEFAULT_ORDER) -> SeriesY:
    """Exact Y-power-series expansion of ``r`` through Y^order.

    Multiplying the result back by the denominator reproduces the numerator
    through the truncation order.  A negative Y-degree in the numerator, or
    an order at which ``_series_terms`` is over ``MAX_SHUFFLE_WORDS``,
    raises ``BadParameters`` before the series is allocated.
    """
    check_at_least(0, order=order)
    check_cap(_series_terms(r, order), f"the series through Y^{order} may "
              "have {} terms", MAX_SHUFFLE_WORDS)
    _check_power_series(r)
    coeffs = [r.numerator.get(k, LaurentPoly.zero()) for k in range(order + 1)]
    return SeriesY(divide_by_factors(coeffs, r.denominator))


def equal(a: RationalGF, b: RationalGF) -> bool:
    """Semantic equality: numer(a)*denom(b) == numer(b)*denom(a)."""
    if a.denominator == b.denominator:
        return a.numerator == b.numerator
    return (_times_factors(a.numerator, b.denominator)
            == _times_factors(b.numerator, a.denominator))


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


def _w_denominator(eps: int, n: int) -> list[Factor]:
    """The factors of (1 - Y)(1 - X^eps Y) ... (1 - X^(n*eps) Y)."""
    return [(1, eps * i) for i in range(n + 1)]


def w_of(lc: LabelledConfiguration, eps: int) -> RationalGF:
    """The rational generating function of a labelled configuration.

    Coefficients are summed as integers per (length, des, X-exponent), and
    the rows of each length are brought over the common denominator by the
    factors of the longer lengths, in one Horner pass over the factors from
    the shortest length on.  Each factor multiplies only the rows up to its
    length, so one word of n letters costs n row steps.
    The zero configuration gives 0; the configuration consisting of the
    empty permutation alone gives 1/(1-Y).
    """
    rows: dict[int, dict[int, dict[int, int]]] = {}
    for perm, mult in lc.config.terms:
        des, comaj, _ = stat_triple_raw(perm.entries)
        value = evaluate_label(lc.label, perm)
        by_exp = rows.setdefault(len(perm), {}).setdefault(des, {})
        e = value.exponent + eps * comaj
        by_exp[e] = by_exp.get(e, 0) + mult * value.sign
    if not rows:
        return RationalGF.zero()
    denominator = _w_denominator(eps, max(rows))
    numerator = [LaurentPoly.zero()] * len(denominator)
    for length in range(min(rows), len(denominator)):
        # the rows so far have Y-degree < length: one factor reaches length
        numerator[:length + 1] = multiply_by_factors(
            numerator[:length + 1], [denominator[length]])
        for des, by_exp in rows.get(length, {}).items():
            numerator[des] = numerator[des] + LaurentPoly(by_exp)
    return RationalGF(dict(enumerate(numerator)), denominator)


def _w_length(r: RationalGF, eps: int) -> int | None:
    """n if ``r`` has the W denominator of length n, None if ``r`` is 0."""
    if r.is_zero() and not r.denominator:
        return None
    n = len(r.denominator) - 1
    if n < 0 or r.denominator != tuple(sorted(_w_denominator(eps, n))):
        raise ValueError(f"denominator {r.denominator_text()} is not "
                         f"a W denominator for eps = {eps}")
    return n


def hadamard(rgfs: Sequence[RationalGF], eps: int) -> RationalGF:
    """The closed form of the Hadamard product (in Y) of W's for ``eps``.

    By the shuffle theorem, W's of max lengths n_1, ..., n_k multiply to the
    W denominator of N = n_1 + ... + n_k over a numerator of Y-degree <= N:
    the product series through Y^N times that denominator, truncated at
    Y^N, which ``mpoly.hadamard_numerator`` computes on packed ints from
    each distinct operand once.  No operands give 1/(1-Y), a zero operand
    0, and a non-W denominator ``ValueError``.
    """
    counts = Counter(rgfs)  # each operand is hashed once
    lengths = [_w_length(r, eps) for r in counts]
    if None in lengths:
        return RationalGF.zero()
    for r in counts:
        _check_power_series(r)
    numerator = hadamard_numerator(
        [({k: lp.coeffs for k, lp in r.numerator.items()}, n, mult)
         for (r, mult), n in zip(counts.items(), lengths)], eps)
    return RationalGF({k: LaurentPoly._trusted(row)
                       for k, row in enumerate(numerator) if row},
                      _w_denominator(eps, len(numerator) - 1))
