"""Sparse Laurent polynomials in X with exact rational coefficients: the
one coefficient core of the library.

A ``LaurentPoly`` is a dict from integer exponent of X to nonzero
coefficient.  A list of them is a series in Y; ``multiply_by_factors`` and
its inverse ``divide_by_factors`` apply factors 1 - c*X^a*Y one at a time,
each step one dict pass (``add_mul``).  Results that cannot hold a zero skip
the constructor's filter.  Products with ``int`` coefficients that are large
and dense enough are packed into one bignum product (Kronecker substitution,
see ``PACK_MIN_TERMS``).  The Hadamard product of W series runs on packed
ints from end to end (``hadamard_numerator``): each operand is packed once,
every factor step is a shift and an add, and the result is unpacked once, at
a digit width bounded from the operands' l1 norms.

Coefficients are stored as they come: integral ones are plain ``int`` and a
``Fraction`` appears only where arithmetic makes a non-integral rational.
Since ``int`` and ``Fraction`` compare and hash alike, the representation
never shows in equality, hashing or printing.  No float is used anywhere.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import MAX_SHUFFLE_WORDS, ZeroSubstitution, check_cap

Coeff = Union[int, Fraction]

# Kronecker substitution (Schoenhage 1982; Harvey, J. Symb. Comput. 2009): a
# Laurent polynomial with int coefficients is evaluated at X = 2^(8*width),
# each digit offset by half its range, so that one bignum product and one
# unpacking of bytes give every coefficient of a product.  The thresholds
# were measured with Python 3.11 on a 2-core x86-64 Xeon, on the Laurent
# products of 250 operations of the file_hadamard and zeta_products bench
# workloads (coefficients below 2^12): at 6 terms per operand the packed and
# the dict product tie, at 7 the packed one takes 0.74-0.85 of the time and
# at 9 to 16 about half.  Over exponent spans of 1, 2 and 4 times the term
# count it still wins from 16 terms up (random coefficients of up to 50); at
# 8 times it loses below 64 terms.  A sparser operand, such as X^0 +
# X^(10^6), keeps the dict product and never becomes a huge int.
PACK_MIN_TERMS = 7
PACK_MAX_SPAN = 4
# array codes of unsigned 1-, 2-, 4- and 8-byte digits; other widths, and
# every width on a big-endian machine, go through int.to_bytes
_DIGIT_CODES = ({1: "B", 2: "H", 4: "I", 8: "Q"}
                if sys.byteorder == "little" else {})


def _offset(span: int, width: int) -> int:
    """The packed int whose ``span`` digits all hold half the digit range."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * span, "little")


def _packed(p: dict, lo: int, span: int, width: int) -> int:
    """p(X) / X^lo at X = 2^(8*width), through digits offset by half."""
    half = 1 << (8 * width - 1)
    digits = [half] * span
    for e, c in p.items():
        digits[e - lo] += c
    code = _DIGIT_CODES.get(width)
    raw = (array(code, digits).tobytes() if code else
           b"".join(d.to_bytes(width, "little") for d in digits))
    return int.from_bytes(raw, "little") - _offset(span, width)


def _width(bound: int) -> int:
    """Bytes per digit for coefficients of absolute value at most ``bound``,
    with room for a sign bit; 1, 2, 4 or 8 where an array code applies."""
    width = bound.bit_length() // 8 + 1
    if width <= 8:
        width = 1 if width == 1 else 2 if width == 2 else 4 if width <= 4 else 8
    return width


def _unpacked(value: int, lo: int, width: int) -> dict:
    """The {exponent: int} dict of a packed int whose digit 0 stands for
    X^lo, each coefficient below half the digit range in absolute value."""
    span = abs(value).bit_length() // (8 * width) + 1
    raw = (value + _offset(span, width)).to_bytes(span * width, "little")
    code = _DIGIT_CODES.get(width)
    digits = (array(code, raw) if code else
              [int.from_bytes(raw[i:i + width], "little")
               for i in range(0, len(raw), width)])
    half = 1 << (8 * width - 1)
    return {lo + i: d - half for i, d in enumerate(digits) if d != half}


def _packed_product(a: dict, b: dict) -> dict | None:
    """The product of {exponent: int} dicts by Kronecker substitution, or
    None if a coefficient is not an int or an operand is too sparse."""
    lo_a, lo_b = min(a), min(b)
    span_a, span_b = max(a) - lo_a + 1, max(b) - lo_b + 1
    if (span_a > PACK_MAX_SPAN * len(a) or span_b > PACK_MAX_SPAN * len(b)
            or {*map(type, a.values()), *map(type, b.values())} != {int}):
        return None
    # no coefficient of the product exceeds this bound in absolute value
    width = _width(max(map(abs, a.values())) * max(map(abs, b.values()))
                   * min(len(a), len(b)))
    return _unpacked(_packed(a, lo_a, span_a, width)
                     * _packed(b, lo_b, span_b, width), lo_a + lo_b, width)


def _balanced_product(values: list[int]) -> int:
    """The product of ``values`` by a balanced tree of multiplications, so
    that big factors meet at similar sizes; 1 for no values."""
    while len(values) > 1:
        pairs = [a * b for a, b in zip(values[::2], values[1::2])]
        values = pairs + values[-1:] if len(values) % 2 else pairs
    return values[0] if values else 1


def hadamard_numerator(operands: Sequence[tuple[Mapping[int, dict], int, int]],
                       eps: int) -> list[dict]:
    """The numerator of a Hadamard product (in Y) of W series.

    An operand (num, n, mult) is num / ((1 - Y)(1 - X^eps Y) ... (1 -
    X^(n*eps) Y)) taken ``mult`` times, ``num`` mapping Y-degrees >= 0 to
    {X-exponent: int or Fraction} dicts.  With N the sum of mult*n, the
    product series through Y^N times (1 - Y) ... (1 - X^(N*eps) Y) is
    returned as N + 1 dicts, one per Y-degree.

    Each operand is scaled to ints by the lcm of its denominators and its
    Y^k coefficients are packed once, digit 0 at X^(lo + k*min(0, eps*n))
    for its least exponent lo, so that every factor step is a left shift.
    All steps are exact integer arithmetic: only the result's coefficients
    must fit in a digit, and the width bounds them by running the same
    recurrences on l1 norms.  The result is unpacked once and divided by
    the product of the scales.  ``BadParameters`` is raised when a packed
    int could span more than ``MAX_SHUFFLE_WORDS`` digits, as a large
    exponent spread or ``eps`` would make it, checked before the l1 norms;
    and when it could take more than ``MAX_SHUFFLE_WORDS`` bytes, digits
    times the width, as many blocks with wide coefficients would make it.
    """
    order = sum(n * mult for _, n, mult in operands)
    # the widest packed int has at most this many digits: each operand's
    # exponent spread, plus at most |eps|*N per factor step, N steps in
    # the expansion and N in the multiplication back
    scaled, scale, digits = [], 1, 2 * order * order * abs(eps) + 1
    for num, n, mult in operands:
        rows = [num.get(k, {}) for k in range(order + 1)]
        if not any(rows):
            return [{} for _ in range(order + 1)]
        lo = min(min(row) for row in rows if row)
        digits += mult * (max(max(row) for row in rows if row) - lo)
        # int and Fraction alike have a numerator and a denominator
        lcd = lcm(*(c.denominator for row in rows for c in row.values()))
        scaled.append(([{e: c.numerator * (lcd // c.denominator)
                         for e, c in row.items()} for row in rows],
                       n, mult, lo))
        scale *= lcd ** mult
    check_cap(digits, "the Hadamard product spans up to {} X-exponents",
              MAX_SHUFFLE_WORDS)
    # l1 norms through the same recurrences bound every result coefficient
    bound = 0
    products = [1] * (order + 1)
    for rows, n, mult, _ in scaled:
        norms = [sum(map(abs, row.values())) for row in rows]
        bound = max(bound, *norms)
        for _ in range(n + 1):
            norms = list(accumulate(norms))
        products = [p * q ** mult for p, q in zip(products, norms)]
    for _ in range(order + 1):
        products = [products[0], *map(add, products[1:], products)]
    width = _width(max(bound, *products))
    check_cap(digits * width, "the Hadamard product packs up to {} bytes",
              MAX_SHUFFLE_WORDS)
    bits = 8 * width
    # pack and expand each operand; the product's Y^k digit 0 stands for
    # X^(base + k*low)
    series, base, low = [], 0, 0
    for rows, n, mult, lo in scaled:
        step = min(0, eps * n)
        packed = [_packed(row, lo + k * step, max(row) - lo - k * step + 1,
                          width) if row else 0
                  for k, row in enumerate(rows)]
        for i in range(n + 1):
            shift = bits * (eps * i - step)
            for k in range(1, order + 1):
                packed[k] += packed[k - 1] << shift
        series.append((packed, mult))
        base += mult * lo
        low += mult * step
    # coefficientwise: a power per repeated operand, a tree across distinct
    product = [_balanced_product([pow(packed[k], mult)
                                  for packed, mult in series])
               for k in range(order + 1)]
    for i in range(order + 1):  # times the N + 1 factors, from Y^N down
        shift = bits * (eps * i - low)
        for k in range(order, 0, -1):
            product[k] -= product[k - 1] << shift
    out = []
    for k, value in enumerate(product):
        row = _unpacked(value, base + k * low, width) if value else {}
        if scale > 1:
            row = {e: c // scale if c % scale == 0 else Fraction(c, scale)
                   for e, c in row.items()}
        out.append(row)
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial in X: dict exponent -> nonzero
    coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None):
        object.__setattr__(self, "coeffs",
                           {k: c for k, c in (coeffs or {}).items() if c})

    @classmethod
    def _trusted(cls, coeffs: dict):
        """Store ``coeffs`` as is: a fresh dict that holds no zero."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff, exponent: int = 0) -> "LaurentPoly":
        return cls({exponent: coeff})

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
        get = out.get
        cancelled = False
        for k, c in other.coeffs.items():
            c += get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
                cancelled = True
        # a dict keeps the slots of deleted keys until it is copied
        return self._trusted(dict(out) if cancelled else out)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if min(len(a), len(b)) >= PACK_MIN_TERMS:
            packed = _packed_product(a, b)
            if packed is not None:
                return self._trusted(packed)
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return self._trusted({k: c for k, c in out.items() if c})

    def mul_monomial(self, exponent: int, c=1):
        """The product with the single term c*X^exponent."""
        if not c:
            return type(self)()
        return self._trusted({k + exponent: v * c
                              for k, v in self.coeffs.items()})

    def add_mul(self, other, exponent: int, c):
        """self + c * X^exponent * other, in one pass."""
        if not c:
            return self
        out = dict(self.coeffs)
        get = out.get
        cancelled = False
        for k, v in other.coeffs.items():
            k += exponent
            v = get(k, 0) + v * c
            if v:
                out[k] = v
            else:
                del out[k]
                cancelled = True
        return self._trusted(dict(out) if cancelled else out)

    def eval_at(self, q) -> Coeff:
        q = Fraction(q)
        if q == 0 and any(e < 0 for e in self.coeffs):
            raise ZeroSubstitution("negative power of X at X = 0")
        return sum(c * q ** e for e, c in self.coeffs.items())

    def __repr__(self):
        return self.to_text()

    def to_text(self, latex: bool = False) -> str:
        """Terms by falling power of X, as ``X^2 - 3*X + 1`` (or in LaTeX
        with ``latex``); ``0`` for the zero polynomial."""
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
                exp_part = ("X" if e == 1 else
                            f"X^{{{e}}}" if latex else f"X^{e}")
                body = coeff_part + exp_part
            parts.append(("-" if c < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# bench/tracer.py hooks mpoly.MPoly.__mul__ and __add__ by this name; the
# alias goes once the tracer hooks LaurentPoly
MPoly = LaurentPoly


def multiply_by_factors(coeffs: Sequence[LaurentPoly],
                        factors: Iterable[tuple[Coeff, int]]
                        ) -> list[LaurentPoly]:
    """The inverse of ``divide_by_factors``: b_k = a_k - c*X^a*a_{k-1} per
    factor, from the top down so that a_{k-1} is read before it changes."""
    coeffs = list(coeffs)
    for c, a in factors:
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] = coeffs[k].add_mul(coeffs[k - 1], a, -c)
    return coeffs


def divide_by_factors(coeffs: Sequence[LaurentPoly],
                      factors: Iterable[tuple[Coeff, int]]
                      ) -> list[LaurentPoly]:
    """Divide the truncated series coeffs[0] + coeffs[1]*Y + ... by each
    factor 1 - c*X^a*Y, given as (c, a), through the same order.

    Division by one factor is the recurrence b_k = a_k + c*X^a*b_{k-1}.
    Both loops call only ``add_mul``, so they take any polynomial class
    that has it.
    """
    coeffs = list(coeffs)
    for c, a in factors:
        prev = coeffs[0]
        for k in range(1, len(coeffs)):
            prev = coeffs[k].add_mul(prev, a, c)
            coeffs[k] = prev
    return coeffs
