"""Sparse Laurent polynomials in X with exact rational coefficients: the
one coefficient core of the library.

A ``LaurentPoly`` is a dict from integer exponent of X to nonzero
coefficient.  A list of them is a series in Y; ``multiply_by_factors`` and
its inverse ``divide_by_factors`` apply factors 1 - c*X^a*Y one at a time,
each step one dict pass (``add_mul``).  Results that cannot hold a zero skip
the constructor's filter.  The one packed series recurrence,
``packed_series``, evaluates a series at X = 2^(8*width) (Kronecker
substitution; Harvey, J. Symb. Comput. 2009): each row is packed once and
every factor step is a shift and an add.  The Hadamard kernel
(``hadamard_numerator``) multiplies its rows and unpacks the result once;
the series oracle (``verify.series_oracle``) compares them as ints.

Coefficients are stored as they come: integral ones are plain ``int`` and a
``Fraction`` appears only where arithmetic makes a non-integral rational.
Since ``int`` and ``Fraction`` compare and hash alike, the representation
never shows in equality, hashing or printing.  No float is used anywhere.

This is also the one printer of signed terms: ``term_text`` writes c*X^e and
``join_signed`` joins signed parts as ``a - b + c``.  ``LaurentPoly.to_text``,
``SignedMonomial`` and the text and LaTeX of ``RationalGF`` all call them.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import MAX_SHUFFLE_WORDS, ZeroSubstitution, check_cap

Coeff = Union[int, Fraction]

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
    return width if width > 8 else 1 << (width - 1).bit_length()


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


def integral_rows(rows: Sequence[Mapping]) -> tuple[list[dict], int]:
    """``rows`` times the lcm of their coefficients' denominators, as
    {exponent: int} dicts, and that lcm (1 for int rows)."""
    lcd = lcm(*(c.denominator for row in rows for c in row.values()))
    return [{e: c.numerator * (lcd // c.denominator) for e, c in row.items()}
            for row in rows], lcd


def packed_series(rows: Sequence[dict], factors: Sequence[tuple[int, int]],
                  width: int, lo: int, step: int) -> list[int]:
    """The series rows[0] + rows[1]*Y + ... over prod(1 - c*X^a*Y), int c,
    through Y^(len(rows) - 1) at X = 2^(8*width), its Y^k coefficient over
    X^(lo + k*step) for lo at most every exponent of the int ``rows`` (each
    below half the digit range) and step at most min(0, a): each row is
    packed once, and b_k += c*X^a*b_(k-1) is a left shift and an add."""
    packed = [_packed(row, lo + k * step, max(row) - lo - k * step + 1,
                      width) if row else 0 for k, row in enumerate(rows)]
    for c, a in factors:
        shift = 8 * width * (a - step)
        for k in range(1, len(packed)):
            term = packed[k - 1] << shift
            packed[k] += term if c == 1 else c * term
    return packed


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
    X^(n*eps) Y)) taken ``mult`` times, ``num`` mapping Y-degrees 0 to n to
    {X-exponent: int or Fraction} dicts.  With N the sum of mult*n, the
    product series through Y^N times (1 - Y) ... (1 - X^(N*eps) Y) is
    returned as N + 1 dicts, one per Y-degree.

    Each operand is scaled to ints (``integral_rows``) and expanded through
    Y^N on packed ints (``packed_series``) once.  Only the result's
    coefficients must fit in a digit, and the shuffle theorem bounds them:
    the product is bilinear, X-powers factor out of it, and c*X^e*Y^d over
    the W denominator of n, d <= n, is a monomial
    times the W of a coloured word of length n with d descents.  So it is a
    signed sum over N!/prod(n!^mult) shuffles, each adding one monomial,
    and no scaled coefficient, of the result or of an operand, exceeds
    N!/prod(n!^mult) * prod(|num|_1^mult).  The result is unpacked once and
    divided by the product of the scales.  ``BadParameters`` is raised,
    before any factorial, when a packed int could span more than
    ``MAX_SHUFFLE_WORDS`` digits (a large exponent spread or ``eps``), and
    after it when it could take more than that many bytes.
    """
    order = sum(n * mult for _, n, mult in operands)
    # the widest packed int has at most this many digits: each operand's
    # exponent spread, plus at most |eps|*N per factor step, N steps in
    # the expansion and N in the multiplication back
    scaled, scale, digits = [], 1, 2 * order * order * abs(eps) + 1
    for num, n, mult in operands:
        rows, lcd = integral_rows([num.get(k, {}) for k in range(order + 1)])
        exps = [e for row in rows for e in row]
        if not exps:
            return [{} for _ in range(order + 1)]
        digits += mult * (max(exps) - min(exps))
        norm = sum(abs(c) for row in rows for c in row.values())
        scaled.append((rows, n, mult, min(exps), norm))
        scale *= lcd ** mult
    check_cap(digits, "the Hadamard product spans up to {} X-exponents",
              MAX_SHUFFLE_WORDS)
    bound = factorial(order)  # over the n!^mult below: the shuffle count
    for _, n, mult, _, norm in scaled:
        bound = bound // factorial(n) ** mult * norm ** mult
    width = _width(bound)
    check_cap(digits * width, "the Hadamard product packs up to {} bytes",
              MAX_SHUFFLE_WORDS)
    # the product's Y^k digit 0 stands for X^(base + k*low)
    series, base, low = [], 0, 0
    for rows, n, mult, lo, _ in scaled:
        step = min(0, eps * n)
        factors = [(1, eps * i) for i in range(n + 1)]
        series.append((packed_series(rows, factors, width, lo, step), mult))
        base += mult * lo
        low += mult * step
    # coefficientwise: a power per repeated operand, a tree across distinct
    product = [_balanced_product([pow(packed[k], mult)
                                  for packed, mult in series])
               for k in range(order + 1)]
    for i in range(order + 1):  # times the N + 1 factors, from Y^N down
        shift = 8 * width * (eps * i - low)
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

    def __reduce__(self):
        return type(self), (self.coeffs,)

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
        out: dict = {}
        get = out.get
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
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
        return join_signed([term_text(c, e, latex) for e, c
                            in sorted(self.coeffs.items(), reverse=True)])


def term_text(c: Coeff, e: int, latex: bool = False, base: str = "X") -> str:
    """c*X^e as ``-3*X^2``: no unit coefficient, and ``X^{e}`` in LaTeX,
    where no ``*`` is written; ``c`` alone at e = 0 or c = 0.  Any other
    ``base`` takes the place of X."""
    if e == 0 or not c:
        return str(c)
    power = base if e == 1 else f"{base}^{{{e}}}" if latex else f"{base}^{e}"
    if c == 1:
        return power
    if c == -1:
        return "-" + power
    return f"{c}{'' if latex else '*'}{power}"


def join_signed(parts: Sequence[str]) -> str:
    """Signed parts joined as ``a - b + c``, a leading ``-`` after the first
    part turned into the operator; ``0`` for no parts."""
    if not parts:
        return "0"
    return parts[0] + "".join([f" - {part[1:]}" if part[0] == "-"
                               else f" + {part}" for part in parts[1:]])


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
