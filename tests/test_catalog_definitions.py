"""The catalog's closed forms against counts straight from the definitions.

The ask zeta function of a module M of d x e matrices over Z_p is
sum_k ask(M tensor Z/p^k) Y^k, where ask is the average size of the kernel
of the matrices of the module acting on row vectors.  These checks count
that average by brute force over every matrix and every row vector of
Z/p^k, and compare it with the Y^k coefficient of the closed form at X = p.
The class-counting zeta function of a group scheme G is sum_k k(G(Z/p^k))
Y^k, k the number of conjugacy classes, counted here as commuting pairs
over the group order.  No route of the library is shared: the counts see
neither configurations nor series.
"""

import itertools
import json
from fractions import Fraction

import pytest

from colshuffle import RationalGF, build_entry, expand
from colshuffle.cli import main


def average_kernel_size(matrices, rows: int, q: int) -> Fraction:
    """The average over ``matrices`` (lists of ``rows`` rows over Z/q) of the
    number of row vectors x in (Z/q)^rows with x A = 0."""
    vectors = list(itertools.product(range(q), repeat=rows))
    total = count = 0
    for a in matrices:
        columns = list(zip(*a))
        total += sum(all(sum(x * c for x, c in zip(v, col)) % q == 0
                         for col in columns) for v in vectors)
        count += 1
    return Fraction(total, count)


def full_matrices(d: int, e: int, q: int):
    """Every d x e matrix over Z/q."""
    for entries in itertools.product(range(q), repeat=d * e):
        yield [entries[i * e:(i + 1) * e] for i in range(d)]


def block_diagonal(blocks, q: int):
    """Every block-diagonal matrix over Z/q with blocks of the given
    (rows, columns) shapes, each block a full matrix."""
    d, e = sum(r for r, _ in blocks), sum(c for _, c in blocks)
    for parts in itertools.product(*(list(full_matrices(r, c, q))
                                     for r, c in blocks)):
        a = [[0] * e for _ in range(d)]
        row = col = 0
        for part in parts:
            for i, line in enumerate(part):
                a[row + i][col:col + len(line)] = line
            row, col = row + len(part), col + len(part[0])
        yield a


def coefficient_at(rgf: RationalGF, k: int, p: int) -> Fraction:
    """The Y^k coefficient of ``rgf`` at X = p."""
    return Fraction(expand(rgf, k)[k].eval_at(p))


@pytest.mark.parametrize("d,e", itertools.product((1, 2), repeat=2))
@pytest.mark.parametrize("p", (2, 3))
def test_mat_closed_form_is_the_average_kernel_size(d, e, p):
    entry = build_entry("mat", d=d, e=e)
    assert entry.conditions == () and entry.shift.exponent == 0
    for k in (1, 2):
        q = p ** k
        assert (coefficient_at(entry.closed_form, k, p)
                == average_kernel_size(full_matrices(d, e, q), d, q))


def test_direct_sum_is_the_block_diagonal_module(capsys):
    """``zeta hadamard mat:2,1 mat:2,1`` through the CLI's JSON, against the
    module of block-diagonal 4 x 2 matrices with two 2 x 1 blocks."""
    assert main(["zeta", "hadamard", "mat:2,1", "mat:2,1",
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["shift"] == {"sign": 1, "exponent": 0}
    rgf = RationalGF.from_json_obj(result)
    p = 2
    counted = [average_kernel_size(block_diagonal([(2, 1), (2, 1)], p ** k),
                                   4, p ** k) for k in (1, 2)]
    assert counted == [Fraction(25, 4), Fraction(121, 4)]
    assert [coefficient_at(rgf, k, p) for k in (1, 2)] == counted


def heisenberg_class_number(q: int) -> Fraction:
    """The conjugacy classes of the 3 x 3 unitriangular matrices over Z/q:
    the commuting pairs over the group order.  A matrix is stored as its
    entries (m01, m12, m02) above the diagonal."""
    group = list(itertools.product(range(q), repeat=3))

    def product(x, y):
        return ((x[0] + y[0]) % q, (x[1] + y[1]) % q,
                (x[2] + x[0] * y[1] + y[2]) % q)

    commuting = sum(product(x, y) == product(y, x)
                    for x in group for y in group)
    return Fraction(commuting, len(group))


def test_f2d_cc_2_counts_the_classes_of_the_heisenberg_group():
    """F_{2,2} is the Heisenberg group; its class numbers over Z/3 and Z/9
    are the Y^1 and Y^2 coefficients of the closed form at X = 3, where
    the shifted W expands to 1, 11, 105, 963."""
    entry = build_entry("f2d_cc", d=2)
    p = 3
    assert entry.conditions == ("odd residue field size",) and p % 2
    for k, count in ((1, 11), (2, 105)):
        assert heisenberg_class_number(p ** k) == count
        assert coefficient_at(entry.closed_form, k, p) == count


def antisymmetric_matrices(d: int, q: int):
    """Every antisymmetric d x d matrix over Z/q (zero diagonal)."""
    pairs = list(itertools.combinations(range(d), 2))
    for entries in itertools.product(range(q), repeat=len(pairs)):
        a = [[0] * d for _ in range(d)]
        for (i, j), x in zip(pairs, entries):
            a[i][j], a[j][i] = x, -x % q
        yield a


@pytest.mark.parametrize("d", (1, 2, 3))
def test_so_closed_form_is_the_average_kernel_size(d):
    """The ask zeta function of so_d at p = 3; at k = 1, so_2 gives
    p + 1 - 1/p."""
    entry = build_entry("so", d=d)
    assert entry.conditions == ("residue characteristic != 2",)
    p = 3
    counts = [average_kernel_size(antisymmetric_matrices(d, p ** k), d, p ** k)
              for k in (1, 2)]
    assert counts == {1: [3, 9], 2: [Fraction(11, 3), Fraction(35, 3)],
                      3: [Fraction(35, 9), Fraction(113, 9)]}[d]
    assert [coefficient_at(entry.closed_form, k, p) for k in (1, 2)] == counts
