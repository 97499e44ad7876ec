"""Scaling of the series kernel: time and size of the direct formulas at k
blocks.

The first table prints one row per block count k in 10, 12, 20, 30, ... up
to --max-blocks: the wall time of ``hadamard_mde([(2, 1)] * k)``, which is
the Hadamard product of k copies of the ``mat 2 1`` closed form, and the
number of terms of its numerator.  The second table does the same for k
distinct blocks, where no operand repeats: ``hadamard_mde`` of
(2, 1), (3, 2), ..., (k + 1, k) and ``hadamard_f2d`` of 1, 2, ..., k.  For
k <= 12 each result is also checked against the series oracle, the
coefficientwise product of the blocks' expansions to order 2k + 1, which
determines the closed form.

A third table times one Laurent product of two dense polynomials of n
terms each, for n = 4, 8, ..., 1024, through the dict product and through
the packed product, by setting ``mpoly.PACK_MIN_TERMS`` (from which
``MPoly.__mul__`` packs) above n and to 1.  The two products must be equal.
The script exits 1 on any mismatch.  Stdlib only; run from a checkout:

    python3 scripts/kernel_scaling.py --max-blocks 40
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from colshuffle import (LaurentPoly, build_entry, expand,  # noqa: E402
                        hadamard_f2d, hadamard_mde, mpoly)

ORACLE_MAX_BLOCKS = 12
PRODUCT_TERMS = [2**i for i in range(2, 11)]


def block_counts(max_blocks: int) -> list[int]:
    return [k for k in (10, 12, *range(20, max_blocks + 1, 10))
            if k <= max_blocks]


def oracle_agrees(result, blocks) -> bool:
    """``result`` against the coefficientwise product of the expansions of
    the blocks' closed forms, to order 2k + 1 for k blocks."""
    order = 2 * len(blocks) + 1
    product = expand(blocks[0].closed_form, order)
    for block in blocks[1:]:
        product = product.hadamard(expand(block.closed_form, order))
    return expand(result, order) == product


def timed(formula, *args):
    """The result of ``formula(*args)`` and its wall time in seconds."""
    start = time.perf_counter()
    result = formula(*args)
    return result, time.perf_counter() - start


def verdict(k: int, *checks) -> tuple[bool, str]:
    """(passed, column text) for the oracle checks of a row of k blocks,
    each a (result, blocks) pair, which run only up to ORACLE_MAX_BLOCKS."""
    if k > ORACLE_MAX_BLOCKS:
        return True, "-"
    agrees = all(oracle_agrees(*check) for check in checks)
    return agrees, "ok" if agrees else "MISMATCH"


def terms(rgf) -> int:
    return sum(len(lp.coeffs) for lp in rgf.numerator.values())


def identical_table(max_blocks: int) -> bool:
    """k copies of the mat 2 1 block; False on an oracle mismatch."""
    ok = True
    print(f"{'blocks':>6}  {'seconds':>8}  {'numerator terms':>15}  oracle")
    for k in block_counts(max_blocks):
        result, elapsed = timed(hadamard_mde, [(2, 1)] * k)
        agrees, text = verdict(
            k, (result, [build_entry("mat", d=2, e=1)] * k))
        ok = ok and agrees
        print(f"{k:>6}  {elapsed:>8.3f}  {terms(result):>15}  {text}",
              flush=True)
    return ok


def distinct_table(max_blocks: int) -> bool:
    """k distinct mat and so blocks; False on an oracle mismatch."""
    ok = True
    print(f"\n{'blocks':>6}  {'mde s':>8}  {'f2d s':>8}  "
          f"{'mde terms':>9}  {'f2d terms':>9}  oracle")
    for k in block_counts(max_blocks):
        mde, mde_s = timed(hadamard_mde, [(e + 1, e) for e in range(1, k + 1)])
        f2d, f2d_s = timed(hadamard_f2d, list(range(1, k + 1)))
        agrees, text = verdict(
            k,
            (mde, [build_entry("mat", d=e + 1, e=e) for e in range(1, k + 1)]),
            (f2d.rgf, [build_entry("so", d=d) for d in range(1, k + 1)]))
        ok = ok and agrees
        print(f"{k:>6}  {mde_s:>8.3f}  {f2d_s:>8.3f}  {terms(mde):>9}  "
              f"{terms(f2d.rgf):>9}  {text}", flush=True)
    return ok


def time_product(a, b, min_terms: int):
    """a * b, packed from ``min_terms`` terms on, and its best time."""
    saved = mpoly.PACK_MIN_TERMS
    mpoly.PACK_MIN_TERMS = min_terms
    try:
        best = float("inf")
        for _ in range(max(3, 4096 // len(a.coeffs))):
            start = time.perf_counter()
            product = a * b
            best = min(best, time.perf_counter() - start)
    finally:
        mpoly.PACK_MIN_TERMS = saved
    return product, best


def product_table() -> bool:
    """Dict against packed Laurent products; False on a mismatch."""
    rng = random.Random(0)
    ok = True
    print(f"\n{'terms':>6}  {'dict ms':>9}  {'packed ms':>9}  equal")
    for n in PRODUCT_TERMS:
        a, b = (LaurentPoly({e - n // 2: rng.randint(-1000, 1000) or 1
                             for e in range(n)}) for _ in range(2))
        by_dict, dict_s = time_product(a, b, n + 1)
        packed, packed_s = time_product(a, b, 1)
        equal = by_dict == packed
        ok = ok and equal
        print(f"{n:>6}  {1e3 * dict_s:>9.3f}  {1e3 * packed_s:>9.3f}  "
              f"{'ok' if equal else 'MISMATCH'}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-blocks", type=int, default=60,
                        help="largest block count (default 60)")
    args = parser.parse_args(argv)
    if args.max_blocks < 10:
        parser.error("--max-blocks must be at least 10")
    ok = identical_table(args.max_blocks)
    ok = distinct_table(args.max_blocks) and ok
    ok = product_table() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
