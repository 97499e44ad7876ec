"""Verification suites: randomized and exhaustive identity checks.

Each suite returns a JSON-ready report dict with the fields ``suite``,
``cases`` (number of instances checked) and ``failures`` (a list, empty on
success).  The CLI exposes them behind the ``verify`` subcommand; the test
suite drives them directly at the documented acceptance bounds.  A bound
out of range, or one past ``MAX_SUITE_SIZE``, raises ``BadParameters``
before any case runs.
"""

from __future__ import annotations

import math
import random

from .configurations import (ColouredConfiguration, Label,
                             LabelledConfiguration, SignedMonomial)
from .errors import (MAX_SHUFFLE_WORDS, BadParameters, UnknownSuite,
                     check_at_least, check_cap)
from .errors import MAX_SHUFFLE_WORDS as MAX_SUITE_SIZE
from .permutations import (ColouredPermutation, all_coloured_permutations,
                           s_des)
from .qsym import psi_closed_form_check, verify_product_rule
from .ratfun import RationalGF, expand, w_of
from .shuffle_algebra import (STATISTICS, check_shuffle_compatibility,
                              hadamard_general, hadamard_via_theorem)
from .zeta import FAMILY_PARAMS, MAX_UNITRIANGULAR_D, build_entry

__all__ = [
    "random_coherent_pair",
    "series_oracle",
    "theorem_suite",
    "qsym_suite",
    "psi_suite",
    "compat_suite",
    "catalog_suite",
    "run_suite",
    "SUITES",
    "MAX_SUITE_SIZE",
]


# The exhaustive psi and qsym suites enumerate every coloured permutation of
# length <= max_len (every pair of them for qsym).  qsym expands F once per
# coloured descent class, for up to n = 2 * max_len letters at index cutoff
# m in up to C(m+n-1, n) monomials, and forms F_a * F_b once per pair of
# classes; psi fills, for each of n = max_len letters, m = t_order + 1
# rows of up to n * m digits, a table of n * m * (n * m) (at least m, for
# the empty word).  Both counts are capped by MAX_SUITE_SIZE, the words
# first, so that the size is only computed for a few letters; the
# acceptance bounds need 2,128 words and a table of 1,296 (psi), and 484
# pairs and 35 monomials (qsym).
def _check_suite_words(max_len: int, colours: int, *, pairs: bool) -> None:
    """Raise ``BadParameters`` when the words (or pairs of words) a suite
    enumerates, counted until past the cap, exceed ``MAX_SUITE_SIZE``."""
    words = term = count = 1
    for n in range(1, max_len + 1):
        term *= n * colours
        words += term
        count = words * words if pairs else words
        if count > MAX_SUITE_SIZE:
            break
    check_cap(count, f"max_len {max_len} with {colours} colours enumerates "
              "at least {} " + ("word pairs" if pairs else "words"),
              MAX_SUITE_SIZE)


_POOL = 6  # symbols each operand of random_coherent_pair draws from


def _check_pair_bounds(max_support: int, max_len: int, exp_range: int) -> None:
    """Raise ``BadParameters`` unless ``random_coherent_pair`` can draw at
    these bounds: ``max_len`` at most the symbol pool, and ``max_support``
    terms a side at that length shuffling to at most ``MAX_SHUFFLE_WORDS``
    words."""
    check_at_least(1, max_support=max_support)
    check_at_least(0, max_len=max_len, exp_range=exp_range)
    if max_len > _POOL:
        raise BadParameters(f"max_len {max_len} is above the {_POOL} symbols "
                            f"each random operand draws from")
    check_cap(max_support ** 2 * math.comb(2 * max_len, max_len),
              f"max_support {max_support} at max_len {max_len} may shuffle "
              "{} words", MAX_SHUFFLE_WORDS)


def _random_config(rng: random.Random, symbols: list[int], colours: list[int],
                   max_support: int, max_len: int) -> ColouredConfiguration:
    terms = []
    for _ in range(rng.randint(1, max_support)):
        length = rng.randint(0, max_len)
        perm_symbols = rng.sample(symbols, length)
        entries = [(s, rng.choice(colours)) for s in perm_symbols]
        terms.append((ColouredPermutation(entries), rng.randint(1, 2)))
    return ColouredConfiguration(terms)


def random_coherent_pair(rng: random.Random, max_support: int = 3,
                         max_len: int = 3, exp_range: int = 3
                         ) -> tuple[LabelledConfiguration, LabelledConfiguration]:
    """A random coherent pair: symbol-disjoint configurations that may
    share nonzero colours, with labels agreeing on the shared ones."""
    _check_pair_bounds(max_support, max_len, exp_range)
    colours = list(range(0, 4))
    lhs_config = _random_config(rng, list(range(1, _POOL + 1)), colours,
                                max_support, max_len)
    rhs_config = _random_config(rng, list(range(11, 11 + _POOL)), colours,
                                max_support, max_len)

    def random_monomial() -> SignedMonomial:
        return SignedMonomial(rng.choice((1, -1)),
                              rng.randint(-exp_range, exp_range))

    lhs_label = Label({c: random_monomial() for c in lhs_config.palette_star()})
    rhs_assignments = {}
    for c in rhs_config.palette_star():
        if c in lhs_config.palette_star():
            rhs_assignments[c] = lhs_label(c)
        else:
            rhs_assignments[c] = random_monomial()
    return (LabelledConfiguration(lhs_config, lhs_label),
            LabelledConfiguration(rhs_config, Label(rhs_assignments)))


def series_oracle(lhs: LabelledConfiguration, rhs: LabelledConfiguration,
                  closed: RationalGF, eps: int, order: int) -> bool:
    """Whether ``closed`` expands, through Y^order, to the coefficientwise
    product of the expansions of the operands' W.  The three expansions run
    in the order lhs, rhs, closed, so an order over ``expand``'s cap raises
    at the first."""
    oracle = expand(w_of(lhs, eps), order).hadamard(
        expand(w_of(rhs, eps), order))
    return expand(closed, order) == oracle


def theorem_suite(trials: int = 200, order: int = 10, seed: int = 0,
                  max_support: int = 3, max_len: int = 3,
                  exp_range: int = 3) -> dict:
    """Random coherent pairs: the closed form of the shuffled configuration
    must match the coefficientwise product of the expanded series, and the
    series kernel (``hadamard_general``) must give that closed form
    structurally.  A failure names the check that failed.  The operand
    bounds are those of ``random_coherent_pair``."""
    check_at_least(0, trials=trials, order=order)
    _check_pair_bounds(max_support, max_len, exp_range)
    rng = random.Random(seed)
    failures = []
    for case in range(trials):
        lhs, rhs = random_coherent_pair(rng, max_support, max_len, exp_range)
        eps = rng.randint(-2, 2)
        _, closed = hadamard_via_theorem(lhs, rhs, eps)
        for check, ok in (("series_oracle",
                           series_oracle(lhs, rhs, closed, eps, order)),
                          ("hadamard_general",
                           hadamard_general(lhs, rhs, eps) == closed)):
            if not ok:
                failures.append({"case": case, "eps": eps, "check": check,
                                 "lhs": lhs.to_text(), "rhs": rhs.to_text()})
    return {"suite": "theorem", "cases": trials, "order": order,
            "seed": seed, "failures": failures}


def qsym_suite(max_len: int = 2, cutoff: int = 4, colours: int = 3) -> dict:
    """Exhaustive product rule for fundamental expansions: F_a * F_b equals
    the sum of F_c over shuffles, for all disjoint pairs up to the bounds."""
    check_at_least(0, max_len=max_len)
    check_at_least(1, cutoff=cutoff, colours=colours)
    n = 2 * max_len
    _check_suite_words(max_len, colours, pairs=True)
    check_cap(max(math.comb(cutoff + n - 1, n), cutoff),
              f"the expansion of {n} letters at cutoff {cutoff} has "
              "{} monomials", MAX_SUITE_SIZE)
    cases = 0
    failures = []
    expansions: dict = {}
    for n in range(0, max_len + 1):
        for m in range(0, max_len + 1):
            for a in all_coloured_permutations(n, colours):
                for b in all_coloured_permutations(m, colours,
                                                   first_symbol=n + 1):
                    cases += 1
                    if not verify_product_rule(a, b, cutoff, expansions):
                        failures.append({"a": str(a), "b": str(b)})
    return {"suite": "qsym", "cases": cases, "cutoff": cutoff,
            "failures": failures}


def psi_suite(max_len: int = 4, t_order: int = 8, colours: int = 3) -> dict:
    """Exhaustive check of the specialisation closed form, one permutation
    per coloured-descent-set class."""
    check_at_least(0, max_len=max_len, t_order=t_order)
    check_at_least(1, colours=colours)
    m = t_order + 1
    _check_suite_words(max_len, colours, pairs=False)
    check_cap(max((max_len * m) ** 2, m),
              f"{max_len} letters at t_order {t_order} fill a table of "
              "{} entries", MAX_SUITE_SIZE)
    cases = 0
    failures = []
    for n in range(0, max_len + 1):
        seen = set()
        for a in all_coloured_permutations(n, colours):
            key = s_des(a)
            if key in seen:
                continue
            seen.add(key)
            cases += 1
            if not psi_closed_form_check(a, t_order):
                failures.append({"a": str(a)})
    return {"suite": "psi", "cases": cases, "t_order": t_order,
            "failures": failures}


def compat_suite(max_total_len: int = 5, trials: int = 200, seed: int = 0,
                 colours: int = 3) -> dict:
    """Shuffle-compatibility harness: the descent statistics must be clean
    and the planted non-statistic control must be caught."""
    check_at_least(0, max_total_len=max_total_len, trials=trials)
    check_at_least(1, colours=colours)
    reports = []
    failures = []
    for name in ("des_comaj_col", "sdes"):
        report = check_shuffle_compatibility(
            STATISTICS[name], trials=trials, max_len=max_total_len,
            colours=colours, seed=seed, statistic_name=name)
        reports.append(report.to_json_obj())
        if not report.ok:
            failures.append({"statistic": name,
                             "counterexample": report.counterexample})
    control = check_shuffle_compatibility(
        STATISTICS["first_symbol"], trials=trials, max_len=max_total_len,
        colours=colours, seed=seed, statistic_name="first_symbol")
    reports.append(control.to_json_obj())
    if control.ok:
        failures.append({"statistic": "first_symbol",
                         "error": "control was not caught"})
    return {"suite": "compat", "cases": len(reports), "reports": reports,
            "failures": failures}


def _grid(names: tuple[str, ...], tops: dict[str, int]):
    """Each assignment of 1..tops[name] to ``names``, the last fastest,
    drawn lazily (``itertools.product`` would materialise the ranges)."""
    if not names:
        yield {}
        return
    for value in range(1, tops[names[0]] + 1):
        for params in _grid(names[1:], tops):
            yield {names[0]: value, **params}


def catalog_suite(max_n: int = 4, max_d: int = 5) -> dict:
    """Build every catalog family over a parameter grid; each row's
    defining identity is checked symbolically, once per process (a row
    built earlier in the process was checked then).  ``max_d`` above
    ``MAX_UNITRIANGULAR_D`` is refused before any row is built."""
    check_at_least(0, max_n=max_n, max_d=max_d)
    if max_d > MAX_UNITRIANGULAR_D:
        raise BadParameters(f"max_d {max_d} is above {MAX_UNITRIANGULAR_D}, "
                            f"the largest unitriangular_oc d")
    cases = 0
    failures = []
    tops = {"d": max_d, "e": max_d, "n": max_n}
    for family, names in FAMILY_PARAMS.items():
        for params in _grid(names, tops):
            cases += 1
            try:
                build_entry(family, **params)
            except AssertionError as exc:
                failures.append({"family": family, "params": params,
                                 "error": str(exc)})
    return {"suite": "catalog", "cases": cases, "failures": failures}


SUITES = {
    "theorem": theorem_suite,
    "qsym": qsym_suite,
    "psi": psi_suite,
    "compat": compat_suite,
    "catalog": catalog_suite,
}


def run_suite(name: str, **bounds) -> dict:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; "
                           f"known: {', '.join(sorted(SUITES))}")
    return SUITES[name](**bounds)
