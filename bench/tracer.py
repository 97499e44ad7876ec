"""Per-layer tracing of colshuffle from outside the package.

``Tracer.install`` wraps public functions and methods of the colshuffle
modules in spans.  A function is rebound in every module namespace that
holds it (``from .ratfun import w_of`` binds ``w_of`` separately in
``shuffle_algebra``, ``zeta``, ``cli`` and ``verify``), and the statistics
registry is rewrapped as well, because ``STATISTICS[...].raw`` captured the
kernel functions when ``shuffle_algebra`` was imported.  Spans are kept in
memory as per-name totals; a span's self time is its duration minus the
time of the spans it caused, and the work the tracer does to count sizes is
excluded from every span.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

# (span name, module, function); several functions may share one span name
FUNCTIONS = (
    ("permutations.stat_kernel", "permutations", "stat_triple_raw"),
    ("permutations.stat_kernel", "permutations", "s_des_raw"),
    ("permutations.stat_triple", "permutations", "stat_triple"),
    ("permutations.shuffles", "permutations", "shuffles"),
    ("permutations.descent_set", "permutations", "descent_set"),
    ("configurations.config_shuffle", "configurations", "config_shuffle"),
    ("configurations.make_strongly_disjoint", "configurations",
     "make_strongly_disjoint"),
    ("configurations.parse_labelled_configuration", "configurations",
     "parse_labelled_configuration"),
    ("ratfun.w_of", "ratfun", "w_of"),
    ("ratfun.expand", "ratfun", "expand"),
    ("ratfun.equal", "ratfun", "equal"),
    ("ratfun.scale_y", "ratfun", "scale_y"),
    ("shuffle_algebra.hadamard_via_theorem", "shuffle_algebra",
     "hadamard_via_theorem"),
    ("shuffle_algebra.hadamard_iterated", "shuffle_algebra",
     "hadamard_iterated"),
    ("shuffle_algebra.check_shuffle_compatibility", "shuffle_algebra",
     "check_shuffle_compatibility"),
    ("qsym.expand_F", "qsym", "expand_F"),
    ("qsym.verify_product_rule", "qsym", "verify_product_rule"),
    ("qsym.psi_m", "qsym", "psi_m"),
    ("qsym.psi_closed_form_check", "qsym", "psi_closed_form_check"),
    ("zeta.build_entry", "zeta", "build_entry"),
    ("zeta.hadamard_entries", "zeta", "hadamard_entries"),
    ("zeta.hadamard_mde", "zeta", "hadamard_mde"),
    ("zeta.hadamard_f2d", "zeta", "hadamard_f2d"),
    ("zeta.hadamard_ud", "zeta", "hadamard_ud"),
    ("verify.run_suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
)

# (span name, module, class, method)
METHODS = (
    ("ratfun.SeriesY.hadamard", "ratfun", "SeriesY", "hadamard"),
    ("ratfun.print", "ratfun", "RationalGF", "to_text"),
    ("ratfun.print", "ratfun", "RationalGF", "to_latex"),
    ("ratfun.print", "ratfun", "RationalGF", "to_json_obj"),
    ("mpoly.mul", "mpoly", "MPoly", "__mul__"),
    ("mpoly.add", "mpoly", "MPoly", "__add__"),
    ("shuffle_algebra.HImage.series", "shuffle_algebra", "HImage", "series"),
)

# constructors whose calls are counted without a span
CONSTRUCTORS = (("ratfun.LaurentPoly.new", "ratfun", "LaurentPoly"),)

# spans that consume a generating function: a w_of result later passed to
# one of them counts as kept by its caller (ratfun.w_of.useful_ratio);
# hadamard_iterated, for one, drops the results of its intermediate steps
CONSUMERS = frozenset({"ratfun.expand", "ratfun.equal", "ratfun.scale_y",
                       "ratfun.print"})

# spans whose calls are reported, and those whose self time is too
_CALLS = ("permutations.stat_kernel", "permutations.stat_triple",
          "permutations.shuffles", "permutations.descent_set",
          "configurations.config_shuffle", "ratfun.w_of", "ratfun.expand",
          "ratfun.equal", "ratfun.LaurentPoly.new", "mpoly.mul", "mpoly.add",
          "shuffle_algebra.check_shuffle_compatibility", "qsym.expand_F",
          "qsym.psi_m", "zeta.build_entry", "verify.run_suite", "cli.main")
_SELF_MS = ("permutations.stat_kernel", "permutations.stat_triple",
            "permutations.shuffles", "configurations.config_shuffle",
            "configurations.make_strongly_disjoint",
            "configurations.parse_labelled_configuration", "ratfun.w_of",
            "ratfun.expand", "ratfun.SeriesY.hadamard", "ratfun.equal",
            "ratfun.scale_y", "ratfun.print", "mpoly.mul", "mpoly.add",
            "shuffle_algebra.hadamard_via_theorem",
            "shuffle_algebra.hadamard_iterated",
            "shuffle_algebra.check_shuffle_compatibility",
            "shuffle_algebra.HImage.series", "qsym.expand_F",
            "qsym.verify_product_rule", "qsym.psi_m",
            "qsym.psi_closed_form_check", "zeta.build_entry",
            "zeta.hadamard_entries", "zeta.hadamard_mde", "zeta.hadamard_f2d",
            "zeta.hadamard_ud", "verify.run_suite", "cli.main")
# sizes counted at span boundaries, and ratios of them
COUNTS = ("permutations.shuffles.words",
          "configurations.config_shuffle.support", "ratfun.w_of.support",
          "ratfun.w_of.numerator_terms", "ratfun.expand.coeff_terms",
          "shuffle_algebra.compat.stat_evals",
          "shuffle_algebra.compat.distinct_words", "qsym.expand_F.monomials",
          "zeta.direct.colourings", "cli.stdout_bytes")
RATIOS = {
    # w_of results later passed to a consumer, per w_of call
    "ratfun.w_of.useful_ratio": ("ratfun.w_of.kept", "ratfun.w_of.calls"),
    # integral coefficients among all coefficients expand returned
    "ratfun.expand.integral_share": ("ratfun.expand.integral",
                                     "ratfun.expand.coeff_terms"),
    "shuffle_algebra.compat.evals_per_distinct_word": (
        "shuffle_algebra.compat.stat_evals",
        "shuffle_algebra.compat.distinct_words"),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "colshuffle"
                                  or name.startswith("colshuffle."))]


class Tracer:
    def __init__(self, lib, statistics_tables=()):
        self.lib = lib
        self.tables = [lib.shuffle_algebra.STATISTICS, *statistics_tables]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._pending: dict[int, object] = {}   # w_of results not yet kept
        self._words: set = set()                # words seen by one sweep
        self._restore: list = []
        self._wrapped: dict[int, object] = {}   # id(original) -> wrapper

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        consumer = name in CONSUMERS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if consumer and self._pending:
                self._keep(args)
            if before is not None:
                before()
            t0 = clock()
            stack.append(0.0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                child = stack.pop()
                calls[name] += 1
                self_s[name] += clock() - t0 - child
                if ok and after is not None:
                    after(args, result)
                if stack:
                    stack[-1] += clock() - t0

        traced.__wrapped__ = fn
        return traced

    def _count_constructor(self, name, init):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return init(*args, **kwargs)

        return counted

    # -- size counters, run after a span has been closed ----------------------

    def _keep(self, objects):
        for obj in objects:
            if self._pending.pop(id(obj), None) is not None:
                self.counts["ratfun.w_of.kept"] += 1

    def _after_permutations_shuffles(self, args, result):
        self.counts["permutations.shuffles.words"] += len(result)

    def _after_configurations_config_shuffle(self, args, result):
        self.counts["configurations.config_shuffle.support"] += len(result.terms)

    def _after_ratfun_w_of(self, args, result):
        self.counts["ratfun.w_of.support"] += len(args[0].config.terms)
        self.counts["ratfun.w_of.numerator_terms"] += sum(
            len(lp.coeffs) for lp in result.numerator.values())
        self._pending[id(result)] = result

    def _after_ratfun_expand(self, args, result):
        for lp in result.coefficients:
            for c in lp.coeffs.values():
                self.counts["ratfun.expand.coeff_terms"] += 1
                if c.denominator == 1:
                    self.counts["ratfun.expand.integral"] += 1

    def _before_shuffle_algebra_check_shuffle_compatibility(self):
        self._words = set()

    def _after_shuffle_algebra_check_shuffle_compatibility(self, args, result):
        self.counts["shuffle_algebra.compat.distinct_words"] += len(self._words)

    def _after_qsym_expand_F(self, args, result):
        self.counts["qsym.expand_F.monomials"] += len(result.poly.coeffs)

    def _after_zeta_hadamard_mde(self, args, result):
        n = len(args[0])
        self.counts["zeta.direct.colourings"] += math.factorial(n) * 2 ** n

    _after_zeta_hadamard_f2d = _after_zeta_hadamard_mde

    def _after_zeta_hadamard_ud(self, args, result):
        self.counts["zeta.direct.colourings"] += result.t_size * 2 ** sum(args[0])

    def _note_word(self, entries):
        self.counts["shuffle_algebra.compat.stat_evals"] += 1
        self._words.add(tuple(entries))

    def _counting_statistic(self, stat):
        """A statistic that notes each evaluated word and calls the traced
        versions of the functions the original captured."""
        fn = self._wrapped.get(id(stat), stat)
        note = self._note_word

        def counted(a):
            note(a.entries)
            return fn(a)

        raw = getattr(stat, "raw", None)
        if raw is not None:
            raw_fn = self._wrapped.get(id(raw), raw)

            def counted_raw(entries):
                note(entries)
                return raw_fn(entries)

            counted.raw = counted_raw
        return counted

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(self.lib, module), attr, None)
            if original is None or id(original) in self._wrapped:
                continue
            wrapper = self._wrap(name, original)
            self._wrapped[id(original)] = wrapper
            self._rebind(original, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(getattr(self.lib, module), cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            self._restore.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
        for name, module, cls_name in CONSTRUCTORS:
            cls = getattr(getattr(self.lib, module), cls_name, None)
            if cls is None or "__init__" not in vars(cls):
                continue
            self._restore.append((cls, "__init__", vars(cls)["__init__"]))
            cls.__init__ = self._count_constructor(name, vars(cls)["__init__"])
        for table in self.tables:
            for key, stat in list(table.items()):
                self._restore.append((table, key, stat))
                table[key] = self._counting_statistic(stat)

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()
        self._wrapped.clear()

    def end_op(self):
        """Forget w_of results the finished operation did not keep."""
        self._pending.clear()

    # -- report ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every span and size metric, by name: calls, self_ms, counts and
        ratios."""
        values = dict(self.counts)
        for span in _CALLS:
            values[f"{span}.calls"] = self.calls[span]
        for span in _SELF_MS:
            values[f"{span}.self_ms"] = self.self_s[span] * 1000.0
        for name, (num, den) in RATIOS.items():
            den = values.get(den, 0)
            values[name] = values.get(num, 0) / den if den else 0.0
        names = ([f"{span}.calls" for span in _CALLS]
                 + [f"{span}.self_ms" for span in _SELF_MS])
        return {name: values.get(name, 0)
                for name in (*names, *COUNTS, *RATIOS)}
