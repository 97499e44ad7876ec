"""Operation streams and output checks of the four benchmark workloads.

Each workload is a single-client closed loop over a stream of operations.  An
operation is an in-process call of ``colshuffle.cli.main`` with its stdout
captured, or a call of a public library function.  The stream is built in
rounds: every round fills the same fixed list of slots, each slot fixing the
kind and size class of one operation, and the seed draws the concrete inputs
of every slot and the order inside the round.  Runs with different seeds
therefore spend their time on the same mix of sizes, which keeps throughput
and the latency percentiles comparable across seeds.

Checks run outside the timed region and compare each output with a route
independent of the one the program took: the series oracle (coefficientwise
products of expanded generating functions) for Hadamard products, known
outcomes and exhaustive pair counts for the compatibility harness, and
closed-form case counts for the verify suites.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Largest shuffled support a generated operation may have: the size of
# mat x 5 (2^5 colourings of the 5! shuffle words).  An uncapped draw mixing
# threshold and Tn entries reached 1.4 GB RSS and took 571 s for 150
# operations in a prototype, and mat x 6 (5.6 s) or mat x 7 (more than 90 s)
# would each be longer than a whole run, so no draw may exceed this.
CAP_WORDS = 3840

MODULES = ("permutations", "configurations", "ratfun", "mpoly",
           "shuffle_algebra", "qsym", "zeta", "verify", "cli")


class Lib:
    """The imported colshuffle modules.

    Workloads look functions up through these module objects at call time,
    so a tracer that replaces module attributes sees every call.
    """

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"colshuffle.{name}"))


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


@dataclass
class Op:
    """One operation of the stream: CLI arguments, or a library call."""

    slot: str
    argv: list[str] | None = None
    data: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        return f"{self.slot} {self.data}"


class Workload:
    """A named stream of operations with their checks."""

    name = ""
    why = ""
    slots: tuple[str, ...] = ()
    rounds = 1          # rounds generated at setup; the stream cycles after
    trace_rounds = 1    # rounds covered by the traced pass
    warmup_slot = ""

    def __init__(self, lib: Lib, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        # statistics the operations look up by name (a tracer rewraps them)
        self.statistics: dict = {}
        self._references: dict[int, object] = {}

    def operations(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops: list[Op] = []
        for _ in range(self.rounds):
            batch = [self.draw(rng, slot) for slot in self.slots]
            rng.shuffle(batch)
            ops.extend(batch)
        return ops

    def warmup(self, ops: list[Op]) -> Op:
        return next(op for op in ops if op.slot == self.warmup_slot)

    def draw(self, rng: random.Random, slot: str) -> Op:
        raise NotImplementedError

    def run(self, op: Op):
        if op.argv is None:
            return self.call(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(op.argv)
        return CliOutput(code, out.getvalue())

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        """None when ``out`` is right, else the reason it is wrong."""
        if isinstance(out, CliOutput) and out.code != 0:
            return f"exit code {out.code}"
        return self.check_output(op, out)

    def check_output(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def render(self, out) -> str:
        """The text an operation produced, for the output digest."""
        if isinstance(out, CliOutput):
            return out.stdout
        return self.render_result(out)

    def render_result(self, result) -> str:
        raise NotImplementedError

    def reference(self, op: Op, build):
        """Per-operation cache of check references (the stream cycles)."""
        key = id(op)
        if key not in self._references:
            self._references[key] = build()
        return self._references[key]


# -- the series oracle ------------------------------------------------------


def _hadamard(ratfun, rgfs, order):
    """Coefficientwise product of the expansions of ``rgfs`` through Y^order."""
    coeffs = None
    for rgf in rgfs:
        series = ratfun.expand(rgf, order).coefficients
        coeffs = (list(series) if coeffs is None
                  else [a * b for a, b in zip(coeffs, series)])
    return coeffs


def series_closed_form(ratfun, rgfs, denominator):
    """The closed form of the Hadamard product of ``rgfs`` over the given
    denominator factors (c, a), each standing for 1 - c*X^a*Y.

    The numerator is the product series times the denominator, truncated
    below the denominator's degree.  The result must reproduce the product
    series to an order that determines it (numerator degree plus number of
    denominator factors); that comparison is made at X = 2, where the
    series are cheap, so a wrong denominator is caught too.
    """
    degree = len(denominator) - 1
    poly = _hadamard(ratfun, rgfs, degree)
    for c, a in denominator:
        step = ratfun.LaurentPoly.monomial(c, a)
        for k in range(degree, 0, -1):
            poly[k] = poly[k] - poly[k - 1] * step
    closed = ratfun.RationalGF(dict(enumerate(poly)), denominator)
    order = 2 * degree + 1
    at_two = [ratfun.substitute(rgf, 2) for rgf in (closed, *rgfs)]
    if _hadamard(ratfun, at_two[:1], order) != _hadamard(ratfun, at_two[1:],
                                                         order):
        raise AssertionError("series oracle does not close over "
                             "the expected denominator")
    return closed


# -- zeta_products -----------------------------------------------------------

# catalog entries per exponent eps, as (family, params); every entry of one
# zeta hadamard request shares eps
_ENTRIES_EPS1 = ([("mat", (d, d - 1)) for d in range(2, 7)]
                 + [("so", (d,)) for d in range(2, 6)]
                 + [("f2d_cc", (d,)) for d in range(2, 6)]
                 + [("threshold", (n,)) for n in range(1, 4)]
                 + [("Tn", (n,)) for n in range(1, 3)])
_ENTRIES_EPS0 = ([("mat", (d, d)) for d in range(1, 6)]
                 + [("unitriangular_oc", (d,)) for d in range(1, 4)])


def entry_shape(family: str, params: tuple[int, ...]) -> tuple[int, int]:
    """(support size, permutation length) of a catalog entry's configuration."""
    if family == "threshold":
        return 4, 2
    if family == "Tn":
        return 16, 4
    if family == "unitriangular_oc":
        return 2 ** params[0], params[0]
    return 2, 1


def shuffled_support(shapes) -> int:
    """Support of the shuffle of configurations with the given shapes: the
    product of the supports times the multinomial of the lengths."""
    words = 1
    total = 0
    for support, length in shapes:
        words *= support
        total += length
        words *= math.comb(total, length)
    return words


def _draw_entries(rng: random.Random, eps: int, k: int):
    if eps == 1:
        return [rng.choice(_ENTRIES_EPS1) for _ in range(k)]
    if eps == 0:
        return [rng.choice(_ENTRIES_EPS0) for _ in range(k)]
    out = []
    for _ in range(k):
        e = rng.randint(max(1, 1 - eps), 5)
        out.append(("mat", (e + eps, e)))
    return out


class ZetaProducts(Workload):
    name = "zeta_products"
    why = ("zeta hadamard requests and direct formulas: the main user path, "
           "its time in w_of on shuffled configurations")
    # slot -> (words lo, words hi, eps choices) of a zeta hadamard request,
    # or (colourings lo, hi, functions) of a direct formula.  Cost follows
    # the size and, at one size, eps; the classes holding the median
    # (cli_mid) and p90 (direct_large) fix eps or the function per slot, so
    # every round has the same cost mix whatever the seed.
    MDE, F2D, UD = "hadamard_mde", "hadamard_f2d", "hadamard_ud"
    SLOTS = {
        "cli_small": (8, 48, (1, 0, -1, 2)),
        "cli_shapes": (160, 320, (1, 0)),
        "cli_mid_e1": (384, 384, (1,)),
        "cli_mid_e0": (384, 384, (0,)),
        "cli_mid_e-2": (384, 384, (-2,)),
        "cli_mid_e2": (384, 384, (2,)),
        "cli_mid_e3": (384, 384, (3,)),
        "cli_large": (960, 960, (1,)),
        "cli_cap": (CAP_WORDS, CAP_WORDS, (1,)),
        "direct_small": (8, 48, (MDE, F2D, UD)),
        "direct_mid": (320, 384, (MDE, F2D, UD)),
        "direct_large_mde": (CAP_WORDS, CAP_WORDS, (MDE,)),
        "direct_large_f2d": (CAP_WORDS, CAP_WORDS, (F2D,)),
    }
    # 14 of 20 slots are zeta hadamard requests
    slots = ("direct_small", "direct_small", "cli_small", "cli_small",
             "direct_mid", "direct_mid", "cli_shapes", "cli_shapes",
             "cli_mid_e1", "cli_mid_e0", "cli_mid_e-2", "cli_mid_e2",
             "cli_mid_e3", "direct_large_mde", "direct_large_f2d",
             "cli_large", "cli_large", "cli_large", "cli_large", "cli_cap")
    rounds = 25
    trace_rounds = 2
    warmup_slot = "cli_mid_e1"

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        self._entries: dict = {}

    def draw(self, rng, slot):
        lo, hi, choices = self.SLOTS[slot]
        if slot.startswith("cli"):
            while True:
                eps = rng.choice(choices)
                entries = _draw_entries(rng, eps, rng.randint(2, 5))
                words = shuffled_support(entry_shape(f, p) for f, p in entries)
                if lo <= words <= hi:
                    break
            fmt = rng.choice(("text", "json", "latex"))
            specs = [f"{f}:{','.join(map(str, p))}" for f, p in entries]
            return Op(slot, ["zeta", "hadamard", *specs, "--format", fmt],
                      {"entries": entries, "eps": eps, "format": fmt,
                       "words": words})
        while True:
            func = rng.choice(choices)
            if func == self.MDE:
                delta = rng.randint(-1, 2)
                blocks = [(e + delta, e) for e in
                          (rng.randint(max(1, 1 - delta), 5)
                           for _ in range(rng.randint(2, 5)))]
                words = math.factorial(len(blocks)) * 2 ** len(blocks)
            elif func == self.F2D:
                blocks = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
                words = math.factorial(len(blocks)) * 2 ** len(blocks)
            else:
                blocks = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
                if sum(blocks) > 6:
                    continue
                words = shuffled_support((2 ** d, d) for d in blocks)
            if lo <= words <= hi:
                return Op(slot, None, {"func": func, "blocks": blocks,
                                       "words": words})

    def call(self, op):
        return getattr(self.lib.zeta, op.data["func"])(op.data["blocks"])

    def _closed_form(self, family, params):
        key = (family, params)
        if key not in self._entries:
            names = self.lib.zeta.FAMILY_PARAMS[family]
            entry = self.lib.zeta.build_entry(family, **dict(zip(names, params)))
            self._entries[key] = entry
        return self._entries[key]

    def _expected_cli(self, op):
        ratfun = self.lib.ratfun
        entries = [self._closed_form(f, p) for f, p in op.data["entries"]]
        sign, exponent = 1, 0
        for entry in entries:
            sign *= entry.shift.sign
            exponent += entry.shift.exponent
        eps = op.data["eps"]
        length = sum(entry_shape(f, p)[1] for f, p in op.data["entries"])
        denominator = [(Fraction(sign), eps * i + exponent)
                       for i in range(length + 1)]
        closed = series_closed_form(
            ratfun, [entry.closed_form for entry in entries], denominator)
        return closed, {"sign": sign, "exponent": exponent}

    def _expected_direct(self, op):
        ratfun, blocks = self.lib.ratfun, op.data["blocks"]
        func = op.data["func"]
        one = Fraction(1)
        if func == "hadamard_mde":
            factors = [self._closed_form("mat", b).closed_form for b in blocks]
            delta = blocks[0][0] - blocks[0][1]
            denominator = [(one, delta * i) for i in range(len(blocks) + 1)]
        elif func == "hadamard_f2d":
            factors = [self._closed_form("so", (d,)).closed_form
                       for d in blocks]
            denominator = [(one, i) for i in range(len(blocks) + 1)]
        else:
            factors = [ratfun.RationalGF.from_factors([(one, -1)] * d,
                                                      [(one, 0)] * (d + 1))
                       for d in blocks]
            denominator = [(one, 0)] * (sum(blocks) + 1)
        return series_closed_form(ratfun, factors, denominator)

    def check_output(self, op, out):
        if op.argv is None:
            expected = self.reference(op, lambda: self._expected_direct(op))
            func, blocks = op.data["func"], op.data["blocks"]
            rgf = out if func == "hadamard_mde" else out.rgf
            if rgf != expected:
                return "closed form differs from the series oracle"
            if func == "hadamard_f2d":
                shift = -sum(math.comb(d, 2) for d in blocks)
                if tuple(out.arg_shift) != (1, shift):
                    return f"arg_shift {out.arg_shift} != X^{shift}"
            if func == "hadamard_ud":
                t_size = math.factorial(sum(blocks))
                for d in blocks:
                    t_size //= math.factorial(d)
                if out.t_size != t_size:
                    return f"t_size {out.t_size} != {t_size}"
            return None
        expected, shift = self.reference(op, lambda: self._expected_cli(op))
        if op.data["format"] == "latex":
            if out.stdout != expected.to_latex() + "\n":
                return "latex closed form differs from the series oracle"
            return None
        obj = json.loads(out.stdout)
        if self.lib.ratfun.RationalGF.from_json_obj(obj) != expected:
            return "closed form differs from the series oracle"
        if obj["eps"] != op.data["eps"] or obj["shift"] != shift:
            return f"eps/shift {obj['eps']}/{obj['shift']} wrong"
        return None

    def render_result(self, result):
        if hasattr(result, "rgf"):
            extra = {k: str(v) for k, v in vars(result).items() if k != "rgf"}
            return result.rgf.to_text() + " " + json.dumps(extra, sort_keys=True)
        return result.to_text()


# -- file_hadamard -----------------------------------------------------------


class FileHadamard(Workload):
    name = "file_hadamard"
    why = ("hadamard on seeded configuration files: parsing, printing and the "
           "series oracle around small shuffles")
    # slot -> (total length of the two operands, eps choices).  Cost grows
    # with the total length and is lowest at eps = 0, so the classes holding
    # the median (len5) and p90 (len7) leave eps = 0 out.
    SLOTS = {
        "len3": (3, (-2, -1, 0, 1, 2)),
        "len4": (4, (-2, -1, 0, 1, 2)),
        "len5": (5, (-2, -1, 1, 2)),
        "len6": (6, (-2, -1, 1, 2)),
        "len7": (7, (-2, -1, 1, 2)),
    }
    slots = ("len3", "len3", "len4", "len4", "len5", "len5", "len5", "len6",
             "len7", "len7")
    rounds = 25
    trace_rounds = 20
    warmup_slot = "len5"

    def operations(self, seed):
        self._count = 0
        return super().operations(seed)

    def draw(self, rng, slot):
        length, eps_choices = self.SLOTS[slot]
        while True:
            lhs, rhs = self.lib.verify.random_coherent_pair(
                rng, max_support=rng.randint(2, 4), max_len=rng.randint(3, 4))
            if lhs.config.max_length() + rhs.config.max_length() == length:
                break
        paths = []
        for lc in (lhs, rhs):
            self._count += 1
            if rng.random() < 0.5:
                path, text = f"c{self._count}.txt", lc.to_text()
            else:
                path, text = f"c{self._count}.json", json.dumps(lc.to_json_obj())
            (self.workdir / path).write_text(text)
            paths.append(str(self.workdir / path))
        eps = rng.choice(eps_choices)
        order = rng.randint(8, 12)
        fmt = rng.choice(("text", "json", "latex"))
        argv = ["hadamard", *paths, "--eps", str(eps), "--verify", str(order),
                "--format", fmt]
        if rng.random() < 0.5:
            argv.append("--assume-coherent")
        return Op(slot, argv, {"lhs": lhs, "rhs": rhs, "eps": eps,
                               "format": fmt})

    def _expected(self, op):
        ratfun, eps = self.lib.ratfun, op.data["eps"]
        lhs, rhs = op.data["lhs"], op.data["rhs"]
        length = lhs.config.max_length() + rhs.config.max_length()
        denominator = [(Fraction(1), eps * i) for i in range(length + 1)]
        closed = series_closed_form(
            ratfun, [ratfun.w_of(lhs, eps), ratfun.w_of(rhs, eps)], denominator)
        words = sum(ma * mb * math.comb(len(a) + len(b), len(a))
                    for a, ma in lhs.config.terms for b, mb in rhs.config.terms)
        return closed, words

    def check_output(self, op, out):
        expected, words = self.reference(op, lambda: self._expected(op))
        lines = out.stdout.splitlines()
        if not lines or lines[-1] != "PASS":
            return "no PASS line"
        if op.data["format"] == "json":
            obj = json.loads("\n".join(lines[:-1]))
            got = self.lib.ratfun.RationalGF.from_json_obj(obj["w"])
            shuffled = sum(t["mult"] for t in obj["config"])
            if obj["eps"] != op.data["eps"]:
                return "wrong eps"
        else:
            got = lines[-2]
            expected = (expected.to_latex() if op.data["format"] == "latex"
                        else expected.to_text())
            shuffled = sum(int(line.split("*")[0]) for line in lines[:-2]
                           if "->" not in line)
        if got != expected:
            return "closed form differs from the series oracle"
        if shuffled != words:
            return f"shuffle has multiplicity {shuffled}, expected {words}"
        return None


# -- compat_sweep -------------------------------------------------------------


_COMPATIBLE = ("des", "comaj", "col", "des_comaj_col", "sdes", "des_blackbox")


def exhaustive_count(max_len: int, colours: int, trials: int) -> int:
    """Checks the harness performs when it finds nothing: relabelling cases
    (two per coloured permutation of length <= 3, plus the random trials)
    and one per ordered, coloured, symbol-disjoint pair of total length 2..
    max_len with the left side no longer than the right."""
    def coloured(n):
        return math.factorial(n) * colours ** n
    count = trials + sum(2 * coloured(n) for n in range(min(max_len, 3) + 1))
    for total in range(2, max_len + 1):
        for n in range(1, total // 2 + 1):
            count += math.comb(total, n) * coloured(n) * coloured(total - n)
    return count


class CompatSweep(Workload):
    name = "compat_sweep"
    why = ("shuffle-compatibility sweeps: the statistics kernel and the "
           "enumeration loop, never entering ratfun")
    SIZES = {"s33": (3, 3), "s34": (3, 4), "s43": (4, 3), "s44": (4, 4),
             "s52": (5, 2)}
    # the median falls inside the s43 class and p90 inside s44/s52
    slots = ("control", "s33", "s33", "s34", "s34", "s43", "s43", "s43",
             "s43", "s43", "s44", "s52")
    rounds = 30
    trace_rounds = 3
    warmup_slot = "s43"
    TRIALS = 200

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        permutations = lib.permutations

        def des_blackbox(a):
            """des through the public statistic, with no raw fast path: the
            harness builds a permutation object for every evaluation."""
            return permutations.stat_triple(a).des

        self.statistics.update(
            {name: lib.shuffle_algebra.STATISTICS[name]
             for name in _COMPATIBLE + ("first_symbol",)
             if name != "des_blackbox"},
            des_blackbox=des_blackbox)

    def draw(self, rng, slot):
        if slot == "control":
            name = "first_symbol"
            max_len, colours = self.SIZES[rng.choice(tuple(self.SIZES))]
        else:
            name = rng.choice(_COMPATIBLE)
            max_len, colours = self.SIZES[slot]
        return Op(slot, None, {"statistic": name, "max_len": max_len,
                               "colours": colours,
                               "seed": rng.randrange(10 ** 6)})

    def call(self, op):
        d = op.data
        return self.lib.shuffle_algebra.check_shuffle_compatibility(
            self.statistics[d["statistic"]], trials=self.TRIALS,
            max_len=d["max_len"], colours=d["colours"], seed=d["seed"],
            statistic_name=d["statistic"])

    def check_output(self, op, out):
        d = op.data
        if d["statistic"] == "first_symbol":
            if out.ok or out.counterexample.get("kind") != "relabelling":
                return "planted first_symbol control was not caught"
            return None
        if not out.ok:
            return f"{d['statistic']} reported a counterexample"
        expected = exhaustive_count(d["max_len"], d["colours"], self.TRIALS)
        if out.trials != expected:
            return f"{out.trials} checks performed, expected {expected}"
        return None

    def render_result(self, result):
        return json.dumps(result.to_json_obj(), sort_keys=True)


# -- qsym_verify --------------------------------------------------------------


def _s_des(word):
    """Coloured descent set of a (symbol, colour) word, written out from its
    definition: interior positions where the colour changes or an
    equal-colour symbol descent occurs, and the final position."""
    out = [(i + 1, c1) for i, ((s1, c1), (s2, c2))
           in enumerate(zip(word, word[1:])) if c1 != c2 or s1 > s2]
    return tuple(out + [(len(word), word[-1][1])]) if word else ()


def psi_classes(max_len: int, colours: int) -> int:
    """Number of coloured descent sets of coloured permutations of length
    at most max_len: the psi suite checks one permutation per class."""
    total = 0
    for n in range(max_len + 1):
        seen = set()
        for order in itertools.permutations(range(1, n + 1)):
            for cols in itertools.product(range(colours), repeat=n):
                seen.add(_s_des(list(zip(order, cols))))
        total += len(seen)
    return total


class QsymVerify(Workload):
    name = "qsym_verify"
    why = ("verify psi and verify qsym: the only path through mpoly, qsym "
           "and HImage.series")
    # slot -> (suite, max_len, colours, range of t_order or cutoff).  The
    # suites are exhaustive over their bounds, so the bounds set the cost;
    # they are fixed per slot wherever the cost would otherwise vary with
    # the seed in the classes that hold the median and p90.
    SUITES = {
        "qsym_l1": ("qsym", 1, 3, (3, 6)),
        "psi_l2_t6": ("psi", 2, 3, (6, 6)),
        "psi_l2_t7": ("psi", 2, 3, (7, 7)),
        "psi_l2_t8": ("psi", 2, 3, (8, 8)),
        "qsym_l2": ("qsym", 2, 2, (3, 3)),
        "psi_l3_t6": ("psi", 3, 2, (6, 6)),
        "psi_l3_t7": ("psi", 3, 2, (7, 7)),
    }
    slots = ("qsym_l1", "qsym_l1", "psi_l2_t6", "psi_l2_t7", "psi_l2_t7",
             "psi_l2_t8", "qsym_l2", "psi_l3_t6", "psi_l3_t7", "psi_l3_t7")
    rounds = 60
    trace_rounds = 4
    warmup_slot = "psi_l2_t7"

    def __init__(self, lib, workdir):
        super().__init__(lib, workdir)
        self._classes: dict = {}

    def draw(self, rng, slot):
        suite, max_len, colours, (lo, hi) = self.SUITES[slot]
        bound = rng.randint(lo, hi)
        flag = "--t-order" if suite == "psi" else "--cutoff"
        return Op(slot, ["verify", suite, "--max-len", str(max_len), flag,
                         str(bound), "--colours", str(colours)],
                  {"suite": suite, "max_len": max_len, "colours": colours})

    def check_output(self, op, out):
        report = json.loads(out.stdout)
        d = op.data
        if report["suite"] != d["suite"] or report["failures"]:
            return f"suite {report['suite']} failures {report['failures']}"
        if d["suite"] == "qsym":
            side = sum(math.factorial(n) * d["colours"] ** n
                       for n in range(d["max_len"] + 1))
            expected = side * side
        else:
            key = (d["max_len"], d["colours"])
            if key not in self._classes:
                self._classes[key] = psi_classes(*key)
            expected = self._classes[key]
        if report["cases"] != expected:
            return f"{report['cases']} cases, expected {expected}"
        return None


WORKLOADS = {w.name: w for w in (ZetaProducts, FileHadamard, CompatSweep,
                                 QsymVerify)}
