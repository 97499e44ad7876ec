"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that

* a corrupted result (a perturbed numerator coefficient, a flipped verdict,
  an injected failure) counts as a failed operation on every workload, and
  the same operations pass uncorrupted;
* no generated operation, for any seed tried, exceeds the word cap, and the
  support sizes the generator predicts are the ones the program builds;
* the tracer restores every binding it replaced, and reports exactly the
  per-layer metrics that BENCHMARK.json declares.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from tracer import Tracer
from workloads import CAP_WORDS, WORKLOADS, CliOutput

CAP_SEEDS = range(100)
FILE_SEEDS = range(5)


def _bump_json_coefficient(numerator):
    cell = numerator[0]["coefficient"][0]
    cell["value"] = str(Fraction(cell["value"]) + 1)


def corrupt(lib, out):
    """The output with one numerator coefficient (or verdict) changed."""
    if isinstance(out, CliOutput):
        text = out.stdout
        if text.startswith("{"):
            head, _, tail = text.partition("\n}\n")
            obj = json.loads(head + "\n}")
            if "failures" in obj:
                obj["failures"] = [{"a": "1^0"}]
            else:
                _bump_json_coefficient(obj["w"]["numerator"] if "w" in obj
                                       else obj["numerator"])
            text = json.dumps(obj, indent=2, sort_keys=True) + "\n" + tail
        elif "\\frac{" in text:
            text = text.replace("\\frac{", "\\frac{2", 1)
        else:
            lines = text.splitlines(keepends=True)
            lines[-2] = lines[-2].replace("(", "(2", 1)
            text = "".join(lines)
        return CliOutput(out.code, text)
    if isinstance(out, lib.ratfun.RationalGF):
        numerator = dict(out.numerator)
        numerator[0] = numerator[0] + lib.ratfun.LaurentPoly.one()
        return lib.ratfun.RationalGF(numerator, out.denominator)
    if hasattr(out, "rgf"):
        return dataclasses.replace(out, rgf=corrupt(lib, out.rgf))
    # a compatibility report: flip the verdict
    counterexample = None if out.counterexample else {"kind": "shuffle"}
    return dataclasses.replace(out, counterexample=counterexample)


def one_round(workload, ops, corrupted):
    if corrupted:
        honest = workload.run
        workload.run = lambda op: corrupt(workload.lib, honest(op))
    try:
        return run.timed_pass(workload, ops, 1e-9, 0)
    finally:
        workload.__dict__.pop("run", None)


def test_corruption(workdir) -> list[str]:
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls(run.import_program(), workdir)
        ops = workload.operations(7)
        clean = one_round(workload, ops, corrupted=False)
        bad = one_round(workload, ops, corrupted=True)
        n = len(workload.slots)
        if clean.failures:
            problems.append(f"{name}: clean round failed: {clean.failures[0]}")
        if len(bad.failures) != n:
            problems.append(f"{name}: {len(bad.failures)} of {n} corrupted "
                            f"operations failed their check")
        print(f"{name}: clean round {len(clean.failures)} of {n} failed, "
              f"corrupted round {len(bad.failures)} of {n} failed")
    return problems


def test_cap(workdir) -> list[str]:
    problems = []
    lib = run.import_program()
    zeta = WORKLOADS["zeta_products"](lib, workdir)
    largest = 0
    for seed in CAP_SEEDS:
        for op in zeta.operations(seed):
            largest = max(largest, op.data["words"])
    if largest > CAP_WORDS:
        problems.append(f"zeta_products draws {largest} words")
    # the predicted support is the one the program builds
    ops = [op for op in zeta.operations(0)[:200]
           if op.argv is not None and op.data["words"] <= 384]
    for op in ops[:30]:
        entries = [zeta._closed_form(f, p) for f, p in op.data["entries"]]
        lc, _ = lib.shuffle_algebra.hadamard_iterated(
            [entry.lc for entry in entries], op.data["eps"])
        if len(lc.config.terms) != op.data["words"]:
            problems.append(f"{op.describe()}: support {len(lc.config.terms)}"
                            f" != predicted {op.data['words']}")
    files = WORKLOADS["file_hadamard"](lib, workdir)
    for seed in FILE_SEEDS:
        for op in files.operations(seed):
            words = len(lib.configurations.config_shuffle(
                op.data["lhs"].config,
                lib.configurations.make_strongly_disjoint(
                    op.data["lhs"], op.data["rhs"]).config).terms)
            largest = max(largest, words)
    if largest > CAP_WORDS:
        problems.append(f"a generated operation has {largest} words")
    print(f"cap: largest generated operation has {largest} words "
          f"(cap {CAP_WORDS}; {len(CAP_SEEDS)} zeta seeds, "
          f"{len(FILE_SEEDS)} file seeds)")
    return problems


def test_tracer(workdir) -> list[str]:
    problems = []
    lib = run.import_program()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    workload = WORKLOADS["compat_sweep"](lib, workdir)
    tracer = Tracer(lib, [workload.statistics])
    before = {id(v) for m in (lib.ratfun, lib.cli, lib.zeta, lib.verify,
                              lib.shuffle_algebra, lib.permutations)
              for v in vars(m).values()}
    tables = dict(lib.shuffle_algebra.STATISTICS), dict(workload.statistics)
    tracer.install()
    unwrapped = [m.__name__ for m in (lib.ratfun, lib.shuffle_algebra,
                                      lib.zeta, lib.cli, lib.verify)
                 if not hasattr(m.w_of, "__wrapped__")]
    raw = lib.shuffle_algebra.STATISTICS["sdes"].raw
    tracer.uninstall()
    if unwrapped or raw is lib.permutations.s_des_raw:
        problems.append(f"tracer missed w_of in {unwrapped} or sdes.raw")
    after = {id(v) for m in (lib.ratfun, lib.cli, lib.zeta, lib.verify,
                             lib.shuffle_algebra, lib.permutations)
             for v in vars(m).values()}
    if before != after or tables != (dict(lib.shuffle_algebra.STATISTICS),
                                     dict(workload.statistics)):
        problems.append("tracer left a binding replaced")
    reported = set(tracer.metrics()) | set(run.line_counts()) | {
        "trace.overhead_ratio"}
    if reported != names:
        problems.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"{sorted(reported ^ names)}")
    print(f"tracer: {len(reported)} per-layer metrics, bindings restored")
    return problems


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.BENCH))
    try:
        problems = (test_corruption(workdir) + test_cap(workdir)
                    + test_tracer(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
