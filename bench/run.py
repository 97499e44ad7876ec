"""The colshuffle benchmark: one workload, one client, a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the program is
imported from ``src/`` beside this directory and nowhere else.  The run

1. sets up ``SETUP_REPS`` times and reports the median as ``setup_s``: a
   fresh import of colshuffle, generation of the seeded operation stream
   (including configuration files) and one warm-up operation;
2. runs the stream in order, each operation starting when the previous one
   returned, in whole rounds until at least ``--seconds`` of operation time
   have passed, and checks every output outside the timed region;
3. with ``--trace 1``, runs the first ``trace_rounds`` rounds of the stream
   again under the tracer and reports per-layer metrics instead of the
   end-to-end ones.

Human-readable lines come first (every metric with its unit and sample
count, ``error_rate``, the digest of the outputs, ``src/`` line counts); the
last line is the JSON result.  BENCHMARK.json lists the workloads and why
each was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, CliOutput, Lib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
LINE_MODULES = ("init", "errors", "permutations", "configurations", "ratfun",
                "mpoly", "shuffle_algebra", "qsym", "zeta", "verify", "cli")


class ProgramMissing(Exception):
    pass


def import_program() -> Lib:
    """Import colshuffle afresh from ``src/`` and return its modules."""
    if not (SRC / "colshuffle" / "__init__.py").is_file():
        raise ProgramMissing(f"no colshuffle package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "colshuffle" or n.startswith("colshuffle.")]:
        del sys.modules[name]
    lib = Lib()
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"colshuffle was imported from {lib.cli.__file__}")
    return lib


def setup(workload_cls, seed, workdir):
    """One timed set-up; returns (seconds, workload, ops, warm-up error)."""
    t0 = time.perf_counter()
    workload = workload_cls(import_program(), workdir)
    ops = workload.operations(seed)
    warm = workload.warmup(ops)
    out = workload.run(warm)
    elapsed = time.perf_counter() - t0
    return elapsed, workload, ops, workload.check(warm, out)


class Pass:
    """Results of running a prefix of the stream."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outputs: list = []
        self.failures: list[str] = []


def run_op(workload, op):
    """Run one operation; returns (seconds, output, error or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception:  # a failed operation is counted, the loop goes on
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


def checked(workload, op, out, error):
    if error is None:
        try:
            error = workload.check(op, out)
        except Exception:  # a malformed output fails its check
            error = traceback.format_exc()
    return error


def timed_pass(workload, ops, seconds, keep):
    """Closed loop over the stream, in whole rounds, until ``seconds`` of
    operation time have passed; every output is checked and the first
    ``keep`` are kept.  Whole rounds give every run the same mix of sizes."""
    result = Pass()
    busy = 0.0
    i = 0
    while busy < seconds or i % len(workload.slots):
        op = ops[i % len(ops)]
        elapsed, out, error = run_op(workload, op)
        busy += elapsed
        result.latencies.append(elapsed)
        error = checked(workload, op, out, error)
        if error is not None:
            result.failures.append(f"{op.describe()}: {error}")
        if i < keep:
            result.outputs.append(out)
        i += 1
    return result


def traced_pass(workload, ops, count, tracer, reference: Pass):
    """The first ``count`` operations under the tracer.  Outputs are
    compared with the untraced ones, or checked when the untraced pass did
    not get that far, after the tracer is removed."""
    result = Pass()
    tracer.install()
    try:
        for op in ops[:count]:
            elapsed, out, error = run_op(workload, op)
            tracer.end_op()
            result.latencies.append(elapsed)
            result.outputs.append((out, error))
    finally:
        tracer.uninstall()
    for i, (op, (out, error)) in enumerate(zip(ops, result.outputs)):
        if error is None and i < len(reference.outputs):
            if workload.render(out) != workload.render(reference.outputs[i]):
                error = "traced output differs from the untraced one"
        else:
            error = checked(workload, op, out, error)
        if error is not None:
            result.failures.append(f"{op.describe()}: {error}")
        if isinstance(out, CliOutput):
            tracer.counts["cli.stdout_bytes"] += len(out.stdout.encode())
    return result


def line_counts() -> dict[str, int]:
    counts = {}
    for module in LINE_MODULES:
        path = SRC / "colshuffle" / ("__init__.py" if module == "init"
                                     else f"{module}.py")
        counts[f"{module}.lines"] = (len(path.read_text().splitlines())
                                     if path.is_file() else 0)
    counts["src.lines"] = sum(len(p.read_text().splitlines())
                              for p in SRC.rglob("*.py"))
    return counts


def unit_of(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith(".self_ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".lines"):
        return "lines"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("share") or "per_" in name:
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        return bench(workload_cls, args, workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(workload_cls, args, workdir) -> int:
    setups = []
    failures = []
    for _ in range(SETUP_REPS):
        elapsed, workload, ops, error = setup(workload_cls, args.seed, workdir)
        setups.append(elapsed)
        if error is not None:
            failures.append(f"warm-up: {error}")
    keep = workload.trace_rounds * len(workload.slots)

    untraced = timed_pass(workload, ops, args.seconds, keep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += untraced.failures
    attempted = len(untraced.latencies) + len(setups)

    lat = untraced.latencies
    n = len(lat)
    passed = n - len(untraced.failures)
    quantiles = statistics.quantiles(lat, n=10)
    end_to_end = {
        "ops_per_s": passed / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_p90_ms": quantiles[8] * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    digest = hashlib.sha256("".join(
        workload.render(out) for out in untraced.outputs).encode()).hexdigest()

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"closed loop, 1 client: {n} operations in {sum(lat):.3f} s of "
          f"operation time; set-up repeated {len(setups)} times")
    for name, value in end_to_end.items():
        samples = len(setups) if name == "setup_s" else n
        print(f"  {name} = {value:.6g} {unit_of(name)} (n={samples})")
    print(f"  error_rate = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted})")
    print(f"  output digest of the first {len(untraced.outputs)} operations: "
          f"sha256 {digest}")
    lines = line_counts()
    print("  " + " ".join(f"{k}={v}" for k, v in lines.items()))

    metrics = end_to_end
    if args.trace:
        tracer = Tracer(workload.lib, [workload.statistics])
        traced = traced_pass(workload, ops, keep, tracer, untraced)
        failures += traced.failures
        attempted += len(traced.latencies)
        shared = min(len(traced.latencies), len(lat))
        overhead = sum(traced.latencies[:shared]) / sum(lat[:shared])
        metrics = {**tracer.metrics(), **lines,
                   "trace.overhead_ratio": overhead}
        print(f"traced pass: first {len(traced.latencies)} operations, "
              f"overhead ratio {overhead:.4g} over the first {shared}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {unit_of(name)}")

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
