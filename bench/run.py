"""Benchmark of the pdc_entanglement package.

Run from the root of a checkout:

    python3 bench/run.py --workload phase_map --seed 1 --seconds 30 --trace 0

One closed loop with a single caller runs the workload's items for
``--seconds`` seconds (whole rounds, and at least the workload's whole
cycle of distinct items), checks every output, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
pass (``--trace 1``).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A record with the
run context goes to ``.bench_out/``.  README.md explains the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS threads are capped at the CPUs this process may run on; set before
# numpy is imported so the cap holds for every dense solve.  A set-up
# launch does no dense linear algebra, and one BLAS thread keeps the start-up
# of idle BLAS threads on a busy host out of setup_s.
SETUP_ONLY = "--setup-only" in sys.argv
BLAS_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1" if SETUP_ONLY else str(BLAS_THREADS)

import numpy  # noqa: E402

import calibration  # noqa: E402

SETUP_REPEATS = 11  # fresh interpreters per run; setup_s is their median
SETUP_KERNEL_RUNS = 5  # kernel runs in each reading around a set-up launch
TRACE_SHARE = 0.1  # a traced run measures this share of --seconds untraced, then traces the same rounds
TAIL_BEYOND = 10  # item_tail_ms: the highest percentile with this many samples beyond it
REPEATS = 3  # calls per item that is faster than REPEAT_BELOW_S; its latency is the fastest
REPEAT_BELOW_S = 0.1


def load_package():
    """Import pdc_entanglement from this checkout's src/, never from elsewhere."""
    if not (SRC / "pdc_entanglement" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'pdc_entanglement'}")
    sys.path.insert(0, str(SRC))
    import pdc_entanglement
    import pdc_entanglement.cli  # noqa: F401  (the figures workload and the tracer need it)

    if Path(pdc_entanglement.__file__).resolve().parent != (SRC / "pdc_entanglement").resolve():
        sys.exit(f"error: pdc_entanglement imported from {pdc_entanglement.__file__}")
    return pdc_entanglement


class Tally:
    """Latencies and check outcomes of one pass.

    Latencies are per call of an item; attempted and failed count distinct
    items, so a run reports the same counts for a seed whatever its length.
    An item fails when any of its calls fails a check.
    """

    def __init__(self):
        self.latencies: list[float] = []  # scaled to the nominal host speed
        self.raw: list[float] = []
        self.items: set = set()
        self.failed_items: set = set()
        self.failed_kinds: set = set()  # (item, kind) pairs
        self.unexpected = 0  # calls with a failure that is not the known defect
        self.points = 0

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return len(self.failed_items)

    @property
    def kinds(self) -> Counter:
        return Counter(kind for _, kind in self.failed_kinds)

    def add(self, item, raw: float, factor: float, failures, points: int) -> None:
        self.raw.append(raw)
        self.latencies.append(raw * factor)
        self.points += points
        self.items.add(item)
        if failures:
            self.failed_items.add(item)
            self.unexpected += any(not f.known for f in failures)
            for f in failures:
                self.failed_kinds.add((item, f"{f.check}@tau={f.tau:g}" + ("" if f.known else "!")))


def run_item(item, tally: Tally, tracer=None) -> None:
    """Time item.run (package calls only), then check its first output.

    The item is bracketed by two readings of the host-speed kernel of its
    kind and its latency is scaled by them (calibration.py).  An item faster
    than REPEAT_BELOW_S is called REPEATS times back to back and its
    latency is the fastest call, so that a stall of the shared host does
    not land in it.  An exception from the package, or from the check of a
    malformed output, fails the item.
    """
    from workloads import Failure

    kind = getattr(item, "calibration", "interp")
    if tracer is None:
        run, reading = item.run, (lambda: calibration.reading(kind))
    else:
        run = lambda: tracer.call("bench.item", item.run)  # noqa: E731
        reading = lambda: tracer.call("bench.calibrate", calibration.reading, kind)  # noqa: E731

    def factor(before):
        return calibration.factor(kind, before, reading())

    before = reading()
    calls = 1
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # the package raised: a failed item, keep measuring
        latency = time.perf_counter() - t0
        tally.add(item, latency, factor(before), [Failure(f"raised {type(exc).__name__}", 0.0)], item.points)
        return
    latency = time.perf_counter() - t0
    if latency < REPEAT_BELOW_S:
        for _ in range(REPEATS - 1):
            t0 = time.perf_counter()
            run()
            latency = min(latency, time.perf_counter() - t0)
        calls = REPEATS
    scale = factor(before)
    try:
        failures = item.check(out) if tracer is None else tracer.call("bench.check", item.check, out)
    except Exception as exc:  # malformed output
        failures = [Failure(f"check raised {type(exc).__name__}", 0.0)]
    tally.add(item, latency, scale, failures, calls * item.points)


def run_rounds(workload, seconds: float, tally: Tally) -> list:
    """Run whole rounds until `seconds` have passed and the workload's
    cycle has run once; returns the rounds run."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        items = workload.next_round()
        rounds.append(items)
        for item in items:
            run_item(item, tally)
        if time.perf_counter() >= deadline and len(rounds) >= len(workload.cycle):
            return rounds


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / n


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until it has imported the
    package and built the workload's inputs: (scaled, raw), one per launch.

    The child prints time.monotonic() when its inputs are ready (that clock
    is system-wide, so the difference does not depend on how the parent
    waits).  Each launch is bracketed by two readings of the interpreter
    kernel and scaled by them, like an item (calibration.py): importing
    modules and building inputs is interpreter-bound work.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration.reading("interp", SETUP_KERNEL_RUNS)
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True).stdout
        raw.append(float(out.split()[-1]) - t0)
        scaled.append(raw[-1] * calibration.factor("interp", before, calibration.reading("interp", SETUP_KERNEL_RUNS)))
    return scaled, raw


def run_context(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    # git must not look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not a repository around the checkout
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pdc_entanglement").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "longdouble_mantissa_bits": int(numpy.finfo(numpy.longdouble).nmant),
        "machine": platform.machine(),
    }


def latency_metrics(lat: list[float]) -> dict:
    tail_s, _ = tail(lat)
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
    }


def end_to_end(workload_name: str, seed: int, seconds: float, workload) -> tuple[Tally, dict, dict]:
    workload.warmup()
    tally = Tally()
    run_rounds(workload, seconds, tally)
    setup, setup_raw = measure_setup(workload_name, seed)
    metrics = latency_metrics(tally.latencies)
    metrics["pass_frac"] = (1.0 - tally.failed / tally.attempted, "ratio")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = latency_metrics(tally.raw)
    raw["setup_s"] = (statistics.median(setup_raw), "s")
    extra = {
        "tail_percentile": tail(tally.latencies)[1],
        "samples": len(tally.latencies),
        "failed_frac": tally.failed / tally.attempted,
        "setup_runs_s": setup,
        "setup_raw_s": setup_raw,
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    return tally, metrics, extra


def per_layer(workload, seconds: float, package, spans_path: Path) -> tuple[Tally, dict, dict]:
    import tracing

    workload.warmup()
    plain = Tally()
    rounds = run_rounds(workload, seconds * TRACE_SHARE, plain)

    tracer = tracing.Tracer()
    traced = Tally()
    patched = tracing.install(tracer, package)
    try:
        t0 = time.perf_counter()
        for items in rounds:
            for item in items:
                run_item(item, traced, tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracing.restore(patched)
    tracer.write(spans_path)

    metrics = tracing.summarize(tracer, traced.points)
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    # overhead over the timed item calls, both passes scaled to the nominal
    # host speed; the checks are the same in both passes
    untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    metrics["trace_overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.unaccounted_frac"] = ((traced_wall - self_total) / traced_wall, "ratio")
    # a traced pass must reach the same verdicts as the untraced one
    plain.unexpected += traced.failed_items != plain.failed_items
    extra = {"untraced_item_s": untraced_s, "traced_item_s": traced_s, "spans": len(tracer.spans),
             "spans_file": spans_path.name}
    return plain, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the workload's inputs, exit")
    args = parser.parse_args(argv)

    package = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, extra = per_layer(workload, args.seconds, package, OUT_DIR / f"{stem}.spans.tsv")
    else:
        tally, metrics, extra = end_to_end(args.workload, args.seed, args.seconds, workload)

    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    attempted = tally.attempted
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"context": context, **extra, "attempted": attempted, "failed": tally.failed,
              "failed_by_check": dict(sorted(tally.kinds.items())), "metrics": named}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("context " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(f"items attempted={attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / attempted:.6g} unexpected={tally.unexpected}")
    for kind, count in sorted(tally.kinds.items()):
        print(f"  failed check {kind}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": attempted,
                      "failed": tally.failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
