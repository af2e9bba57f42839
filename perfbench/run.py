"""Benchmark command for darmoncheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One client sends one operation after another (a closed loop) in
this single process.  The run repeats whole rounds of the seeded
operations until S seconds have passed and at least MIN_OPS operations
were attempted, checks every output, and prints its metrics; the last line
of standard output is one JSON object.  With --trace 1 the library's
public functions are wrapped (see tracing.py) and the per-layer metrics
are printed instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import os

# numpy's thread pools are held to one thread, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("congruence-sweep", "frobenius-determinants", "kolyvagin-transform")
# the 90th percentile needs at least ten samples above it
MIN_OPS = 100
# set-up is measured this many times, each in a fresh interpreter
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, make the inputs, warm up, then exit")
    return ap.parse_args(argv)


def import_library():
    """Import darmoncheck from this checkout's src/, and nothing else."""
    if not (SRC / "darmoncheck" / "__init__.py").is_file():
        sys.exit(f"run.py: no darmoncheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import darmoncheck
    if Path(darmoncheck.__file__).resolve().parent != SRC / "darmoncheck":
        sys.exit(f"run.py: imported darmoncheck from {darmoncheck.__file__}")
    import workloads
    return workloads


def set_up(workloads, name: str, seed: int):
    wl = workloads.WORKLOADS[name]
    ops = wl.make_round(seed)
    if wl.warm_up:
        wl.warm_up(ops)
    return wl, ops


def setup_sample(args) -> float:
    """Wall time of a fresh interpreter that imports, makes inputs, warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls with sleeps of up to 50 ms, which would
    # round the sample; a watchdog kills a hung child instead
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        sys.exit(f"run.py: set-up run exited with {code}")
    return elapsed


def per_layer_metrics(tracing, at_setup, at_end, cache_setup, cache_end, rounds):
    """Totals for the set-up plus one round.

    Every round repeats the same operations, so the timed part's totals
    divided by the number of rounds are one round's work."""
    def window(a, b):
        return a + (b - a) / rounds

    out = {}
    hits, misses = (window(a, b) for a, b in zip(cache_setup, cache_end))
    for metric, (span, field) in tracing.PER_LAYER.items():
        if field == "builds":
            value, unit = misses, "count"
        elif field == "hit_ratio":
            value, unit = (hits / (hits + misses) if hits + misses else 0.0), "ratio"
        else:
            idx = 0 if field == "calls" else 1
            value = window(at_setup.get(span, (0, 0.0))[idx], at_end.get(span, (0, 0.0))[idx])
            unit = "count" if field == "calls" else "s"
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    if args.setup_only:
        set_up(workloads, args.workload, args.seed)
        sys.stdout.flush()
        os._exit(0)

    import checks
    # the harness's own objects (sympy's above all) are left out of the
    # garbage collector's scans, which would otherwise slow the library
    gc.freeze()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    stats = workloads.CacheStats()
    wl, ops = set_up(workloads, args.workload, args.seed)
    at_setup = tracer.totals() if tracer else None
    cache_setup = stats.read()

    latencies: list[float] = []
    by_op: dict[str, list[float]] = {}
    attempted = raised = wrong = 0
    problems: list[str] = []
    rounds = 0
    setup_samples: list[float] = []
    # set-up samples are taken between rounds, spread over the run, and
    # their time does not count towards the run's length
    paused = 0.0
    t_start = time.perf_counter()
    while (rounds == 0 or attempted < MIN_OPS
           or time.perf_counter() - t_start - paused < args.seconds):
        for op in ops:
            if wl.clear_per_op:
                stats.clear_module_caches()
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = workloads.run_op(op)
            except Exception:
                raised += 1
                if rounds == 0:
                    problems.append(f"{op} raised:\n{traceback.format_exc()}")
                continue
            latencies.append(time.perf_counter() - t0)
            by_op.setdefault(f"{op.kind}{op.args}", []).append(latencies[-1])
            found = checks.check(op, result)
            del result
            if found:
                wrong += 1
                if rounds == 0:
                    problems.append(f"{op}: " + "; ".join(found))
        rounds += 1
        if not tracer and len(setup_samples) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            setup_samples.append(setup_sample(args))
            paused += time.perf_counter() - t0
    wall = time.perf_counter() - t_start - paused
    if len(latencies) < 2:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(f"run.py: only {len(latencies)} of {attempted} operations completed")
    ops_per_s = len(latencies) / sum(latencies)

    if tracer:
        metrics = per_layer_metrics(tracing, at_setup, tracer.totals(), cache_setup,
                                    stats.read(), rounds)
        tracer.uninstall()
    run_problems = []
    if args.workload == "congruence-sweep":
        # the classical case n = 1 of every field in the sweep, once a run
        run_problems = checks.check_base_cases({op.args[0] for op in ops})
    problems += run_problems
    failed = raised + wrong
    correct = wrong == 0 and not run_problems

    if not tracer:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args))
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": rounds, "round_ops": len(ops),
               "attempted": attempted, "failed": failed, "wall_s": wall,
               "ops_per_s": ops_per_s, "problems": problems, "metrics": metrics,
               "op_latencies_s": by_op}
    if not tracer:
        summary["setup_samples_s"] = setup_samples
    else:
        tracer.dump(OUT / f"spans-{tag}.npz")
        summary["spans"] = len(tracer.span_start)
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{attempted} attempted, {failed} failed, {wall:.1f} s"
          f"{' traced' if tracer else ''}, {ops_per_s:.4g} ops/s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
