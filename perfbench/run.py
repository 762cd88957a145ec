"""The yangalg benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload {verify,normalize,tseq} --seed N \\
        --seconds S --trace {0,1}

It imports yangalg from ``src/`` and reads the metric names and units from
``BENCHMARK.json``, both in the repository root above this file.  Load is
one process with one closed-loop client running one op at a time; the
benchmark starts no threads and no worker processes, and pins the BLAS
thread pools to one thread before numpy is imported.

``--trace 0`` times whole cycles of ops until their summed latency reaches
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs cycles
for a third of ``--seconds``, each once untraced and once under the span
tracer of ``spans.py`` in alternating order, prints the per-layer metrics
(per accepted op) and writes every span to ``perfbench/.work/``.  Either way
every op's output is checked, the last line of stdout is the result as one
JSON object, and the exit code is 0.  Without ``src/yangalg`` the benchmark
exits with 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, kernel_s, scales

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_RUNS = 11
MIN_CYCLES = 4          # 12 accepted ops, enough for a tail with 10 beyond it
TAIL_BEYOND = 10
# The layer spans must cover each traced op's wall time up to this slack: the
# benchmark's own glue (stdout capture, argv) runs in the op but in no layer.
UNCOVERED_SHARE, UNCOVERED_S = 0.01, 5e-4
# In a fresh interpreter: warm the calibration kernel, time it, time
# "import yangalg.cli" plus the first yang_table(), and time the kernel again.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from calibration import kernel_s
kernel_s()
before = kernel_s()
t0 = time.perf_counter()
import yangalg.cli
yangalg.multable.yang_table()
t1 = time.perf_counter()
print(t1 - t0, before, kernel_s())
"""


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Set-up times of ``runs`` fresh interpreters, scaled to the calibration
    reference speed by the kernel times taken in the same interpreter, and
    their raw wall times.  A first interpreter, which may write bytecode
    caches, is not counted."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)]
    scaled, raw = [], []
    for k in range(runs + 1):
        child = subprocess.run(cmd, check=True, timeout=120, stdin=subprocess.DEVNULL,
                               capture_output=True, text=True)
        if k:
            wall, before, after = map(float, child.stdout.split())
            raw.append(wall)
            scaled.append(wall * scales([before, after])[0])
    return scaled, raw


def execute(workload, i: int, tracer=None) -> tuple[str, float, str | None]:
    """Run and check op ``i``; returns (kind, latency in s, problem)."""
    kind = workload.kind(i)
    raw, error = None, None
    t0 = time.perf_counter()
    with tracer.op(i, kind) if tracer else contextlib.nullcontext():
        try:
            raw = workload.run(i)
        except Exception:  # the program crashed: count the op as failed
            error = traceback.format_exc(limit=4)
    latency = tracer.ops[i][1] if tracer else time.perf_counter() - t0
    if error is None:
        try:
            error = workload.check(i, raw)
        except Exception:
            error = "output check raised: " + traceback.format_exc(limit=4)
    return kind, latency, error


def run_cycles(workload, seconds: float) -> tuple[list, list[float]]:
    """Closed loop over whole cycles until the summed latency reaches
    ``seconds`` and at least MIN_CYCLES cycles ran; returns the op results
    and the calibration kernel times taken between them."""
    from workloads import CYCLE

    results, kernels, busy = [], [kernel_s()], 0.0
    while busy < seconds or len(results) < MIN_CYCLES * len(CYCLE) or len(results) % len(CYCLE):
        result = execute(workload, len(results))
        kernels.append(kernel_s())
        results.append(result)
        busy += result[1]
    return results, kernels


def tail(latencies: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail with {TAIL_BEYOND} beyond it")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def latency_metrics(results, scale: list[float]) -> tuple[dict, float]:
    """Throughput and latency metrics from op latencies times ``scale``, and
    the tail percentile."""
    lat = [r[1] * f for r, f in zip(results, scale)]
    acc = [x for x, r in zip(lat, results) if r[0] == "accept"]
    rej = [x for x, r in zip(lat, results) if r[0] == "reject"]
    tail_s, tail_pct = tail(acc)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(acc),
        "latency_tail_ms": 1e3 * tail_s,
        "reject_p50_ms": 1e3 * statistics.median(rej),
    }, tail_pct


def end_to_end(results, kernels, setup) -> tuple[dict, dict]:
    """The end-to-end metrics, timings scaled to the calibration reference
    speed, and a detail record with the raw wall times."""
    setup_scaled, setup_raw = setup
    values, tail_pct = latency_metrics(results, scales(kernels))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["setup_s"] = statistics.median(setup_scaled)
    raw_wall = latency_metrics(results, [1.0] * len(results))[0]
    raw_wall["setup_s"] = statistics.median(setup_raw)
    detail = {
        "raw_wall": raw_wall,
        "accepted_ops": sum(r[0] == "accept" for r in results),
        "rejected_ops": sum(r[0] == "reject" for r in results),
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_tail_beyond": TAIL_BEYOND,
        "calibration_kernel_ms": {"reference": 1e3 * REFERENCE_S,
                                  "median": 1e3 * statistics.median(kernels)},
        "setup_runs_s": setup_scaled,
    }
    return values, detail


def per_layer(workload, seconds: float, names, out_path: Path):
    """The per-layer metrics ``names`` from a traced run, a detail record,
    every op result, and the problems found in the trace."""
    from spans import LAYERS, Tracer
    from workloads import CYCLE

    tracer = Tracer()
    untraced, traced, quads = [], [], 0
    # Each cycle runs once untraced and once traced with the same op ids,
    # in alternating order, so drift in the machine's speed and any benefit
    # of running second reach both sides of trace.overhead_ratio alike.
    while sum(r[1] for r in untraced) < seconds / 3 or not untraced:
        ids = range(len(untraced), len(untraced) + len(CYCLE))
        traced_first = len(untraced) // len(CYCLE) % 2 == 1
        if not traced_first:
            untraced += [execute(workload, i) for i in ids]
        before = workload.quads_found
        tracer.install()
        try:
            traced += [execute(workload, i, tracer) for i in ids]
        finally:
            tracer.uninstall()
        quads += workload.quads_found - before
        if traced_first:
            untraced += [execute(workload, i) for i in ids]
    accepted = [i for i, (kind, _, _) in enumerate(traced) if kind == "accept"]
    totals = tracer.totals(accepted)
    acc_wall = sum(traced[i][1] for i in accepted)
    ops = tracer.ops.values()
    coverage = 1 - sum(op[2] for op in ops) / sum(op[1] for op in ops)
    uncovered = [i for i, (_, wall, rest) in tracer.ops.items()
                 if rest > max(UNCOVERED_SHARE * wall, UNCOVERED_S)]
    extra = {
        "trace.overhead_ratio": sum(r[1] for r in traced) / sum(r[1] for r in untraced),
        "trace.coverage": coverage,
        "sequences.brute_force_tseq.quads": quads / len(accepted),
    }
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
            continue
        layer, _, stat = name.rpartition(".")
        if layer not in LAYERS:
            raise KeyError(f"no traced layer behind metric {name}")
        calls, self_s, incl_s = totals[layer]
        values[name] = {"calls": calls / len(accepted), "self_s": self_s / len(accepted),
                        "share": incl_s / acc_wall}[stat]
    problems = []
    if uncovered:
        problems.append(f"layer spans leave too much of ops {uncovered} uncovered")
    detail = {"traced_ops": len(traced), "traced_accepted_ops": len(accepted),
              "uncovered_slack": [UNCOVERED_SHARE, UNCOVERED_S],
              "spans": str(out_path.relative_to(ROOT))}
    tracer.write(out_path, {"accepted_ops": accepted})
    return values, detail, untraced + traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "yangalg" / "__init__.py").is_file() or not manifest_path.is_file():
        print(f"error: {SRC / 'yangalg'} or {manifest_path} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import yangalg
    if Path(yangalg.__file__).resolve().parent != (SRC / "yangalg").resolve():
        print(f"error: imported yangalg from {yangalg.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    manifest = json.loads(manifest_path.read_text())
    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "load": "one process, one closed-loop client, one op at a time",
    }
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        vacuous = [label for label, i, raw in workload.wrong_outputs()
                   if workload.check(i, raw) is None]
        if args.trace:
            out_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            values, detail, results, problems = per_layer(
                workload, args.seconds, units, out_path)
        else:
            # set-up is sampled before and after the timed phase, so that
            # one slow stretch of the machine does not set it alone
            first = measure_setup(SETUP_RUNS // 2)
            results, kernels = run_cycles(workload, args.seconds)
            last = measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
            values, detail = end_to_end(results, kernels,
                                        (first[0] + last[0], first[1] + last[1]))
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(i, p) for i, (_, _, p) in enumerate(results) if p]
    problems += [f"wrong output not counted as failed: {label}" for label in vacuous]
    problems += [f"op {i}: {p}" for i, p in failures[:5]]
    failed_ratio = len(failures) / len(results)
    print(f"yangalg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"ops: attempted {len(results)}, failed {len(failures)}, "
          f"failed_ratio {failed_ratio:.4f}")
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "failed_ratio": failed_ratio, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
