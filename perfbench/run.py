"""graphflow benchmark: one workload per process, closed loop with one client.

    python3 perfbench/run.py --workload flow-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the library is imported from ``src``, and the
workload and metric names and units are read from ``BENCHMARK.json``.  A
run's set-up is everything from process start to its first timed op: the
interpreter, the imports, the inputs generated from ``--seed``, and one
untimed warm-up round at smoke size, which visits every kind of input once.
Then each op starts when the previous one ends, until ``--seconds`` have
passed and the current round of inputs is complete.  Every op's outputs are
checked, warm-up ops included.

``--trace 0`` reports the end-to-end metrics.  After its timed window it sets
up twice more, each time in a fresh process that stops before its first
timed op, and ``setup_s`` is the median of the three cold set-ups.
``--trace 1`` runs each op untraced and then traced on the same inputs,
checks that tracing changed no number, and reports the per-layer metrics.
The last line of standard output is the result object, and the exit code is
0 whenever it is printed, also when ``correct`` is false; a results file with
the machine and every sample goes to ``perfbench/results``, and a traced run
writes its spans there too.  ``--workload all`` runs every workload in its
own process, untraced and then traced, prints a summary table, and exits
non-zero unless every run printed a correct result.  ``--size smoke``
shrinks every workload to milliseconds per op, for the benchmark's own test.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXTRA_SETUPS = 2  # cold set-ups in fresh processes, after an untraced run's window


def _cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def machine_info(blas_cap, seed):
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level and kind:
            caches[f"L{level}-{kind}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_cap": blas_cap,
        "seed": seed,
        "note": "the last-level cache (300 MB shared L3 on the reference machine) exceeds "
                "every workload's working set, so no memory-bandwidth metric is possible; "
                "byte figures are computed from array sizes, not measured",
    }


def _running(wl, i, t0, seconds):
    """Start another op until the deadline has passed and the round is complete."""
    return time.perf_counter() - t0 < seconds or i % wl.round_size


def _run_ops(wl, cases, seconds):
    """Closed loop: each op starts when the previous one ends."""
    latencies, failures = [], []
    t0 = time.perf_counter()
    end = t0
    i = 0
    while _running(wl, i, t0, seconds):
        case = cases[i % len(cases)]
        start = time.perf_counter()
        problems = _attempt(wl, case)[1]
        end = time.perf_counter()
        latencies.append(end - start)
        if problems:
            failures.append({"op": i, "problems": problems})
        i += 1
    return latencies, failures, end - t0


def _attempt(wl, case, run=None):
    """One op and its output check: (outputs or None, list of problems)."""
    try:
        out = run(wl.op, case) if run else wl.op(case)
    except Exception as exc:  # a failed op is counted, never retried or dropped
        return None, [f"{type(exc).__name__}: {exc}"]
    return out, wl.check(case, out)


def _run_traced(wl, cases, seconds):
    """Pairs of (untraced, traced) ops on the same inputs."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, failures, mismatches = [], [], [], []
    t0 = time.perf_counter()
    i = 0
    while _running(wl, i, t0, seconds):
        case = cases[i % len(cases)]
        start = time.perf_counter()
        out_plain, problems = _attempt(wl, case)
        plain.append(time.perf_counter() - start)
        if problems:
            failures.append({"op": i, "traced": False, "problems": problems})
        tracer.install()
        try:
            start = time.perf_counter()
            out_traced, problems = _attempt(wl, case, tracer.run_op)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        if problems:
            failures.append({"op": i, "traced": True, "problems": problems})
        if out_traced is not None and "bytes_written" in out_traced:
            tracer.counters["cli.bytes_written"] += out_traced["bytes_written"]
        untraced_fp, traced_fp = (out and repr(wl.fingerprint(out))
                                  for out in (out_plain, out_traced))
        if untraced_fp != traced_fp:
            mismatches.append({"op": i, "untraced": untraced_fp, "traced": traced_fp})
        i += 1
    return tracer, plain, traced, failures, mismatches


def _since_process_start():
    """Seconds since the kernel started this process (to its 10 ms clock tick)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _set_up(args, work_dir):
    """The timed inputs, then one checked warm-up round at smoke size."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload][args.size]
    warm = WORKLOADS[args.workload]["smoke"]
    cases = wl.cases(args.seed, work_dir)
    warm_cases = warm.cases(args.seed, os.path.join(work_dir, "warm-up"))[:warm.round_size]
    failures = []
    for k, case in enumerate(warm_cases):
        problems = _attempt(warm, case)[1]
        if problems:
            failures.append({"op": f"warm-up {k}", "problems": problems})
    return wl, cases, len(warm_cases), failures


def _cold_set_ups(args):
    """Set up again in fresh processes; their set-up times and warm-up checks."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    runs = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def run_workload(args):
    blas_cap = _cap_blas_threads()
    if not os.path.isfile(os.path.join(ROOT, "src", "graphflow", "__init__.py")):
        print(f"error: no graphflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl, cases, warm_ops, failures = _set_up(args, work_dir)
        setups = [_since_process_start()]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0], "attempted": warm_ops,
                              "failures": failures}))
            return 0
        if args.trace:
            tracer, plain, traced, timed_failures, mismatches = _run_traced(
                wl, cases, args.seconds)
            latencies = plain + traced
        else:
            latencies, timed_failures, window = _run_ops(wl, cases, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures += timed_failures
    if not args.trace:
        for run in _cold_set_ups(args):
            setups.append(run["setup_s"])
            warm_ops += run["attempted"]
            failures += run["failures"]
    attempted = len(latencies) + warm_ops
    failed = len(failures)
    machine = machine_info(blas_cap, args.seed)
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
              "failures": failures[:20]}
    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} ({args.size}) seed {args.seed} trace {args.trace}: "
          f"{len(latencies)} timed ops, {warm_ops} warm-up ops, {failed} failed")
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics, not_run = tracer.per_layer(PER_LAYER, overhead)
        units = PER_LAYER
        correct = failed == 0 and not mismatches
        record.update(bit_identical=not mismatches, mismatches=mismatches[:5],
                      untraced_s=plain, traced_s=traced, bindings=dict(tracer.bindings),
                      not_run=not_run)
        with gzip.open(os.path.join(RESULTS, f"{tag}-spans.json.gz"), "wt",
                       compresslevel=1) as handle:
            handle.write(json.dumps(tracer.columns()))
        for line in tracer.layer_table():
            print(line)
        print(f"  tracing overhead {overhead:+.4g} s per op (traced minus untraced median, "
              f"{len(plain)} pairs); outputs bit-identical: {not mismatches}")
        if not_run:
            print(f"  layer not run on this workload, so reported as 0: {', '.join(not_run)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / window,
            "op_p50_s": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
        metrics = {name: values[name] for name in END_TO_END}
        correct = failed == 0
        record.update(latencies_s=latencies, window_s=window, setups_s=setups)
        for name, value in metrics.items():
            print(f"  {name:<12} {value:.6g} {units[name]}"
                  + (f" (median of {len(latencies)} ops)" if name == "op_p50_s" else "")
                  + (f" (median of {len(setups)} cold set-ups)" if name == "setup_s" else ""))
        print(f"  {'fail_ratio':<12} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for failure in failures[:5]:
        print(f"  failed op {failure['op']}: {'; '.join(failure['problems'])}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record["result"] = result
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, untraced then traced; a summary table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            rows[(name, trace)] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(f"\n{'workload':<14} {'correct':<8} " + " ".join(
        f"{m + ' (' + u + ')':>16}" for m, u in END_TO_END.items()) + f" {'fail_ratio (1)':>16}"
          + f" {'trace overhead':>16}")
    for name in WORKLOAD_NAMES:
        plain, traced = rows[(name, 0)], rows[(name, 1)]
        if plain is None or traced is None:
            print(f"{name:<14} run failed")
            continue
        cells = " ".join(f"{plain['metrics'][m]['value']:>16.5g}" for m in END_TO_END)
        ratio = plain["failed"] / plain["attempted"]
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        ok = plain["correct"] and traced["correct"]
        print(f"{name:<14} {str(ok):<8} {cells} {ratio:>16.5g} {overhead:>+14.4g} s")
    print(json.dumps({f"{n}/trace{t}": r for (n, t), r in rows.items()}))
    return 0 if all(row and row["correct"] for row in rows.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.makedirs(RESULTS, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
