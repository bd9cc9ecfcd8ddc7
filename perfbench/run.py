"""permqubo benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload gap-scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Set-up (import, input generation, instance files) is timed five times,
once here and four times in fresh interpreters, and reported as a median.
Repetitions then run until ``--seconds`` would be exceeded; every output
is checked outside the timed region.  Gated times are scaled to a nominal
host speed measured by a fixed reference loop (see REFERENCE_S).
``--trace 1`` alternates untraced and traced repetitions on the same
inputs and reports per-layer metrics from the traced ones.  The last
stdout line is a JSON object with the
keys correct, attempted, failed and metrics; the lines before it, and
``.perfbench/<workload>-seed<seed>-trace<t>.json`` (environment, all
samples, failures), explain it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("gap-scan", "anneal-9q", "sa-16bit", "cli-solve-n8")
SETUP_REPEATS = 5
# On a shared host the machine's speed moves by up to 1.6-2x in phases that
# last minutes (a fixed loop shows it, with CPU time equal to wall time and
# no steal time), so raw times of the same code differ by that much from
# one run to the next.  Before every repetition the run times a fixed
# reference loop; gated times are multiplied by (REFERENCE_S / the run's
# median reference time) ** REFERENCE_EXPONENT, i.e. given in seconds on a
# host that runs the loop in REFERENCE_S.  The workloads slow down less
# than the loop: across runs their log time followed the loop's with slope
# 0.4-0.9, and 0.7 gave the steadiest results on every workload (see
# perfbench/README.md).  Raw times are printed and recorded beside them.
REFERENCE_S = 0.04
REFERENCE_ITERS = 15000
REFERENCE_EXPONENT = 0.7
# One BLAS thread: with two, the state-vector code's small products keep
# both vCPUs busy (CPU time 1.9x wall time) and, on a shared host, the
# timings follow the scheduler rather than the code.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit.  Untraced runs put END_TO_END in the result line; UNGATED is
# printed and recorded only: raw times and throughput follow the host's
# speed phases, and the ratios can be 0 on correct code.
END_TO_END = {
    "run_s": "s",
    "run_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNGATED = {"run_wall_s": "s", "run_wall_cpu_s": "s", "setup_wall_s": "s", "reference_s": "s",
           "solves_per_s": "1/s", "failure_ratio": "ratio", "success_rate": "ratio",
           "mean_success_fraction": "ratio"}


def _setup_in_child(name: str, seed: int, tiny: bool) -> float:
    """Set-up time in a fresh interpreter, so the import is cold as a user sees it."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        code = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]\n"
            "import workloads\n"
            f"workloads.setup({name!r}, {seed}, {tiny}, {workdir!r})\n"
            "print(time.perf_counter() - t0)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _blas() -> list[dict]:
    """Loaded OpenBLAS libraries with their configuration and thread count."""
    try:
        paths = sorted({line.split()[-1] for line in open("/proc/self/maps", encoding="utf-8")
                        if "openblas" in line and ".so" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
        found.append(info)
    return found


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "permqubo_workers": os.environ.get("PERMQUBO_WORKERS"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": params,
    }


def summarize(samples: list[float]) -> dict:
    """Median, the highest standard percentile with >= 10 samples above it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "count": n}
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


def reference_s() -> float:
    """Wall time of a fixed loop of interpreter work and small numpy operations."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 512) + 0j
    acc = 0
    t0 = perf_counter()
    for i in range(REFERENCE_ITERS):
        acc += i * i
        acc += (v * 1.0001).real.sum()
    return perf_counter() - t0


def measure(name: str, params: dict, pool: list, seconds: float, trace: bool, workdir):
    """Closed loop over the pool until the next iteration would pass ``seconds``.

    Returns the repetition times per pass, the reference-loop times (one per
    iteration, outside the timed region), the check outcomes, the errors and
    the tracer.
    """
    import spans
    import workloads

    capture = spans.Capture()
    tracer = spans.Tracer() if trace else None
    passes = (None, tracer) if trace else (None,)
    times = {tr is not None: {"wall": [], "cpu": []} for tr in passes}
    outcomes, errors, iteration_s, refs = [], [], [], []
    start = perf_counter()
    k = 0
    while not iteration_s or perf_counter() - start + statistics.median(iteration_s) <= seconds:
        t_iter = perf_counter()
        refs.append(reference_s())
        item = pool[k % len(pool)]
        for tr in passes:
            if tr is not None:
                tr.rep = k
            with spans.instrumented(capture, tr):
                w0, c0 = perf_counter(), process_time()
                try:
                    output = workloads.run(name, params, item, workdir)
                    error = None
                except Exception:  # a failed repetition is counted, the loop goes on
                    error = traceback.format_exc()
                w1, c1 = perf_counter(), process_time()
            calls = capture.take()
            if error is None:
                times[tr is not None]["wall"].append(w1 - w0)
                times[tr is not None]["cpu"].append(c1 - c0)
                try:
                    rep_outcomes = workloads.check(name, item, output, calls, workdir)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                errors.append(error)
                rep_outcomes = [{"failures": [error.strip().splitlines()[-1]], "success": False,
                                 "fraction": 0.0}] * workloads.solves_per_rep(name)
            outcomes.extend(rep_outcomes)
        iteration_s.append(perf_counter() - t_iter)
        k += 1
    return times, refs, outcomes, errors, tracer


def run_all(args) -> int:
    """Every workload in a fresh process of its own, as a single-workload run sees it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + ["--tiny"] * args.tiny, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def run_one(args) -> int:
    os.environ.pop("PERMQUBO_WORKERS", None)
    os.environ.update(BLAS_ENV)  # before numpy is imported, and inherited by set-up children
    for path in (SRC, BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    try:
        t0 = perf_counter()
        import workloads

        pool = workloads.setup(args.workload, args.seed, args.tiny, workdir)
        setup_times = [perf_counter() - t0]
        if not args.trace:
            setup_times += [_setup_in_child(args.workload, args.seed, args.tiny)
                            for _ in range(SETUP_REPEATS - 1)]
        params = workloads.SIZES[args.workload]["tiny" if args.tiny else "full"]
        times, refs, outcomes, errors, tracer = measure(
            args.workload, params, pool, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in outcomes if o["failures"])
    wall, cpu = times[False]["wall"], times[False]["cpu"]
    if not wall or (args.trace and not times[True]["wall"]):
        print("".join(errors[:3]) + "error: no repetition completed", file=sys.stderr)
        return 1
    stats = {"run_wall_s": summarize(wall), "run_wall_cpu_s": summarize(cpu),
             "setup_wall_s": summarize(setup_times), "reference_s": summarize(refs)}
    scale = (REFERENCE_S / stats["reference_s"]["median"]) ** REFERENCE_EXPONENT
    values = {
        "run_s": stats["run_wall_s"]["median"] * scale,
        "run_cpu_s": stats["run_wall_cpu_s"]["median"] * scale,
        "setup_s": stats["setup_wall_s"]["median"] * scale,
        "run_wall_s": stats["run_wall_s"]["median"],
        "run_wall_cpu_s": stats["run_wall_cpu_s"]["median"],
        "setup_wall_s": stats["setup_wall_s"]["median"],
        "reference_s": stats["reference_s"]["median"],
        "solves_per_s": workloads.solves_per_rep(args.workload) * len(wall) / sum(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failure_ratio": failed / len(outcomes),
        "success_rate": statistics.fmean(o["success"] for o in outcomes),
        "mean_success_fraction": statistics.fmean(o["fraction"] for o in outcomes),
    }
    units = dict(END_TO_END, **UNGATED)
    if args.trace:
        import spans

        traced = times[True]["wall"]
        stats["traced_run_s"] = summarize(traced)
        layers = spans.layer_metrics(tracer, len(traced))
        layers["trace_overhead_ratio"] = (stats["traced_run_s"]["median"] / values["run_wall_s"],
                                          "ratio")
        reported = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans.write(tracer, OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        reported = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    env = environment(args, params)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={len(outcomes)} failed={failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, unit in units.items():
        extra = ""
        if key in stats:
            extra = "  (" + " ".join(f"{k}={v:.6g}" for k, v in stats[key].items()) + ")"
        print(f"  {key:<24} {values[key]:>12.6g} {unit}{extra}")
    if args.trace:
        for key, metric in reported.items():
            print(f"  {key:<40} {metric['value']:>12.6g} {metric['unit']}")
    for error in errors[:3]:
        print(error, file=sys.stderr)
    for message in sorted({m for o in outcomes for m in o["failures"]})[:10]:
        print(f"check failed: {message}", file=sys.stderr)

    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "env": env, "stats": stats, "values": values, "units": units, "metrics": reported,
        "samples": times[False], "traced_samples": times.get(True), "setup_samples": setup_times,
        "reference_samples": refs, "scale": scale,
        "failures": [o["failures"] for o in outcomes if o["failures"]], "errors": errors,
    }, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": reported}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (same code paths, seconds-long runs)")
    args = parser.parse_args(argv)
    if not (SRC / "permqubo" / "__init__.py").is_file():
        print(f"error: permqubo sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
