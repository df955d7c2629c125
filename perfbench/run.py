"""Benchmark of the rpcsp solve and refute pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``. One
process runs one workload (see ``workloads.py``). Each op gets a freshly
generated instance, made from the seed outside the timed region, and its
output is checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details that are reported but not gated.

``--trace 0`` times untraced ops until their summed time reaches S seconds
and reports the end-to-end metrics; input generation and checks run between
ops, outside the timed region. Set-up (imports, input generation and one
untimed warm-up op) is measured in this process and in two more fresh
processes, and the median is reported. BLAS runs on at most two threads.
``--trace 1`` runs a fixed number of op pairs, derived from S, on
the same inputs, once with every layer call wrapped by ``tracer.Tracer`` and
once without, and reports per-layer self times and counts per traced op.
Spans are written to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""
import time

SETUP_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUPS = 3
# Two BLAS threads at most, so runs on machines of different sizes compare.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    def openblas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(numpy),
        "openblas_scipy": openblas(scipy),
    }


def run_op(wl, inp):
    """(output or None, error text or None, seconds) for one op."""
    t0 = time.perf_counter()
    try:
        out, err = wl.op(inp), None
    except Exception as e:  # a raising op is a failed op, not a failed run
        out, err = None, f"{type(e).__name__}: {e}"
    return out, err, time.perf_counter() - t0


def checked(wl, inp, out, err) -> dict:
    return {"ok": False, "error": err} if err else wl.check(inp, out)


def child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def high_percentile(times: list) -> dict | None:
    """Highest whole percentile with at least ten ops beyond it."""
    p = int(100 * (len(times) - 10) / len(times)) if len(times) > 10 else 0
    if p < 1:
        return None
    return {"p": p, "s": statistics.quantiles(times, n=100, method="inclusive")[p - 1]}


def untraced(wl, args, setup_s: float):
    setups = [setup_s] + [child_setup(args) for _ in range(SETUPS - 1)]
    times, failed, deltas = [], 0, []
    while sum(times) < args.seconds:
        inp = wl.make_input(len(times) + 1)
        out, err, dt = run_op(wl, inp)
        result = checked(wl, inp, out, err)
        del inp, out
        times.append(dt)
        failed += not result["ok"]
        if "delta_hat" in result:
            deltas.append(result["delta_hat"])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_mb,
    }
    info = {
        "ops": len(times),
        "op_times_s": times,
        "op_high_percentile": high_percentile(times),
        "fail_frac": failed / len(times),
        "setup_samples_s": setups,
    }
    if deltas:
        info["delta_hat_p50"] = statistics.median(deltas)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return len(times), failed, metrics, info


def traced(wl, args):
    from layers import PER_LAYER
    from tracer import Tracer

    tracer = Tracer()
    pairs = max(1, round(args.seconds / (2 * wl.nominal_op_s)))
    traced_times, plain_times, per_op = [], [], []
    failed = 0
    for j in range(1, pairs + 1):
        tracer.op = j
        tracer.install()
        with tracer.span("gen"):
            inp = wl.make_input(j)
        tracer.uninstall()
        # Alternate which run goes first, so warm caches favour neither.
        for with_trace in ((True, False) if j % 2 else (False, True)):
            if with_trace:
                tracer.install()
            try:
                with tracer.span("op") if with_trace else contextlib.nullcontext():
                    out, err, dt = run_op(wl, inp)
            finally:
                tracer.uninstall()
            result = checked(wl, inp, out, err)
            failed += not result["ok"]
            if with_trace:
                traced_times.append(dt)
                gap = {"kikuchi.norm_gap": result.get("norm_gap", 0.0)}
                per_op.append(tracer.op_metrics(j) | gap)
            else:
                plain_times.append(dt)
        del inp, out

    residual = max(abs(m["op.residual_s"]) for m in per_op)
    if residual > 1e-6:
        raise RuntimeError(f"layer self times miss the op wall time by {residual} s")
    total = {k: sum(m.get(k, 0.0) for m in per_op) for k in set().union(*per_op)}
    values = {name: total.get(name, 0.0) / len(per_op) for name, _, _, _ in PER_LAYER}
    pair_in = total.get("solver.pair_in", 0)
    values["solver.pair_yield"] = total.get("solver.pair_out", 0) / pair_in if pair_in else 0.0
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    values["trace.overhead_s"] = overhead
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    info = {
        "pairs": pairs,
        "op_p50_traced_s": statistics.median(traced_times),
        "op_p50_untraced_s": statistics.median(plain_times),
        "trace_overhead_s": overhead,
        "max_attribution_residual_s": residual,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    return 2 * pairs, failed, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "rpcsp" / "__init__.py").is_file():
        print(f"error: no rpcsp package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import rpcsp
    from workloads import UNGATED, WORKLOADS

    if Path(rpcsp.__file__).resolve().parent != src / "rpcsp":
        print(f"error: imported rpcsp from {rpcsp.__file__}, not {src}", file=sys.stderr)
        return 2
    known = WORKLOADS | UNGATED
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(known)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = known[args.workload](args.scale, args.seed, str(workdir))
        warm = wl.make_input(0)
        wl.op(warm)
        del warm
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failed, metrics, info = traced(wl, args)
        else:
            attempted, failed, metrics, info = untraced(wl, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info |= {"workload": args.workload, "seed": args.seed, "scale": args.scale,
             "seconds": args.seconds, "trace": args.trace, "env": environment()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
