"""Benchmark of the varfsv package.

Run from the root of a source checkout:

    python3 bench/run.py --workload gibbs_signed --seed 1 --seconds 35 --trace 0

The workloads are described in `bench/workloads.py` and, with the metrics,
in `BENCHMARK.json`.  With `--trace 0` the run times untraced ops and reports
the end-to-end metrics.  With `--trace 1` it runs each op twice, untraced
and then with every traced layer wrapped, for half the time each, and
reports the per-layer metrics; the spans are written to `bench/out/`.

The package is imported from `src/` of the checkout, never from an installed
copy.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
same numbers by name, the failure counts by exception type, every check and
the environment.  The exit code is 1 when a check fails.
"""

import os

# One process, BLAS pinned to one thread; set before numpy is first imported.
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 3  # fresh processes timed from start to the first timed call
# Set-up is timed on the inputs of one fixed seed: the DGP redraws unstable VAR
# coefficients, 3 to 800 times at n = 50 depending on the seed, which would
# otherwise make setup_s measure the seed's luck instead of the program.
SETUP_SEED = 0
PROBE_TIMEOUT_S = 60


def _import_package():
    if not os.path.isdir(os.path.join(SRC, "varfsv")):
        raise SystemExit(f"no package source at {SRC}/varfsv")
    sys.path.insert(0, SRC)
    import varfsv

    if os.path.dirname(os.path.abspath(varfsv.__file__)) != os.path.join(SRC, "varfsv"):
        raise SystemExit(f"imported varfsv from {varfsv.__file__}, not from {SRC}")
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gibbs_signed", "gibbs_free", "intlike"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rng-offset", type=int, default=0,
                    help="re-seed only the samplers' random streams; the inputs "
                         "stay those of --seed (used by bench/steadiness.py)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _declared(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(args):
    """Median over fresh processes of the time from process start to the
    point where the first op could be timed: imports, data, spec."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(SETUP_SEED), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times), times


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def _say(*parts):
    print(*parts, flush=True)


def _print_ops(wl, results, label):
    fails = wl.failures(results)
    by_type = ", ".join(f"{k}={v}" for k, v in sorted(fails.items())) or "none"
    _say(f"ops    {label}: attempted {len(results)}, failed {sum(fails.values())} "
         f"(by type: {by_type})")


def run_untraced(args, wl):
    setup_s, probe_times = measure_setup(args)
    inp = wl.setup(args.workload, args.seed, args.rng_offset)
    wl.warm_up(inp)
    results = wl.run_ops(inp, args.seconds)
    checks = wl.check_outputs(inp, results)
    if args.workload == "intlike":
        checks += wl.check_reference(args.rng_offset)
    wall = sum(r.seconds for r in results)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": wl.op_units(inp, results) / wall,
        "ess_per_s": wl.ess_per_s(inp, results),
    }
    per = "call" if args.workload == "intlike" else "sweep"
    _say(f"setup  fresh-process probes on seed {SETUP_SEED} inputs (s): "
         f"{', '.join(f'{t:.3f}' for t in probe_times)}")
    _print_ops(wl, results, "ops, one op = one " + ("call" if per == "call" else "chain"))
    _say(f"metric setup_s   = {metrics['setup_s']:.4f} s")
    _say(f"metric ops_per_s = {metrics['ops_per_s']:.4f} 1/s ({per}s per second"
         + (", i.e. sweeps_per_s)" if per == "sweep" else ")"))
    _say(f"metric ess_per_s = {metrics['ess_per_s']:.4f} 1/s (effective draws per second)")
    _say(f"spread {wl.seed_spread(inp, results)}")
    return results, checks, metrics


def run_traced(args, wl):
    from tracing import Tracer

    inp = wl.setup(args.workload, args.seed, args.rng_offset)
    wl.warm_up(inp)
    # Each op runs untraced and then traced, back to back, so that both see
    # the same machine speed and their difference is the tracing overhead.
    base, traced = [], []
    tracer = Tracer()
    spent = 0.0
    while not base or spent + spent / len(base) <= args.seconds / 2:
        i = len(base)
        base.append(wl.run_op(inp, i))
        spent += base[-1].seconds
        with tracer:
            wl.wrap_layers(tracer)
            tracer.op_id = i
            traced.append(wl.run_op(inp, i))
    checks = wl.check_outputs(inp, base) + [
        (f"traced_{name}", passed, detail)
        for name, passed, detail in wl.check_outputs(inp, traced)
    ]
    checks.append(wl.identical(base, traced))
    metrics = wl.per_layer(inp, base, traced, tracer)
    _print_ops(wl, base, "untraced ops")
    _print_ops(wl, traced, "traced ops")
    if args.workload == "intlike":
        q, value = wl.tail([1e3 * r.seconds for r in base])
        _say(f"calls  untraced call latency over {len(base)} calls: p50 "
             f"{metrics['intlike.call_ms_p50']:.1f} ms, p{q:.1f} {value:.1f} ms")
    _print_trace(wl, inp, traced, tracer, metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": environment(), "metrics": metrics,
                   "spans": tracer.columns()}, fh)
    _say(f"trace  {len(tracer.names)} spans written to {os.path.relpath(path, ROOT)}")
    return base + traced, checks, metrics


def _print_trace(wl, inp, traced, tracer, metrics):
    per = "sweep" if inp.workload in wl.GIBBS else "call"
    units = wl.op_units(inp, traced)
    op_ms = metrics["trace.op_ms"]
    _say(f"trace  self time by function, ms per {per} and share of op wall time:")
    for name, (calls, _, own) in sorted(tracer.totals().items(), key=lambda kv: -kv[1][2]):
        ms = 1e3 * own / units
        _say(f"trace    {name:40s} calls {calls:8d}  {ms:9.4f}  {100 * ms / op_ms:5.1f}%")
    parts = " + ".join(f"{lay} {metrics[f'{lay}.self_ms']:.4f}"
                       for lay in ("gibbs", "tmvn", "bandlin", "intlike"))
    _say(f"trace  op wall {op_ms:.4f} ms/{per} = {parts} + remainder "
         f"{metrics['trace.remainder_ms']:.4f}")
    _say(f"trace  tracing overhead (traced minus untraced op time): "
         f"{metrics['trace.overhead_pct']:+.2f}%")
    _say("trace  bandlin.cholesky_mflop is computed as dim*(bandwidth+1)^2 per call, "
         "not measured")


def main(argv=None):
    args = _parse(argv)
    wl = _import_package()
    if args.setup_probe:
        wl.setup(args.workload, args.seed, args.rng_offset)
        _say("ready")
        return 0
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    declared = _declared(args.trace)
    _say(f"env    {json.dumps(environment(), sort_keys=True)}")
    _say(f"run    workload {args.workload}, seed {args.seed}, rng offset "
         f"{args.rng_offset}, {args.seconds:g} s, trace {args.trace}")
    results, checks, metrics = (run_traced if args.trace else run_untraced)(args, wl)
    if set(metrics) != set(declared):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    if args.trace:
        for name in sorted(metrics):
            _say(f"layer  {name:32s} = {metrics[name]:.6g} {declared[name]}")
    for name, passed, detail in checks:
        _say(f"check  {name:32s} {'PASS' if passed else 'FAIL'}  {detail}")
    correct = all(passed for _, passed, _ in checks)
    _say(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
