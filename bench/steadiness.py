"""Steadiness self-check of the benchmark's end-to-end metrics.

    python3 bench/steadiness.py --workload intlike --runs 10 --vary seed
    python3 bench/steadiness.py --workload gibbs_signed --runs 5 --vary rng --seed 3

Runs `bench/run.py` one run after another and reports, for each end-to-end
metric, its values, median and spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  `--vary seed` changes the seed, so inputs and samplers both change;
`--vary rng` keeps the inputs of `--seed` and changes only the chain and
importance-sampling seeds, which is what a change to how a block draws
random numbers does.  A spread above a third of the metric's bound in
BENCHMARK.json is flagged; the exit code is 1 when any spread other than
that of `setup_s` exceeds the bound itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--vary", choices=("seed", "rng"), default="seed")
    ap.add_argument("--seed", type=int, default=0, help="first seed, or the fixed one")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    fail_share = []
    for k in range(args.runs):
        seed = args.seed + (k if args.vary == "seed" else 0)
        offset = k if args.vary == "rng" else 0
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
               "--rng-offset", str(offset)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            raise SystemExit(f"run {k} failed (exit {proc.returncode})")
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"run {k}: seed {seed} offset {offset} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{n}={v:.4g}" for n, v in row.items()),
              flush=True)
        for name, v in row.items():
            values.setdefault(name, []).append(v)
        fail_share.append(result["failed"] / result["attempted"])
    worst = 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else (
            "ABOVE BOUND/3" if spread <= m["bound"] else "ABOVE BOUND")
        if spread > m["bound"] and m["name"] != "setup_s":
            worst = 1
        print(f"{m['name']:10s} median {med:.5g} {m['unit']}  spread {100 * spread:.1f}% "
              f"(bound {100 * m['bound']:.0f}%, a third {100 * m['bound'] / 3:.1f}%)  {flag}")
    q1, med, q3 = statistics.quantiles(fail_share, n=4)
    print(f"failed ops share median {med:.3f}, quartiles {q1:.3f} to {q3:.3f}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
