"""Regenerate bench/reference.json: accurate integrated log-likelihoods of the
reference inputs that the intlike correctness check compares against.

    python3 bench/make_reference.py

Each value is the mean of several direct-route (exact Hessian) estimates
with a large R1, whose importance weights are close to even, so its Monte
Carlo error is a small fraction of a nat.
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from varfsv import intlike  # noqa: E402

DATA_SEEDS = (0, 1)
ROUTE, R1, CALLS = "direct", 1000, 8


def main():
    entries = []
    for data_seed in DATA_SEEDS:
        bundle = workloads.dataset(workloads.N["intlike"], data_seed)
        est = [
            intlike.integrated_likelihood(
                bundle.y, bundle.x, bundle.truth, R1,
                np.random.default_rng([data_seed, k]), route=ROUTE,
            ).log_value
            for k in range(CALLS)
        ]
        entries.append({
            "data_seed": data_seed,
            "point": "DGP truth",
            "log_lik": float(np.mean(est)),
            "se": float(np.std(est, ddof=1) / np.sqrt(CALLS)),
            "method": f"route={ROUTE}, r1={R1}, mean of {CALLS} calls",
        })
        print(entries[-1], flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump({"intlike": entries}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
