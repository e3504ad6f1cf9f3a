"""Steadiness self-check: counts and digests must follow the seed exactly.

    python3 perfbench/selfcheck.py --workload scm-toy --seed 1

Runs the traced benchmark twice with ``--seed`` and once with ``--seed + 1``.
The two same-seed runs must report identical counts (ODE evaluations, tape
nodes per bundle, GRN cell steps, Sinkhorn calls) and identical output
digests; the other seed must change the digests, which shows that the seed
reaches the inputs.  Exits 1 when either property fails.  Also prints each
stage's share of the pipeline time, to show which layers a workload loads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("ode.nfe", "autodiff.tape_nodes", "grn.cell_steps", "metrics.sinkhorn_calls")


def traced_run(workload: str, seed: int) -> tuple[dict, list, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    metrics = json.loads(out[-1])["metrics"]
    record = json.loads(out[-2].removeprefix("record "))
    shares = {k: round(v["value"], 3) for k, v in metrics.items() if k.startswith("share.")}
    return {k: metrics[k]["value"] for k in COUNTS}, record["digests"], shares


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    counts, digests, shares = traced_run(args.workload, args.seed)
    counts_again, digests_again, _ = traced_run(args.workload, args.seed)
    counts_other, digests_other, _ = traced_run(args.workload, args.seed + 1)
    print(f"seed {args.seed}: counts {counts}")
    print(f"seed {args.seed}: shares of pipeline_s {shares}")
    print(f"seed {args.seed + 1}: counts {counts_other}")
    ok = True
    if (counts, digests) != (counts_again, digests_again):
        print(f"FAIL: two runs with seed {args.seed} differ: {counts} {digests} != {counts_again} {digests_again}")
        ok = False
    if any(a == b for a, b in zip(digests[0].values(), digests_other[0].values())):
        print(f"FAIL: seed {args.seed + 1} leaves an output digest unchanged")
        ok = False
    print("steady" if ok else "not steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
