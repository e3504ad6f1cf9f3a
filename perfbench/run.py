"""Run one benchmark workload; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload scm-toy --seed 1 --seconds 50 --trace 0

``--trace 0`` measures set-up time in fresh interpreters, then repeats the
pipeline on fresh inputs (unit u draws from mix_seed(seed, u)) for about
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs unit 0
untraced and then traced, checks that both produce bit-identical outputs,
writes the spans to ``perfbench/out/`` as JSONL and reports the per-layer
metrics.  The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported.  One thread matches the
# single-process workloads and keeps runs steady on a small shared machine.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import networkx  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pertmap import metrics, model, training  # noqa: E402
from pertmap.seeding import mix_seed  # noqa: E402

from instrument import Instruments  # noqa: E402
from pipeline import CheckFailed, UnitResult, check, run_unit  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import K_CONTEXT, OMEGA, TOKENS, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3


def warm_up(w: Workload) -> None:
    """Pay the one-time lazy costs: a forward/backward at the workload's
    width, a no-grad forward as sampling does, and a small metric call."""
    rng = np.random.default_rng(0)
    cfg = w.model
    params = model.build_model(cfg, seed=0)
    rows = lambda: rng.standard_normal((TOKENS, cfg.max_genes))  # noqa: E731
    code = np.eye(cfg.max_genes)[0]
    bundle = model.ExperimentBundle(
        y_obs=rows(), context=tuple((code, rows()) for _ in range(K_CONTEXT)), query_code=code, target=rows()
    )
    training.cfm_loss(params, cfg, bundle, 0.5, rows()).backward()
    training.guided_field(params, cfg, bundle, OMEGA)(0.5, rows())
    metrics.sinkhorn_divergence(rows()[:8], rows()[:8])


def measure_setup(w: Workload) -> float:
    """Median wall time of fresh interpreters that import and warm up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w.name, "--setup-only"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "git_commit": git_commit(),
    }


def end_to_end(units: list[UnitResult], setup_s: float) -> dict[str, tuple[float, str]]:
    attempted = sum(u.attempted for u in units)
    failed = sum(sum(u.failures.values()) for u in units)
    pairs = [
        (m, c)
        for u in units
        for m, c in zip(u.sinkhorn["model"], u.sinkhorn["nochange"])
        if math.isfinite(m) and math.isfinite(c)
    ]
    check(bool(pairs), "no held-out condition has both Sinkhorn values")
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(u.wall_s for u in units), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "scored_frac": (1.0 - failed / attempted, "frac"),
        "sinkhorn_vs_nochange": (
            statistics.fmean(m for m, _ in pairs) / statistics.fmean(c for _, c in pairs),
            "ratio",
        ),
    }


def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> list[UnitResult]:
    units: list[UnitResult] = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(w, mix_seed(seed, len(units)), workdir / f"unit{len(units)}"))
        elapsed = time.perf_counter() - start
        # Start another unit only if a typical one still fits in the budget.
        if elapsed + elapsed / len(units) > seconds:
            return units


def run_traced(w: Workload, seed: int, workdir: Path, run_id: str):
    reference = run_unit(w, mix_seed(seed, 0), workdir / "untraced")
    tracer = Tracer(run_id)
    instruments = Instruments(tracer)
    instruments.install()
    try:
        traced = run_unit(w, mix_seed(seed, 0), workdir / "traced", tracer)
    finally:
        tracer.restore()
    check(traced.digests == reference.digests, "traced outputs differ from untraced outputs")
    tracer.write_jsonl(OUT / f"trace-{run_id}.jsonl")
    layers = instruments.layer_metrics(w, traced)
    layers["trace.overhead_frac"] = (traced.wall_s / reference.wall_s - 1.0, "frac")
    return traced, layers, dict(instruments.counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="import and warm up, then exit")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if args.setup_only:
        warm_up(w)
        return 0

    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = OUT / f"tmp-{run_id}"
    record = {"env": environment(args)}
    units: list[UnitResult] = []
    try:
        setup_s = 0.0 if args.trace else measure_setup(w)
        warm_up(w)
        if args.trace:
            unit, result, record["counts"] = run_traced(w, args.seed, workdir, run_id)
            units = [unit]
        else:
            units = run_untraced(w, args.seed, args.seconds, workdir)
            result = end_to_end(units, setup_s)
        correct = True
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        result, correct = {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = sum((u.failures for u in units), Counter())
    record.update(
        units=len(units),
        failures_by_class=dict(failures),
        auprc_undefined=sum(u.auprc_undefined for u in units),
        clamp_inexact=sum(u.clamp_inexact for u in units),
        digests=[u.digests for u in units],
        stage_s=[u.stage_s for u in units],
    )
    for name, (value, unit) in result.items():
        print(f"{name} = {value:.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                # A run stopped by a failed check may have no finished unit.
                "attempted": max(1, sum(u.attempted for u in units)),
                "failed": sum(failures.values()),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
