"""One pass of the fixed pipeline through the public ``pertmap`` API.

prior -> dataset save/load through ``dataio`` -> train -> checkpoint
save/restore -> classifier-free-guided sampling of the held-out conditions
-> the full metric suite for three predictors.  Every stage result is
checked, and a failed check raises :class:`CheckFailed`.  Library functions
are looked up on their modules at call time, so the tracer's patches see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pertmap import dataio, datasets, metrics, training
from pertmap.datasets import ConditionKey
from pertmap.errors import PertmapError
from pertmap.seeding import mix_seed

from tracing import Tracer
from workloads import EDGE_PROB, EVAL_CELLS, HELD_OUT, K_CONTEXT, OMEGA, TOKENS, Workload

PREDICTORS = ("model", "nochange", "context_mean")
STAGES = ("prior", "dataio.dataset", "train", "dataio.checkpoint", "sample", "eval")
# An SCM intervention column off its clamped value by more than this is a
# broken clamp, and fails the run.  Smaller nonzero deviations are float64
# rounding in scm.sample_interventional, which clamps through an inverse of
# (I - W): a known defect, counted in UnitResult.clamp_inexact.
_CLAMP_ROUNDING = 1e-12


class CheckFailed(Exception):
    """A pipeline output broke one of the benchmark's correctness checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class UnitResult:
    """What one pipeline pass did, how long each stage took, and its outputs."""

    stage_s: dict[str, float] = field(default_factory=dict)
    prior_conditions: int = 0
    clamp_inexact: int = 0  # SCM intervention columns not exactly at their clamped value
    loss_tail: float = math.nan
    sinkhorn: dict[str, list[float]] = field(default_factory=lambda: {p: [] for p in PREDICTORS})
    attempted: int = 0
    auprc_undefined: int = 0
    failures: Counter = field(default_factory=Counter)
    dataio_bytes: int = 0
    roundtrip_err: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The pipeline's time: its six stages, without the benchmark's checks."""
        return sum(self.stage_s[name] for name in STAGES)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class _Stages:
    """Times named stages and mirrors them as spans when tracing."""

    def __init__(self, result: UnitResult, tracer: Tracer | None):
        self.result = result
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, name: str):
        with _span(self.tracer, name):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.result.stage_s[name] = time.perf_counter() - start


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _dataset_arrays(ds: datasets.PerturbationDataset) -> list[np.ndarray]:
    out = [ds.observational[c] for c in ds.contexts()]
    for key in sorted(ds.interventional):
        out += [ds.interventional[key], ds.treatment_codes[key]]
    return out


def _generate_prior(w: Workload, seed: int) -> datasets.PerturbationDataset:
    if w.prior == "scm":
        return datasets.generate_scm_dataset(w.contexts, w.genes, w.cells, EDGE_PROB, base_seed=seed)
    return datasets.generate_grn_dataset(w.contexts, w.genes, w.cells, base_seed=seed)


def _check_prior(w: Workload, ds: datasets.PerturbationDataset) -> int:
    """Check every intervention column; return how many SCM clamp columns
    are not exactly constant at their value."""
    inexact = 0
    for key, values in ds.interventional.items():
        code = ds.treatment_codes[key]
        target = int(np.flatnonzero(code)[0])
        column = values[:, target]
        if w.prior == "grn":
            check(bool(np.all(column == 0.0)), f"knockout {key} leaves gene {target} expressed")
        elif not np.all(column == code[target]):
            inexact += 1
            deviation = float(np.max(np.abs(column - code[target])))
            check(deviation <= _CLAMP_ROUNDING, f"intervention {key} column is off its value by {deviation:.3g}")
    return inexact


def _check_roundtrip(ds, loaded) -> float:
    check(
        sorted(loaded.observational) == sorted(ds.observational)
        and sorted(loaded.interventional) == sorted(ds.interventional),
        "dataset round trip changed the condition set",
    )
    err = 0.0
    for a, b in zip(_dataset_arrays(ds), _dataset_arrays(loaded)):
        check(
            a.shape == b.shape and np.array_equal(a.astype(np.float32).astype(np.float64), b),
            "dataset round trip is not float32 rounding",
        )
        err = max(err, float(np.max(np.abs(a - b))))
    return err


def _split(ds) -> tuple[list[ConditionKey], list[ConditionKey]]:
    """Hold out the last treatment of each context, last context first,
    going round again until ``HELD_OUT`` conditions are chosen; spreading
    them over contexts averages over more causal models."""
    remaining = {c: ds.treatments_of(c) for c in ds.contexts()}
    order = ds.contexts()[::-1]
    held_out = [
        ConditionKey(c, remaining[c].pop()) for c in (order[i % len(order)] for i in range(HELD_OUT))
    ]
    return [c for c in ds.conditions if c not in held_out], held_out


def _context_treatments(ds, held_out: list[ConditionKey], cond: ConditionKey) -> list[int]:
    excluded = {c.treatment_id for c in held_out if c.context_id == cond.context_id}
    return [t for t in ds.treatments_of(cond.context_id) if t not in excluded][:K_CONTEXT]


class _Scorer:
    """Runs metric calls, counting the ones that raise a package error."""

    def __init__(self, result: UnitResult, tracer: Tracer | None):
        self.result = result
        self.tracer = tracer
        self.values: list[float] = []

    def __call__(self, name: str, fn, *args) -> float:
        self.result.attempted += 1
        try:
            value = float(fn(*args))
        except PertmapError as exc:
            self.result.failures[type(exc).__name__] += 1
            value = math.nan
        else:
            check(math.isfinite(value), f"{name} returned {value}")
        self.values.append(value)
        return value


def run_unit(w: Workload, seed: int, workdir: Path, tracer: Tracer | None = None) -> UnitResult:
    """Run the pipeline once on inputs drawn from ``seed``."""
    r = UnitResult()
    stage = _Stages(r, tracer)
    workdir.mkdir(parents=True, exist_ok=True)
    model_cfg = w.model

    with stage("prior"):
        ds = _generate_prior(w, seed)
    r.prior_conditions = len(ds.observational) + len(ds.interventional)
    r.clamp_inexact = _check_prior(w, ds)
    r.digests["prior"] = _digest(*_dataset_arrays(ds))

    with stage("dataio.dataset"):
        with stage("dataio.dataset_save"):
            datasets.save_dataset(ds, workdir / "dataset")
        with stage("dataio.dataset_load"):
            loaded = datasets.load_dataset(workdir / "dataset")
    r.roundtrip_err = _check_roundtrip(ds, loaded)
    r.dataio_bytes = sum(p.stat().st_size for p in (workdir / "dataset").iterdir())
    ds = loaded

    train_conditions, held_out = _split(ds)
    train_cfg = training.TrainConfig(
        total_steps=w.steps,
        peak_lr=w.peak_lr,
        ema_decay=w.ema_decay,
        batch_size=w.batch_size,
        seed=mix_seed(seed, 1),
    )
    with stage("train"):
        sampler = datasets.BundleSampler(
            ds, train_conditions, K_CONTEXT, model_cfg.max_context, mix_seed(seed, 2), TOKENS, TOKENS
        )
        trained = training.train(model_cfg, train_cfg, sampler)
    losses = [loss for _, loss, _ in trained.trace]
    r.loss_tail = float(np.mean(losses[-max(1, len(losses) // 4) :]))

    ckpt = workdir / "model.ckpt"
    with stage("dataio.checkpoint"):
        with stage("dataio.checkpoint_save"):
            dataio.save_checkpoint(ckpt, trained.ema_params, model_cfg)
        with stage("dataio.checkpoint_load"):
            values, loaded_cfg, _ = dataio.load_checkpoint(ckpt)
            params = dataio.restore_params(values, loaded_cfg)
    check(loaded_cfg == model_cfg, "checkpoint round trip changed the model configuration")
    for name, tensor in trained.ema_params.items():
        restored = params[name].data
        check(
            restored.dtype == tensor.data.dtype and np.array_equal(restored, tensor.data),
            f"checkpoint round trip changed {name}",
        )
    r.dataio_bytes += ckpt.stat().st_size
    r.digests["checkpoint"] = _digest(*(t.data for _, t in params.items()))

    guidance = training.GuidanceConfig(omega=OMEGA)
    samples = []
    with stage("sample"):
        for i, cond in enumerate(held_out):
            bundle = datasets.build_eval_bundle(ds, cond, _context_treatments(ds, held_out, cond), max_rows=TOKENS)
            y_hat = training.generate(params, loaded_cfg, bundle, guidance, w.m, mix_seed(seed, 3, i))
            check(
                y_hat.shape == (w.m, w.genes) and bool(np.all(np.isfinite(y_hat))),
                f"generated cells for {cond} are not finite with shape (m, d)",
            )
            samples.append(y_hat)
    r.digests["samples"] = _digest(*samples)

    scorer = _Scorer(r, tracer)
    with stage("eval"):
        means = {p: [] for p in PREDICTORS}
        observed_means = []
        for cond, y_model in zip(held_out, samples):
            _score_condition(w, ds, held_out, cond, y_model[:EVAL_CELLS], scorer, means, r)
            observed_means.append(ds.interventional[(cond.context_id, cond.treatment_id)][:EVAL_CELLS].mean(axis=0))
        for p in PREDICTORS:
            scorer("transposed_rank", metrics.transposed_rank, np.array(means[p]), np.array(observed_means))
    r.digests["scores"] = _digest(np.array(scorer.values))
    return r


def _score_condition(w, ds, held_out, cond, y_model, scorer, means, r) -> None:
    n = EVAL_CELLS
    y_obs = ds.observational[cond.context_id][:n]
    truth = ds.interventional[(cond.context_id, cond.treatment_id)][:n]
    context = [ds.interventional[(cond.context_id, t)][:n] for t in _context_treatments(ds, held_out, cond)]
    # The context-mean predictor is the equal mixture of the context
    # interventions' cell distributions, interleaved row by row.
    predictions = {
        "model": y_model,
        "nochange": y_obs,
        "context_mean": np.stack(context, axis=1).reshape(-1, w.genes)[:n],
    }
    labels, _ = metrics.deg_labels(y_obs, truth)
    # AUPRC is defined only when the truth has a differentially expressed
    # gene; outside that domain it is not attempted, and counted apart.
    if not labels.any():
        r.auprc_undefined += len(PREDICTORS)
    for p in PREDICTORS:
        y_hat = predictions[p]
        means[p].append(y_hat.mean(axis=0))
        with _span(scorer.tracer, "eval.pair"):
            r.sinkhorn[p].append(scorer("sinkhorn", metrics.sinkhorn_divergence, truth, y_hat))
            scorer("mmd", metrics.mmd_rbf, truth, y_hat)
            scorer("rmse", metrics.rmse_means, truth, y_hat)
            scorer("variance_corr", metrics.variance_correlation, truth, y_hat)
            scorer("magnitude_ratio", metrics.magnitude_ratio, y_obs, truth, y_hat)
            if labels.any():
                scorer("auprc", lambda: metrics.auprc_curve(metrics.deg_scores(y_obs, y_hat), labels).auprc)
