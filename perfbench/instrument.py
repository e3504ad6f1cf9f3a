"""Per-layer instrumentation of ``pertmap``, installed from outside the package.

Public functions are wrapped where their callers resolve them: the
transformer layers in ``pertmap.model``'s namespace (so calls made inside
``joint_attention`` and ``film_modulate`` count as their self time), the
model forward and the ODE solver in ``pertmap.training``'s namespace, and
the metrics on ``pertmap.metrics`` itself (so the Sinkhorn calls made inside
``magnitude_ratio`` are counted too).
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter

from pertmap import autodiff, datasets, grn, metrics, model, scm, training

from pipeline import UnitResult
from tracing import Tracer, median_and_tail
from workloads import Workload

# Per-layer time metric -> (span name, report self time instead of duration).
TIMED = {
    "scm.sample_s": ("scm.sample", False),
    "grn.structure_s": ("grn.structure", False),
    "grn.simulate_s": ("grn.simulate", False),
    "grn.tech_noise_s": ("grn.tech_noise", False),
    "datasets.normalize_s": ("datasets.normalize", False),
    "datasets.bundle_s": ("datasets.bundle", False),
    "autodiff.backward_s": ("autodiff.backward", False),
    "model.forward_train_s": ("model.forward_train", False),
    "model.forward_sample_s": ("model.forward_sample", False),
    "layers.joint_attention_s": ("layers.joint_attention", True),
    "layers.linear_s": ("layers.linear", True),
    "layers.layer_norm_s": ("layers.layer_norm", True),
    "layers.film_modulate_s": ("layers.film_modulate", True),
    "layers.gelu_s": ("layers.gelu", True),
    "training.step_s": ("training.step", False),
    "training.cfm_loss_s": ("training.cfm_loss", False),
    "training.adamw_s": ("training.adamw", False),
    "training.ema_s": ("training.ema", False),
    "ode.field_s": ("ode.field", False),
    "ode.solver_self_s": ("ode.solve", True),
    "metrics.sinkhorn_s": ("metrics.sinkhorn", False),
    "metrics.magnitude_ratio_s": ("metrics.magnitude_ratio", False),
    "metrics.mmd_s": ("metrics.mmd", False),
    "metrics.moments_s": ("metrics.moments", False),
    "metrics.deg_s": ("metrics.deg", False),
    "metrics.auprc_s": ("metrics.auprc", False),
}

# Pipeline stages (spans opened by pipeline.run_unit) reported once each.
STAGE_TIMES = (
    "dataio.dataset_save_s",
    "dataio.dataset_load_s",
    "dataio.checkpoint_save_s",
    "dataio.checkpoint_load_s",
)


def graph_size(root: autodiff.Tensor) -> int:
    """Tensors reachable from ``root`` through the tape, ``root`` included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Instruments:
    """Patches every traced entry point and collects the exact counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()

    def install(self) -> None:
        t = self.tracer
        for name in ("sample_dag", "sample_observational", "sample_interventional"):
            t.patch_timed(scm, name, "scm.sample")
        t.patch_timed(grn, "sample_simulation_ready_grn", "grn.structure")
        t.patch_timed(grn, "knockout", "grn.structure")
        t.patch(grn, "simulate_expression", self._simulate)
        t.patch_timed(grn, "apply_technical_noise", "grn.tech_noise")
        t.patch_timed(datasets, "median_count_log_normalize", "datasets.normalize")
        t.patch_timed(datasets.BundleSampler, "__next__", "datasets.bundle")
        t.patch_timed(autodiff.Tensor, "backward", "autodiff.backward")
        t.patch_timed(
            training,
            "forward",
            lambda: "model.forward_train" if t.innermost() == "training.cfm_loss" else "model.forward_sample",
        )
        for name in ("joint_attention", "linear", "layer_norm", "film_modulate", "gelu"):
            t.patch_timed(model, name, f"layers.{name}")
        t.patch_timed(training, "train", "training.train")
        # A training step runs from the zero_grads that opens it to the EMA
        # update that closes it; train() has no per-step function to wrap.
        t.patch(autodiff.ParameterSet, "zero_grads", self._step_start)
        t.patch(training, "ema_update", self._ema)
        t.patch(training, "cfm_loss", self._cfm_loss)
        t.patch_timed(training.AdamW, "step", "training.adamw")
        t.patch(training, "integrate_dopri5", self._integrate)
        t.patch_timed(metrics, "sinkhorn_divergence", "metrics.sinkhorn")
        t.patch_timed(metrics, "magnitude_ratio", "metrics.magnitude_ratio")
        t.patch_timed(metrics, "mmd_rbf", "metrics.mmd")
        for name in ("rmse_means", "variance_correlation", "transposed_rank"):
            t.patch_timed(metrics, name, "metrics.moments")
        for name in ("deg_labels", "deg_scores"):
            t.patch_timed(metrics, name, "metrics.deg")
        t.patch_timed(metrics, "auprc_curve", "metrics.auprc")

    # -- wrappers that also count -----------------------------------------

    def _simulate(self, fn):
        timed = self.tracer.timed("grn.simulate", fn)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self.counts["cell_steps"] += bound.arguments["n_cells"] * bound.arguments["cfg"].burn_in_steps
            return timed(*args, **kwargs)

        return wrapper

    def _step_start(self, fn):
        def wrapper(params):
            if self.tracer.innermost() == "training.train":
                self.tracer.open("training.step")
            return fn(params)

        return wrapper

    def _ema(self, fn):
        timed = self.tracer.timed("training.ema", fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self.tracer.innermost() == "training.step":
                self.tracer.close(self.tracer.current_id())
            return out

        return wrapper

    def _cfm_loss(self, fn):
        timed = self.tracer.timed("training.cfm_loss", fn)

        def wrapper(*args, **kwargs):
            loss = timed(*args, **kwargs)
            self.counts["tape_nodes"] += graph_size(loss)
            self.counts["bundles"] += 1
            return loss

        return wrapper

    def _integrate(self, fn):
        t = self.tracer

        def wrapper(field, *args, **kwargs):
            sid = t.open("ode.solve")
            try:
                result = fn(t.timed("ode.field", field), *args, **kwargs)
            finally:
                t.close(sid)
            # One evaluation starts the solve; every attempted step costs six.
            attempted = (result.evaluations - 1) // 6
            self.counts["nfe"] += result.evaluations
            self.counts["steps_accepted"] += result.steps_taken
            self.counts["steps_rejected"] += attempted - result.steps_taken
            return result

        return wrapper

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, w: Workload, unit: UnitResult) -> dict[str, tuple[float, str]]:
        inclusive, own = self.tracer.durations()
        out: dict[str, tuple[float, str]] = {}
        for metric, (span, use_self) in TIMED.items():
            samples = (own if use_self else inclusive).get(span, [])
            median, tail = median_and_tail(samples)
            out[metric] = (median, "s")
            out[f"{metric}.tail"] = (tail, "s")
            out[f"{metric}.n"] = (len(samples), "count")
        for metric in STAGE_TIMES:
            out[metric] = (sum(inclusive.get(metric[: -len("_s")], [])), "s")

        simulate_s = sum(inclusive.get("grn.simulate", []))
        c = self.counts
        out["grn.cell_steps"] = (c["cell_steps"], "count")
        out["grn.cell_steps_per_s"] = (c["cell_steps"] / simulate_s if simulate_s else 0.0, "1/s")
        out["dataio.bytes"] = (unit.dataio_bytes, "bytes")
        out["dataio.roundtrip_max_abs_err"] = (unit.roundtrip_err, "abs")
        out["autodiff.tape_nodes"] = (c["tape_nodes"] / c["bundles"] if c["bundles"] else 0.0, "count")
        out["ode.nfe"] = (c["nfe"], "count")
        out["ode.steps_accepted"] = (c["steps_accepted"], "count")
        out["ode.steps_rejected"] = (c["steps_rejected"], "count")
        out["metrics.sinkhorn_calls"] = (len(inclusive.get("metrics.sinkhorn", [])), "count")
        out["metrics.failed_calls"] = (sum(unit.failures.values()), "count")
        out["metrics.auprc_undefined"] = (unit.auprc_undefined, "count")
        out["scm.clamp_inexact"] = (unit.clamp_inexact, "count")
        out["training.loss_final"] = (unit.loss_tail, "loss")

        # Stage throughputs, from the spans of the items each stage repeats.
        def per_median(span: str, work: float) -> float:
            samples = inclusive.get(span)
            return work / statistics.median(samples) if samples else 0.0

        out["prior_conditions_per_s"] = (per_median("prior", unit.prior_conditions), "1/s")
        out["train_bundles_per_s"] = (per_median("training.step", w.batch_size), "1/s")
        out["sample_cell_evals_per_s"] = (per_median("ode.field", w.m), "1/s")
        out["eval_predictions_per_s"] = (per_median("eval.pair", 1), "1/s")

        # Shares of the pipeline's wall time.  Self times partition a span
        # tree, so summing them over a layer never counts a call twice.
        pipeline = unit.wall_s
        for stage in ("prior", "train", "sample", "eval"):
            out[f"share.{stage}"] = (sum(inclusive.get(stage, [])) / pipeline, "frac")
        out["share.dataio"] = (
            (sum(inclusive.get("dataio.dataset", [])) + sum(inclusive.get("dataio.checkpoint", []))) / pipeline,
            "frac",
        )
        grn_metrics = sum(sum(v) for k, v in own.items() if k.startswith(("grn.", "metrics.")))
        out["share.grn_metrics"] = (grn_metrics / pipeline, "frac")
        fwd_bwd = sum(
            sum(inclusive.get(k, [])) for k in ("model.forward_train", "model.forward_sample", "autodiff.backward")
        )
        out["share.model_fwd_bwd"] = (fwd_bwd / pipeline, "frac")
        return out
