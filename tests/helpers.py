"""Shared test utilities: central finite differences against the tape,
unfused reference compositions of the fused layer primitives, the training
loop with one graph per bundle, the per-threshold precision-recall sweep,
archive editing, and the wrongly typed values every config field rejects."""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Sequence

import numpy as np

from pertmap import autodiff as ad
from pertmap import layers
from pertmap import model as mdl
from pertmap import training as tr
from pertmap.autodiff import Tensor
from pertmap.metrics import PrCurve


def central_diff(fn: Callable[[Sequence[np.ndarray]], float], arrays: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of several arrays."""
    grads = []
    for idx, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = fn(arrays)
            flat[i] = orig - h
            minus = fn(arrays)
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(build: Callable[[list[Tensor]], "Tensor"], arrays: list[np.ndarray], tol: float = 1e-4, h: float = 1e-6) -> float:
    """Compare reverse-mode gradients of build(...) against central differences.

    ``build`` maps a list of Tensors to a scalar Tensor.  Arrays must be
    float64.  Returns the worst relative error over all inputs.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def fn(arrs):
        ts = [Tensor(a) for a in arrs]
        return float(build(ts).data)

    numeric = central_diff(fn, arrays, h=h)

    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    assert worst < tol, f"max relative gradient error {worst} >= {tol}"
    return worst


# -- unfused references -----------------------------------------------------
#
# Each fused node of ``pertmap.layers`` rebuilt from generic tape nodes, the
# way the layers were composed before they were fused.  ``matmul``,
# ``reshape``, ``transpose``, ``softmax`` and ``sigmoid`` are the nodes that
# joint attention and SiLU chained before they were fused, with their
# backward expressions.


def pointwise(x: Tensor, f: Callable[[np.ndarray], np.ndarray], df: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Elementwise f as a tape node; df is its derivative."""
    return ad._make(f(x.data), ((x, lambda g: g * df(x.data)),))


def matmul(a, b) -> Tensor:
    """a @ b with batched leading dimensions; a constant takes the Tensor's dtype."""
    a, b = ad._operands(a, b)
    return ad._make(
        a.data @ b.data,
        (
            (a, lambda g: ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)),
            (b, lambda g: ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)),
        ),
    )


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return ad._make(a.data.reshape(shape), ((a, lambda g: g.reshape(a.shape)),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = np.argsort(axes)
    return ad._make(np.transpose(a.data, axes), ((a, lambda g: np.transpose(g, inverse)),))


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, with the backward y * (g - sum(g * y))."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)
    return ad._make(data, ((x, lambda g: data * (g - (g * data).sum(axis=-1, keepdims=True))),))


def ref_linear(x, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = matmul(x, w)
    return out + b if b is not None else out


def ref_gelu(x: Tensor) -> Tensor:
    inner = pointwise((x + x * x * x * 0.044715) * float(np.sqrt(2.0 / np.pi)), np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)
    return x * (inner + 1.0) * 0.5


def sigmoid(x: Tensor) -> Tensor:
    """The logistic, stable for any x, as a tape node."""
    data = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return ad._make(data, ((x, lambda g: g * data * (1.0 - data)),))


def ref_silu(x: Tensor) -> Tensor:
    return x * sigmoid(x)


def ref_layer_norm(x: Tensor) -> Tensor:
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * pointwise(var + layers._LN_EPS, lambda v: 1.0 / np.sqrt(v), lambda v: -0.5 * v**-1.5)


def ref_film_modulate(x: Tensor, time_embedding: Tensor, w: Tensor, b: Tensor) -> Tensor:
    width = x.shape[-1]
    gb = ref_linear(time_embedding, w, b)
    return x * (gb[..., :width] + 1.0) + gb[..., width:]


def ref_joint_attention(streams, params, heads: int, head_dim: int) -> list[Tensor]:
    """``layers.joint_attention`` as the chain of per-head nodes it was.

    The projections are ``layers.linear`` nodes, looked up when called, so
    that a test can patch them too.  Streams may carry leading (bundle) axes."""
    querying = [(s, p) for s, p in zip(streams, params) if p.wq is not None]
    q = ad.concat([layers.linear(s, p.wq, p.bq) for s, p in querying], axis=-2)
    k = ad.concat([layers.linear(s, p.wk, p.bk) for s, p in zip(streams, params)], axis=-2)
    v = ad.concat([layers.linear(s, p.wv, p.bv) for s, p in zip(streams, params)], axis=-2)

    def swap_last_two(x: Tensor, offset: int = 0) -> Tensor:
        """Swap the axes at -2 - offset and -1 - offset."""
        axes = list(range(x.ndim))
        i, j = x.ndim - 2 - offset, x.ndim - 1 - offset
        axes[i], axes[j] = j, i
        return transpose(x, tuple(axes))

    def split_heads(x: Tensor) -> Tensor:
        return swap_last_two(reshape(x, x.shape[:-1] + (heads, head_dim)), offset=1)

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = matmul(qh, swap_last_two(kh)) * (1.0 / np.sqrt(head_dim))
    mixed = matmul(softmax(scores), vh)
    merged = reshape(swap_last_two(mixed, offset=1), q.shape[:-1] + (heads * head_dim,))
    outputs, start = [], 0
    for s, p in querying:
        outputs.append(layers.linear(merged[..., start : start + s.shape[-2], :], p.wo, p.bo))
        start += s.shape[-2]
    return outputs


# -- per-bundle training reference --------------------------------------------


def per_bundle_train(model_cfg, train_cfg, bundle_stream) -> tr.TrainResult:
    """``training.train`` with one graph and one backward per bundle, in
    draw order: the reference that stacked training must equal bit for bit."""
    params = mdl.build_model(model_cfg, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    optimizer = tr.AdamW(params)
    ema = params.values.copy()
    trace = []
    for step in range(1, train_cfg.total_steps + 1):
        params.zero_grads()
        batch_loss = 0.0
        for _ in range(train_cfg.batch_size):
            bundle = next(bundle_stream)
            tau = tr.sample_time(rng)
            y0 = rng.standard_normal(bundle.target.shape)
            drop = rng.random() < tr.CONDITION_DROP_PROB
            loss = tr.cfm_loss(params, model_cfg, bundle, tau, y0, drop)
            loss.backward(seed=1.0 / train_cfg.batch_size)
            batch_loss += float(loss.data)
        batch_loss /= train_cfg.batch_size
        lr = tr.wsd_lr(step, train_cfg)
        optimizer.step(lr)
        tr.ema_update(ema, params.values, train_cfg.ema_decay)
        trace.append((step, batch_loss, lr))
    return tr.TrainResult(ad.ParameterSet(mdl.parameter_layout(model_cfg), ema), trace)


# -- precision-recall reference ----------------------------------------------


def ref_auprc_curve(scores: np.ndarray, labels: np.ndarray) -> PrCurve:
    """Per-threshold reference for ``pertmap.metrics.auprc_curve``.

    The classifiers are score > r for every distinct score r plus an
    include-everything block, each re-thresholding every gene; empty
    prediction sets are skipped, and a second loop sums the rectangular
    area over recall.  Scores must be finite and a label positive."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).astype(bool).ravel()
    positives = int(labels.sum())
    thresholds = np.concatenate([np.unique(scores)[::-1], [-np.inf]])
    recalls, precisions = [], []
    for r in thresholds:
        predicted = scores > r
        n_pred = int(predicted.sum())
        if n_pred == 0:
            continue
        tp = int((predicted & labels).sum())
        recalls.append(tp / positives)
        precisions.append(tp / n_pred)

    auprc = 0.0
    prev_recall = 0.0
    for rec, prec in zip(recalls, precisions):
        auprc += (rec - prev_recall) * prec
        prev_recall = rec
    return PrCurve(
        recalls=np.array(recalls),
        precisions=np.array(precisions),
        auprc=float(auprc),
        baseline_rate=positives / labels.size,
    )


# -- archives ---------------------------------------------------------------


def edit_archive(path, edit: Callable[[dict], None]) -> None:
    """Rewrite a ``pertmap.dataio`` archive after ``edit(members)`` changed
    its members in place.  ``members["header"]`` is the decoded JSON
    header, encoded again unless ``edit`` replaced it by an array."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["header"] = json.loads(str(members["header"]))
    edit(members)
    if isinstance(members["header"], dict):
        members["header"] = np.array(json.dumps(members["header"]))
    with open(path, "wb") as fh:
        np.savez(fh, **members)


# -- config fields ------------------------------------------------------------

# Values a config field rejects whatever its bounds, keyed by the type its
# annotation names (a string, since the configs' modules postpone annotations).
WRONG_TYPES = {"int": (2.5, True), "float": (math.nan, math.inf, True)}


def wrong_type_cases(cls, tested=()) -> list[tuple[str, object]]:
    """(field, value) for every field of the config dataclass ``cls`` and
    every value of WRONG_TYPES for its type, less the (field, value) pairs
    in ``tested``: a pair listed twice would give two tests one id."""
    skip = {(field, repr(value)) for field, value in tested}
    pairs = [(f.name, value) for f in dataclasses.fields(cls) for value in WRONG_TYPES[f.type]]
    return [(field, value) for field, value in pairs if (field, repr(value)) not in skip]
