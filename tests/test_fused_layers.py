"""The fused layer nodes: gradient checks over random compositions, and
agreement with the unfused reference compositions in ``helpers``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import central_diff

from pertmap import layers
from pertmap import model as mdl
from pertmap import training as tr
from pertmap.autodiff import Tensor
from pertmap.model import ExperimentBundle, ModelConfig

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FUSED = {
    "linear": layers.linear,
    "gelu": layers.gelu,
    "layer_norm": layers.layer_norm,
    "softmax": layers.softmax,
    "film_modulate": layers.film_modulate,
}
REFERENCE = {
    "linear": helpers.ref_linear,
    "gelu": helpers.ref_gelu,
    "layer_norm": helpers.ref_layer_norm,
    "softmax": helpers.ref_softmax,
    "film_modulate": helpers.ref_film_modulate,
}
TIME_WIDTH = 3


def _op_arrays(op: str, width: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Parameter arrays of one op in a composition over (tokens, width) states."""
    if op == "linear":
        return [rng.standard_normal((width, width)) * 0.6, rng.standard_normal(width) * 0.3]
    if op == "film_modulate":
        return [
            rng.standard_normal(TIME_WIDTH),
            rng.standard_normal((TIME_WIDTH, 2 * width)) * 0.4,
            rng.standard_normal(2 * width) * 0.3,
        ]
    return []


def _compose(fns: dict, ops: list[tuple[str, int]], x: Tensor, params: list[list[Tensor]]) -> Tensor:
    h = x
    for (op, axis), ps in zip(ops, params):
        h = fns[op](h, axis=axis) if op == "softmax" else fns[op](h, *ps)
    return h


def _problem(ops, tokens: int, width: int, seed: int, dtype=np.float64):
    """Input, per-op parameters and readout of a random composition."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tokens, width)).astype(dtype)
    params = [[a.astype(dtype) for a in _op_arrays(op, width, rng)] for op, _ in ops]
    return x, params, rng.standard_normal((tokens, width)).astype(dtype)


def _loss(fns, ops, x, params, readout, requires_grad=False):
    xt = Tensor(x, requires_grad=requires_grad)
    pts = [[Tensor(a, requires_grad=requires_grad) for a in group] for group in params]
    out = _compose(fns, ops, xt, pts)
    return (out * readout).sum(), out, [xt] + [t for group in pts for t in group]


_OPS = st.lists(
    st.tuples(st.sampled_from(sorted(FUSED)), st.sampled_from([0, -1])), min_size=1, max_size=4
)


@PROPERTY
@given(ops=_OPS, tokens=st.integers(2, 4), width=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_fused_compositions_match_central_differences(ops, tokens, width, seed):
    x, params, readout = _problem(ops, tokens, width, seed)
    loss, _, leaves = _loss(FUSED, ops, x, params, readout, requires_grad=True)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in leaves]

    flat = [x] + [a for group in params for a in group]

    def value(arrays):
        groups, k = [], 1
        for group in params:
            groups.append(arrays[k : k + len(group)])
            k += len(group)
        return float(_loss(FUSED, ops, arrays[0], groups, readout)[0].data)

    numeric = central_diff(value, flat)
    scale = max(max(float(np.abs(n).max()) for n in numeric), 1.0)
    worst = max(float(np.abs(a - n).max()) for a, n in zip(analytic, numeric))
    assert worst <= 1e-6 * scale, (ops, worst, scale)


def _agreement(fused_value, fused_grads, ref_value, ref_grads, dtype):
    pairs = [(fused_value, ref_value)] + list(zip(fused_grads, ref_grads))
    for a, b in pairs:
        assert a.dtype == b.dtype == np.dtype(dtype)
        err = float(np.abs(a - b).max())
        if dtype == np.float64:
            assert err <= 1e-12, err
        else:
            assert err <= 1e-4 * float(np.abs(b).max()), err


COMPOSITIONS = [
    [("linear", -1)],
    [("gelu", -1)],
    [("layer_norm", -1)],
    [("softmax", -1)],
    [("softmax", 0)],
    [("film_modulate", -1)],
    # One feed-forward sub-block, then attention-style weights.
    [("layer_norm", -1), ("film_modulate", -1), ("linear", -1), ("gelu", -1), ("linear", -1), ("softmax", -1)],
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ops", COMPOSITIONS, ids=lambda ops: "+".join(op for op, _ in ops))
def test_fused_nodes_match_the_unfused_reference(ops, dtype):
    x, params, readout = _problem(ops, 5, 6, seed=len(ops) * 7 + 1, dtype=dtype)
    results = []
    for fns in (FUSED, REFERENCE):
        loss, out, leaves = _loss(fns, ops, x, params, readout, requires_grad=True)
        loss.backward()
        results.append((out.data, [t.grad for t in leaves]))
    _agreement(*results[0], *results[1], dtype)


TOY = ModelConfig(layers=2, embed_dim=16, ff_dim=32, heads=2, head_dim=8, register_tokens=2, max_genes=4, max_context=3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("drop", [False, True])
def test_cfm_loss_matches_the_unfused_model(monkeypatch, dtype, drop):
    # Random nonzero weights everywhere: the zero-initialized FiLM and
    # readout projections would hide most of the graph.
    rng = np.random.default_rng(3)
    params = mdl.build_model(TOY, seed=0, dtype=dtype)
    for _, t in params.items():
        t.data[...] = (rng.standard_normal(t.shape) * 0.3).astype(dtype)
    context = tuple((np.eye(4)[i] * 1.5, rng.standard_normal((5, 4))) for i in range(2))
    bundle = ExperimentBundle(rng.standard_normal((6, 4)), context, np.eye(4)[3], rng.standard_normal((5, 4)))
    y0 = rng.standard_normal((5, 4))

    def run():
        params.zero_grads()
        loss = tr.cfm_loss(params, TOY, bundle, 0.4, y0, drop_condition=drop)
        loss.backward()
        return loss.data, [t.grad.copy() for _, t in params.items()]

    fused = run()
    for module in (mdl, layers):
        for name, ref in REFERENCE.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, ref)
    _agreement(*fused, *run(), dtype)
