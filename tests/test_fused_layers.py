"""The fused layer nodes: gradient checks over random compositions,
agreement with the unfused reference compositions in ``helpers``, and
joint attention equal, bit for bit, to the chain of nodes it replaced."""

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
from pertmap.layers import AttentionParams
from pertmap.model import ExperimentBundle, ModelConfig

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FUSED = {
    "linear": layers.linear,
    "gelu": layers.gelu,
    "silu": layers.silu,
    "layer_norm": layers.layer_norm,
    "film_modulate": layers.film_modulate,
}
# Joint attention takes token streams, not one state, so it enters the
# model-level comparison only; its own check is the bit-for-bit one below.
REFERENCE = {
    "linear": helpers.ref_linear,
    "gelu": helpers.ref_gelu,
    "silu": helpers.ref_silu,
    "layer_norm": helpers.ref_layer_norm,
    "film_modulate": helpers.ref_film_modulate,
    "joint_attention": helpers.ref_joint_attention,
}
TIME_WIDTH = 3


def _op_arrays(op: str, width: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Parameter arrays of one op in a composition over (tokens, width) states."""
    if op == "linear":
        return [rng.standard_normal((width, width)) * 0.6, rng.standard_normal(width) * 0.3]
    if op == "film_modulate":
        return [
            rng.standard_normal((1, TIME_WIDTH)),
            rng.standard_normal((TIME_WIDTH, 2 * width)) * 0.4,
            rng.standard_normal(2 * width) * 0.3,
        ]
    return []


def _compose(fns: dict, ops: list[str], x: Tensor, params: list[list[Tensor]]) -> Tensor:
    h = x
    for op, ps in zip(ops, params):
        h = fns[op](h, *ps)
    return h


def _problem(ops, tokens: int, width: int, seed: int, dtype=np.float64):
    """Input, per-op parameters and readout of a random composition."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((tokens, width)).astype(dtype)
    params = [[a.astype(dtype) for a in _op_arrays(op, width, rng)] for op in ops]
    return x, params, rng.standard_normal((tokens, width)).astype(dtype)


def _loss(fns, ops, x, params, readout, requires_grad=False):
    xt = Tensor(x, requires_grad=requires_grad)
    pts = [[Tensor(a, requires_grad=requires_grad) for a in group] for group in params]
    out = _compose(fns, ops, xt, pts)
    return (out * readout).sum(), out, [xt] + [t for group in pts for t in group]


_OPS = st.lists(st.sampled_from(sorted(FUSED)), min_size=1, max_size=4)


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
    ["linear"],
    ["gelu"],
    ["silu"],
    ["layer_norm"],
    ["film_modulate"],
    # One feed-forward sub-block, then the time embedding's activation.
    ["layer_norm", "film_modulate", "linear", "gelu", "linear", "silu"],
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("ops", COMPOSITIONS, ids="+".join)
def test_fused_nodes_match_the_unfused_reference(ops, dtype):
    x, params, readout = _problem(ops, 5, 6, seed=len(ops) * 7 + 1, dtype=dtype)
    results = []
    for fns in (FUSED, REFERENCE):
        loss, out, leaves = _loss(fns, ops, x, params, readout, requires_grad=True)
        loss.backward()
        results.append((out.data, [t.grad for t in leaves]))
    _agreement(*results[0], *results[1], dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_silu_equals_the_product_it_fuses_bit_for_bit(dtype):
    x, params, readout = _problem(["silu"], 7, 9, seed=5, dtype=dtype)
    results = []
    for fns in (FUSED, REFERENCE):
        loss, out, leaves = _loss(fns, ["silu"], x * 4, params, readout, requires_grad=True)
        loss.backward()
        results.append((out.data, leaves[0].grad))
    for a, b in zip(*results):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)


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


def _attention_problem(stream_tokens, querying, heads, head_dim, seed, dtype):
    """Leaf streams, per-stream parameters and output readouts of one
    joint-attention call; streams not in ``querying`` give keys and values
    only."""
    rng = np.random.default_rng(seed)
    width = heads * head_dim

    def leaf(*shape, scale=1.0):
        return Tensor((rng.standard_normal(shape) * scale).astype(dtype), requires_grad=True)

    streams = [leaf(n, width) for n in stream_tokens]
    params = []
    for i in range(len(stream_tokens)):
        q = i in querying
        params.append(
            AttentionParams(
                wq=leaf(width, width, scale=0.5) if q else None,
                wk=leaf(width, width, scale=0.5),
                wv=leaf(width, width, scale=0.5),
                wo=leaf(width, width, scale=0.5) if q else None,
                bq=leaf(width, scale=0.2) if q else None,
                bk=leaf(width, scale=0.2),
                bv=leaf(width, scale=0.2),
                bo=leaf(width, scale=0.2) if q else None,
            )
        )
    readouts = [rng.standard_normal((stream_tokens[i], width)).astype(dtype) for i in sorted(querying)]
    return streams, params, readouts


def _leaves(streams, params):
    return streams + [t for p in params for t in vars(p).values() if t is not None]


def _attention_run(attend, streams, params, readouts, heads, head_dim):
    for t in _leaves(streams, params):
        t.grad = None
    outs = attend(streams, params, heads, head_dim)
    loss = (outs[0] * readouts[0]).sum()
    for out, r in zip(outs[1:], readouts[1:]):
        loss = loss + (out * r).sum()
    loss.backward()
    return [out.data for out in outs] + [t.grad for t in _leaves(streams, params)]


@st.composite
def _attention_cases(draw):
    streams = draw(st.integers(1, 3))
    tokens = draw(st.lists(st.integers(0, 4), min_size=streams, max_size=streams).filter(lambda ts: sum(ts) > 0))
    querying = draw(st.sets(st.integers(0, streams - 1), min_size=1))
    return tokens, querying, draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


@PROPERTY
@given(case=_attention_cases(), dtype=st.sampled_from([np.float32, np.float64]))
def test_joint_attention_equals_the_chain_it_fuses_bit_for_bit(case, dtype):
    tokens, querying, heads, head_dim, seed = case
    streams, params, readouts = _attention_problem(tokens, querying, heads, head_dim, seed, dtype)
    fused = _attention_run(layers.joint_attention, streams, params, readouts, heads, head_dim)
    chain = _attention_run(helpers.ref_joint_attention, streams, params, readouts, heads, head_dim)
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tokens, querying", [((3,), {0}), ((3, 2), {0}), ((3, 0, 2), {0, 2}), ((1, 2, 3), {0, 1, 2})])
def test_joint_attention_records_one_node_besides_projections_and_slices(tokens, querying):
    # Q query and S key/value projections, the attention node, then a
    # slice and an output projection per querying stream: 3Q + 2S + 1.
    streams, params, _ = _attention_problem(tokens, querying, 2, 2, seed=0, dtype=np.float64)
    outs = layers.joint_attention(streams, params, 2, 2)
    seen, stack, recorded = set(), list(outs), 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            recorded += t._backward is not None
            stack.extend(t._parents)
    assert recorded == 3 * len(querying) + 2 * len(tokens) + 1
