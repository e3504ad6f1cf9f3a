"""Training-loop and generation tests."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import wrong_type_cases

from pertmap import model as mdl
from pertmap import training as tr
from pertmap.autodiff import Tensor
from pertmap.errors import InvalidArgumentError
from pertmap.model import ExperimentBundle, ModelConfig

RNG = np.random.default_rng(9090)

MICRO_CFG = ModelConfig(
    layers=2, embed_dim=16, ff_dim=32, heads=2, head_dim=8,
    register_tokens=2, max_genes=4, max_context=3,
)


def _micro_bundle(rng, d=4, with_target=True, k=2):
    context = tuple(
        (np.eye(d)[rng.integers(d)] * 1.2, rng.standard_normal((5, d))) for _ in range(k)
    )
    return ExperimentBundle(
        y_obs=rng.standard_normal((6, d)),
        context=context,
        query_code=np.eye(d)[1] * 0.8,
        target=rng.standard_normal((5, d)) if with_target else None,
    )


def _bundle_stream(seed, d=4, k=2):
    rng = np.random.default_rng(seed)
    while True:
        yield _micro_bundle(rng, d=d, k=k)


def test_sample_time_properties():
    rng = np.random.default_rng(1)
    draws = np.array([tr.sample_time(rng) for _ in range(100_000)])
    assert np.all((draws > 0) & (draws < 1))
    assert abs(np.median(draws) - 0.5) < 0.01
    # z = 0 maps to exactly one half
    assert 1.0 / (1.0 + math.exp(0.0)) == 0.5


def test_wsd_lr_schedule_anchors():
    cfg = tr.TrainConfig(total_steps=1000)
    assert tr.wsd_lr(0, cfg) == 0.0
    assert tr.wsd_lr(10, cfg) == pytest.approx(1e-4)
    assert tr.wsd_lr(500, cfg) == pytest.approx(1e-4)
    assert tr.wsd_lr(800, cfg) == pytest.approx(1e-4)  # continuity at decay start
    assert tr.wsd_lr(900, cfg) == pytest.approx(1e-4 * math.sqrt(0.5))
    assert tr.wsd_lr(1000, cfg) == 0.0


def test_wsd_lr_continuous_at_boundaries():
    cfg = tr.TrainConfig(total_steps=400)
    warmup = round(0.01 * 400)
    decay_start = 400 - round(0.20 * 400)
    assert tr.wsd_lr(warmup, cfg) == pytest.approx(cfg.peak_lr)
    assert tr.wsd_lr(decay_start, cfg) == pytest.approx(cfg.peak_lr)


@pytest.mark.parametrize("step", [11, -3, 2.5, True], ids=["past_the_end", "negative", "float", "bool"])
def test_wsd_lr_rejects_steps_outside_the_schedule(step):
    with pytest.raises(InvalidArgumentError, match="step"):
        tr.wsd_lr(step, tr.TrainConfig(total_steps=10))


def test_cfm_loss_zero_for_exact_stub():
    # Zero readout weights make the prediction equal out.b for every token;
    # with M = 1 the bias can match the target velocity exactly.
    params = mdl.build_model(MICRO_CFG, seed=0)
    rng = np.random.default_rng(2)
    target = rng.standard_normal((1, 4))
    y0 = rng.standard_normal((1, 4))
    bundle = ExperimentBundle(
        y_obs=rng.standard_normal((6, 4)),
        context=(),
        query_code=np.eye(4)[0],
        target=target,
    )
    params["out.b"].data[...] = (target - y0)[0]
    loss = tr.cfm_loss(params, MICRO_CFG, bundle, tau=0.4, y0=y0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-10)


def test_cfm_loss_single_entry_arithmetic():
    cfg = ModelConfig(layers=1, embed_dim=8, ff_dim=16, heads=1, head_dim=8,
                      register_tokens=1, max_genes=1, max_context=1)
    params = mdl.build_model(cfg, seed=0)
    params["out.b"].data[...] = 1.0  # model outputs 1
    bundle = ExperimentBundle(
        y_obs=np.zeros((3, 1)),
        context=(),
        query_code=np.ones(1),
        target=np.array([[2.0]]),
    )
    loss = tr.cfm_loss(params, cfg, bundle, tau=0.5, y0=np.zeros((1, 1)))
    assert float(loss.data) == pytest.approx(1.0, abs=1e-6)


def test_train_config_rejects_a_batch_size_below_one():
    with pytest.raises(InvalidArgumentError, match="batch_size"):
        tr.TrainConfig(total_steps=1, batch_size=0)


_LOOP_CASES = [
    ("ema_decay", 2.0),
    ("ema_decay", -1.0),
    ("ema_decay", math.nan),
    ("peak_lr", -1e-3),
    ("peak_lr", 0.0),
    ("peak_lr", math.nan),
    ("peak_lr", math.inf),
    ("omega", math.nan),
    ("omega", math.inf),
    ("omega", -math.inf),
    ("total_steps", 1.5),
    ("total_steps", 2.0),
    ("total_steps", True),
    ("batch_size", 2.5),
    ("batch_size", np.float64(2.0)),
    ("seed", 0.5),
    ("seed", False),
    ("seed", -1),
]
# Every int and float field with each value of WRONG_TYPES not listed above.
_LOOP_CASES += [pair for cls in (tr.TrainConfig, tr.GuidanceConfig) for pair in wrong_type_cases(cls, _LOOP_CASES)]


@pytest.mark.parametrize("field, value", _LOOP_CASES)
def test_configs_reject_values_the_loop_cannot_use(field, value):
    # Unchecked, ema_decay=2 trained to EMA weights of 2e5, a NaN peak_lr or
    # omega surfaced later as a non-finite loss or ODE field, a float count
    # or seed as a raw TypeError inside train(), and a negative seed as
    # NumPy's raw ValueError from SeedSequence.
    with pytest.raises(InvalidArgumentError, match=field):
        if field == "omega":
            tr.GuidanceConfig(omega=value)
        else:
            tr.TrainConfig(**{"total_steps": 1, field: value})


def test_train_config_accepts_numpy_integers():
    cfg = tr.TrainConfig(total_steps=np.int64(2), batch_size=np.int32(3), seed=np.uint64(7))
    assert (cfg.total_steps, cfg.batch_size, cfg.seed) == (2, 3, 7)


def test_cfm_loss_shape_mismatch_rejected():
    params = mdl.build_model(MICRO_CFG, seed=0)
    bundle = _micro_bundle(np.random.default_rng(3))
    with pytest.raises(InvalidArgumentError):
        tr.cfm_loss(params, MICRO_CFG, bundle, 0.5, np.zeros((2, 4)))


def test_cfm_loss_gradients_match_finite_differences():
    # Composed-model gradient check in float64 on a random parameter subset.
    params = mdl.build_model(MICRO_CFG, seed=5, dtype=np.float64)
    rng = np.random.default_rng(7)
    bundle = _micro_bundle(rng)
    tau, y0 = 0.37, rng.standard_normal(bundle.target.shape)

    loss = tr.cfm_loss(params, MICRO_CFG, bundle, tau, y0)
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.items()}

    def loss_value():
        return float(tr.cfm_loss(params, MICRO_CFG, bundle, tau, y0).data)

    h = 1e-6
    checked = 0
    worst = 0.0
    names = list(params)
    pick = np.random.default_rng(11)
    while checked < 60:
        name = names[pick.integers(len(names))]
        t = params[name]
        idx = tuple(pick.integers(s) for s in t.shape) if t.shape else ()
        orig = t.data[idx]
        t.data[idx] = orig + h
        up = loss_value()
        t.data[idx] = orig - h
        down = loss_value()
        t.data[idx] = orig
        numeric = (up - down) / (2 * h)
        a = analytic[name][idx]
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-7)
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-3, worst


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cfm_loss_tape_runs_in_the_parameters_dtype(dtype):
    # Float64 input data and Python constants must not widen the graph.
    params = mdl.build_model(MICRO_CFG, seed=5, dtype=dtype)
    rng = np.random.default_rng(7)
    bundle = _micro_bundle(rng)
    loss = tr.cfm_loss(params, MICRO_CFG, bundle, 0.37, rng.standard_normal(bundle.target.shape))
    tape = {id(loss): loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in tape:
                tape[id(parent)] = parent
                stack.append(parent)
    assert {t.dtype for t in tape.values()} == {np.dtype(dtype)}
    loss.backward()
    assert params.grad.dtype == np.dtype(dtype)


def test_cfm_loss_backward_returns_gradients_only_for_parents_on_the_tape():
    # Input batches and constants are off the tape: no node's backward may
    # spend a gradient on them.  A lone bundle is a stack of one, so a
    # parameter may receive a stacked adjoint, one gradient per bundle.
    params = mdl.build_model(MICRO_CFG, seed=5)
    rng = np.random.default_rng(7)
    bundle = _micro_bundle(rng)
    loss = tr.cfm_loss(params, MICRO_CFG, bundle, 0.37, rng.standard_normal(bundle.target.shape))
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes += 1
            on_tape = {id(p) for p in node._parents}
            for parent, grad in node._backward(np.ones_like(node.data)):
                assert id(parent) in on_tape
                assert grad.shape in (parent.shape, (1, *parent.shape))
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert nodes > 0


def test_adamw_matches_reference_update():
    params = mdl.build_model(MICRO_CFG, seed=0)
    name = "out.b"
    params[name].data[...] = 2.0
    opt = tr.AdamW(params)
    params[name].grad[...] = 0.5
    opt.step(lr=1e-3)
    # Reference: bias-corrected first step has m_hat = g, v_hat = g^2.
    expected = 2.0 - 1e-3 * (0.5 / (0.5 + tr.ADAM_EPS) + 0.01 * 2.0)
    assert np.allclose(params[name].data, expected, rtol=1e-6)


def test_ema_single_update_arithmetic():
    # Scalar view: ema 0, theta 1, decay 0.999 -> 0.001.
    ema = np.zeros(1)
    tr.ema_update(ema, np.ones(1), 0.999)
    assert ema[0] == pytest.approx(0.001)


def test_ema_converges_to_constant_parameters():
    ema = np.zeros(1)
    for _ in range(10_000):
        tr.ema_update(ema, np.ones(1), 0.999)
    assert abs(ema[0] - 1.0) < 1e-4


def _per_tensor_train(model_cfg, train_cfg, bundle_stream):
    """The training loop with AdamW and the EMA applied tensor by tensor,
    each parameter and moment in its own array: the reference for the
    blockwise updates of the flat buffers."""
    params = mdl.build_model(model_cfg, train_cfg.seed)
    theta = {name: t.data.copy() for name, t in params.items()}
    m = {name: np.zeros_like(a) for name, a in theta.items()}
    v = {name: np.zeros_like(a) for name, a in theta.items()}
    ema = {name: a.copy() for name, a in theta.items()}
    rng = np.random.default_rng(train_cfg.seed)
    for step in range(1, train_cfg.total_steps + 1):
        for name, a in theta.items():
            params[name].data[...] = a
        params.zero_grads()
        for _ in range(train_cfg.batch_size):
            bundle = next(bundle_stream)
            tau = tr.sample_time(rng)
            y0 = rng.standard_normal(bundle.target.shape)
            drop = rng.random() < tr.CONDITION_DROP_PROB
            tr.cfm_loss(params, model_cfg, bundle, tau, y0, drop).backward(seed=1.0 / train_cfg.batch_size)
        lr = tr.wsd_lr(step, train_cfg)
        bias1 = 1.0 - tr.ADAM_BETA1**step
        bias2 = 1.0 - tr.ADAM_BETA2**step
        for name, p in theta.items():
            g = params[name].grad
            m[name] *= tr.ADAM_BETA1
            m[name] += (1.0 - tr.ADAM_BETA1) * g
            v[name] *= tr.ADAM_BETA2
            v[name] += (1.0 - tr.ADAM_BETA2) * g * g
            update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + tr.ADAM_EPS)
            theta[name] = p - lr * (update + tr.WEIGHT_DECAY * p)
            ema[name] *= train_cfg.ema_decay
            ema[name] += (1.0 - train_cfg.ema_decay) * theta[name]
    return theta, ema


def test_train_matches_the_per_tensor_updates_bit_for_bit(monkeypatch):
    # A block size that splits tensors and leaves a short last block.
    monkeypatch.setattr(tr, "BLOCK_VALUES", 1000)
    cfg = tr.TrainConfig(total_steps=4, batch_size=2, seed=5, peak_lr=5e-3, ema_decay=0.9)
    result = tr.train(MICRO_CFG, cfg, _bundle_stream(23))
    theta, ema = _per_tensor_train(MICRO_CFG, cfg, _bundle_stream(23))
    # Every step's weights enter the EMA, so equal EMAs mean equal updates.
    assert result.ema_params.values.size % tr.BLOCK_VALUES != 0
    for name in result.ema_params:
        assert np.array_equal(result.ema_params[name].data, ema[name]), name
    assert any(not np.array_equal(ema[name], theta[name]) for name in theta)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    k=st.integers(0, 2),
    drop=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_a_stack_equals_its_bundles_one_at_a_time_bit_for_bit(n, k, drop, dtype, seed):
    rng = np.random.default_rng(seed)
    params = mdl.build_model(MICRO_CFG, seed=0, dtype=dtype)
    # Nonzero weights everywhere: the zero-initialized FiLM and readout
    # projections would hide most of the graph.
    for _, t in params.items():
        t.data[...] = rng.standard_normal(t.shape) * 0.3
    # Inputs in the parameters' dtype too: a float32 target and noise must
    # be noised in float32 in a stack as alone.
    bundles = []
    for _ in range(n):
        bundle = _micro_bundle(rng, k=k)
        slots = tuple(rng.choice(MICRO_CFG.max_context, size=k, replace=False).tolist())
        bundles.append(dataclasses.replace(bundle, target=bundle.target.astype(dtype), context_slots=slots))
    taus = rng.uniform(0.0, 1.0, n).tolist()
    y0 = rng.standard_normal((n, 5, 4)).astype(dtype)
    weight = 1.0 / (n + 1)
    # What earlier bundles of a step added: the stack must add into it
    # bundle by bundle, as one graph per bundle does.
    earlier = rng.standard_normal(params.grad.size)

    params.grad[...] = earlier
    one_at_a_time = []
    for bundle, tau, noise in zip(bundles, taus, y0):
        loss = tr.cfm_loss(params, MICRO_CFG, bundle, tau, noise, drop)
        loss.backward(seed=weight)
        one_at_a_time.append(loss.data)
    reference = params.grad.copy()

    params.grad[...] = earlier
    stacked = tr.cfm_loss(params, MICRO_CFG, bundles, taus, y0, drop)
    stacked.backward(seed=weight)
    assert stacked.data.dtype == np.dtype(dtype)
    assert np.array_equal(stacked.data, np.array(one_at_a_time))
    assert not np.array_equal(reference, earlier)
    assert np.array_equal(params.grad, reference)


def test_train_stacks_its_bundles_bit_for_bit(monkeypatch):
    calls = []
    loss = tr.cfm_loss

    def recording(params, model_cfg, bundles, taus, y0, drop):
        calls.append((len(bundles), drop))
        return loss(params, model_cfg, bundles, taus, y0, drop)

    monkeypatch.setattr(tr, "cfm_loss", recording)
    cfg = tr.TrainConfig(total_steps=4, batch_size=8, seed=2, peak_lr=5e-3, ema_decay=0.9)
    result = tr.train(MICRO_CFG, cfg, _bundle_stream(31))
    monkeypatch.undo()
    reference = helpers.per_bundle_train(MICRO_CFG, cfg, _bundle_stream(31))

    # Split the recorded stacks into steps; then find a stack cut at the
    # bound (its successor has the same drop flag) and one cut at a drop.
    steps, sizes = [[]], 0
    for size, drop in calls:
        steps[-1].append((size, drop))
        sizes += size
        if sizes % cfg.batch_size == 0:
            steps.append([])
    assert sizes == cfg.total_steps * cfg.batch_size and steps[-1] == []
    pairs = [pair for step in steps for pair in zip(step, step[1:])]
    assert any(a == (tr.STACK_BUNDLES, b[1]) for a, b in pairs)
    assert any(a[1] != b[1] for a, b in pairs)
    assert max(size for size, _ in calls) == tr.STACK_BUNDLES

    assert np.array_equal(result.ema_params.values, reference.ema_params.values)
    assert result.trace == reference.trace


def test_train_names_the_step_where_the_stream_fails():
    cfg = tr.TrainConfig(total_steps=3, batch_size=2)
    with pytest.raises(InvalidArgumentError, match="step 2"):
        tr.train(MICRO_CFG, cfg, itertools.islice(_bundle_stream(1), 3))
    rng = np.random.default_rng(4)
    no_target = iter([_micro_bundle(rng), _micro_bundle(rng, with_target=False)])
    with pytest.raises(InvalidArgumentError, match="step 1"):
        tr.train(MICRO_CFG, cfg, no_target)


def test_cfm_loss_rejects_stacks_that_do_not_fit():
    params = mdl.build_model(MICRO_CFG, seed=0)
    rng = np.random.default_rng(8)
    a, b = _micro_bundle(rng), _micro_bundle(rng)
    short = dataclasses.replace(b, target=b.target[:3])
    with pytest.raises(InvalidArgumentError, match="target"):
        tr.cfm_loss(params, MICRO_CFG, [a, short], [0.5, 0.5], np.zeros((2, 5, 4)))
    with pytest.raises(InvalidArgumentError, match="tau"):
        tr.cfm_loss(params, MICRO_CFG, [a, b], [0.5], np.zeros((2, 5, 4)))
    with pytest.raises(InvalidArgumentError, match="target"):
        tr.cfm_loss(params, MICRO_CFG, [a, dataclasses.replace(b, target=None)], [0.5, 0.5], np.zeros((2, 5, 4)))


def _learnable_stream(seed, d=4):
    # Target distribution is a deterministic function of the query code, so
    # the velocity field is learnable from the conditioning.
    rng = np.random.default_rng(seed)
    while True:
        code = np.eye(d)[rng.integers(d)]
        target = 2.0 * code + 0.05 * rng.standard_normal((5, d))
        yield ExperimentBundle(
            y_obs=rng.standard_normal((6, d)),
            context=(),
            query_code=code,
            target=target,
        )


def test_train_loss_decreases_and_is_deterministic():
    cfg = tr.TrainConfig(total_steps=150, batch_size=4, seed=3, peak_lr=5e-3)
    res1 = tr.train(MICRO_CFG, cfg, _learnable_stream(17))
    res2 = tr.train(MICRO_CFG, cfg, _learnable_stream(17))
    assert [t[1] for t in res1.trace] == [t[1] for t in res2.trace]
    first = np.mean([loss for _, loss, _ in res1.trace[:15]])
    last = np.mean([loss for _, loss, _ in res1.trace[-15:]])
    assert last < first
    # The EMA is deterministic too, and training moved it off the initial weights.
    assert np.array_equal(res1.ema_params.values, res2.ema_params.values)
    assert not np.array_equal(res1.ema_params.values, mdl.build_model(MICRO_CFG, cfg.seed).values)


def test_generate_zero_velocity_returns_base_noise():
    # Freshly built models output exactly zero velocity (zero readout), so
    # the flow is the identity and generation returns Y0.
    params = mdl.build_model(MICRO_CFG, seed=1)
    bundle = _micro_bundle(np.random.default_rng(5), with_target=False)
    out = tr.generate(params, MICRO_CFG, bundle, tr.GuidanceConfig(), m=6, seed=42)
    y0 = np.random.default_rng(42).standard_normal((6, 4))
    assert np.allclose(out, y0, atol=1e-6)


def test_generate_constant_field_integrates_exactly():
    params = mdl.build_model(MICRO_CFG, seed=1)
    c = np.array([0.5, -1.0, 2.0, 0.25], dtype=np.float32)
    params["out.b"].data[...] = c  # velocity field is identically c
    bundle = _micro_bundle(np.random.default_rng(6), with_target=False)
    out = tr.generate(params, MICRO_CFG, bundle, tr.GuidanceConfig(), m=4, seed=7)
    y0 = np.random.default_rng(7).standard_normal((4, 4))
    assert np.allclose(out, y0 + c, atol=1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [dict(m=2.5), dict(m=True), dict(seed=-1), dict(seed=2.5)],
    ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
)
def test_generate_rejects_a_malformed_count_or_seed(kwargs):
    # Unchecked, m=2.5 and seed=2.5 raised a raw TypeError, seed=-1 NumPy's
    # raw ValueError, and m=True drew one cell.
    params = mdl.build_model(MICRO_CFG, seed=1)
    bundle = _micro_bundle(np.random.default_rng(5), with_target=False)
    (name,) = kwargs
    with pytest.raises(InvalidArgumentError, match=name):
        tr.generate(params, MICRO_CFG, bundle, tr.GuidanceConfig(), **(dict(m=2, seed=0) | kwargs))


def test_guidance_identity_at_omega_one():
    params = mdl.build_model(MICRO_CFG, seed=2)
    rng = np.random.default_rng(8)
    bundle = _micro_bundle(rng, with_target=False)
    y = rng.standard_normal((3, 4))
    field = tr.guided_field(params, MICRO_CFG, bundle, omega=1.0)
    direct = mdl.forward(params, MICRO_CFG, y.astype(np.float32), 0.3, bundle).data
    assert np.array_equal(field(0.3, y), direct)


def test_guidance_formula_at_omega_two():
    params = mdl.build_model(MICRO_CFG, seed=2)
    # Give the model a nonzero readout so conditional and unconditional differ.
    rng = np.random.default_rng(9)
    params["out.w"].data[...] = rng.standard_normal(params["out.w"].shape) * 0.1
    bundle = _micro_bundle(rng, with_target=False)
    y = rng.standard_normal((3, 4))
    noised = (y.astype(np.float32), 0.6)
    v_c = mdl.forward(params, MICRO_CFG, *noised, bundle).data
    v_u = mdl.forward(params, MICRO_CFG, *noised, bundle, drop_condition=True).data
    field = tr.guided_field(params, MICRO_CFG, bundle, omega=2.0)
    assert np.allclose(field(0.6, y), v_u + 2.0 * (v_c - v_u), atol=1e-7)
