"""Model contract tests: parameter accounting, equivariances, conditioning."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import wrong_type_cases
from pertmap import autodiff as ad
from pertmap import model as mdl
from pertmap import training as tr
from pertmap.errors import InvalidArgumentError
from pertmap.model import ExperimentBundle, ModelConfig

RNG = np.random.default_rng(3131)


def closed_form_param_count(cfg: ModelConfig) -> int:
    """Hand count of every allocated tensor, kept independent of the code."""
    e, et, f, d = cfg.embed_dim, 2 * cfg.embed_dim, cfg.ff_dim, cfg.max_genes
    inputs = 3 * (d * e + e)
    time_map = (1 * et + et) + (et * et + et)
    embeddings = cfg.register_tokens * e + (cfg.max_context + 4) * e  # registers, role table
    key_value_stream = (
        2 * (e * e) + 2 * e  # key and value projections
        + (et * 2 * e + 2 * e)  # FiLM projection before attention
    )
    updated_stream = (
        key_value_stream
        + 2 * (e * e) + 2 * e  # query and output projections
        + (et * 2 * e + 2 * e)  # FiLM projection before the feed-forward
        + (e * f + f) + (f * e + e)  # feed-forward
    )
    # The last block updates stream 0 only; streams 1 and 2 give keys and values.
    blocks = (cfg.layers - 1) * 3 * updated_stream + updated_stream + 2 * key_value_stream
    final = (et * 2 * e + 2 * e) + (e * d + d)
    return inputs + time_map + embeddings + blocks + final


def _bundle(d=6, n_obs=9, k=2, m_ctx=7, rng=None):
    rng = rng or RNG
    context = tuple(
        (np.eye(d)[rng.integers(d)] * rng.uniform(0.5, 1.5), rng.standard_normal((m_ctx, d)))
        for _ in range(k)
    )
    return ExperimentBundle(
        y_obs=rng.standard_normal((n_obs, d)),
        context=context,
        query_code=np.eye(d)[0] * 1.1,
    )


def _random_model(cfg: ModelConfig, seed: int, scale: float = 0.1):
    """Random nonzero weights everywhere: a fresh build_model's zero-initialized
    readout makes forward return exactly 0, whatever the streams hold."""
    params = mdl.build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in params.items():
        t.data[...] = (rng.standard_normal(t.shape) * scale).astype(t.data.dtype)
    return params


def _assert_close(out: np.ndarray, other: np.ndarray, rtol: float = 1e-5) -> None:
    """Agreement relative to max|out|, which must be nonzero."""
    scale = float(np.abs(out).max())
    assert scale > 0
    assert float(np.abs(out - other).max()) <= rtol * scale


def test_toy_parameter_count_matches_closed_form():
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=0)
    assert mdl.num_values(cfg) == params.values.size == closed_form_param_count(cfg)
    assert closed_form_param_count(cfg) == 350_406


def test_paper_profile_parameter_count_near_25m():
    cfg = mdl.paper_config()
    count = closed_form_param_count(cfg)
    assert abs(count - 25e6) / 25e6 < 0.20
    params = mdl.build_model(cfg, seed=0)
    assert mdl.num_values(cfg) == params.values.size == count


def test_build_model_deterministic():
    cfg = mdl.toy_config()
    a = mdl.build_model(cfg, seed=11)
    b = mdl.build_model(cfg, seed=11)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    c = mdl.build_model(cfg, seed=12)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_forward_output_shape():
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=1)
    bundle = _bundle()
    for m in (1, 5):
        noised = (RNG.standard_normal((m, cfg.max_genes)), 0.3)
        out = mdl.forward(params, cfg, *noised, bundle)
        assert out.shape == (m, cfg.max_genes)
        assert np.all(np.isfinite(out.data))


def test_forward_query_row_equivariance():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=2)
    bundle = _bundle()
    y_tau = RNG.standard_normal((6, cfg.max_genes))
    perm = np.random.default_rng(0).permutation(6)
    base = mdl.forward(params, cfg, y_tau, 0.4, bundle).data
    permuted = mdl.forward(params, cfg, y_tau[perm], 0.4, bundle).data
    _assert_close(base[perm], permuted)


def test_forward_context_cell_permutation_invariance():
    # Shuffling cells inside Y_obs or inside one context experiment leaves
    # the prediction unchanged (up to float summation order).
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=3)
    rng = np.random.default_rng(7)
    bundle = _bundle(rng=rng)
    noised = (rng.standard_normal((4, cfg.max_genes)), 0.6)
    base = mdl.forward(params, cfg, *noised, bundle).data

    obs_perm = np.random.default_rng(1).permutation(bundle.y_obs.shape[0])
    shuffled_obs = ExperimentBundle(
        y_obs=bundle.y_obs[obs_perm],
        context=bundle.context,
        query_code=bundle.query_code,
    )
    _assert_close(base, mdl.forward(params, cfg, *noised, shuffled_obs).data)

    code0, batch0 = bundle.context[0]
    ctx_perm = np.random.default_rng(2).permutation(batch0.shape[0])
    shuffled_ctx = ExperimentBundle(
        y_obs=bundle.y_obs,
        context=((code0, batch0[ctx_perm]),) + bundle.context[1:],
        query_code=bundle.query_code,
    )
    _assert_close(base, mdl.forward(params, cfg, *noised, shuffled_ctx).data)


def test_forward_experiment_reorder_with_slots_is_invariant():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=4)
    rng = np.random.default_rng(9)
    bundle = _bundle(k=3, rng=rng)
    noised = (rng.standard_normal((4, cfg.max_genes)), 0.2)
    base = mdl.forward(params, cfg, *noised, bundle).data
    order = [2, 0, 1]
    moved = ExperimentBundle(
        y_obs=bundle.y_obs,
        context=tuple(bundle.context[i] for i in order),
        query_code=bundle.query_code,
        context_slots=tuple(order),  # slots travel with their experiments
    )
    _assert_close(base, mdl.forward(params, cfg, *noised, moved).data)


def test_forward_depends_on_the_context_slots():
    # The same experiments in other slots are another context: moving only
    # the slots must move the output.
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=10)
    rng = np.random.default_rng(10)
    bundle = _bundle(k=3, rng=rng)
    noised = (rng.standard_normal((4, cfg.max_genes)), 0.5)
    base = mdl.forward(params, cfg, *noised, bundle).data
    for slots in [(2, 0, 1), (1, 2, 3)]:
        moved = dataclasses.replace(bundle, context_slots=slots)
        change = np.abs(mdl.forward(params, cfg, *noised, moved).data - base).max()
        assert change > 0.01 * np.abs(base).max()


def test_forward_zero_shot_context():
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=5)
    bundle = ExperimentBundle(
        y_obs=RNG.standard_normal((8, cfg.max_genes)),
        context=(),
        query_code=np.eye(cfg.max_genes)[2],
    )
    out = mdl.forward(params, cfg, RNG.standard_normal((3, cfg.max_genes)), 0.5, bundle)
    assert out.shape == (3, cfg.max_genes)
    assert np.all(np.isfinite(out.data))


def test_drop_condition_ignores_bundle_contents():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=6)
    y_tau = RNG.standard_normal((5, cfg.max_genes))
    a = mdl.forward(params, cfg, y_tau, 0.7, _bundle(), drop_condition=True)
    b = mdl.forward(params, cfg, y_tau, 0.7, _bundle(k=4, n_obs=3), drop_condition=True)
    assert np.abs(a.data).max() > 0
    assert np.array_equal(a.data, b.data)


def test_forward_rejects_oversized_context_and_wrong_width():
    cfg = mdl.toy_config(max_context=2)
    params = mdl.build_model(cfg, seed=7)
    noised = (RNG.standard_normal((2, cfg.max_genes)), 0.1)
    with pytest.raises(InvalidArgumentError):
        mdl.forward(params, cfg, *noised, _bundle(k=3))
    with pytest.raises(InvalidArgumentError):
        mdl.forward(params, cfg, *noised, _bundle(d=5, k=1))
    bad_query = (RNG.standard_normal((2, cfg.max_genes + 1)), 0.1)
    with pytest.raises(InvalidArgumentError):
        mdl.forward(params, cfg, *bad_query, _bundle(k=1))


def test_forward_is_deterministic():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=8)
    bundle = _bundle()
    noised = (RNG.standard_normal((4, cfg.max_genes)), 0.9)
    a = mdl.forward(params, cfg, *noised, bundle).data
    b = mdl.forward(params, cfg, *noised, bundle).data
    assert np.abs(a).max() > 0
    assert np.array_equal(a, b)


def test_forward_rejects_bad_context_slots():
    cfg = mdl.toy_config(max_context=3)
    params = mdl.build_model(cfg, seed=9)
    noised = (RNG.standard_normal((2, cfg.max_genes)), 0.1)
    bundle = _bundle(k=2)
    for slots in [(0, 3), (-1, 1), (0,), (0, 1, 2)]:
        with pytest.raises(InvalidArgumentError, match="slot"):
            mdl.forward(params, cfg, *noised, dataclasses.replace(bundle, context_slots=slots))


def test_forward_rejects_arrays_of_the_wrong_rank():
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=9)
    noised = (RNG.standard_normal((2, cfg.max_genes)), 0.1)
    bundle = _bundle(k=2)
    code, batch = bundle.context[0]
    for bad in [
        dataclasses.replace(bundle, y_obs=bundle.y_obs[0]),
        dataclasses.replace(bundle, context=((code, batch[0]),) + bundle.context[1:]),
        dataclasses.replace(bundle, context=((code[None], batch),) + bundle.context[1:]),
        dataclasses.replace(bundle, query_code=bundle.query_code[None]),
    ]:
        with pytest.raises(InvalidArgumentError, match="shapes"):
            mdl.forward(params, cfg, *noised, bad)


def test_forward_rejects_a_non_finite_tau():
    # A NaN tau used to come back as all-NaN velocities.
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=9)
    y_tau = RNG.standard_normal((2, cfg.max_genes))
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="tau"):
            mdl.forward(params, cfg, y_tau, tau, _bundle())
    with pytest.raises(InvalidArgumentError, match="tau"):
        mdl.forward(params, cfg, np.stack([y_tau, y_tau]), [0.5, np.nan], [_bundle(), _bundle()])


def test_forward_rejects_stacks_that_do_not_share_their_shapes():
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=9)
    y_tau = RNG.standard_normal((2, 3, cfg.max_genes))
    for other in (_bundle(n_obs=4), _bundle(m_ctx=3), _bundle(k=1)):
        with pytest.raises(InvalidArgumentError, match="stacked"):
            mdl.forward(params, cfg, y_tau, [0.5, 0.5], [_bundle(), other])
    with pytest.raises(InvalidArgumentError, match="query shape"):
        mdl.forward(params, cfg, y_tau, [0.5, 0.5, 0.5], [_bundle()] * 3)
    with pytest.raises(InvalidArgumentError, match="tau"):
        mdl.forward(params, cfg, y_tau, 0.5, [_bundle()] * 2)


@pytest.mark.parametrize(
    "sizes",
    [
        dict(embed_dim=0, heads=0, head_dim=0, ff_dim=0),
        dict(ff_dim=0),
        dict(layers=0),
        dict(max_genes=0),
        dict(max_context=0),
        dict(register_tokens=-1),
        dict(heads=-4, head_dim=-16),
        # Every field with each value of WRONG_TYPES.
        *(pytest.param({field: value}, id=f"{field}={value}") for field, value in wrong_type_cases(ModelConfig)),
    ],
    ids=lambda sizes: ",".join(sizes),
)
def test_model_config_rejects_sizes_below_one(sizes):
    with pytest.raises(InvalidArgumentError, match="at least"):
        dataclasses.replace(mdl.toy_config(), **sizes)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_build_model_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # Unchecked, -1 and 2.5 raised NumPy's raw ValueError and TypeError.
    with pytest.raises(InvalidArgumentError, match="seed"):
        mdl.build_model(mdl.toy_config(), seed)


def test_model_config_accepts_no_register_tokens():
    cfg = dataclasses.replace(mdl.toy_config(), register_tokens=0)
    params = _random_model(cfg, seed=1)
    out = mdl.forward(params, cfg, RNG.standard_normal((3, cfg.max_genes)), 0.5, _bundle())
    assert out.shape == (3, cfg.max_genes)


# -- nothing unread --------------------------------------------------------


def _record_op_nodes(monkeypatch) -> list:
    """Collect every op node the engine records from now on."""
    nodes = []
    make = ad._make

    def recording(data, vjps):
        out = make(data, vjps)
        if out._backward is not None:
            nodes.append(out)
        return out

    monkeypatch.setattr(ad, "_make", recording)
    return nodes


def _training_case(cfg: ModelConfig, seed: int):
    rng = np.random.default_rng(seed)
    bundle = dataclasses.replace(_bundle(k=3, rng=rng), target=rng.standard_normal((8, cfg.max_genes)))
    return bundle, rng.standard_normal((8, cfg.max_genes))


@pytest.mark.parametrize("drop", [False, True])
def test_every_recorded_op_node_reaches_the_loss(monkeypatch, drop):
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=12)
    bundle, y0 = _training_case(cfg, 12)
    nodes = _record_op_nodes(monkeypatch)
    loss = tr.cfm_loss(params, cfg, bundle, 0.3, y0, drop_condition=drop)
    reachable = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in reachable:
                reachable.add(id(parent))
                stack.append(parent)
    assert nodes
    assert sum(id(node) not in reachable for node in nodes) == 0


def test_forward_records_no_node_per_context_experiment(monkeypatch):
    cfg = mdl.toy_config()
    params = mdl.build_model(cfg, seed=14)
    noised = (RNG.standard_normal((3, cfg.max_genes)), 0.5)
    nodes = _record_op_nodes(monkeypatch)
    counts = []
    for k in range(cfg.max_context + 1):
        nodes.clear()
        mdl.forward(params, cfg, *noised, _bundle(k=k))
        counts.append(len(nodes))
    assert len(set(counts)) == 1, counts


def test_every_parameter_gets_a_gradient():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=13)
    bundle, y0 = _training_case(cfg, 13)
    tr.cfm_loss(params, cfg, bundle, 0.4, y0).backward()
    assert [name for name, t in params.items() if not np.any(t.grad)] == []


def test_dropped_condition_trains_the_null_row():
    cfg = mdl.toy_config()
    params = _random_model(cfg, seed=15)
    bundle, y0 = _training_case(cfg, 15)
    tr.cfm_loss(params, cfg, bundle, 0.4, y0, drop_condition=True).backward()
    roles = params["emb.roles"].grad
    assert np.any(roles[-1])  # the null token
    assert not np.any(roles[:-1])
