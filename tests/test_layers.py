"""Contract and gradient tests for the differentiable layers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import check_grads

from pertmap import autodiff as ad
from pertmap import layers
from pertmap.autodiff import Tensor
from pertmap.errors import InvalidArgumentError
from pertmap.layers import AttentionParams

RNG = np.random.default_rng(777)


def _attn_params(width: int, rng) -> AttentionParams:
    def w():
        return Tensor(rng.standard_normal((width, width)) * 0.3, requires_grad=True)

    def b():
        return Tensor(rng.standard_normal(width) * 0.1, requires_grad=True)

    return AttentionParams(wq=w(), wk=w(), wv=w(), wo=w(), bq=b(), bk=b(), bv=b(), bo=b())


def _sq(t: Tensor) -> Tensor:
    return t * t


def _attn_arrays_to_params(arrs) -> AttentionParams:
    return AttentionParams(*arrs)


def test_layer_norm_constant_token_is_zero():
    x = Tensor(np.full((3, 8), 2.5))
    out = layers.layer_norm(x)
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_moments():
    x = Tensor(RNG.standard_normal((10, 32)))
    out = layers.layer_norm(x).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_shift_scale_invariance():
    x = RNG.standard_normal((5, 16))
    a, b = 3.7, -1.2
    base = layers.layer_norm(Tensor(x)).data
    shifted = layers.layer_norm(Tensor(a * x + b)).data
    assert np.allclose(base, shifted, atol=1e-5)


def test_layer_norm_gradcheck():
    # A fixed random readout r; sum(layer_norm(x)**2) would be constant.
    x = RNG.standard_normal((4, 6))
    r = Tensor(RNG.standard_normal((4, 6)))
    check_grads(lambda ts: (layers.layer_norm(ts[0]) * r).sum(), [x])


def test_gelu_silu_gradcheck():
    x = RNG.standard_normal((5, 4))
    check_grads(lambda ts: layers.gelu(ts[0]).sum(), [x])
    check_grads(lambda ts: layers.silu(ts[0]).sum(), [x])


@pytest.mark.parametrize("shape", [(), (3,)])
def test_linear_rejects_an_input_that_is_not_a_token_matrix(shape):
    # A lone vector ran forward and then failed in backward with numpy's AxisError.
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(InvalidArgumentError, match="token matrix"):
        layers.linear(Tensor(np.ones(shape), requires_grad=True), w)
    with pytest.raises(InvalidArgumentError, match="token matrix"):
        layers.linear(np.ones(shape), w)


def test_film_zero_init_is_identity():
    width, twidth = 6, 4
    x = Tensor(RNG.standard_normal((3, width)))
    temb = Tensor(RNG.standard_normal((1, twidth)))
    w = Tensor(np.zeros((twidth, 2 * width)))
    b = Tensor(np.zeros(2 * width))
    out = layers.film_modulate(x, temb, w, b)
    assert np.array_equal(out.data, x.data)


def test_film_gamma_minus_one_zeroes_output():
    width = 3
    x = Tensor(RNG.standard_normal((2, width)))
    temb = Tensor(np.ones((1, 1)))
    w = Tensor(np.zeros((1, 2 * width)))
    b = Tensor(np.concatenate([-np.ones(width), np.zeros(width)]))
    out = layers.film_modulate(x, temb, w, b)
    assert np.allclose(out.data, 0.0)


def test_film_gradient_wrt_input_is_one_plus_gamma():
    width = 4
    x = Tensor(RNG.standard_normal((1, width)), requires_grad=True)
    temb = Tensor(np.ones((1, 2)))
    w = Tensor(RNG.standard_normal((2, 2 * width)) * 0.1)
    b = Tensor(np.zeros(2 * width))
    out = layers.film_modulate(x, temb, w, b)
    gamma = (temb.data @ w.data)[:, :width]
    out.sum().backward()
    assert np.allclose(x.grad, 1.0 + gamma)


def test_film_gradcheck_through_projection():
    width, twidth = 3, 2
    x = RNG.standard_normal((4, width))
    temb = RNG.standard_normal((1, twidth))
    w = RNG.standard_normal((twidth, 2 * width)) * 0.3
    b = RNG.standard_normal(2 * width) * 0.1
    check_grads(
        lambda ts: _sq(layers.film_modulate(ts[0], ts[1], ts[2], ts[3])).sum(),
        [x, temb, w, b],
    )


def test_joint_attention_single_token_single_stream():
    # Softmax over one key is 1, so the output is wo(v(token)).
    width, heads, hd = 8, 2, 4
    p = _attn_params(width, np.random.default_rng(3))
    x = Tensor(RNG.standard_normal((1, width)))
    out = layers.joint_attention([x], [p], heads, hd)[0].data
    expected = (x.data @ p.wv.data + p.bv.data) @ p.wo.data + p.bo.data
    assert np.allclose(out, expected, atol=1e-10)


def test_joint_attention_query_permutation_equivariance():
    # Permuting tokens inside one stream permutes that stream's output rows
    # identically.  BLAS tiling reassociates sums across row blocks, so the
    # match is up to a few ulps rather than bitwise.
    width, heads, hd = 8, 2, 4
    rng = np.random.default_rng(9)
    ps = [_attn_params(width, rng) for _ in range(2)]
    a = RNG.standard_normal((5, width))
    b = RNG.standard_normal((4, width))
    perm = np.random.default_rng(1).permutation(5)
    out = layers.joint_attention([Tensor(a), Tensor(b)], ps, heads, hd)
    out_p = layers.joint_attention([Tensor(a[perm]), Tensor(b)], ps, heads, hd)
    assert np.allclose(out[0].data[perm], out_p[0].data, atol=1e-12)


def test_joint_attention_key_permutation_invariance():
    # Reordering another stream's tokens only reorders softmax summands;
    # results agree up to float summation order.
    width, heads, hd = 8, 2, 4
    rng = np.random.default_rng(11)
    ps = [_attn_params(width, rng) for _ in range(2)]
    a = RNG.standard_normal((5, width))
    b = RNG.standard_normal((6, width))
    perm = np.random.default_rng(2).permutation(6)
    out = layers.joint_attention([Tensor(a), Tensor(b)], ps, heads, hd)
    out_p = layers.joint_attention([Tensor(a), Tensor(b[perm])], ps, heads, hd)
    assert np.allclose(out[0].data, out_p[0].data, atol=1e-10)
    assert np.allclose(out[1].data[perm], out_p[1].data, atol=1e-10)


def test_joint_attention_supports_empty_stream():
    width, heads, hd = 4, 1, 4
    rng = np.random.default_rng(13)
    ps = [_attn_params(width, rng) for _ in range(2)]
    a = Tensor(RNG.standard_normal((3, width)))
    empty = Tensor(np.zeros((0, width)))
    out = layers.joint_attention([a, empty], ps, heads, hd)
    assert out[0].shape == (3, width)
    assert out[1].shape == (0, width)
    # With no second stream at all the result matches the empty-stream run.
    solo = layers.joint_attention([a], ps[:1], heads, hd)
    assert np.allclose(out[0].data, solo[0].data, atol=1e-12)


def test_joint_attention_key_value_only_stream():
    # A stream without query and output projections gets no output, but its
    # keys and values still reach the querying stream.
    width, heads, hd = 8, 2, 4
    rng = np.random.default_rng(17)
    ps = [_attn_params(width, rng) for _ in range(2)]
    kv_only = dataclasses.replace(ps[1], wq=None, bq=None, wo=None, bo=None)
    a = Tensor(RNG.standard_normal((5, width)))
    b = Tensor(RNG.standard_normal((3, width)))
    out = layers.joint_attention([a, b], [ps[0], kv_only], heads, hd)
    assert len(out) == 1
    full = layers.joint_attention([a, b], ps, heads, hd)
    assert np.allclose(out[0].data, full[0].data, atol=1e-12)
    alone = layers.joint_attention([a], ps[:1], heads, hd)
    assert not np.allclose(out[0].data, alone[0].data, atol=1e-3)
    with pytest.raises(InvalidArgumentError, match="query"):
        layers.joint_attention([b], [kv_only], heads, hd)


def test_joint_attention_width_mismatch_rejected():
    width, heads, hd = 6, 2, 3
    p = _attn_params(width, np.random.default_rng(0))
    bad = Tensor(RNG.standard_normal((2, width + 1)))
    with pytest.raises(InvalidArgumentError):
        layers.joint_attention([bad], [p], heads, hd)


def test_joint_attention_checks_every_streams_projections():
    # A second stream projecting to width 6 beside width 4 used to reach
    # numpy's concatenate and raise its ValueError.
    heads, hd = 2, 2
    rng = np.random.default_rng(5)
    good, wide = _attn_params(4, rng), _attn_params(6, rng)
    a, b = Tensor(RNG.standard_normal((3, 4))), Tensor(RNG.standard_normal((2, 4)))
    wide_out = dataclasses.replace(good, wk=Tensor(rng.standard_normal((4, 6))))
    for second in (wide, wide_out, dataclasses.replace(good, wo=None)):
        with pytest.raises(InvalidArgumentError, match="stream 1"):
            layers.joint_attention([a, b], [good, second], heads, hd)


def test_joint_attention_needs_a_key_token():
    # A lone empty stream used to raise numpy's "zero-size array to
    # reduction operation maximum".
    p = _attn_params(4, np.random.default_rng(6))
    with pytest.raises(InvalidArgumentError, match="key token"):
        layers.joint_attention([Tensor(np.zeros((0, 4)))], [p], 2, 2)
    with pytest.raises(InvalidArgumentError, match="key token"):
        layers.joint_attention([Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4)))], [p, p], 2, 2)


def test_joint_attention_gradcheck():
    # Gradients of a one-block joint attention wrt all projections and inputs.
    width, heads, hd = 4, 2, 2
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, width))
    y = rng.standard_normal((2, width))
    mats = [rng.standard_normal((width, width)) * 0.4 for _ in range(8)]
    vecs = [rng.standard_normal(width) * 0.1 for _ in range(8)]

    def build(ts):
        xs, ys = ts[0], ts[1]
        pa = AttentionParams(ts[2], ts[3], ts[4], ts[5], ts[10], ts[11], ts[12], ts[13])
        pb = AttentionParams(ts[6], ts[7], ts[8], ts[9], ts[14], ts[15], ts[16], ts[17])
        outs = layers.joint_attention([xs, ys], [pa, pb], heads, hd)
        return _sq(outs[0]).sum() + _sq(outs[1]).sum()

    check_grads(build, [x, y] + mats + vecs, tol=1e-4)
