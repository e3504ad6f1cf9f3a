"""Gradient checks for every tape primitive, plus engine contracts."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import check_grads

from pertmap import autodiff as ad
from pertmap.autodiff import ParameterSet, Tensor
from pertmap.errors import InvalidArgumentError, UnsupportedOperationError

RNG = np.random.default_rng(20240)


def _arr(*shape):
    return RNG.standard_normal(shape)


def test_scalar_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x
    y.backward()
    assert x.grad == pytest.approx(6.0)


def _sq(t: Tensor) -> Tensor:
    return t * t


def test_add_sub_mul_with_broadcasting():
    a, b = _arr(4, 3), _arr(3)
    check_grads(lambda ts: ((ts[0] + ts[1]) * ts[0]).sum(), [a, b.copy()])
    check_grads(lambda ts: ((ts[0] - ts[1]) * ts[1]).sum(), [a, b.copy()])


def test_pointwise_nonlinearities():
    a = _arr(6)
    check_grads(lambda ts: ad.sigmoid(ts[0]).sum(), [a.copy()])


def test_matmul_2d_and_batched():
    a, b = _arr(4, 3), _arr(3, 5)
    check_grads(lambda ts: (ts[0] @ ts[1]).sum(), [a, b])
    # Batched: (2, 4, 3) @ (2, 3, 5), and broadcast (2, 4, 3) @ (3, 5).
    ab, bb = _arr(2, 4, 3), _arr(2, 3, 5)
    check_grads(lambda ts: _sq(ts[0] @ ts[1]).sum(), [ab, bb])
    check_grads(lambda ts: _sq(ts[0] @ ts[1]).sum(), [ab, b])


def test_constants_take_the_tensor_dtype():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    outs = [x + 1.0, 1.0 - x, x * np.float64(0.5), 2.0 * x, x @ np.eye(2), ad.matmul(np.eye(2), x), x.mean()]
    assert all(out.dtype == np.float32 for out in outs)
    # Two Tensors keep numpy's promotion.
    assert (x + Tensor(np.ones(2))).dtype == np.float64


def test_matmul_rejects_vectors():
    with pytest.raises(UnsupportedOperationError):
        ad.matmul(Tensor(_arr(3)), Tensor(_arr(3, 2)))


def test_reductions_and_reshape_transpose():
    a = _arr(3, 4, 2)
    check_grads(lambda ts: ts[0].sum(axis=1).sum(), [a])
    check_grads(lambda ts: _sq(ts[0].mean(axis=(0, 2))).sum(), [a])
    check_grads(lambda ts: _sq(ts[0].reshape((6, 4))).sum(), [a])
    check_grads(lambda ts: (_sq(ts[0].transpose((2, 0, 1))) * ts[0].transpose((2, 0, 1))).sum(), [a])


def test_slicing_and_concat():
    a, b = _arr(4, 3), _arr(2, 3)
    check_grads(lambda ts: _sq(ts[0][1:3]).sum(), [a])
    check_grads(lambda ts: _sq(ad.concat([ts[0], ts[1]], axis=0)).sum(), [a, b])
    check_grads(lambda ts: (ts[0][..., :2] * ts[0][..., 1:]).sum(), [a])


def test_advanced_indexing_is_unsupported():
    with pytest.raises(UnsupportedOperationError):
        Tensor(_arr(4))[np.array([0, 1])]


def test_grad_accumulates_through_shared_subexpressions():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_backward_seed_scales_gradients():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).backward(seed=np.array([0.5, 0.5]))
    assert np.allclose(x.grad, [1.0, 2.0])


def test_no_grad_skips_tape():
    x = Tensor(np.array(2.0), requires_grad=True)
    with ad.no_grad():
        y = x * x
    assert y._backward is None and y._parents == ()


def test_forward_is_pure_and_deterministic():
    a = _arr(8, 8)
    x = Tensor(a)
    y1 = (ad.sigmoid(x @ x) * 2.0).data.copy()
    y2 = (ad.sigmoid(x @ x) * 2.0).data.copy()
    assert np.array_equal(y1, y2)


def test_parameter_set_order_and_uniqueness():
    ps = ParameterSet([("b", (2,)), ("a", (3,))], np.arange(5.0))
    assert list(ps) == ["b", "a"]
    assert np.array_equal(ps["b"].data, [0.0, 1.0]) and np.array_equal(ps["a"].data, [2.0, 3.0, 4.0])
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        ParameterSet([("a", (1,)), ("a", (1,))], np.zeros(2))


@pytest.mark.parametrize("values", [np.zeros(5), np.zeros(7), np.zeros((2, 3))], ids=["short", "long", "2-d"])
def test_parameter_set_rejects_values_that_do_not_fit_the_layout(values):
    with pytest.raises(InvalidArgumentError, match="values"):
        ParameterSet([("w", (2, 3))], values)


def test_parameter_tensors_are_views_of_the_flat_arrays():
    ps = ParameterSet([("w", (1, 2)), ("b", (2,))], np.array([1.0, 2.0, 0.5, -0.5]))
    w, b = ps["w"], ps["b"]
    assert np.shares_memory(w.data, ps.values) and np.shares_memory(b.data, ps.values)
    assert np.shares_memory(w.grad, ps.grad) and np.shares_memory(b.grad, ps.grad)
    w.data[0, 1] = 3.0
    assert ps.values[1] == 3.0
    x = Tensor(np.array([[3.0], [4.0]]))
    for _ in range(2):  # gradients accumulate across backward calls
        (w @ x + b).sum().backward()
    assert np.array_equal(ps.grad, [12.0, 16.0, 2.0, 2.0])
    assert np.array_equal(w.grad, [[12.0, 16.0]])
    ps.zero_grads()
    assert not np.any(ps.grad) and not np.any(b.grad)


def test_grad_collects_over_parameter_set():
    ps = ParameterSet([("w", (1, 2))], np.array([1.0, 2.0]))
    x = Tensor(np.array([[3.0], [4.0]]))
    loss = (ps["w"] @ x).sum()
    for _ in range(2):  # zero_grads clears, so the second pass does not accumulate
        ps.zero_grads()
        loss.backward()
        assert np.array_equal(ps.grad, [3.0, 4.0])
