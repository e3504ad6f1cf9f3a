"""Gradient checks for every tape primitive, plus engine contracts."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import check_grads

from pertmap import autodiff as ad
from pertmap import layers
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


def test_constants_take_the_tensor_dtype():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    outs = [x + 1.0, 1.0 - x, x * np.float64(0.5), 2.0 * x, x - np.ones(2), x.mean()]
    assert all(out.dtype == np.float32 for out in outs)
    # Two Tensors keep numpy's promotion.
    assert (x + Tensor(np.ones(2))).dtype == np.float64


def test_reductions():
    a = _arr(3, 4, 2)
    check_grads(lambda ts: ts[0].sum(axis=1).sum(), [a])
    check_grads(lambda ts: _sq(ts[0].mean(axis=(0, 2))).sum(), [a])


def test_slicing_and_concat():
    a, b = _arr(4, 3), _arr(2, 3)
    check_grads(lambda ts: _sq(ts[0][1:3]).sum(), [a])
    check_grads(lambda ts: _sq(ad.concat([ts[0], ts[1]], axis=0)).sum(), [a, b])
    check_grads(lambda ts: (ts[0][..., :2] * ts[0][..., 1:]).sum(), [a])


def test_advanced_indexing_is_unsupported():
    # Index arrays inside a tuple key too: there a repeated index got one
    # gradient term, not two.
    x = Tensor(_arr(4, 3))
    for key in [np.array([0, 1]), [0, 1], (np.array([0, 0, 2]),), (slice(None), [0, 0]), (Ellipsis, Tensor(np.zeros(1)))]:
        with pytest.raises(UnsupportedOperationError):
            x[key]


def test_grad_accumulates_through_shared_subexpressions():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_backward_seed_scales_gradients():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).backward(seed=np.array([0.5, 0.5]))
    assert np.allclose(x.grad, [1.0, 2.0])


def test_a_leaf_adds_a_stacked_adjoint_copy_by_copy_in_stack_order():
    # float32 terms whose sum depends on the order of the additions: a linear
    # weight on a stack of 3 token matrices gets one gradient per bundle.
    w = Tensor(np.array([[2.0]], dtype=np.float32), requires_grad=True)
    w.grad = np.array([[1e8]], dtype=np.float32)  # what earlier bundles added
    x = np.full((3, 2, 1), 2.0, dtype=np.float32)  # (bundles, tokens, in)
    layers.linear(x, w).sum().backward()
    expected = np.array([[1e8]], dtype=np.float32)
    for tokens in x:
        expected += tokens.T @ np.ones((2, 1), dtype=np.float32)
    assert np.array_equal(w.grad, expected)
    assert not np.array_equal(w.grad, np.float32(1e8) + np.float32(x.sum()))


def test_a_deferred_backward_replays_its_additions_after_later_ones():
    # Graph b's backward logs its leaf additions while graph a's run, as a
    # helper process's does during training; replayed after a's, they leave
    # the float32 gradients that a's backward then b's would.
    rng = np.random.default_rng(5)
    ps = ParameterSet([("w", (2, 3)), ("b", (3,))], rng.standard_normal(9).astype(np.float32))
    xa, xb = (rng.standard_normal((2, 4, 2)).astype(np.float32) * 1e3 for _ in range(2))

    def loss(x):
        y = layers.linear(x, ps["w"], ps["b"])
        return (y * y).sum()

    loss(xb).backward(seed=0.5)
    loss(xa).backward()
    other_order = ps.grad.copy()
    ps.zero_grads()
    loss(xa).backward()
    loss(xb).backward(seed=0.5)
    reference = ps.grad.copy()
    assert not np.array_equal(other_order, reference)

    ps.zero_grads()
    log = []
    loss(xb).backward(seed=0.5, leaf_log=log)
    assert not np.any(ps.grad)
    assert [leaf for leaf, _ in log] == [ps["w"], ps["b"]]
    loss(xa).backward()
    ad.replay(log)
    assert np.array_equal(ps.grad, reference)


def test_parameter_set_wraps_a_given_grad_like_its_values():
    values, grad = np.zeros(6, np.float32), np.zeros(6, np.float32)
    ps = ParameterSet([("w", (2, 3))], values, grad)
    assert ps.grad is grad and np.shares_memory(ps["w"].grad, grad)
    for unlike in (np.zeros(5, np.float32), np.zeros(6, np.float64)):
        with pytest.raises(InvalidArgumentError, match="grad"):
            ParameterSet([("w", (2, 3))], values, unlike)


def test_no_grad_skips_tape():
    x = Tensor(np.array(2.0), requires_grad=True)
    with ad.no_grad():
        y = x * x
    assert y._backward is None and y._parents == ()


def test_forward_is_pure_and_deterministic():
    a = _arr(8, 8)
    x = Tensor(a)
    y1 = (ad.concat([x, x * x]).mean(axis=0) * 2.0).data.copy()
    y2 = (ad.concat([x, x * x]).mean(axis=0) * 2.0).data.copy()
    assert np.array_equal(y1, y2) and np.array_equal(x.data, a)


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
    x = np.array([[3.0], [4.0]])
    for _ in range(2):  # gradients accumulate across backward calls
        (layers.linear(x, w, b) * np.eye(2)).sum().backward()
    assert np.array_equal(ps.grad, [6.0, 8.0, 2.0, 2.0])
    assert np.array_equal(w.grad, [[6.0, 8.0]])
    ps.zero_grads()
    assert not np.any(ps.grad) and not np.any(b.grad)


def test_grad_collects_over_parameter_set():
    ps = ParameterSet([("w", (2, 1))], np.array([1.0, 2.0]))
    loss = layers.linear(np.array([[3.0, 4.0]]), ps["w"]).sum()
    for _ in range(2):  # zero_grads clears, so the second pass does not accumulate
        ps.zero_grads()
        loss.backward()
        assert np.array_equal(ps.grad, [3.0, 4.0])
