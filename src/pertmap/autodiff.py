"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray and records the operations applied to it;
``backward`` replays the tape in reverse topological order and accumulates
gradients into every tensor with ``requires_grad``.  The primitive set is
exactly what the transformer composes around its fused layers (see
:mod:`pertmap.layers`): ``add``, ``sub`` and ``mul`` with numpy
broadcasting, ``sum_`` and ``mean``, basic-index ``take`` and ``concat``.

A graph may run a stack of bundles at once, each array carrying a leading
bundle axis.  A leaf then receives a stacked adjoint: one more axis than
the leaf, one gradient per bundle; ``layers.linear`` hands these to its
weight and bias on a stack of token matrices, and nothing else makes them.
The leaf adds them into its gradient one bundle at a time, in stack order,
so a stack's gradients sum in exactly the order that one backward per
bundle, run in that order, sums them.  A leaf must receive only stacked or
only unstacked adjoints within one graph.

A backward may defer its leaf additions: given a ``leaf_log`` list, it
appends each ``(leaf, adjoint)`` pair in walk order instead of adding the
adjoint, and :func:`replay` adds the logged pairs later, through the same
additions in the same order.  No adjoint depends on what a leaf's gradient
holds, so a graph whose log is replayed after other graphs' additions
leaves every gradient as if its backward had run then.

Every primitive builds its output through :func:`_make`, from the result
array and one ``(operand, vjp)`` pair per operand, where ``vjp`` maps the
output's gradient to that operand's.  A fused node whose operands'
gradients share their work builds it through :func:`_make_joint` instead,
from one backward that returns them all.  Both keep only the operands on
the tape (parameters and results of recorded ops) as parents, and
``_make`` never computes a gradient that nothing reads.

The graph runs in the dtype of its parameters: float32 for training,
float64 for gradient checks, where central finite differences are
trustworthy.  A constant (a Python or numpy scalar, or an ndarray) combined
with a Tensor by ``add``, ``sub`` or ``mul`` takes that Tensor's dtype, so
constants and input data never widen the graph; two Tensors keep numpy's
promotion.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast axes so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """An ndarray plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=None if np.asarray(data).dtype.kind == "f" else float)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], list[tuple[Tensor, np.ndarray]]]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    # -- graph plumbing ---------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        if grad.ndim > self.data.ndim:  # a stacked adjoint: add bundle by bundle, in stack order
            for g in grad:
                self.grad += g
        else:
            self.grad += grad

    def backward(self, seed: Optional[np.ndarray] = None, leaf_log: Optional[list] = None) -> None:
        """Reverse-mode sweep from this tensor.

        ``seed`` defaults to 1 and must match this tensor's shape; gradients
        accumulate into ``.grad`` of every reachable tensor that requires
        them (accumulation across multiple backward calls is intentional,
        callers zero grads between steps).  With ``leaf_log``, they are
        appended to it for :func:`replay` instead.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.broadcast_to(np.asarray(seed, dtype=self.data.dtype), self.data.shape)

        # Iterative topological order over the tape.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Gradients may be views or broadcasts, so they are summed out of
        # place and never written to.
        adjoint: dict[int, np.ndarray] = {id(self): seed}
        for node in reversed(order):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if leaf_log is None:
                    node._accumulate(g)
                else:
                    leaf_log.append((node, g))
            if node._backward is None:
                continue
            for parent, pg in node._backward(g):
                key = id(parent)
                adjoint[key] = adjoint[key] + pg if key in adjoint else pg

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def replay(leaf_log: list) -> None:
    """Add the ``(leaf, adjoint)`` pairs that deferred backwards logged, in log order."""
    for leaf, g in leaf_log:
        leaf._accumulate(g)


def _wrap(data: np.ndarray) -> Tensor:
    """A tape-free Tensor around a float array, without ``__init__``'s checks."""
    out = Tensor.__new__(Tensor)
    # Arithmetic on 0-d arrays returns numpy scalars.
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a constant takes its partner's dtype."""
    if not isinstance(a, Tensor):
        a = _wrap(np.asarray(a, dtype=b.dtype))
    elif not isinstance(b, Tensor):
        b = _wrap(np.asarray(b, dtype=a.dtype))
    return a, b


def _make(data: np.ndarray, vjps: Iterable[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> Tensor:
    """Build an output tensor from its (operand, vjp) pairs.

    Only operands on the tape, the ones that require a gradient or were
    produced by a recorded op, become parents; the vjps of the others are
    never called.
    """
    out = _wrap(data)
    if _grad_enabled:
        live = [(p, vjp) for p, vjp in vjps if p.requires_grad or p._backward is not None]
        if live:
            out._parents = tuple(p for p, _ in live)
            out._backward = lambda g: [(p, vjp(g)) for p, vjp in live]
    return out


def _make_joint(data: np.ndarray, operands: list[Tensor], backward: Callable[[np.ndarray], list]) -> Tensor:
    """Build an output tensor whose ``backward`` maps the output's gradient
    to every operand's at once, in operand order; as in ``_make``, only the
    operands on the tape become parents and receive theirs."""
    on_tape = [p.requires_grad or p._backward is not None for p in operands]
    out = _wrap(data)
    if _grad_enabled and any(on_tape):
        out._parents = tuple(p for p, live in zip(operands, on_tape) if live)
        out._backward = lambda g: [(p, pg) for p, pg, live in zip(operands, backward(g), on_tape) if live]
    return out


# -- primitives -----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _make(
        a.data + b.data,
        ((a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: _unbroadcast(g, b.shape))),
    )


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _make(
        a.data - b.data,
        ((a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: _unbroadcast(-g, b.shape))),
    )


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _make(
        a.data * b.data,
        (
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ),
    )


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), ((a, vjp),))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def take(a: Tensor, key) -> Tensor:
    """Basic (slice/integer) indexing; advanced index arrays are unsupported,
    also inside a tuple key, where the vjp's assignment would drop repeated
    indices' gradients."""
    if any(isinstance(k, (np.ndarray, list, Tensor)) for k in (key if isinstance(key, tuple) else (key,))):
        raise UnsupportedOperationError("advanced indexing is not differentiable here")

    def vjp(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _make(a.data[key], ((a, vjp),))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise InvalidArgumentError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors]).tolist()

    def piece(lo: int, hi: int):
        def vjp(g):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(lo, hi)
            return g[tuple(slicer)]

        return vjp

    return _make(data, ((t, piece(lo, hi)) for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])))


# -- parameter collections ----------------------------------------------


class ParameterSet:
    """Named parameter tensors over two flat 1-D arrays, ``values`` and
    ``grad``, in layout order: each tensor's ``data`` and ``grad`` are
    reshaped views into them.

    Write a parameter in place (``t.data[...] = x``); rebinding ``t.data``
    detaches the tensor from ``values``, which then no longer holds what
    the model computes with.  ``layout`` lists ``(name, shape, ...)``
    entries, as ``model.parameter_layout`` does.  ``values`` is wrapped,
    not copied, and so is ``grad`` where one is given, an array like
    ``values``.  A set's own ``grad`` is left untouched until backward
    writes it, so a set used only for inference costs no gradient memory.
    """

    def __init__(self, layout: Iterable[tuple], values: np.ndarray, grad: Optional[np.ndarray] = None) -> None:
        shapes = [(name, shape) for name, shape, *_ in layout]
        size = sum(math.prod(shape) for _, shape in shapes)
        if values.shape != (size,):
            raise InvalidArgumentError(f"values of shape {values.shape} do not hold the layout's {size} values")
        if grad is None:
            # Anonymous mmap pages read as zero and stay unresident until
            # written.  np.zeros gives that only when the allocator maps the
            # request, not when it reuses freed heap memory and must clear it.
            grad = np.frombuffer(mmap.mmap(-1, max(values.nbytes, 1)), values.dtype, values.size)
        elif (grad.shape, grad.dtype) != (values.shape, values.dtype):
            raise InvalidArgumentError(f"a grad of {grad.dtype} {grad.shape} for values of {values.dtype} {values.shape}")
        self.values = values
        self.grad = grad
        self._params: dict[str, Tensor] = {}
        offset = 0
        for name, shape in shapes:
            if name in self._params:
                raise InvalidArgumentError(f"duplicate parameter name: {name}")
            end = offset + math.prod(shape)
            t = Tensor(values[offset:end].reshape(shape), requires_grad=True)
            t.grad = self.grad[offset:end].reshape(shape)
            self._params[name] = t
            offset = end

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grads(self) -> None:
        self.grad.fill(0)

