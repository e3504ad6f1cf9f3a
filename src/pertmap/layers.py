"""Differentiable building blocks: linear maps, affine-free layer norm,
softmax attention over concatenated token streams, and FiLM time modulation.

Token matrices are (tokens, width), or (bundles, tokens, width) for a stack
of bundles that run as one graph; every layer treats each bundle's slice as
it treats a lone matrix, with the same numpy expression per slice, so a
stacked result equals the per-bundle ones bit for bit.  ``linear`` hands a
stacked weight and bias gradient, one per bundle, back to the tape (see
:mod:`pertmap.autodiff`).  Joint attention projects each stream
with its own K/V parameters, and each stream that has Q/O parameters with
its own Q: those streams' queries attend over the concatenation of all
streams' keys, and their results get per-stream output projections.
There is no positional encoding anywhere; attention is permutation
equivariant in the query rows and permutation invariant in the key/value
rows (the latter up to floating-point summation order).

``linear`` (with its bias), ``layer_norm``, ``gelu``, ``silu``, the FiLM
modulation in ``film_modulate`` and the core of ``joint_attention`` (from
the concatenated projections to the merged heads) are fused: each records
one tape node with a hand-written backward.  ``joint_attention`` adds one
``linear`` node per projection and one ``take`` per output slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidArgumentError

_LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def linear(x: Tensor | np.ndarray, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w + b with w of shape (in_width, out_width), as one tape node; x, a
    Tensor or an input array (which takes w's dtype), is a token matrix or a
    stack of them, on which w and b get one gradient per bundle."""
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=w.dtype)
    if xd.ndim < 2:
        raise InvalidArgumentError(f"linear needs a token matrix or a stack of them, got shape {xd.shape}")
    data = xd @ w.data
    vjps = [(w, lambda g: np.swapaxes(xd, -1, -2) @ g)]
    if b is not None:
        data += b.data
        vjps.append((b, lambda g: g.sum(axis=-2)))
    if isinstance(x, Tensor):
        vjps.append((x, lambda g: g @ w.data.T))
    return ad._make(data, vjps)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation, as one tape node."""
    xd = x.data
    t = np.tanh(_GELU_C * (xd + _GELU_A * xd * xd * xd))
    data = 0.5 * xd * (1.0 + t)

    def vjp(g):
        dt = (1.0 - t * t) * (_GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd))
        return g * (0.5 * (1.0 + t) + 0.5 * xd * dt)

    return ad._make(data, ((x, vjp),))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), as one tape node."""
    xd = x.data
    s = 0.5 * (np.tanh(0.5 * xd) + 1.0)  # the logistic, stable for any x
    # The product rule's two terms, summed in this order: another order rounds differently.
    return ad._make(xd * s, ((x, lambda g: g * s + g * xd * s * (1 - s)),))


def layer_norm(x: Tensor) -> Tensor:
    """Standardize each token (last axis) to mean 0, variance 1, as one tape
    node; the backward is Ba et al. (2016)'s.

    There is no learned affine: FiLM modulation supplies it.
    """
    xd = x.data
    centered = xd - xd.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + _LN_EPS)
    data = centered * inv_std

    def vjp(g):
        gy = (g * data).mean(axis=-1, keepdims=True)
        return inv_std * (g - g.mean(axis=-1, keepdims=True) - data * gy)

    return ad._make(data, ((x, vjp),))


def film_modulate(x: Tensor, time_embedding: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Feature-wise linear modulation (1 + gamma) * x + beta.

    gamma and beta come from a learned projection of the time embedding, one row
    per bundle broadcast over x's tokens; zero-initialized projections make this
    the identity map.  The projection is one ``linear`` node, the modulation one more.
    """
    width = x.shape[-1]
    if w.shape[-1] != 2 * width:
        raise InvalidArgumentError(f"FiLM projection produces width {w.shape[-1]}, expected {2 * width}")
    gb = linear(time_embedding, w, b)
    scale = 1.0 + gb.data[..., :width]
    data = x.data * scale + gb.data[..., width:]

    def gb_vjp(g):
        d_gamma = ad._unbroadcast(g * x.data, scale.shape)
        return np.concatenate([d_gamma, ad._unbroadcast(g, scale.shape)], axis=-1)

    return ad._make(data, ((x, lambda g: g * scale), (gb, gb_vjp)))


@dataclass(frozen=True)
class AttentionParams:
    """Per-stream projection parameters of one joint-attention block; a stream
    without ``wq`` (nor ``bq``, ``wo``, ``bo``) gives keys and values only."""

    wq: Optional[Tensor]
    wk: Tensor
    wv: Tensor
    wo: Optional[Tensor]
    bq: Optional[Tensor]
    bk: Tensor
    bv: Tensor
    bo: Optional[Tensor]


def joint_attention(
    streams: Sequence[Tensor],
    params: Sequence[AttentionParams],
    heads: int,
    head_dim: int,
) -> list[Tensor]:
    """Scaled dot-product attention over the concatenation of all streams.

    Every stream is projected to keys and values with its own K/V; the
    streams with a query projection are projected to queries, which attend
    jointly over all keys.  Their outputs are split back and passed through
    per-stream output projections, and returned in stream order: one per
    stream with a query projection.  Streams may have zero tokens, as long
    as some stream has one; all streams share their leading (bundle) axes.
    """
    if len(streams) != len(params):
        raise InvalidArgumentError("one parameter group per stream is required")
    width = heads * head_dim
    for i, (s, p) in enumerate(zip(streams, params)):
        if s.ndim < 2 or s.shape[:-2] != streams[0].shape[:-2]:
            raise InvalidArgumentError(f"stream {i} of shape {s.shape} is not a token matrix like stream 0's")
        if (p.wq is None) != (p.wo is None):
            raise InvalidArgumentError(f"stream {i} needs both a query and an output projection, or neither")
        n = s.shape[-1]
        expected = dict(wq=(n, width), wk=(n, width), wv=(n, width), wo=(width, n))
        expected.update(bq=(width,), bk=(width,), bv=(width,), bo=(n,))
        for name, shape in expected.items():
            t = getattr(p, name)
            if t is not None and t.shape != shape:
                raise InvalidArgumentError(f"stream {i}'s {name} has shape {t.shape}, expected {shape}")
    if not any(s.shape[-2] for s in streams):
        raise InvalidArgumentError("joint attention needs at least one key token")

    querying = [(s, p) for s, p in zip(streams, params) if p.wq is not None]
    if not querying:
        raise InvalidArgumentError("at least one stream needs a query projection")
    qs = [linear(s, p.wq, p.bq) for s, p in querying]
    ks = [linear(s, p.wk, p.bk) for s, p in zip(streams, params)]
    vs = [linear(s, p.wv, p.bv) for s, p in zip(streams, params)]

    # One tape node from the concatenated projections to the merged heads; the
    # softmax backward is y * (g - sum(g * y)), as in FlashAttention (Dao et al. 2022).
    # Heads go before tokens: (..., tokens, width) -> (..., heads, tokens, head_dim).
    q, k, v = (np.concatenate([t.data for t in group], axis=-2) for group in (qs, ks, vs))
    qh, kh, vh = (np.swapaxes(x.reshape(x.shape[:-1] + (heads, head_dim)), -3, -2) for x in (q, k, v))
    kt = np.swapaxes(kh, -1, -2)
    raw = qh @ kt
    scale = np.asarray(1.0 / np.sqrt(head_dim), dtype=raw.dtype)
    scores = raw * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))  # the shift leaves softmax unchanged
    weights = e / e.sum(axis=-1, keepdims=True)
    per_token = np.swapaxes(weights @ vh, -3, -2)  # (..., queries, heads, head_dim)

    def backward(g):
        d_mixed = np.swapaxes(g.reshape(per_token.shape), -3, -2)
        d_weights = d_mixed @ np.swapaxes(vh, -1, -2)
        d_vh = np.swapaxes(weights, -1, -2) @ d_mixed
        d_raw = (weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))) * scale
        d_qh = d_raw @ np.swapaxes(kt, -1, -2)
        d_kh = np.swapaxes(np.swapaxes(qh, -1, -2) @ d_raw, -1, -2)
        grads = []
        for group, x, d in zip((qs, ks, vs), (q, k, v), (d_qh, d_kh, d_vh)):
            d = np.swapaxes(d, -3, -2).reshape(x.shape)
            grads += np.split(d, np.cumsum([t.shape[-2] for t in group[:-1]]), axis=-2)
        return grads

    # Parents: all queries, then all keys, then all values, each in stream order.  Tensor.backward's
    # depth-first sweep then sums each stream's gradient terms as (q + k) + v, and in the order of
    # every other sum upstream; another order rounds differently and changes the trained weights.
    merged = ad._make_joint(per_token.reshape(q.shape[:-1] + (width,)), [*qs, *ks, *vs], backward)

    outputs, start = [], 0
    for s, p in querying:
        outputs.append(linear(merged[..., start : start + s.shape[-2], :], p.wo, p.bo))
        start += s.shape[-2]
    return outputs
