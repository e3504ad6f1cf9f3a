"""Differentiable building blocks: linear maps, affine-free layer norm,
softmax attention over concatenated token streams, and FiLM time modulation.

Token matrices are (tokens, width).  Joint attention projects each stream
with its own Q/K/V parameters, attends over the concatenation of all
streams, splits the result back, and applies per-stream output projections.
There is no positional encoding anywhere; attention is permutation
equivariant in the query rows and permutation invariant in the key/value
rows (the latter up to floating-point summation order).
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


def linear(x: Tensor | np.ndarray, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w + b with w of shape (in_width, out_width); x is a Tensor or an
    input array, which takes w's dtype."""
    out = ad.matmul(x, w)
    if b is not None:
        out = out + b
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    inner = ad.tanh((x + x * x * x * 0.044715) * _GELU_C)
    return x * (inner + 1.0) * 0.5


def silu(x: Tensor) -> Tensor:
    return x * ad.sigmoid(x)


def layer_norm(x: Tensor) -> Tensor:
    """Standardize each token (last axis) to mean 0, variance 1.

    There is no learned affine: FiLM modulation supplies it.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ad.sqrt(var + _LN_EPS)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Shift by the detached max; subtracting a constant leaves softmax unchanged.
    shifted = x - x.data.max(axis=axis, keepdims=True)
    e = ad.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def film_modulate(x: Tensor, time_embedding: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Feature-wise linear modulation (1 + gamma) * x + beta.

    gamma and beta come from a learned projection of the time embedding;
    zero-initialized projections make this the identity map.
    """
    width = x.shape[-1]
    if time_embedding.ndim == 1:
        time_embedding = time_embedding.reshape((1, time_embedding.shape[0]))
    gb = linear(time_embedding, w, b)
    if gb.shape[-1] != 2 * width:
        raise InvalidArgumentError(
            f"FiLM projection produces width {gb.shape[-1]}, expected {2 * width}"
        )
    gamma = gb[..., :width]
    beta = gb[..., width:]
    return x * (gamma + 1.0) + beta


@dataclass(frozen=True)
class AttentionParams:
    """Per-stream projection parameters of one joint-attention block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor


def _split_heads(x: Tensor, heads: int, head_dim: int) -> Tensor:
    tokens = x.shape[0]
    return x.reshape((tokens, heads, head_dim)).transpose((1, 0, 2))


def joint_attention(
    streams: Sequence[Tensor],
    params: Sequence[AttentionParams],
    heads: int,
    head_dim: int,
) -> list[Tensor]:
    """Scaled dot-product attention over the concatenation of all streams.

    Every stream is projected with its own Q/K/V, tokens are concatenated,
    attention runs jointly, and the outputs are split back and passed
    through per-stream output projections.  Streams may have zero tokens.
    """
    if len(streams) != len(params):
        raise InvalidArgumentError("one parameter group per stream is required")
    width = heads * head_dim
    for s in streams:
        if s.shape[-1] != params[0].wq.shape[0]:
            raise InvalidArgumentError(
                f"stream width {s.shape[-1]} does not match projection input {params[0].wq.shape[0]}"
            )
    if params[0].wq.shape[1] != width:
        raise InvalidArgumentError(
            f"projection output {params[0].wq.shape[1]} does not equal heads*head_dim={width}"
        )

    q = ad.concat([linear(s, p.wq, p.bq) for s, p in zip(streams, params)], axis=0)
    k = ad.concat([linear(s, p.wk, p.bk) for s, p in zip(streams, params)], axis=0)
    v = ad.concat([linear(s, p.wv, p.bv) for s, p in zip(streams, params)], axis=0)

    qh = _split_heads(q, heads, head_dim)  # (heads, tokens, head_dim)
    kh = _split_heads(k, heads, head_dim)
    vh = _split_heads(v, heads, head_dim)

    scores = (qh @ kh.swapaxes(1, 2)) * (1.0 / np.sqrt(head_dim))
    weights = softmax(scores, axis=-1)
    mixed = weights @ vh  # (heads, tokens, head_dim)
    merged = mixed.transpose((1, 0, 2)).reshape((q.shape[0], width))

    outputs = []
    start = 0
    for s, p in zip(streams, params):
        stop = start + s.shape[0]
        outputs.append(linear(merged[start:stop], p.wo, p.bo))
        start = stop
    return outputs
