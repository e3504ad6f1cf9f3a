"""In-context velocity-field transformer over three token streams.

Cells are tokens.  Stream 0 carries the noised query cells plus learnable
register tokens, stream 1 the observational and context interventional
cells, stream 2 the treatment codes.  Streams have separate projections and
feed-forwards and exchange information through joint attention; there is no
positional encoding, only role embeddings, rows of one table ``emb.roles``:
a slot row per context slot (shared between a context experiment's cells and
its treatment token), observational / interventional / query flags, and a
null token.  Each context stream is one input projection of its stacked
rows plus a constant 0/1 matrix times the role table.  Scalar integration
time modulates every block through zero-initialized FiLM projections.
Dropping the condition replaces streams 1 and 2 by the null token.

The output is the velocity read from the non-register tokens of stream 0,
so the last block updates stream 0 only: there streams 1 and 2 give keys
and values and have no query, output or feed-forward parameters (as the
context stream of SD3's last MM-DiT block, Esser et al. 2024).

``forward`` runs a stack of same-shaped bundles as one graph, and a lone
bundle is a stack of one.  Every token matrix carries a leading bundle
axis, each bundle has its own time embedding, and the parameters that enter
as tokens are 0/1 products with their tables: the registers are the
identity times ``emb.registers``, the null token its one-hot row times
``emb.roles``.  Each bundle's slice equals its own forward bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import InvalidArgumentError, require_integer
from .layers import AttentionParams, film_modulate, gelu, joint_attention, layer_norm, linear, silu

_STREAMS = ("noise", "cells", "treat")
# Rows of ``emb.roles`` after its max_context slot rows, as negative indices.
_OBS, _INT, _QUERY, _NULL = range(-4, 0)


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    embed_dim: int = 64
    ff_dim: int = 128
    heads: int = 4
    head_dim: int = 16
    register_tokens: int = 4
    max_genes: int = 6
    max_context: int = 4

    @property
    def time_dim(self) -> int:
        # Width of the time embedding feeding the FiLM projections.
        return 2 * self.embed_dim

    def __post_init__(self):
        for f in fields(self):
            require_integer(f.name, getattr(self, f.name), 0 if f.name == "register_tokens" else 1)
        if self.heads * self.head_dim != self.embed_dim:
            raise InvalidArgumentError("heads * head_dim must equal embed_dim")


def toy_config(max_genes: int = 6, max_context: int = 4) -> ModelConfig:
    return ModelConfig(max_genes=max_genes, max_context=max_context)


def paper_config(max_genes: int = 20, max_context: int = 8) -> ModelConfig:
    return ModelConfig(
        layers=8,
        embed_dim=256,
        ff_dim=512,
        heads=4,
        head_dim=64,
        register_tokens=8,
        max_genes=max_genes,
        max_context=max_context,
    )


@dataclass(frozen=True)
class ExperimentBundle:
    """One prior draw: observations, K interventional context experiments,
    and a query treatment (with its target batch during training)."""

    y_obs: np.ndarray  # (N, d)
    context: tuple[tuple[np.ndarray, np.ndarray], ...]  # (code (d,), batch (M_k, d))
    query_code: np.ndarray  # (d,)
    target: Optional[np.ndarray] = None  # (M, d), training only
    context_slots: Optional[tuple[int, ...]] = None  # defaults to 0..K-1

    @property
    def k(self) -> int:
        return len(self.context)

    def slots(self) -> tuple[int, ...]:
        return self.context_slots if self.context_slots is not None else tuple(range(self.k))


def parameter_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """(name, shape, init scale) of every learnable tensor, in parameter
    order.  Scale 0 marks a zero-initialized tensor; the others are normal."""
    layout = []
    e, et, f, d = cfg.embed_dim, cfg.time_dim, cfg.ff_dim, cfg.max_genes

    def norm(name, shape, scale=0.02):
        layout.append((name, shape, scale))

    def zeros(name, shape):
        layout.append((name, shape, 0.0))

    for s in _STREAMS:
        norm(f"in.{s}.w", (d, e))
        zeros(f"in.{s}.b", (e,))

    norm("time.l1.w", (1, et))
    zeros("time.l1.b", (et,))
    norm("time.l2.w", (et, et))
    zeros("time.l2.b", (et,))

    norm("emb.registers", (cfg.register_tokens, e))
    norm("emb.roles", (cfg.max_context + 4, e))  # slots, then _OBS, _INT, _QUERY, _NULL

    for layer in range(cfg.layers):
        for s in _STREAMS:
            base = f"blocks.{layer}.{s}"
            # Only stream 0 is updated by the last block; the others give keys and values.
            updated = layer < cfg.layers - 1 or s == "noise"
            projs = "qkvo" if updated else "kv"
            for p in projs:
                norm(f"{base}.attn.w{p}", (e, e))
            for p in projs:
                zeros(f"{base}.attn.b{p}", (e,))
            zeros(f"{base}.film_attn.w", (et, 2 * e))
            zeros(f"{base}.film_attn.b", (2 * e,))
            if not updated:
                continue
            zeros(f"{base}.film_mlp.w", (et, 2 * e))
            zeros(f"{base}.film_mlp.b", (2 * e,))
            norm(f"{base}.ff.w1", (e, f))
            zeros(f"{base}.ff.b1", (f,))
            norm(f"{base}.ff.w2", (f, e))
            zeros(f"{base}.ff.b2", (e,))

    zeros("final.film.w", (et, 2 * e))
    zeros("final.film.b", (2 * e,))
    zeros("out.w", (e, d))  # zero-init readout: the initial velocity field is 0
    zeros("out.b", (d,))
    return layout


def num_values(cfg: ModelConfig) -> int:
    """The number of learnable values, the length of a ParameterSet's buffer."""
    return sum(math.prod(shape) for _, shape, _ in parameter_layout(cfg))


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ParameterSet:
    """Allocate and initialize all learnable tensors, deterministically."""
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    layout = parameter_layout(cfg)
    params = ParameterSet(layout, np.zeros(num_values(cfg), dtype=dtype))
    for name, shape, scale in layout:
        if scale:
            params[name].data[...] = rng.standard_normal(shape) * scale
    return params


def _time_embedding(params: ParameterSet, taus: np.ndarray) -> Tensor:
    """One (1, time_dim) embedding row per bundle's tau, shape (B, 1, time_dim)."""
    h = silu(linear(taus[:, None, None], params["time.l1.w"], params["time.l1.b"]))
    return linear(h, params["time.l2.w"], params["time.l2.b"])


def _attention_params(params: ParameterSet, layer: int, stream: str) -> AttentionParams:
    """The stream's projections in one block; None where the layout has none."""
    names = {f.name: f"blocks.{layer}.{stream}.attn.{f.name}" for f in fields(AttentionParams)}
    return AttentionParams(**{f: params[n] if n in params else None for f, n in names.items()})


def forward(
    params: ParameterSet,
    cfg: ModelConfig,
    y_tau: np.ndarray,
    tau: float | Sequence[float],
    bundle: ExperimentBundle | Sequence[ExperimentBundle],
    drop_condition: bool = False,
) -> Tensor:
    """Velocity prediction for a stack of B bundles, run as one graph.

    ``bundle`` holds B bundles whose observations and context batches share
    their shapes, ``tau`` B times and ``y_tau`` the (B, M, d) query cells
    noised to them; the result is (B, M, d).  A lone bundle, with a scalar
    ``tau`` and (M, d) cells, is a stack of one and returns its (M, d) slice.
    """
    lone = isinstance(bundle, ExperimentBundle)
    if lone:  # a stack of one
        bundle, tau, y_tau = (bundle,), (tau,), np.asarray(y_tau)[None]
    bundles, taus, y = tuple(bundle), np.asarray(tau, dtype=float), np.asarray(y_tau)
    n, d = len(bundles), cfg.max_genes
    if not n or y.ndim != 3 or y.shape[0] != n or y.shape[-1] != d:
        raise InvalidArgumentError(f"query shape {y.shape} does not match {n} stacked bundles and gene count {d}")
    if taus.shape != (n,) or not np.all(np.isfinite(taus)):
        raise InvalidArgumentError(f"tau {tau} is not one finite time per bundle")
    sizes = None  # rows of the observations and of each context batch, shared by a stack
    for b in bundles:
        if b.k > cfg.max_context:
            raise InvalidArgumentError(f"context size {b.k} exceeds max_context {cfg.max_context}")
        batches = [b.y_obs] + [batch for _, batch in b.context]
        codes = [code for code, _ in b.context] + [b.query_code]
        if any(x.ndim != 2 or x.shape[1] != d for x in batches) or any(c.shape != (d,) for c in codes):
            raise InvalidArgumentError("bundle shapes do not match the configured gene count")
        slots = np.asarray(b.slots(), dtype=np.intp)
        if slots.shape != (b.k,) or np.any((slots < 0) | (slots >= cfg.max_context)):
            raise InvalidArgumentError(
                f"context slots {b.slots()} do not place {b.k} experiments in 0..{cfg.max_context - 1}"
            )
        if sizes is not None and [len(x) for x in batches] != sizes:
            raise InvalidArgumentError("stacked bundles differ in their observation or context batch shapes")
        sizes = [len(x) for x in batches]

    # Parameters enter as tokens through constant 0/1 matrices: each token's
    # row of ``one_hot`` (or of the identity, for the registers) times its table.
    temb = _time_embedding(params, taus)
    roles = params["emb.roles"]
    one_hot = np.eye(cfg.max_context + 4)
    registers = np.broadcast_to(np.eye(cfg.register_tokens), (n, cfg.register_tokens, cfg.register_tokens))
    noise = linear(y, params["in.noise.w"], params["in.noise.b"])
    streams = [ad.concat([noise, linear(registers, params["emb.registers"])], axis=-2)]
    if drop_condition:
        streams.append(linear(np.broadcast_to(one_hot[_NULL:], (n, 1, len(one_hot))), roles))
    else:
        slots = np.array([b.slots() for b in bundles], dtype=np.intp)
        cell_roles = one_hot[np.repeat(np.concatenate([np.full((n, 1), _OBS), slots], axis=1), sizes, axis=1)]
        cell_roles[:, sizes[0] :, _INT] = 1.0
        treat_roles = one_hot[np.concatenate([slots, np.full((n, 1), _QUERY)], axis=1)]
        cells = np.stack([np.concatenate([b.y_obs] + [batch for _, batch in b.context]) for b in bundles])
        codes = np.stack([np.stack([code for code, _ in b.context] + [b.query_code]) for b in bundles])
        cells = linear(cells, params["in.cells.w"], params["in.cells.b"])
        treats = linear(codes, params["in.treat.w"], params["in.treat.b"])
        streams += [cells + linear(cell_roles, roles), treats + linear(treat_roles, roles)]

    for layer in range(cfg.layers):
        stream_names = _STREAMS[: len(streams)]
        normed = [
            film_modulate(
                layer_norm(x),
                temb,
                params[f"blocks.{layer}.{s}.film_attn.w"],
                params[f"blocks.{layer}.{s}.film_attn.b"],
            )
            for x, s in zip(streams, stream_names)
        ]
        attn_params = [_attention_params(params, layer, s) for s in stream_names]
        attended = joint_attention(normed, attn_params, cfg.heads, cfg.head_dim)
        # Only streams with queries get an output: in the last block, stream 0 alone.
        streams = [x + a for x, a in zip(streams, attended)]
        updated = []
        for x, s in zip(streams, stream_names):
            h = film_modulate(
                layer_norm(x),
                temb,
                params[f"blocks.{layer}.{s}.film_mlp.w"],
                params[f"blocks.{layer}.{s}.film_mlp.b"],
            )
            h = linear(gelu(linear(h, params[f"blocks.{layer}.{s}.ff.w1"], params[f"blocks.{layer}.{s}.ff.b1"])),
                       params[f"blocks.{layer}.{s}.ff.w2"], params[f"blocks.{layer}.{s}.ff.b2"])
            updated.append(x + h)
        streams = updated

    head = film_modulate(layer_norm(streams[0][:, : y.shape[1]]), temb, params["final.film.w"], params["final.film.b"])
    velocity = linear(head, params["out.w"], params["out.b"])
    return velocity[0] if lone else velocity
