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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .errors import InvalidArgumentError
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
        low = [f.name for f in fields(self) if getattr(self, f.name) < (0 if f.name == "register_tokens" else 1)]
        if low:
            raise InvalidArgumentError(f"model sizes {low} must be at least 1 (register_tokens at least 0)")
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
    rng = np.random.default_rng(seed)
    layout = parameter_layout(cfg)
    params = ParameterSet(layout, np.zeros(num_values(cfg), dtype=dtype))
    for name, shape, scale in layout:
        if scale:
            params[name].data[...] = rng.standard_normal(shape) * scale
    return params


def _time_embedding(params: ParameterSet, tau: float) -> Tensor:
    h = silu(linear(np.array([[tau]]), params["time.l1.w"], params["time.l1.b"]))
    return linear(h, params["time.l2.w"], params["time.l2.b"])


def _attention_params(params: ParameterSet, layer: int, stream: str) -> AttentionParams:
    """The stream's projections in one block; None where the layout has none."""
    names = {f.name: f"blocks.{layer}.{stream}.attn.{f.name}" for f in fields(AttentionParams)}
    return AttentionParams(**{f: params[n] if n in params else None for f, n in names.items()})


def forward(
    params: ParameterSet,
    cfg: ModelConfig,
    y_tau: np.ndarray,
    tau: float,
    bundle: ExperimentBundle,
    drop_condition: bool = False,
) -> Tensor:
    """Velocity prediction for the M query cells ``y_tau`` (M, d) noised to
    time ``tau``, shape (M, d)."""
    d = cfg.max_genes
    if y_tau.ndim != 2 or y_tau.shape[1] != d:
        raise InvalidArgumentError(f"query shape {y_tau.shape} does not match gene count {d}")
    if bundle.k > cfg.max_context:
        raise InvalidArgumentError(f"context size {bundle.k} exceeds max_context {cfg.max_context}")
    batches = [bundle.y_obs] + [batch for _, batch in bundle.context]
    codes = [code for code, _ in bundle.context] + [bundle.query_code]
    if any(b.ndim != 2 or b.shape[1] != d for b in batches) or any(c.shape != (d,) for c in codes):
        raise InvalidArgumentError("bundle shapes do not match the configured gene count")
    slots = np.asarray(bundle.slots(), dtype=np.intp)
    if slots.shape != (bundle.k,) or np.any((slots < 0) | (slots >= cfg.max_context)):
        raise InvalidArgumentError(
            f"context slots {bundle.slots()} do not place {bundle.k} experiments in 0..{cfg.max_context - 1}"
        )
    m = y_tau.shape[0]

    temb = _time_embedding(params, tau)
    roles = params["emb.roles"]
    streams = [
        ad.concat([linear(y_tau, params["in.noise.w"], params["in.noise.b"]), params["emb.registers"]], axis=0)
    ]
    if drop_condition:
        streams.append(roles[_NULL:])
    else:
        # Each token's role embedding is a 0/1 row of ``one_hot`` times the role table.
        one_hot = np.eye(cfg.max_context + 4)
        sizes = [len(batch) for batch in batches]
        cell_roles = one_hot[np.repeat(np.append(_OBS, slots), sizes)]
        cell_roles[sizes[0] :, _INT] = 1.0
        cells = linear(np.concatenate(batches), params["in.cells.w"], params["in.cells.b"])
        treats = linear(np.stack(codes), params["in.treat.w"], params["in.treat.b"])
        streams += [cells + linear(cell_roles, roles), treats + linear(one_hot[np.append(slots, _QUERY)], roles)]

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

    head = film_modulate(layer_norm(streams[0][:m]), temb, params["final.film.w"], params["final.film.b"])
    return linear(head, params["out.w"], params["out.b"])
