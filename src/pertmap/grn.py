"""Scale-free regulatory-network sampling and stochastic expression simulation.

Networks are drawn by preferential attachment with degree smoothing and
within-module upweighting, made acyclic by deleting the weakest edge of
every cycle, and guaranteed at least one master regulator.  Expression is
the steady state of a chemical Langevin equation with Hill-function
regulation, integrated per cell by Euler-Maruyama; a 10x-style technical
noise chain (outlier genes, library size, dropout, UMI Poisson) turns clean
expression into integer counts.

Every simulation is a pure function of (network, config, seed); per-cell
noise streams are derived from (seed, cell index), so chunked or parallel
execution cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import networkx as nx
import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .seeding import mix_seed

_HALF_RESPONSE_FLOOR = 1e-6
_OUTLIER_GENE_PROB = 0.01
_CELL_BLOCK = 512  # cells simulated per vectorized block
_STEP_CHUNK = 500  # SDE steps per noise chunk


@dataclass(frozen=True)
class GrnConfig:
    """Structure parameters of the network generator."""

    genes: int
    k_groups: int = 2
    p_sparsity: float = 2.0  # average regulators per gene
    delta_in: float = 100.0  # in-degree smoothing
    delta_out: float = 10.0  # out-degree smoothing
    w_modularity: float = 100.0  # within-group attachment weight


@dataclass(frozen=True)
class SergioConfig:
    """Simulation and technical-noise parameters."""

    hill_gamma: float = 2.0
    zeta: float = 1.0  # process-noise scale
    dt: float = 0.01
    burn_in_steps: int = 2000
    mu_outlier: float = 3.0
    mu_lib: float = 5.0
    sigma_lib: float = 0.5
    delta_dropout: float = 8.0  # percentile of the logistic midpoint
    xi_dropout: float = 60.0  # logistic slope


@dataclass(frozen=True)
class Edge:
    regulator: int
    target: int
    strength: float  # signed; positive activates, negative represses
    half_response: float = 0.0


@dataclass(frozen=True)
class Grn:
    """Signed regulatory network with production/decay kinetics.

    ``basal_rates`` maps every gene without regulators to its production
    rate; master regulators are the subset of those with at least one
    target.
    """

    genes: int
    edges: tuple[Edge, ...]
    basal_rates: dict[int, float]
    decay: np.ndarray  # per-gene lambda
    group_assignment: np.ndarray

    def in_degree(self) -> np.ndarray:
        deg = np.zeros(self.genes, dtype=int)
        for e in self.edges:
            deg[e.target] += 1
        return deg

    def out_degree(self) -> np.ndarray:
        deg = np.zeros(self.genes, dtype=int)
        for e in self.edges:
            deg[e.regulator] += 1
        return deg

    def master_regulators(self) -> set[int]:
        """Genes with no regulators and at least one target."""
        in_deg, out_deg = self.in_degree(), self.out_degree()
        return {g for g in range(self.genes) if in_deg[g] == 0 and out_deg[g] >= 1}

    def to_digraph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(self.genes))
        for e in self.edges:
            g.add_edge(e.regulator, e.target, strength=e.strength)
        return g

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self.to_digraph())


def sample_grn_config(genes: int, rng: np.random.Generator) -> GrnConfig:
    """Draw structure parameters uniformly from their prior ranges."""
    return GrnConfig(
        genes=genes,
        k_groups=int(rng.integers(1, 4)),
        p_sparsity=float(rng.uniform(1.5, 3.0)),
        delta_in=float(rng.uniform(10.0, 300.0)),
        delta_out=float(rng.uniform(1.0, 30.0)),
        w_modularity=float(rng.uniform(1.0, 900.0)),
    )


def sample_sergio_config(rng: np.random.Generator) -> SergioConfig:
    """Draw simulation and noise parameters uniformly from their prior ranges."""
    return SergioConfig(
        hill_gamma=float(rng.uniform(1.5, 2.5)),
        zeta=float(rng.uniform(0.5, 1.5)),
        mu_outlier=float(rng.uniform(0.8, 5.0)),
        mu_lib=float(rng.uniform(4.5, 6.0)),
        sigma_lib=float(rng.uniform(0.3, 0.7)),
        delta_dropout=8.0,
        xi_dropout=float(rng.uniform(45.0, 82.0)),
    )


def _sample_production_rate(rng: np.random.Generator) -> float:
    # Uniform over [0.5, 2.0] u [3.0, 5.0], mass proportional to length.
    u = rng.uniform(0.0, 3.5)
    return 0.5 + u if u < 1.5 else 3.0 + (u - 1.5)


def sample_grn(cfg: GrnConfig, rng: np.random.Generator) -> Grn:
    """Draw a directed signed network by sequential preferential attachment.

    The edge budget is Poisson(p_sparsity * genes).  Each edge picks its
    target with probability proportional to in_degree + delta_in, then its
    regulator proportional to (out_degree + delta_out) * m, where m is
    w_modularity for a same-group pair and 1 otherwise.  Duplicate edges are
    resampled, so the expected edge count equals the budget.

    The raw draw may contain cycles; pass it through :func:`break_cycles`,
    :func:`ensure_master_regulators` and :func:`assign_kinetics` (or use
    :func:`sample_simulation_ready_grn`) before simulating.
    """
    if cfg.genes < 2:
        raise InvalidArgumentError("a regulatory network needs at least 2 genes")
    g = cfg.genes
    groups = rng.integers(0, cfg.k_groups, size=g)
    n_edges = int(rng.poisson(cfg.p_sparsity * g))
    n_edges = min(n_edges, g * (g - 1))

    in_deg = np.zeros(g)
    out_deg = np.zeros(g)
    existing: set[tuple[int, int]] = set()
    edges: list[Edge] = []
    for _ in range(n_edges):
        for _attempt in range(100):
            t_weights = in_deg + cfg.delta_in
            target = int(rng.choice(g, p=t_weights / t_weights.sum()))
            r_weights = (out_deg + cfg.delta_out) * np.where(
                groups == groups[target], cfg.w_modularity, 1.0
            )
            r_weights[target] = 0.0
            regulator = int(rng.choice(g, p=r_weights / r_weights.sum()))
            if (regulator, target) not in existing:
                break
        else:
            continue
        existing.add((regulator, target))
        in_deg[target] += 1
        out_deg[regulator] += 1
        sign = 1.0 if rng.random() < 0.5 else -1.0
        edges.append(Edge(regulator, target, sign * rng.uniform(1.0, 5.0)))

    return Grn(
        genes=g,
        edges=tuple(edges),
        basal_rates={},
        decay=rng.uniform(0.5, 1.0, size=g),
        group_assignment=groups,
    )


def assign_kinetics(grn: Grn, rng: np.random.Generator) -> Grn:
    """Attach production rates and half-responses to an acyclic network.

    Every root gene (no regulators) gets a basal rate so no column is
    identically zero; master regulators are the roots with targets.
    """
    in_deg = grn.in_degree()
    basal = {
        gene: _sample_production_rate(rng)
        for gene in range(grn.genes)
        if in_deg[gene] == 0
    }
    return assign_half_responses(replace(grn, basal_rates=basal))


def sample_simulation_ready_grn(cfg: GrnConfig, rng: np.random.Generator) -> Grn:
    """Full pipeline: sample, break cycles, force MRs, assign kinetics."""
    grn = break_cycles(sample_grn(cfg, rng))
    if grn.edges:  # an edgeless draw is a valid degenerate network of basal genes
        grn = ensure_master_regulators(grn)
    return assign_kinetics(grn, rng)


def break_cycles(grn: Grn) -> Grn:
    """Delete the minimum-|strength| edge of each cycle until acyclic."""
    graph = grn.to_digraph()
    removed: set[tuple[int, int]] = set()
    while True:
        try:
            cycle = nx.find_cycle(graph, orientation="original")
        except nx.NetworkXNoCycle:
            break
        u, v, _ = min(cycle, key=lambda edge: abs(graph.edges[edge[0], edge[1]]["strength"]))
        graph.remove_edge(u, v)
        removed.add((u, v))
    if not removed:
        return grn
    edges = tuple(e for e in grn.edges if (e.regulator, e.target) not in removed)
    return replace(grn, edges=edges)


def ensure_master_regulators(grn: Grn) -> Grn:
    """Force master regulators to exist when cycle removal left none.

    Promotes ceil(5% of genes) by in-degree (ties broken by index) among
    genes that regulate at least one other gene, deleting their incoming
    edges.
    """
    if grn.master_regulators():
        return grn
    out_deg = grn.out_degree()
    candidates = [g for g in range(grn.genes) if out_deg[g] >= 1]
    if not candidates:
        raise InvalidArgumentError("network has no regulating gene; cannot form a master regulator")
    in_deg = grn.in_degree()
    candidates.sort(key=lambda g: (in_deg[g], g))
    promoted = set(candidates[: math.ceil(0.05 * grn.genes)])
    edges = tuple(e for e in grn.edges if e.target not in promoted)
    return replace(grn, edges=edges)


def assign_half_responses(grn: Grn) -> Grn:
    """Set each edge's half-response to its regulator's noise-free mean.

    Means propagate in topological order from the basal fixed points b/λ,
    every regulator sitting at exactly half activation of its own mean.
    """
    means = _noise_free_means(grn)
    edges = tuple(
        replace(e, half_response=max(means[e.regulator], _HALF_RESPONSE_FLOOR))
        for e in grn.edges
    )
    return replace(grn, edges=edges)


def _noise_free_means(grn: Grn) -> np.ndarray:
    order = list(nx.topological_sort(grn.to_digraph()))
    means = np.zeros(grn.genes)
    incoming: dict[int, list[Edge]] = {}
    for e in grn.edges:
        incoming.setdefault(e.target, []).append(e)
    for gene in order:
        production = grn.basal_rates.get(gene, 0.0)
        for e in incoming.get(gene, []):
            h = max(e.half_response if e.half_response > 0 else means[e.regulator], _HALF_RESPONSE_FLOOR)
            act = _hill(means[e.regulator], h, 2.0)
            production += abs(e.strength) * (act if e.strength > 0 else 1.0 - act)
        means[gene] = production / grn.decay[gene]
    return means


def _hill(x, h, gamma):
    xg = np.maximum(x, 0.0) ** gamma
    return xg / (h**gamma + xg)


def knockout(grn: Grn, gene: int) -> Grn:
    """Remove the gene from the network and zero its production.

    All incident edges disappear and any basal rate is dropped; the gene's
    column remains in simulated matrices and decays to zero.
    """
    if not 0 <= gene < grn.genes:
        raise InvalidArgumentError(f"gene {gene} out of range for {grn.genes} genes")
    edges = tuple(e for e in grn.edges if e.regulator != gene and e.target != gene)
    basal = {g: b for g, b in grn.basal_rates.items() if g != gene}
    return replace(grn, edges=edges, basal_rates=basal)


def simulate_expression(
    grn: Grn, cfg: SergioConfig, n_cells: int, seed: int
) -> np.ndarray:
    """Steady-state clean expression, one independent chain per cell.

    Integrates dx = (P(x) - lambda*x) dt + zeta*(sqrt(P) dW1 - sqrt(lambda*x) dW2)
    by Euler-Maruyama with clamping at zero, and records the state after the
    burn-in as the cell's expression.  Production sums Hill terms of the
    regulators (activators rise with x, repressors fall) plus basal rates.
    """
    if n_cells < 1:
        raise InvalidArgumentError("n_cells must be >= 1")
    genes = grn.genes
    reg_idx = np.array([e.regulator for e in grn.edges], dtype=int)
    strengths = np.array([e.strength for e in grn.edges])
    halves = np.array([max(e.half_response, _HALF_RESPONSE_FLOOR) for e in grn.edges])
    scatter = np.zeros((len(grn.edges), genes))
    for i, e in enumerate(grn.edges):
        scatter[i, e.target] = 1.0
    basal = np.zeros(genes)
    for g, b in grn.basal_rates.items():
        basal[g] = b

    out = np.empty((n_cells, genes))
    for start in range(0, n_cells, _CELL_BLOCK):
        stop = min(start + _CELL_BLOCK, n_cells)
        out[start:stop] = _simulate_block(
            grn, cfg, range(start, stop), seed, reg_idx, strengths, halves, scatter, basal
        )
    return out


def _simulate_block(grn, cfg, cells, seed, reg_idx, strengths, halves, scatter, basal):
    genes = grn.genes
    block = len(cells)
    rngs = [np.random.default_rng(mix_seed(seed, c)) for c in cells]
    x = np.zeros((block, genes))
    sqrt_dt = math.sqrt(cfg.dt)
    # One buffer, refilled per chunk: row i holds cell i's draws.
    buffer = np.empty((block, min(_STEP_CHUNK, cfg.burn_in_steps), 2, genes))

    done = 0
    while done < cfg.burn_in_steps:
        chunk = min(_STEP_CHUNK, cfg.burn_in_steps - done)
        # Per-cell streams: chunked draws consume each stream sequentially,
        # so block/chunk boundaries cannot change the numbers.
        noise = buffer[:, :chunk]
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i])
        for s in range(chunk):
            production = basal[None, :].repeat(block, axis=0)
            if len(reg_idx) > 0:
                act = _hill(x[:, reg_idx], halves[None, :], cfg.hill_gamma)
                contrib = np.where(
                    strengths[None, :] > 0,
                    np.abs(strengths)[None, :] * act,
                    np.abs(strengths)[None, :] * (1.0 - act),
                )
                production = production + contrib @ scatter
            decay_flux = grn.decay[None, :] * x
            drift = (production - decay_flux) * cfg.dt
            diffusion = cfg.zeta * sqrt_dt * (
                np.sqrt(production) * noise[:, s, 0, :]
                - np.sqrt(decay_flux) * noise[:, s, 1, :]
            )
            x = np.maximum(x + drift + diffusion, 0.0)
            if not np.all(np.isfinite(x)):
                raise NumericalFailureError(
                    f"non-finite expression state at step {done + s + 1}"
                )
        done += chunk
    return x


def apply_technical_noise(
    clean: np.ndarray,
    cfg: SergioConfig,
    seed: int,
    *,
    outlier: bool = True,
    library: bool = True,
    dropout: bool = True,
) -> np.ndarray:
    """Convert clean expression to UMI counts via the measurement chain.

    In order: (1) outlier genes pick up a LogNormal(mu_outlier, 1) factor,
    (2) each cell is rescaled so its total follows LogNormal(mu_lib,
    sigma_lib), (3) entries drop out with probability from a logistic in
    log1p-expression whose midpoint sits at the delta-th percentile and
    whose slope is xi, (4) Poisson sampling yields integer counts.
    """
    clean = np.asarray(clean, dtype=float)
    if np.any(clean < 0):
        raise InvalidArgumentError("clean expression must be non-negative")
    rng = np.random.default_rng(mix_seed(seed))
    x = clean.copy()

    if outlier:
        mask = rng.random(x.shape[1]) < _OUTLIER_GENE_PROB
        factors = rng.lognormal(mean=cfg.mu_outlier, sigma=1.0, size=x.shape[1])
        x = x * np.where(mask, factors, 1.0)[None, :]

    if library:
        totals = x.sum(axis=1)
        lib = rng.lognormal(mean=cfg.mu_lib, sigma=cfg.sigma_lib, size=x.shape[0])
        scale = np.where(totals > 0, lib / np.maximum(totals, 1e-12), 1.0)
        x = x * scale[:, None]

    if dropout:
        log_x = np.log1p(x)
        midpoint = np.percentile(log_x, cfg.delta_dropout)
        keep_prob = 1.0 / (1.0 + np.exp(-cfg.xi_dropout * (log_x - midpoint)))
        x = x * (rng.random(x.shape) < keep_prob)

    return rng.poisson(x).astype(np.int64)
