"""Scale-free regulatory-network sampling and stochastic expression simulation.

Networks are drawn by preferential attachment with degree smoothing and
within-module upweighting, made acyclic by deleting the weakest edge of
every cycle, and guaranteed at least one master regulator.  A network is a
set of edge arrays (regulator, target and signed strength of each edge, in
sampling order) and per-gene arrays (basal production, decay and
half-response); each gene's half-response is its noise-free mean.
Expression is the steady state of a chemical Langevin equation with
Hill-function regulation, integrated per cell by Euler-Maruyama; a
10x-style technical noise chain (outlier genes, library size, dropout, UMI
Poisson) turns clean expression into integer counts.

Every simulation is a pure function of (network, config, seed); per-cell
noise streams are derived from (seed, cell index), so chunked or parallel
execution cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import networkx as nx
import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .seeding import mix_seed

_HALF_RESPONSE_FLOOR = 1e-6
_OUTLIER_GENE_PROB = 0.01
_DROPOUT_PERCENTILE = 8.0  # of log1p-expression, at the dropout logistic's midpoint
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

    def __post_init__(self):
        if self.k_groups < 1:
            raise InvalidArgumentError("k_groups must be >= 1")
        if self.p_sparsity < 0:
            raise InvalidArgumentError("p_sparsity must be non-negative")


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
    xi_dropout: float = 60.0  # logistic slope

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidArgumentError("dt must be positive")
        if self.burn_in_steps < 1:
            raise InvalidArgumentError("burn_in_steps must be >= 1")


@dataclass(frozen=True)
class Grn:
    """Signed regulatory network with production/decay kinetics.

    Edge e runs from ``regulators[e]`` to ``targets[e]`` with signed
    ``strengths[e]`` (positive activates); these (E,) arrays are in
    sampling order, the order in which production sums.  The (genes,)
    arrays hold the ``basal`` production rate (0 where a gene is
    regulated), the ``decay`` rate lambda, the module in
    ``group_assignment`` and the ``half_response``: the gene's noise-free
    mean, floored at 1e-6, and the Hill threshold of its outgoing edges.
    """

    genes: int
    regulators: np.ndarray
    targets: np.ndarray
    strengths: np.ndarray
    basal: np.ndarray
    decay: np.ndarray
    half_response: np.ndarray
    group_assignment: np.ndarray

    def in_degree(self) -> np.ndarray:
        return np.bincount(self.targets, minlength=self.genes)

    def out_degree(self) -> np.ndarray:
        return np.bincount(self.regulators, minlength=self.genes)

    def master_regulators(self) -> set[int]:
        """Genes with no regulators and at least one target."""
        return set(np.flatnonzero((self.in_degree() == 0) & (self.out_degree() >= 1)).tolist())

    def keep_edges(self, mask: np.ndarray) -> Grn:
        """The network with only the edges where ``mask`` is true, in order."""
        r, t, s = self.regulators[mask], self.targets[mask], self.strengths[mask]
        return replace(self, regulators=r, targets=t, strengths=s)

    def to_digraph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(self.genes))
        edges = zip(self.regulators.tolist(), self.targets.tolist(), self.strengths.tolist())
        g.add_weighted_edges_from(edges, weight="strength")
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
    resampled, so the expected edge count equals the budget.  Edges are
    stored in draw order; ``basal`` and ``half_response`` are left zero.

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
    edges: dict[tuple[int, int], float] = {}  # (regulator, target) -> strength, in draw order
    for _ in range(n_edges):
        for _attempt in range(100):
            t_weights = in_deg + cfg.delta_in
            target = int(rng.choice(g, p=t_weights / t_weights.sum()))
            r_weights = (out_deg + cfg.delta_out) * np.where(
                groups == groups[target], cfg.w_modularity, 1.0
            )
            r_weights[target] = 0.0
            regulator = int(rng.choice(g, p=r_weights / r_weights.sum()))
            if (regulator, target) not in edges:
                break
        else:
            continue
        in_deg[target] += 1
        out_deg[regulator] += 1
        sign = 1.0 if rng.random() < 0.5 else -1.0
        edges[(regulator, target)] = sign * rng.uniform(1.0, 5.0)

    regulators, targets = np.array(list(edges), dtype=np.intp).reshape(-1, 2).T
    return Grn(
        genes=g,
        regulators=regulators,
        targets=targets,
        strengths=np.array(list(edges.values()), dtype=float),
        basal=np.zeros(g),
        decay=rng.uniform(0.5, 1.0, size=g),
        half_response=np.zeros(g),
        group_assignment=groups,
    )


def assign_kinetics(grn: Grn, rng: np.random.Generator) -> Grn:
    """Attach production rates and half-responses to a network.

    Every root gene (no regulators) gets a basal rate so no column is
    identically zero; master regulators are the roots with targets.
    """
    basal = np.zeros(grn.genes)
    for gene in np.flatnonzero(grn.in_degree() == 0):
        basal[gene] = _sample_production_rate(rng)
    return assign_half_responses(replace(grn, basal=basal))


def sample_simulation_ready_grn(cfg: GrnConfig, rng: np.random.Generator) -> Grn:
    """Full pipeline: sample, break cycles, force MRs, assign kinetics."""
    grn = break_cycles(sample_grn(cfg, rng))
    if grn.targets.size:  # an edgeless draw is a valid degenerate network of basal genes
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
    pairs = zip(grn.regulators.tolist(), grn.targets.tolist())
    return grn.keep_edges(np.array([pair not in removed for pair in pairs], dtype=bool))


def ensure_master_regulators(grn: Grn) -> Grn:
    """Force master regulators to exist when cycle removal left none.

    Promotes ceil(5% of genes) by in-degree (ties broken by index) among
    genes that regulate at least one other gene, deleting their incoming
    edges.
    """
    if grn.master_regulators():
        return grn
    candidates = np.flatnonzero(grn.out_degree() >= 1)
    if not candidates.size:
        raise InvalidArgumentError("network has no regulating gene; cannot form a master regulator")
    by_in_degree = candidates[np.argsort(grn.in_degree()[candidates], kind="stable")]
    promoted = by_in_degree[: math.ceil(0.05 * grn.genes)]
    return grn.keep_edges(~np.isin(grn.targets, promoted))


def assign_half_responses(grn: Grn) -> Grn:
    """Set each gene's half-response to its noise-free mean.

    At the noise-free fixed point every regulator sits at its own mean,
    which is also its Hill threshold, so every Hill term is exactly 1/2
    whatever the Hill coefficient.  The mean of a gene is therefore
    (basal + sum over its incoming edges of |strength| / 2) / decay, summed
    in edge order; it needs no acyclic order.
    """
    production = grn.basal.copy()
    np.add.at(production, grn.targets, 0.5 * np.abs(grn.strengths))
    return replace(grn, half_response=np.maximum(production / grn.decay, _HALF_RESPONSE_FLOOR))


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
    basal = grn.basal.copy()
    basal[gene] = 0.0
    return replace(grn.keep_edges((grn.regulators != gene) & (grn.targets != gene)), basal=basal)


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
    # Row e adds edge e's term to its target; the product sums in edge order.
    scatter = np.zeros((grn.targets.size, grn.genes))
    scatter[np.arange(grn.targets.size), grn.targets] = 1.0
    out = np.empty((n_cells, grn.genes))
    for start in range(0, n_cells, _CELL_BLOCK):
        stop = min(start + _CELL_BLOCK, n_cells)
        out[start:stop] = _simulate_block(grn, cfg, range(start, stop), seed, scatter)
    return out


def _simulate_block(grn, cfg, cells, seed, scatter):
    block = len(cells)
    rngs = [np.random.default_rng(mix_seed(seed, c)) for c in cells]
    x = np.zeros((block, grn.genes))
    sqrt_dt = math.sqrt(cfg.dt)
    weights = np.abs(grn.strengths)
    activates = grn.strengths > 0
    # One buffer, refilled per chunk: row i holds cell i's draws.
    buffer = np.empty((block, min(_STEP_CHUNK, cfg.burn_in_steps), 2, grn.genes))

    done = 0
    while done < cfg.burn_in_steps:
        chunk = min(_STEP_CHUNK, cfg.burn_in_steps - done)
        # Per-cell streams: chunked draws consume each stream sequentially,
        # so block/chunk boundaries cannot change the numbers.
        noise = buffer[:, :chunk]
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=noise[i])
        for s in range(chunk):
            act = _hill(x, grn.half_response, cfg.hill_gamma)[:, grn.regulators]
            contrib = np.where(activates, weights * act, weights * (1.0 - act))
            production = grn.basal + contrib @ scatter
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
    log1p-expression whose midpoint sits at its 8th percentile and whose
    slope is xi, (4) Poisson sampling yields integer counts.
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
        midpoint = np.percentile(log_x, _DROPOUT_PERCENTILE)
        keep_prob = 1.0 / (1.0 + np.exp(-cfg.xi_dropout * (log_x - midpoint)))
        x = x * (rng.random(x.shape) < keep_prob)

    return rng.poisson(x).astype(np.int64)
