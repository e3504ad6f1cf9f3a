"""Dataset generation, persistence, and training-bundle assembly.

A dataset is a collection of contexts (one causal model each) with an
observational batch and one interventional batch per treatment.  Every
batch's seed derives from (base_seed, context, treatment, role), so any
subset of conditions can be produced independently: generation of the GRN
prior with any worker count is bit-identical to serial generation.

This module owns the decisions the prior modules leave open: the seed of
every random stream, the pairing rule and each prior's normalization.  A
counterfactually paired batch reuses its context's observational streams
(the sampling noise, and for expression data the technical noise too), so
every treatment of a context starts from the same draws.  Linear-SCM batches
are rescaled to unit column variance; expression counts are median-count
log-normalized.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import dataio, grn as grnmod, scm as scmmod
from .errors import InvalidArgumentError, require_integer
from .model import ExperimentBundle
from .seeding import (
    ROLE_INT_NOISE,
    ROLE_OBS_NOISE,
    ROLE_STRUCTURE,
    ROLE_TECH_NOISE,
    ROLE_TREATMENT,
    mix_seed,
)

SCM_KIND = "scm"
GRN_KIND = "grn"
DATASET_FILE = "dataset.npz"
_HEADER_TYPES = dict(kind=str, d=int, n=int, paired=bool, base_seed=int, contexts=list, conditions=list)


@dataclass(frozen=True)
class ConditionKey:
    context_id: int
    treatment_id: int


@dataclass
class PerturbationDataset:
    """In-memory dataset: per-context observational and per-condition
    interventional batches plus their treatment codes."""

    kind: str
    d: int
    n: int
    paired: bool
    base_seed: int
    observational: dict[int, np.ndarray] = field(default_factory=dict)
    interventional: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    treatment_codes: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @property
    def conditions(self) -> list[ConditionKey]:
        return [ConditionKey(c, t) for c, t in sorted(self.interventional)]

    def contexts(self) -> list[int]:
        return sorted(self.observational)

    def treatments_of(self, context_id: int) -> list[int]:
        return sorted(t for c, t in self.interventional if c == context_id)


# -- stream seeds and pairing ---------------------------------------------------


def _stream_seeds(base_seed: int, context_id: int, treatment: Optional[int], paired: bool) -> tuple[int, int]:
    """Seeds of one batch's sampling-noise and technical-noise streams.

    ``treatment`` is None for the context's observational batch.  A paired
    batch reuses its context's observational streams, which makes it the
    counterfactual of the observational batch under its treatment.
    """
    t, role = (0, ROLE_OBS_NOISE) if treatment is None or paired else (treatment, ROLE_INT_NOISE)
    return mix_seed(base_seed, context_id, t, role), mix_seed(base_seed, context_id, t, ROLE_TECH_NOISE)


# -- linear SCM datasets -----------------------------------------------------


def _scm_structure(context_id, d, n, edge_prob, paired, base_seed):
    """One context's graph and intervention values: its condition jobs, keyed
    by treatment (None for the observational batch), and treatment codes."""
    rng = np.random.default_rng(mix_seed(base_seed, context_id, 0, ROLE_STRUCTURE))
    w = scmmod.sample_dag(d, edge_prob, rng)
    jobs = {None: (w, None, n, _stream_seeds(base_seed, context_id, None, paired)[0])}
    codes: dict[int, np.ndarray] = {}
    for target in range(d):
        value_rng = np.random.default_rng(mix_seed(base_seed, context_id, target, ROLE_TREATMENT))
        iv = scmmod.Intervention(target, scmmod.sample_intervention_value(value_rng))
        jobs[target] = (w, iv, n, _stream_seeds(base_seed, context_id, target, paired)[0])
        codes[target] = scmmod.encode_treatment(iv, d)
    return jobs, codes


def _scm_condition(job) -> np.ndarray:
    w, iv, n, seed = job
    values = scmmod.sample_observational(w, n, seed) if iv is None else scmmod.sample_interventional(w, iv, n, seed)
    return _standardize_columns(values)


def generate_scm_dataset(
    n_contexts: int,
    d: int,
    n_samples: int,
    edge_prob: float = 0.5,
    paired: bool = False,
    base_seed: int = 0,
) -> PerturbationDataset:
    """Sample linear-model contexts with one intervention per node, each
    batch rescaled to unit column variance, serially: it takes milliseconds."""
    require_integer("n_samples", n_samples)
    if n_samples < 2:
        raise InvalidArgumentError(f"unit-variance batches need at least two samples, got {n_samples}")
    ds = PerturbationDataset(kind=SCM_KIND, d=d, n=n_samples, paired=paired, base_seed=base_seed)
    args = (d, n_samples, edge_prob, paired, base_seed)
    return _assemble(ds, _scm_structure, _scm_condition, n_contexts, args, 1)


# -- expression (regulatory network) datasets --------------------------------


def _grn_structure(context_id, genes, n_cells, paired, base_seed):
    """One context's configs, network and knockouts: its condition jobs,
    keyed by treatment (None for the observational batch), and treatment codes."""
    rng = np.random.default_rng(mix_seed(base_seed, context_id, 0, ROLE_STRUCTURE))
    grn_cfg = grnmod.sample_grn_config(genes, rng)
    sergio_cfg = grnmod.sample_sergio_config(rng)
    network = grnmod.sample_simulation_ready_grn(grn_cfg, rng)

    def job(network_variant, treatment: Optional[int]):
        return (network_variant, sergio_cfg, n_cells, *_stream_seeds(base_seed, context_id, treatment, paired))

    jobs = {None: job(network, None)}
    codes: dict[int, np.ndarray] = {}
    for gene in range(genes):
        jobs[gene] = job(grnmod.knockout(network, gene), gene + 1)
        code = np.zeros(genes)
        code[gene] = 1.0  # knockouts carry no efficiency scalar
        codes[gene] = code
    return jobs, codes


def _grn_condition(job) -> np.ndarray:
    network, sergio_cfg, n_cells, sim_seed, tech_seed = job
    clean = grnmod.simulate_expression(network, sergio_cfg, n_cells, sim_seed)
    counts = grnmod.apply_technical_noise(clean, sergio_cfg, tech_seed)
    return median_count_log_normalize(counts)


def generate_grn_dataset(
    n_contexts: int,
    genes: int,
    n_cells: int,
    paired: bool = False,
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> PerturbationDataset:
    """Simulate expression contexts with one knockout per gene, each batch
    median-count log-normalized.

    The conditions are simulated in ``workers`` processes; the default,
    None, starts one per usable core, and ``workers=1`` simulates them in
    this process.  The data do not depend on the worker count.  Workers
    start by the default start method, so a script run under spawn or
    forkserver (the defaults on macOS and, from Python 3.14, on Linux)
    must call this under an ``if __name__ == "__main__":`` guard, or pass
    ``workers=1``.
    """
    # The arguments are checked before a worker starts: n_contexts, workers
    # and paired by _assemble, genes by the GrnConfig of the structure pass,
    # which runs in this process.
    require_integer("n_cells", n_cells, 1)
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ds = PerturbationDataset(kind=GRN_KIND, d=genes, n=n_cells, paired=paired, base_seed=base_seed)
    return _assemble(ds, _grn_structure, _grn_condition, n_contexts, (genes, n_cells, paired, base_seed), workers)


def _assemble(
    ds: PerturbationDataset, structure_fn, condition_fn, n_contexts: int, args: tuple, workers: int
) -> PerturbationDataset:
    """Build every condition of ``ds`` in two passes and file it in context order.

    The structure pass runs ``structure_fn(c, *args)`` in this process for
    each context c; it returns the context's condition jobs, keyed by
    treatment (None for the observational batch), and its treatment codes.
    ``condition_fn(job)`` then turns each job into its batch, in this
    process when ``workers`` is 1 and otherwise over ``min(workers, jobs)``
    worker processes, so one context's conditions may run in several.  A
    job is a pure function of its arguments, so the worker count cannot
    change the data.  No worker outlives the call; an error raised in one
    is raised here.
    """
    require_integer("n_contexts", n_contexts, 1)
    require_integer("workers", workers, 1)
    # The header stores the flag as a JSON boolean, which load_dataset requires.
    if type(ds.paired) is not bool:
        raise InvalidArgumentError(f"paired must be True or False, got {ds.paired!r}")
    keys, jobs = [], []
    for c in range(n_contexts):
        context_jobs, codes = structure_fn(c, *args)
        for t, job in context_jobs.items():
            keys.append((c, t))
            jobs.append(job)
        ds.treatment_codes.update(((c, t), code) for t, code in codes.items())
    if workers == 1:
        batches = [condition_fn(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            batches = list(pool.map(condition_fn, jobs))
    for (c, t), batch in zip(keys, batches):
        if t is None:
            ds.observational[c] = batch
        else:
            ds.interventional[(c, t)] = batch
    return ds


# -- normalization ---------------------------------------------------------------

# Columns whose sample variance falls below this are treated as constant and
# exempted from unit-variance rescaling (the clamped column of a hard
# intervention is exactly constant).
_CONST_VAR_EPS = 1e-12


def _standardize_columns(values: np.ndarray) -> np.ndarray:
    """Rescale every column to unit sample variance (ddof=1).

    Constant columns (zero variance, e.g. a clamped intervention column) are
    left untouched.
    """
    var = values.var(axis=0, ddof=1)
    scale = np.where(var > _CONST_VAR_EPS, np.sqrt(np.maximum(var, _CONST_VAR_EPS)), 1.0)
    return values / scale


def median_count_log_normalize(counts: np.ndarray) -> np.ndarray:
    """Scale each cell's counts to the median total, then log2(1 + x).

    Cells with zero total are left unscaled (their row stays zero).  Raises
    InvalidArgumentError on a negative or non-finite count.
    """
    counts = np.asarray(counts, dtype=float)
    if not np.all((counts >= 0) & (counts < np.inf)):
        raise InvalidArgumentError("counts must be finite and non-negative")
    totals = counts.sum(axis=1)
    median = np.median(totals)
    scale = np.where(totals > 0, median / np.maximum(totals, 1e-12), 1.0)
    return np.log2(1.0 + counts * scale[:, None])


# -- persistence ---------------------------------------------------------------


def save_dataset(ds: PerturbationDataset, outdir: Path) -> None:
    """Write ``ds`` as ``<outdir>/dataset.npz``, laid out as :mod:`pertmap.dataio` says;
    raises InvalidArgumentError on a batch that is not (n, d) or a code that is not (d,)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    contexts, keys = ds.contexts(), sorted(ds.interventional)
    header = dict(kind=ds.kind, d=ds.d, n=ds.n, paired=ds.paired, base_seed=ds.base_seed, contexts=contexts)
    arrays = {
        "obs": _stacked([ds.observational[c] for c in contexts], (ds.n, ds.d)),
        "int": _stacked([ds.interventional[key] for key in keys], (ds.n, ds.d)),
        "codes": _stacked([ds.treatment_codes[key] for key in keys], (ds.d,)),
    }
    dataio.write_archive(outdir / DATASET_FILE, {**header, "conditions": [list(key) for key in keys]}, arrays)


def _stacked(arrays: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    if any(np.shape(a) != shape for a in arrays):
        raise InvalidArgumentError(f"a batch or treatment code of the dataset is not of shape {shape}")
    return np.reshape(arrays, (len(arrays), *shape))


def load_dataset(path: Path) -> PerturbationDataset:
    """Read a directory written by :func:`save_dataset`; batches and codes
    come back as float64.

    Raises :class:`InvalidArgumentError` when ``dataset.npz`` is not an
    archive as ``dataio.read_archive`` requires (an ``.npz`` file that
    passes the zip checks, member CRCs included, with a 0-d unicode JSON
    header of format 2 and only float32 members); when the header lacks a
    key, or its kind is not a string, d, n or base_seed not an integer,
    paired not a boolean, contexts not a list of distinct integers, or
    conditions not a list of distinct [context, treatment] integer pairs of
    listed contexts; or when the members are not exactly obs, int and codes
    with the shapes (C, n, d), (K, n, d) and (K, d) that the header implies.
    A missing file raises FileNotFoundError.
    """
    path = Path(path) / DATASET_FILE
    header, arrays = dataio.read_archive(path, _HEADER_TYPES)
    contexts, pairs = header["contexts"], header["conditions"]
    if not all(type(c) is int for c in contexts):
        raise InvalidArgumentError(f"{path}: contexts {contexts!r} are not integers")
    keys = [tuple(p) for p in pairs if type(p) is list and len(p) == 2 and all(type(i) is int for i in p)]
    if len(keys) != len(pairs) or not {c for c, _ in keys} <= set(contexts):
        raise InvalidArgumentError(f"{path}: conditions are not [context, treatment] int pairs of its contexts")
    n, d = header["n"], header["d"]
    shapes = {"obs": (len(contexts), n, d), "int": (len(keys), n, d), "codes": (len(keys), d)}
    found = {name: a.shape for name, a in arrays.items()}
    if found != shapes:
        raise InvalidArgumentError(f"{path}: members {found}, but its header implies {shapes}")
    ds = PerturbationDataset(kind=header["kind"], d=d, n=n, paired=header["paired"], base_seed=header["base_seed"])
    ds.observational = dict(zip(contexts, arrays["obs"].astype(np.float64)))
    ds.interventional = dict(zip(keys, arrays["int"].astype(np.float64)))
    ds.treatment_codes = dict(zip(keys, arrays["codes"].astype(np.float64)))
    if len(ds.observational) != len(contexts) or len(ds.interventional) != len(keys):
        raise InvalidArgumentError(f"{path}: a context or condition is listed twice")
    return ds


# -- training bundles -----------------------------------------------------------


class BundleSampler:
    """Streams training bundles drawn from a dataset's train conditions.

    Each draw picks a query condition, then ``k_context`` distinct other
    train treatments of the same context as the interventional context set,
    assigns them random distinct slots (so every slot embedding trains
    regardless of k), and subsamples rows to keep attention cheap.
    """

    def __init__(
        self,
        dataset: PerturbationDataset,
        train_conditions: Sequence[ConditionKey],
        k_context: int,
        max_context: int,
        seed: int,
        n_obs_tokens: int = 32,
        m_tokens: int = 32,
    ):
        if not train_conditions:
            raise InvalidArgumentError("no train conditions to sample from")
        require_integer("k_context", k_context, 0)
        require_integer("max_context", max_context, 0)
        require_integer("seed", seed, 0)
        require_integer("n_obs_tokens", n_obs_tokens, 1)
        require_integer("m_tokens", m_tokens, 1)
        unknown = [c for c in train_conditions if (c.context_id, c.treatment_id) not in dataset.interventional]
        if unknown:
            raise InvalidArgumentError(f"train conditions {unknown} are not in the dataset")
        self.dataset = dataset
        self.rng = np.random.default_rng(seed)
        self.k_context = k_context
        self.max_context = max_context
        self.n_obs_tokens = n_obs_tokens
        self.m_tokens = m_tokens
        self.queries = sorted((c.context_id, c.treatment_id) for c in train_conditions)
        by_context: dict[int, list[int]] = {}
        for ctx, t in self.queries:
            by_context.setdefault(ctx, []).append(t)
        self.by_context = by_context

    def __iter__(self) -> Iterator[ExperimentBundle]:
        return self

    def _rows(self, batch: np.ndarray, count: int) -> np.ndarray:
        n = batch.shape[0]
        if count >= n:
            return batch
        idx = self.rng.choice(n, size=count, replace=False)
        return batch[idx]

    def __next__(self) -> ExperimentBundle:
        ctx, query_t = self.queries[int(self.rng.integers(len(self.queries)))]
        others = [t for t in self.by_context[ctx] if t != query_t]
        k = min(self.k_context, len(others), self.max_context)
        chosen = sorted(self.rng.choice(len(others), size=k, replace=False)) if k else []
        context_treatments = [others[i] for i in chosen]
        slots = tuple(int(s) for s in self.rng.choice(self.max_context, size=k, replace=False)) if k else ()

        context = tuple(
            (
                self.dataset.treatment_codes[(ctx, t)],
                self._rows(self.dataset.interventional[(ctx, t)], self.m_tokens),
            )
            for t in context_treatments
        )
        return ExperimentBundle(
            y_obs=self._rows(self.dataset.observational[ctx], self.n_obs_tokens),
            context=context,
            query_code=self.dataset.treatment_codes[(ctx, query_t)],
            target=self._rows(self.dataset.interventional[(ctx, query_t)], self.m_tokens),
            context_slots=slots,
        )


def build_eval_bundle(
    dataset: PerturbationDataset,
    condition: ConditionKey,
    context_treatments: Sequence[int],
    max_rows: Optional[int] = None,
) -> ExperimentBundle:
    """Inference bundle for one test condition with an explicit context set."""
    if max_rows is not None:
        require_integer("max_rows", max_rows, 1)
    ctx = condition.context_id
    unknown = [t for t in (condition.treatment_id, *context_treatments) if (ctx, t) not in dataset.interventional]
    if unknown:
        raise InvalidArgumentError(f"treatments {unknown} of context {ctx} are not in the dataset")
    if condition.treatment_id in context_treatments or len(set(context_treatments)) < len(context_treatments):
        raise InvalidArgumentError(
            f"context treatments {list(context_treatments)} must be distinct and exclude the query {condition.treatment_id}"
        )
    context = tuple(
        (dataset.treatment_codes[(ctx, t)], _head(dataset.interventional[(ctx, t)], max_rows))
        for t in context_treatments
    )
    return ExperimentBundle(
        y_obs=_head(dataset.observational[ctx], max_rows),
        context=context,
        query_code=dataset.treatment_codes[(ctx, condition.treatment_id)],
        target=None,
        context_slots=tuple(range(len(context_treatments))),
    )


def _head(batch: np.ndarray, max_rows: Optional[int]) -> np.ndarray:
    return batch if max_rows is None or batch.shape[0] <= max_rows else batch[:max_rows]
