"""Dataset generation, persistence, and training-bundle assembly.

A dataset is a collection of contexts (one causal model each) with an
observational batch and one interventional batch per treatment.  Every
batch's seed derives from (base_seed, context, treatment, role), so any
subset of conditions can be produced independently: generation with any
worker count is bit-identical to serial generation.

Counterfactually paired datasets reuse the observational noise (or the
simulation seed, for expression data) across all treatments of a context.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import dataio, grn as grnmod, scm as scmmod
from .errors import InvalidArgumentError
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
_MANIFEST_KEYS = ("format", "kind", "d", "n", "paired", "base_seed", "conditions")
_ENTRY_KEYS = ("context", "treatment", "kind", "file")
_ENTRY_KINDS = {"obs": dataio.KIND_OBSERVATIONAL, "int": dataio.KIND_INTERVENTIONAL}


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


# -- linear SCM datasets -----------------------------------------------------


def _scm_context(args) -> tuple[int, np.ndarray, dict[int, np.ndarray], dict[int, np.ndarray]]:
    context_id, d, n, edge_prob, paired, base_seed = args
    rng = np.random.default_rng(mix_seed(base_seed, context_id, 0, ROLE_STRUCTURE))
    dag = scmmod.sample_dag(d, edge_prob, rng)
    obs_seed = mix_seed(base_seed, context_id, 0, ROLE_OBS_NOISE)
    obs = scmmod.sample_observational(dag, n, obs_seed)
    # Pairing reuses the observational noise matrix for every treatment.
    shared = np.random.default_rng(obs_seed).standard_normal((n, d)) if paired else None

    batches: dict[int, np.ndarray] = {}
    codes: dict[int, np.ndarray] = {}
    for target in range(d):
        value_rng = np.random.default_rng(mix_seed(base_seed, context_id, target, ROLE_TREATMENT))
        iv = scmmod.Intervention(target, scmmod.sample_intervention_value(value_rng))
        int_seed = mix_seed(base_seed, context_id, target, ROLE_INT_NOISE)
        batches[target] = scmmod.sample_interventional(dag, iv, n, int_seed, paired_noise=shared)
        codes[target] = scmmod.encode_treatment(iv, d)
    return context_id, obs, batches, codes


def generate_scm_dataset(
    n_contexts: int,
    d: int,
    n_samples: int,
    edge_prob: float = 0.5,
    paired: bool = False,
    base_seed: int = 0,
    workers: int = 1,
) -> PerturbationDataset:
    """Sample linear-model contexts with one intervention per node."""
    ds = PerturbationDataset(kind=SCM_KIND, d=d, n=n_samples, paired=paired, base_seed=base_seed)
    jobs = [(c, d, n_samples, edge_prob, paired, base_seed) for c in range(n_contexts)]
    return _assemble(ds, _scm_context, jobs, workers)


# -- expression (regulatory network) datasets --------------------------------


def _grn_context(args):
    context_id, genes, n_cells, paired, base_seed = args
    rng = np.random.default_rng(mix_seed(base_seed, context_id, 0, ROLE_STRUCTURE))
    grn_cfg = grnmod.sample_grn_config(genes, rng)
    sergio_cfg = grnmod.sample_sergio_config(rng)
    network = grnmod.sample_simulation_ready_grn(grn_cfg, rng)

    def condition(network_variant, treatment: int) -> np.ndarray:
        # Treatment 0 is the observational stream; paired data shares it
        # with every knockout.
        t, role = (0, ROLE_OBS_NOISE) if paired or treatment == 0 else (treatment, ROLE_INT_NOISE)
        sim_seed = mix_seed(base_seed, context_id, t, role)
        tech_seed = mix_seed(base_seed, context_id, t, ROLE_TECH_NOISE)
        clean = grnmod.simulate_expression(network_variant, sergio_cfg, n_cells, sim_seed)
        counts = grnmod.apply_technical_noise(clean, sergio_cfg, tech_seed)
        return median_count_log_normalize(counts)

    obs = condition(network, 0)
    batches: dict[int, np.ndarray] = {}
    codes: dict[int, np.ndarray] = {}
    for gene in range(genes):
        batches[gene] = condition(grnmod.knockout(network, gene), gene + 1)
        code = np.zeros(genes)
        code[gene] = 1.0  # knockouts carry no efficiency scalar
        codes[gene] = code
    return context_id, obs, batches, codes


def generate_grn_dataset(
    n_contexts: int,
    genes: int,
    n_cells: int,
    paired: bool = False,
    base_seed: int = 0,
    workers: int = 1,
) -> PerturbationDataset:
    """Simulate expression contexts with one knockout per gene, each batch
    median-count log-normalized."""
    ds = PerturbationDataset(kind=GRN_KIND, d=genes, n=n_cells, paired=paired, base_seed=base_seed)
    jobs = [(c, genes, n_cells, paired, base_seed) for c in range(n_contexts)]
    return _assemble(ds, _grn_context, jobs, workers)


def _assemble(ds: PerturbationDataset, context_fn, jobs, workers: int) -> PerturbationDataset:
    """Run one job per context, serially or in worker processes, and file
    each context's batches and treatment codes into ``ds``."""
    if not jobs:
        raise InvalidArgumentError("n_contexts must be >= 1")
    if workers <= 1:
        results = [context_fn(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(context_fn, jobs))
    for context_id, obs, batches, codes in results:
        ds.observational[context_id] = obs
        for t, batch in batches.items():
            ds.interventional[(context_id, t)] = batch
            ds.treatment_codes[(context_id, t)] = codes[t]
    return ds


def median_count_log_normalize(counts: np.ndarray) -> np.ndarray:
    """Scale each cell's counts to the median total, then log2(1 + x).

    Cells with zero total are left unscaled (their row stays zero).
    """
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise InvalidArgumentError("counts must be non-negative")
    totals = counts.sum(axis=1)
    median = np.median(totals)
    scale = np.where(totals > 0, median / np.maximum(totals, 1e-12), 1.0)
    return np.log2(1.0 + counts * scale[:, None])


# -- persistence ---------------------------------------------------------------


def save_dataset(ds: PerturbationDataset, outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for context_id in ds.contexts():
        fname = f"ctx{context_id:05d}_obs.bin"
        dataio.write_batch_file(
            outdir / fname, ds.observational[context_id], dataio.KIND_OBSERVATIONAL, np.zeros(ds.d)
        )
        entries.append({"context": context_id, "treatment": None, "kind": "obs", "file": fname})
    for key in sorted(ds.interventional):
        context_id, treatment = key
        fname = f"ctx{context_id:05d}_t{treatment:05d}.bin"
        dataio.write_batch_file(
            outdir / fname, ds.interventional[key], dataio.KIND_INTERVENTIONAL, ds.treatment_codes[key]
        )
        entries.append({"context": context_id, "treatment": treatment, "kind": "int", "file": fname})
    dataio.write_manifest(
        outdir / "manifest.json",
        {
            "format": 1,
            "kind": ds.kind,
            "d": ds.d,
            "n": ds.n,
            "paired": ds.paired,
            "base_seed": ds.base_seed,
            "conditions": entries,
        },
    )


def load_dataset(path: Path) -> PerturbationDataset:
    """Read a directory written by :func:`save_dataset`.

    Raises :class:`InvalidArgumentError` when the manifest is not format 1,
    lacks a key, has a non-integer d, n, base_seed, context or
    interventional treatment or a non-boolean paired, lists an entry kind
    other than obs/int, a condition twice, a context without an
    observational batch or a file that is not a plain name in the
    directory, or disagrees with a batch file's kind word or (n, d) shape.
    """
    path = Path(path)
    manifest = dataio.read_manifest(path / "manifest.json")
    _require_keys(manifest, _MANIFEST_KEYS, "manifest")
    if manifest["format"] != 1:
        raise InvalidArgumentError(f"{path}: manifest format {manifest['format']!r} is not 1")
    if not isinstance(manifest["conditions"], list):
        raise InvalidArgumentError(f"{path}: manifest conditions must be a list")
    if type(manifest["paired"]) is not bool:
        raise InvalidArgumentError(f"{path}: manifest paired {manifest['paired']!r} is not a boolean")
    ds = PerturbationDataset(
        kind=manifest["kind"],
        d=_require_int(path, manifest, "d"),
        n=_require_int(path, manifest, "n"),
        paired=manifest["paired"],
        base_seed=_require_int(path, manifest, "base_seed"),
    )
    for entry in manifest["conditions"]:
        _require_keys(entry, _ENTRY_KEYS, "manifest entry")
        if entry["kind"] not in ("obs", "int"):
            raise InvalidArgumentError(f"{path}: entry kind {entry['kind']!r} is not obs or int")
        context = _require_int(path, entry, "context")
        if entry["kind"] == "obs":
            key, batches = context, ds.observational
        else:
            key, batches = (context, _require_int(path, entry, "treatment")), ds.interventional
        if key in batches:
            raise InvalidArgumentError(f"{path}: {entry['kind']} condition {key} is listed twice")
        name = entry["file"]
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise InvalidArgumentError(f"{path}: entry file {name!r} is not a plain file name")
        values, kind, code = dataio.read_batch_file(path / name)
        if kind != _ENTRY_KINDS[entry["kind"]]:
            raise InvalidArgumentError(f"{path / name}: batch kind {kind} but listed as {entry['kind']!r}")
        if values.shape != (ds.n, ds.d):
            raise InvalidArgumentError(f"{path / name}: shape {values.shape}, manifest says {(ds.n, ds.d)}")
        batches[key] = values
        if entry["kind"] == "int":
            ds.treatment_codes[key] = code
    orphans = sorted({c for c, _ in ds.interventional} - set(ds.observational))
    if orphans:
        raise InvalidArgumentError(f"{path}: contexts {orphans} have no observational batch")
    return ds


def _require_keys(obj, keys: Sequence[str], what: str) -> None:
    missing = [k for k in keys if k not in obj] if isinstance(obj, dict) else list(keys)
    if missing:
        raise InvalidArgumentError(f"{what} lacks {missing}")


def _require_int(path: Path, obj: dict, key: str) -> int:
    # bool is a subclass of int, so compare the type exactly.
    if type(obj[key]) is not int:
        raise InvalidArgumentError(f"{path}: manifest {key} {obj[key]!r} is not an integer")
    return obj[key]


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
    ctx = condition.context_id
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
