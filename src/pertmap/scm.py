"""Linear additive-noise structural causal models.

A model is a sparse weighted adjacency matrix W (entry ``W[k, j]`` is the
edge j -> k), acyclic by construction under a random node permutation.
Samples solve z = (I - W)^{-1} eps with standard-normal noise rows.  A hard
intervention do(target = value) zeroes the incoming edges of the target and
clamps its value exactly.

Samplers return plain (n, d) arrays.  All sampling is a pure function of
(model, seed): identical inputs produce bit-identical batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError

# Columns whose sample variance falls below this are treated as constant and
# exempted from unit-variance rescaling (the clamped column of a hard
# intervention is exactly constant).
_CONST_VAR_EPS = 1e-12


@dataclass(frozen=True)
class Intervention:
    """Hard intervention: clamp node ``target`` to ``value``."""

    target: int
    value: float


@dataclass(frozen=True)
class WeightedDag:
    """Weighted acyclic adjacency matrix: ``weights[k, j]`` is the weight
    of edge j -> k."""

    weights: np.ndarray

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    def transfer_matrix(self) -> np.ndarray:
        """(I - W)^{-1}, mapping noise to node values."""
        eye = np.eye(self.d)
        try:
            return np.linalg.inv(eye - self.weights)
        except np.linalg.LinAlgError as exc:  # unreachable for acyclic W
            raise NumericalFailureError("(I - W) is singular") from exc


def sample_dag(d: int, p: float, rng: np.random.Generator) -> WeightedDag:
    """Draw a random weighted DAG.

    Each of the d(d-1)/2 orderable node pairs carries an edge independently
    with probability ``p``.  Weights are uniform on [-2, -0.5] u [0.5, 2]
    and the matrix is rescaled by :func:`normalize_weights` so that node
    variances come out near one.
    """
    if d < 1:
        raise InvalidArgumentError(f"node count must be >= 1, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"edge probability must be in [0, 1], got {p}")

    perm = rng.permutation(d)
    w = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            if rng.random() < p:
                magnitude = rng.uniform(0.5, 2.0)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                # position a precedes position b, so the edge runs perm[a] -> perm[b]
                w[perm[b], perm[a]] = sign * magnitude
    return WeightedDag(weights=normalize_weights(w))


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """Rescale W to D^{-1/2} W with D = diag(T T^T), T = (I - W)^{-1}.

    D holds the node variances the raw matrix would induce under unit noise,
    so the rescaled system produces roughly unit-variance observations.
    Preserves the sparsity pattern and the sign of every entry.
    """
    d = w.shape[0]
    if np.any(np.abs(np.diag(w)) > 0):
        raise InvalidArgumentError("weight matrix must have a zero diagonal")
    try:
        t = np.linalg.inv(np.eye(d) - w)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("(I - W) is singular; matrix is not acyclic") from exc
    row_var = np.einsum("ij,ij->i", t, t)
    return w / np.sqrt(row_var)[:, None]


def apply_intervention(scm: WeightedDag, iv: Intervention) -> WeightedDag:
    """The mutilated DAG: all incoming edges of the intervened node removed.

    The clamp itself is applied at sampling time: the node's value is fixed
    to ``iv.value`` regardless of noise.
    """
    if not 0 <= iv.target < scm.d:
        raise InvalidArgumentError(f"intervention target {iv.target} out of range for d={scm.d}")
    w = scm.weights.copy()
    w[iv.target, :] = 0.0
    return WeightedDag(weights=w)


def _standardize_columns(values: np.ndarray) -> np.ndarray:
    """Rescale every column to unit sample variance (ddof=1).

    Constant columns (zero variance, e.g. a clamped intervention column) are
    left untouched.
    """
    var = values.var(axis=0, ddof=1)
    scale = np.where(var > _CONST_VAR_EPS, np.sqrt(np.maximum(var, _CONST_VAR_EPS)), 1.0)
    return values / scale


def sample_observational(
    scm: WeightedDag, n: int, seed: int, *, standardize: bool = True
) -> np.ndarray:
    """Draw an (n, d) matrix of observational samples z_i = (I - W)^{-1} eps_i."""
    if n < 1:
        raise InvalidArgumentError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, scm.d))
    values = noise @ scm.transfer_matrix().T
    if standardize:
        values = _standardize_columns(values)
    return values


def sample_interventional(
    scm: WeightedDag,
    iv: Intervention,
    n: int,
    seed: int,
    paired_noise: Optional[np.ndarray] = None,
    *,
    standardize: bool = True,
) -> np.ndarray:
    """Draw an (n, d) sample matrix from the mutilated SCM under
    do(target = value).

    With ``paired_noise`` the provided noise matrix is reused instead of
    drawing fresh noise, which yields counterfactually paired batches across
    treatments (only the intervened node and its descendants change).
    """
    if n < 1:
        raise InvalidArgumentError(f"sample count must be >= 1, got {n}")
    mutilated = apply_intervention(scm, iv)
    if paired_noise is not None:
        if paired_noise.shape != (n, scm.d):
            raise InvalidArgumentError(
                f"paired noise shape {paired_noise.shape} does not match (n, d)=({n}, {scm.d})"
            )
        noise = np.array(paired_noise, dtype=float, copy=True)
    else:
        noise = np.random.default_rng(seed).standard_normal((n, scm.d))
    # Clamping replaces the target's noise channel with the fixed value; the
    # mutilated transfer matrix then propagates it to the descendants.  The
    # inverse carries rounding into the target's own row, so the clamped
    # column is assigned exactly afterwards.
    noise[:, iv.target] = iv.value
    values = noise @ mutilated.transfer_matrix().T
    values[:, iv.target] = iv.value
    if standardize:
        values = _standardize_columns(values)
    return values


def sample_intervention_value(rng: np.random.Generator) -> float:
    """Perturbation efficiency c ~ Unif([0.5, 1.5])."""
    return float(rng.uniform(0.5, 1.5))


def encode_treatment(iv: Intervention, d: int) -> np.ndarray:
    """One-hot treatment code of length d carrying the intervention value."""
    if not 0 <= iv.target < d:
        raise InvalidArgumentError(f"treatment target {iv.target} out of range for d={d}")
    code = np.zeros(d)
    code[iv.target] = iv.value
    return code

