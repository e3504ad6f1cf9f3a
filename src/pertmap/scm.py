"""Linear additive-noise structural causal models.

A model is its weight matrix: a sparse (d, d) array W whose entry
``W[k, j]`` is the edge j -> k, acyclic by construction under a random node
permutation.  Samples solve z = (I - W)^{-1} eps with standard-normal noise
rows.  A hard intervention do(target = value) zeroes the incoming edges of
the target and clamps its value exactly.

The samplers are pure functions of (weights, n, seed) and return the raw
(n, d) values: identical inputs give bit-identical batches.  The noise
matrix depends only on (n, d, seed), so an interventional batch drawn with
the seed of an observational one is its counterfactual pair: it shares the
noise, and only the target and its descendants change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, require_integer, require_real


@dataclass(frozen=True)
class Intervention:
    """Hard intervention: clamp node ``target`` to ``value``."""

    target: int
    value: float

    def __post_init__(self):
        require_real("intervention value", self.value)


def sample_dag(d: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the weight matrix of a random DAG.

    Each of the d(d-1)/2 orderable node pairs carries an edge independently
    with probability ``p``.  Weights are uniform on [-2, -0.5] u [0.5, 2]
    and the matrix is rescaled by :func:`normalize_weights` so that node
    variances come out near one.
    """
    require_integer("d", d, 1)
    require_real("edge probability p", p, 0.0, high=1.0)

    perm = rng.permutation(d)
    w = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            if rng.random() < p:
                magnitude = rng.uniform(0.5, 2.0)
                sign = 1.0 if rng.random() < 0.5 else -1.0
                # position a precedes position b, so the edge runs perm[a] -> perm[b]
                w[perm[b], perm[a]] = sign * magnitude
    return normalize_weights(w)


def transfer_matrix(w: np.ndarray) -> np.ndarray:
    """(I - W)^{-1}, mapping noise to node values."""
    try:
        return np.linalg.inv(np.eye(w.shape[0]) - w)
    except np.linalg.LinAlgError as exc:  # unreachable for acyclic W
        raise NumericalFailureError("(I - W) is singular; matrix is not acyclic") from exc


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """Rescale W to D^{-1/2} W with D = diag(T T^T), T = (I - W)^{-1}.

    D holds the node variances the raw matrix would induce under unit noise,
    so the rescaled system produces roughly unit-variance observations.
    Preserves the sparsity pattern and the sign of every entry.
    """
    if np.any(np.abs(np.diag(w)) > 0):
        raise InvalidArgumentError("weight matrix must have a zero diagonal")
    t = transfer_matrix(w)
    row_var = np.einsum("ij,ij->i", t, t)
    return w / np.sqrt(row_var)[:, None]


def apply_intervention(w: np.ndarray, iv: Intervention) -> np.ndarray:
    """The mutilated weight matrix: all incoming edges of the intervened
    node removed.

    The clamp itself is applied at sampling time: the node's value is fixed
    to ``iv.value`` regardless of noise.
    """
    d = w.shape[0]
    require_integer("intervention target", iv.target, 0, d - 1)
    w = w.copy()
    w[iv.target, :] = 0.0
    return w


def _noise(n: int, d: int, seed: int) -> np.ndarray:
    require_integer("n", n, 1)
    require_integer("seed", seed, 0)
    return np.random.default_rng(seed).standard_normal((n, d))


def sample_observational(w: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw an (n, d) matrix of observational samples z_i = (I - W)^{-1} eps_i."""
    return _noise(n, w.shape[0], seed) @ transfer_matrix(w).T


def sample_interventional(w: np.ndarray, iv: Intervention, n: int, seed: int) -> np.ndarray:
    """Draw an (n, d) sample matrix from the mutilated SCM under
    do(target = value)."""
    noise = _noise(n, w.shape[0], seed)
    mutilated = apply_intervention(w, iv)
    # Clamping replaces the target's noise channel with the fixed value; the
    # mutilated transfer matrix then propagates it to the descendants.  The
    # inverse carries rounding into the target's own row, so the clamped
    # column is assigned exactly afterwards.
    noise[:, iv.target] = iv.value
    values = noise @ transfer_matrix(mutilated).T
    values[:, iv.target] = iv.value
    return values


def sample_intervention_value(rng: np.random.Generator) -> float:
    """Perturbation efficiency c ~ Unif([0.5, 1.5])."""
    return float(rng.uniform(0.5, 1.5))


def encode_treatment(iv: Intervention, d: int) -> np.ndarray:
    """One-hot treatment code of length d carrying the intervention value."""
    require_integer("treatment target", iv.target, 0, d - 1)
    code = np.zeros(d)
    code[iv.target] = iv.value
    return code
