"""Tests for the linear additive-noise SCM prior."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from pertmap import scm
from pertmap.errors import InvalidArgumentError


def _chain_dag(weight: float = 2.0) -> scm.WeightedDag:
    # Two nodes, single edge 0 -> 1 with the given (unnormalized) weight.
    w = np.zeros((2, 2))
    w[1, 0] = weight
    return scm.WeightedDag(weights=w)


def _descendants(dag: scm.WeightedDag, node: int) -> set[int]:
    # weights[k, j] is the edge j -> k, so the transpose is the adjacency matrix.
    return nx.descendants(nx.from_numpy_array(dag.weights.T, create_using=nx.DiGraph), node)


def test_sample_dag_rejects_zero_nodes():
    with pytest.raises(InvalidArgumentError):
        scm.sample_dag(0, 0.5, np.random.default_rng(0))


def test_sample_dag_single_node_has_no_edges():
    dag = scm.sample_dag(1, 0.9, np.random.default_rng(0))
    assert dag.d == 1
    assert np.count_nonzero(dag.weights) == 0


def test_sample_dag_full_probability_gives_complete_triangle():
    dag = scm.sample_dag(3, 1.0, np.random.default_rng(7))
    assert np.count_nonzero(dag.weights) == 3
    # Acyclic: the weight matrix is nilpotent.
    assert np.allclose(np.linalg.matrix_power(dag.weights, 3), 0.0)


def test_sample_dag_mean_edge_count_matches_edge_probability():
    # 1000 draws at d=20, p=0.5: expectation is 0.5 * 190 = 95 edges.
    rng = np.random.default_rng(123)
    counts = [np.count_nonzero(scm.sample_dag(20, 0.5, rng).weights) for _ in range(1000)]
    mean = np.mean(counts)
    # std of the mean is sqrt(190 * 0.25 / 1000) ~ 0.22; allow 5 sigma.
    assert abs(mean - 95.0) < 1.1


def test_sample_dag_is_acyclic_and_invertible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dag = scm.sample_dag(8, 0.6, rng)
        assert np.allclose(np.linalg.matrix_power(dag.weights, dag.d), 0.0)
        dag.transfer_matrix()  # must not raise


def test_normalize_weights_zero_matrix_is_fixed_point():
    out = scm.normalize_weights(np.zeros((3, 3)))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_normalize_weights_two_node_chain_hand_computed():
    # W with w_{10} = 2: T = [[1, 0], [2, 1]], D = diag(1, 5), so the
    # normalized weight is 2 / sqrt(5).
    w = np.zeros((2, 2))
    w[1, 0] = 2.0
    out = scm.normalize_weights(w)
    assert out[1, 0] == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-12)
    assert out[0, 1] == 0.0


def test_normalize_weights_preserves_sign_pattern():
    rng = np.random.default_rng(11)
    for _ in range(10):
        dag = scm.sample_dag(6, 0.7, rng)
        raw = dag.weights * rng.uniform(1.0, 3.0)  # rescale to make it "raw" again
        out = scm.normalize_weights(raw)
        assert np.array_equal(np.sign(out), np.sign(raw))


def test_sample_observational_pure_noise_moments():
    dag = scm.WeightedDag(weights=np.zeros((4, 4)))
    batch = scm.sample_observational(dag, 10_000, seed=42)
    # 5 sigma band for the mean of 10^4 unit-variance samples.
    assert np.all(np.abs(batch.mean(axis=0)) < 5.0 / np.sqrt(10_000))
    assert np.allclose(batch.var(axis=0, ddof=1), 1.0, atol=1e-6)


def test_sample_observational_chain_covariance_closed_form():
    # Unnormalized chain w=2: node 1 = 2 * node 0 + eps, so Var(node 1) = 5.
    dag = _chain_dag(2.0)
    batch = scm.sample_observational(dag, 200_000, seed=3, standardize=False)
    assert batch[:, 1].var(ddof=1) == pytest.approx(5.0, rel=0.03)


def test_sample_observational_deterministic():
    dag = scm.sample_dag(5, 0.5, np.random.default_rng(1))
    a = scm.sample_observational(dag, 64, seed=99)
    b = scm.sample_observational(dag, 64, seed=99)
    assert np.array_equal(a, b)


def test_apply_intervention_zeroes_only_target_row():
    rng = np.random.default_rng(17)
    dag = scm.sample_dag(6, 0.8, rng)
    target = int(np.argmax((np.abs(dag.weights) > 0).sum(axis=1)))  # node with most parents
    mut = scm.apply_intervention(dag, scm.Intervention(target, 1.0))
    assert np.count_nonzero(mut.weights[target, :]) == 0
    rows = [r for r in range(dag.d) if r != target]
    assert np.array_equal(mut.weights[rows, :], dag.weights[rows, :])


def test_apply_intervention_root_node_leaves_weights_unchanged():
    dag = _chain_dag()
    mut = scm.apply_intervention(dag, scm.Intervention(0, 0.7))
    assert np.array_equal(mut.weights, dag.weights)
    batch = scm.sample_interventional(dag, scm.Intervention(0, 0.7), 50, seed=0, standardize=False)
    assert np.all(batch[:, 0] == 0.7)


def test_apply_intervention_target_out_of_range():
    dag = _chain_dag()
    with pytest.raises(InvalidArgumentError):
        scm.apply_intervention(dag, scm.Intervention(2, 1.0))


def test_intervention_values_stay_in_prior_range():
    rng = np.random.default_rng(2024)
    values = [scm.sample_intervention_value(rng) for _ in range(10_000)]
    assert 0.5 <= min(values) and max(values) <= 1.5


def test_sample_interventional_clamps_before_standardization():
    rng = np.random.default_rng(31)
    dag = scm.sample_dag(5, 0.6, rng)
    iv = scm.Intervention(2, 1.3)
    raw = scm.sample_interventional(dag, iv, 40, seed=8, standardize=False)
    assert np.all(raw[:, 2] == 1.3)
    std = scm.sample_interventional(dag, iv, 40, seed=8)
    # Constant column is exempt from rescaling.
    assert np.all(std[:, 2] == 1.3)
    other = [c for c in range(5) if c != 2]
    assert np.allclose(std[:, other].var(axis=0, ddof=1), 1.0, atol=1e-6)


def test_sample_interventional_sink_changes_only_intervened_column():
    dag = _chain_dag()
    noise = np.random.default_rng(12).standard_normal((30, 2))
    obs = noise @ dag.transfer_matrix().T
    iv = scm.Intervention(1, 0.9)  # node 1 is a sink
    batch = scm.sample_interventional(dag, iv, 30, seed=0, paired_noise=noise, standardize=False)
    assert np.array_equal(batch[:, 0], obs[:, 0])
    assert np.all(batch[:, 1] == 0.9)


def test_sample_interventional_unpaired_seeds_differ():
    dag = _chain_dag()
    iv = scm.Intervention(0, 1.0)
    a = scm.sample_interventional(dag, iv, 20, seed=1)
    b = scm.sample_interventional(dag, iv, 20, seed=2)
    assert not np.array_equal(a, b)


def test_counterfactual_locality_on_non_descendants():
    # With shared noise, an intervention touches exactly the target and its
    # descendants (pre-standardization).
    rng = np.random.default_rng(77)
    for _ in range(10):
        dag = scm.sample_dag(7, 0.5, rng)
        noise = rng.standard_normal((25, 7))
        t1, t2 = rng.choice(7, size=2, replace=False)
        b1 = scm.sample_interventional(
            dag, scm.Intervention(int(t1), 1.0), 25, seed=0, paired_noise=noise, standardize=False
        )
        b2 = scm.sample_interventional(
            dag, scm.Intervention(int(t2), 1.2), 25, seed=0, paired_noise=noise, standardize=False
        )
        affected1 = _descendants(dag, int(t1)) | {int(t1)}
        affected2 = _descendants(dag, int(t2)) | {int(t2)}
        untouched = [c for c in range(7) if c not in affected1 | affected2]
        assert np.array_equal(b1[:, untouched], b2[:, untouched])


def test_paired_noise_shape_mismatch():
    dag = _chain_dag()
    with pytest.raises(InvalidArgumentError):
        scm.sample_interventional(
            dag, scm.Intervention(0, 1.0), 10, seed=0, paired_noise=np.zeros((5, 2))
        )


def test_encode_treatment_places_value_at_hot_index():
    code = scm.encode_treatment(scm.Intervention(2, 0.7), 4)
    assert np.array_equal(code, np.array([0.0, 0.0, 0.7, 0.0]))
    assert np.array_equal(scm.encode_treatment(scm.Intervention(0, 1.0), 1), np.array([1.0]))


def test_generated_clamp_columns_are_exactly_the_value():
    # Clamping through the float64 inverse of (I - W) alone left about 0.1%
    # of clamped columns ~1e-15 off the value: in this sweep, base seeds 119
    # (condition (0, 0)), 139 and 256.  Every clamped column must equal the
    # value exactly.
    from pertmap.datasets import generate_scm_dataset

    inexact = []
    for base_seed in range(300):
        ds = generate_scm_dataset(2, 6, 64, 0.5, base_seed=base_seed)
        for (c, t), values in ds.interventional.items():
            if not np.all(values[:, t] == ds.treatment_codes[(c, t)][t]):
                inexact.append((base_seed, c, t))
    assert inexact == []
