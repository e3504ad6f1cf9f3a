"""Tests for the linear additive-noise SCM prior."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from pertmap import datasets, scm
from pertmap.errors import InvalidArgumentError


def _chain_dag(weight: float = 2.0) -> np.ndarray:
    # Two nodes, single edge 0 -> 1 with the given (unnormalized) weight.
    w = np.zeros((2, 2))
    w[1, 0] = weight
    return w


def _descendants(w: np.ndarray, node: int) -> set[int]:
    # w[k, j] is the edge j -> k, so the transpose is the adjacency matrix.
    return nx.descendants(nx.from_numpy_array(w.T, create_using=nx.DiGraph), node)


def test_sample_dag_rejects_zero_nodes():
    with pytest.raises(InvalidArgumentError):
        scm.sample_dag(0, 0.5, np.random.default_rng(0))


_W = np.array([[0.0, 0.0], [0.5, 0.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: scm.sample_dag(3.0, 0.5, np.random.default_rng(0)),
        lambda: scm.sample_dag(True, 0.5, np.random.default_rng(0)),
        lambda: scm.sample_dag(3, True, np.random.default_rng(0)),
        lambda: scm.sample_observational(_W, 2.5, 0),
        lambda: scm.sample_observational(_W, True, 0),
        lambda: scm.sample_observational(_W, 4, -1),
        lambda: scm.sample_observational(_W, 4, 2.5),
        lambda: scm.Intervention(0, np.nan),
        lambda: scm.apply_intervention(_W, scm.Intervention(1.5, 1.0)),
        lambda: scm.apply_intervention(_W, scm.Intervention(True, 1.0)),
        lambda: scm.encode_treatment(scm.Intervention(True, 1.0), 2),
    ],
    ids=[
        "sample_dag_d_float", "sample_dag_d_bool", "sample_dag_p_bool", "n_float", "n_bool", "seed_negative",
        "seed_float", "intervention_value_nan", "target_float", "target_bool", "treatment_target_bool",
    ],
)
def test_entry_points_reject_a_malformed_count_seed_or_target(call):
    # Unchecked, a float count, seed or target raised NumPy's raw TypeError,
    # AxisError or IndexError, a negative seed its raw ValueError, a NaN
    # value gave NaN samples, and True counted as 1.
    with pytest.raises(InvalidArgumentError):
        call()


def test_sample_dag_single_node_has_no_edges():
    w = scm.sample_dag(1, 0.9, np.random.default_rng(0))
    assert w.shape == (1, 1)
    assert np.count_nonzero(w) == 0


def test_sample_dag_full_probability_gives_complete_triangle():
    w = scm.sample_dag(3, 1.0, np.random.default_rng(7))
    assert np.count_nonzero(w) == 3
    # Acyclic: the weight matrix is nilpotent.
    assert np.allclose(np.linalg.matrix_power(w, 3), 0.0)


def test_sample_dag_mean_edge_count_matches_edge_probability():
    # 1000 draws at d=20, p=0.5: expectation is 0.5 * 190 = 95 edges.
    rng = np.random.default_rng(123)
    counts = [np.count_nonzero(scm.sample_dag(20, 0.5, rng)) for _ in range(1000)]
    mean = np.mean(counts)
    # std of the mean is sqrt(190 * 0.25 / 1000) ~ 0.22; allow 5 sigma.
    assert abs(mean - 95.0) < 1.1


def test_sample_dag_is_acyclic_and_invertible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = scm.sample_dag(8, 0.6, rng)
        assert np.allclose(np.linalg.matrix_power(w, 8), 0.0)
        scm.transfer_matrix(w)  # must not raise


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
        raw = scm.sample_dag(6, 0.7, rng) * rng.uniform(1.0, 3.0)  # rescale to make it "raw" again
        out = scm.normalize_weights(raw)
        assert np.array_equal(np.sign(out), np.sign(raw))


def test_sample_observational_pure_noise_moments():
    batch = scm.sample_observational(np.zeros((4, 4)), 10_000, seed=42)
    # 5 sigma bands for the mean and the variance of 10^4 standard normals.
    assert np.all(np.abs(batch.mean(axis=0)) < 5.0 / np.sqrt(10_000))
    assert np.all(np.abs(batch.var(axis=0, ddof=1) - 1.0) < 5.0 * np.sqrt(2.0 / 10_000))


def test_sample_observational_chain_covariance_closed_form():
    # Unnormalized chain w=2: node 1 = 2 * node 0 + eps, so Var(node 1) = 5.
    dag = _chain_dag(2.0)
    batch = scm.sample_observational(dag, 200_000, seed=3)
    assert batch[:, 1].var(ddof=1) == pytest.approx(5.0, rel=0.03)


def test_sample_observational_deterministic():
    w = scm.sample_dag(5, 0.5, np.random.default_rng(1))
    a = scm.sample_observational(w, 64, seed=99)
    b = scm.sample_observational(w, 64, seed=99)
    assert np.array_equal(a, b)


def test_apply_intervention_zeroes_only_target_row():
    rng = np.random.default_rng(17)
    w = scm.sample_dag(6, 0.8, rng)
    target = int(np.argmax((np.abs(w) > 0).sum(axis=1)))  # node with most parents
    mut = scm.apply_intervention(w, scm.Intervention(target, 1.0))
    assert np.count_nonzero(mut[target, :]) == 0
    rows = [r for r in range(6) if r != target]
    assert np.array_equal(mut[rows, :], w[rows, :])


def test_apply_intervention_root_node_leaves_weights_unchanged():
    dag = _chain_dag()
    mut = scm.apply_intervention(dag, scm.Intervention(0, 0.7))
    assert np.array_equal(mut, dag)
    batch = scm.sample_interventional(dag, scm.Intervention(0, 0.7), 50, seed=0)
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
    w = scm.sample_dag(5, 0.6, rng)
    iv = scm.Intervention(2, 1.3)
    raw = scm.sample_interventional(w, iv, 40, seed=8)
    assert np.all(raw[:, 2] == 1.3)
    std = datasets._standardize_columns(raw)
    # Constant column is exempt from rescaling.
    assert np.all(std[:, 2] == 1.3)
    other = [c for c in range(5) if c != 2]
    assert np.allclose(std[:, other].var(axis=0, ddof=1), 1.0, atol=1e-6)


def test_sample_interventional_sink_changes_only_intervened_column():
    # Drawn with the observational seed, the batch is its counterfactual pair.
    dag = _chain_dag()
    obs = scm.sample_observational(dag, 30, seed=12)
    iv = scm.Intervention(1, 0.9)  # node 1 is a sink
    batch = scm.sample_interventional(dag, iv, 30, seed=12)
    assert np.array_equal(batch[:, 0], obs[:, 0])
    assert np.all(batch[:, 1] == 0.9)


def test_sample_interventional_unpaired_seeds_differ():
    dag = _chain_dag()
    iv = scm.Intervention(0, 1.0)
    a = scm.sample_interventional(dag, iv, 20, seed=1)
    b = scm.sample_interventional(dag, iv, 20, seed=2)
    assert not np.array_equal(a, b)


def test_counterfactual_locality_on_non_descendants():
    # With a shared seed, and so shared noise, an intervention touches
    # exactly the target and its descendants.
    rng = np.random.default_rng(77)
    for trial in range(10):
        w = scm.sample_dag(7, 0.5, rng)
        t1, t2 = rng.choice(7, size=2, replace=False)
        b1 = scm.sample_interventional(w, scm.Intervention(int(t1), 1.0), 25, seed=trial)
        b2 = scm.sample_interventional(w, scm.Intervention(int(t2), 1.2), 25, seed=trial)
        affected1 = _descendants(w, int(t1)) | {int(t1)}
        affected2 = _descendants(w, int(t2)) | {int(t2)}
        untouched = [c for c in range(7) if c not in affected1 | affected2]
        assert np.array_equal(b1[:, untouched], b2[:, untouched])


def test_encode_treatment_places_value_at_hot_index():
    code = scm.encode_treatment(scm.Intervention(2, 0.7), 4)
    assert np.array_equal(code, np.array([0.0, 0.0, 0.7, 0.0]))
    assert np.array_equal(scm.encode_treatment(scm.Intervention(0, 1.0), 1), np.array([1.0]))


def test_generated_clamp_columns_are_exactly_the_value():
    # Clamping through the float64 inverse of (I - W) alone left about 0.1%
    # of clamped columns ~1e-15 off the value: in this sweep, base seeds 119
    # (condition (0, 0)), 139 and 256.  Every clamped column must equal the
    # value exactly.
    inexact = []
    for base_seed in range(300):
        ds = datasets.generate_scm_dataset(2, 6, 64, 0.5, base_seed=base_seed)
        for (c, t), values in ds.interventional.items():
            if not np.all(values[:, t] == ds.treatment_codes[(c, t)][t]):
                inexact.append((base_seed, c, t))
    assert inexact == []
