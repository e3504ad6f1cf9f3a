"""Integrator checks against analytic solutions and scipy as oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pertmap.errors import NumericalFailureError
from pertmap.ode import integrate_dopri5


def test_constant_field_integrates_exactly():
    c = np.array([[1.5, -2.0], [0.25, 3.0]])
    y0 = np.zeros((2, 2))
    res = integrate_dopri5(lambda t, y: c, y0, 0.0, 1.0)
    assert np.allclose(res.y, c, atol=1e-6)


def test_linear_decay_matches_exponential():
    y0 = np.array([2.0, -1.0, 0.5])
    res = integrate_dopri5(lambda t, y: -y, y0, 0.0, 1.0, rtol=1e-8, atol=1e-10)
    assert np.allclose(res.y, y0 * np.exp(-1.0), rtol=1e-5)


def test_matches_scipy_on_nonlinear_field():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) * 0.5

    def field(t, y):
        return np.tanh(a @ y) - 0.3 * y + np.sin(3 * t)

    y0 = rng.standard_normal(4)
    ours = integrate_dopri5(field, y0, 0.0, 2.0, rtol=1e-8, atol=1e-10)
    ref = solve_ivp(field, (0.0, 2.0), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    assert np.allclose(ours.y, ref.y[:, -1], rtol=1e-6, atol=1e-8)


def test_step_budget_enforced():
    # A stiff-ish fast oscillator with a tiny budget must fail loudly.
    with pytest.raises(NumericalFailureError):
        integrate_dopri5(lambda t, y: 1e5 * np.cos(1e5 * t) * np.ones_like(y), np.zeros(2), 0.0, 1.0, max_steps=3)


def test_tolerances_control_accuracy():
    y0 = np.array([1.0])
    loose = integrate_dopri5(lambda t, y: y, y0, 0.0, 1.0, rtol=1e-3, atol=1e-4)
    tight = integrate_dopri5(lambda t, y: y, y0, 0.0, 1.0, rtol=1e-10, atol=1e-12)
    exact = np.exp(1.0)
    assert abs(tight.y[0] - exact) <= abs(loose.y[0] - exact)
    assert tight.steps_taken > loose.steps_taken


def test_evaluations_count_every_field_call():
    # The benchmark reads attempted steps as (evaluations - 1) // 6.
    calls = 0

    def field(t, y):
        nonlocal calls
        calls += 1
        return 5.0 * np.sin(20.0 * t) * np.cos(y)

    res = integrate_dopri5(field, np.ones((3, 2)), 0.0, 1.0)
    assert res.evaluations == calls
    assert (res.evaluations - 1) // 6 >= res.steps_taken > 0


def test_non_finite_field_fails_at_once():
    times = []

    def field(t, y):
        times.append(t)
        return np.full_like(y, np.nan) if t > 0.3 else -y

    with pytest.raises(NumericalFailureError):
        integrate_dopri5(field, np.ones(3), 0.0, 1.0)
    first_nan = next(i for i, t in enumerate(times) if t > 0.3)
    assert len(times) - (first_nan + 1) <= 6
