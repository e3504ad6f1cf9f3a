"""Integrator checks against analytic solutions and scipy as oracle; the
port must equal scipy's RK45 bit for bit."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp.common import select_initial_step

from pertmap import ode
from pertmap.errors import InvalidArgumentError, NumericalFailureError
from pertmap.ode import OdeResult, integrate_dopri5


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


# -- the port against scipy's RK45 --------------------------------------------


def _scipy_rk45(field, y0, t0, t1, rtol=1e-3, atol=1e-4, max_steps=2000):
    """The adapter over scipy.integrate.RK45 that the port replaced."""
    y0 = np.asarray(y0, dtype=float)

    def flat_field(t, y_flat):
        value = np.asarray(field(t, y_flat.reshape(y0.shape)), dtype=float)
        if not np.all(np.isfinite(value)):
            raise NumericalFailureError(f"non-finite field value in dopri5 at t={t:.6g}")
        return value.ravel()

    solver = RK45(flat_field, t0, y0.ravel(), t1, rtol=rtol, atol=atol)
    steps = 0
    while solver.status == "running":
        if steps == max_steps:
            raise NumericalFailureError(f"dopri5 exceeded {max_steps} accepted steps at t={solver.t:.6g}")
        message = solver.step()
        if solver.status == "failed":
            raise NumericalFailureError(f"dopri5 failed at t={solver.t:.6g}: {message}")
        steps += 1
    return OdeResult(y=solver.y.reshape(y0.shape), steps_taken=steps, evaluations=solver.nfev)


def _outcome(solve, *args):
    try:
        res = solve(*args)
    except NumericalFailureError as err:
        return type(err), str(err)
    return res.y.shape, res.y.tobytes(), res.steps_taken, res.evaluations


# scipy's select_initial_step clamps the first step to the interval length
# through its t_bound argument, as the port does.  Where a scipy release's
# select_initial_step takes no t_bound, only the problems where those clamps
# do not bind are compared.
_SCIPY_CLAMPS_FIRST_STEP = "t_bound" in inspect.signature(select_initial_step).parameters


def _first_step_clamps_bind(field, y0, t0, t1, rtol, atol):
    """Whether clamping to t1 - t0 changes the trial step h0 or the first step."""

    def fun(t, y):
        return np.asarray(field(t, y.reshape(y0.shape)), dtype=float).ravel()

    y = y0.ravel()
    f0 = fun(t0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = ode._rms(y / scale), ode._rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return h0 > t1 - t0 or ode._initial_step(fun, t0, y, f0, np.inf, rtol, atol) > t1 - t0


def _port_cases(n):
    """Random problems: a tanh field, stiff decay, a zero field, a blow-up
    whose step size underflows, and a field that turns NaN; small budgets
    make some exhaust their steps."""
    rng = np.random.default_rng(2201)
    for i in range(n):
        y0 = rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 12))))
        d = y0.shape[1]
        t0 = float(rng.uniform(-1.0, 1.0))
        t1 = t0 + float(10 ** rng.uniform(-3.0, 1.0))
        rtol, atol = float(10 ** rng.uniform(-9.0, -1.0)), float(10 ** rng.uniform(-10.0, -2.0))
        max_steps = int(rng.integers(1, 300))
        # A blow-up costs about ten times the others, so it comes once in ten.
        kind = ("tanh", "stiff", "zero", "blow-up", "nan", "tanh", "stiff", "zero", "tanh", "nan")[i % 10]
        if kind == "tanh":
            a, w = rng.standard_normal((d, d)) * float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 10.0))

            def field(t, y, a=a, w=w):
                return np.tanh(y @ a) - 0.3 * y + np.sin(w * t)
        elif kind == "stiff":
            lam = float(10 ** rng.uniform(0.0, 3.0))

            def field(t, y, lam=lam):
                return -lam * (y - np.cos(t))
        elif kind == "zero":
            def field(t, y):
                return np.zeros_like(y)
        elif kind == "blow-up":
            y0 = np.abs(y0) + 1.0
            t1 = t0 + 2.0

            def field(t, y):
                return y**2
        else:
            t_nan = t0 + float(rng.uniform(0.0, 1.0)) * (t1 - t0)

            def field(t, y, t_nan=t_nan):
                return np.full_like(y, np.nan) if t > t_nan else -y
        yield field, y0, t0, t1, rtol, atol, max_steps


def test_port_equals_scipy_rk45_bit_for_bit():
    compared, outcomes = 0, Counter()
    for case in _port_cases(1000):
        if not _SCIPY_CLAMPS_FIRST_STEP and _first_step_clamps_bind(*case[:-1]):
            continue
        ours = _outcome(integrate_dopri5, *case)
        assert ours == _outcome(_scipy_rk45, *case)
        compared += 1
        if len(ours) == 2:
            outcomes[next(k for k in ("exceeded", "Required step size", "non-finite") if k in ours[1])] += 1
        else:
            outcomes["rejected a step" if (ours[3] - 2) // 6 > ours[2] else "no rejection"] += 1
    assert compared >= 500, compared
    assert min(outcomes.values()) >= 20 and len(outcomes) == 5, outcomes


def test_integration_leaves_scipy_integrate_unimported():
    # scipy.integrate costs about 14 MB and 0.3 s to import.  This file
    # imports it, so the check runs in a fresh interpreter.
    script = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import pertmap\n"
        "for module in pkgutil.iter_modules(pertmap.__path__):\n"
        "    importlib.import_module('pertmap.' + module.name)\n"
        "from pertmap import model, training\n"
        "cfg = model.ModelConfig(layers=1, embed_dim=8, ff_dim=16, heads=1, head_dim=8,\n"
        "                        register_tokens=1, max_genes=3, max_context=2)\n"
        "rng = np.random.default_rng(0)\n"
        "bundle = model.ExperimentBundle(y_obs=rng.standard_normal((4, 3)),\n"
        "                                context=((np.eye(3)[0], rng.standard_normal((4, 3))),),\n"
        "                                query_code=np.eye(3)[1])\n"
        "params = model.build_model(cfg, seed=0)\n"
        "training.generate(params, cfg, bundle, training.GuidanceConfig(), m=3, seed=1)\n"
        "print(sorted(name for name in sys.modules if name.startswith('pertmap.')))\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = str(Path(ode.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    modules, loaded = out.stdout.splitlines()
    assert "'pertmap.training'" in modules and "'pertmap.ode'" in modules
    assert loaded == "False"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t0": -np.inf},
        {"t1": np.inf},
        {"t1": np.nan},
        {"rtol": np.nan},
        {"rtol": np.inf},
        {"rtol": 0.0},
        {"rtol": -1.0},
        {"atol": -1.0},
        {"atol": np.inf},
        {"atol": np.nan},
        {"max_steps": 0},
        {"max_steps": 2.5},
        {"max_steps": True},
        {"y0": np.zeros((0, 3))},
        {"y0": np.array([1.0, np.nan])},
    ],
    ids=[
        "t0_inf", "t1_inf", "t1_nan", "rtol_nan", "rtol_inf", "rtol_zero", "rtol_negative",
        "atol_negative", "atol_inf", "atol_nan", "max_steps_zero", "max_steps_float", "max_steps_bool",
        "y0_empty", "y0_nan",
    ],
)
def test_invalid_arguments_are_rejected(kwargs):
    args = {"field": lambda t, y: -y, "y0": np.ones(2), "t0": 0.0, "t1": 1.0} | kwargs
    (name,) = kwargs
    match = {"y0": "initial state", "t0": "t0 and t1", "t1": "t0 and t1"}.get(name, name)
    with pytest.raises(InvalidArgumentError, match=match):
        integrate_dopri5(**args)


def test_rtol_at_scipys_floor_is_accepted():
    floor = 100 * np.finfo(float).eps
    with pytest.raises(InvalidArgumentError, match="rtol"):
        integrate_dopri5(lambda t, y: -y, np.ones(2), 0.0, 1e-3, rtol=np.nextafter(floor, 0.0))
    res = integrate_dopri5(lambda t, y: -y, np.ones(2), 0.0, 1e-3, rtol=floor)
    assert res.steps_taken >= 1


@pytest.mark.parametrize("y0", [[0.0, 0.0], [0.0, 1.0]], ids=["zero", "one_zero"])
def test_zero_atol_with_a_zero_state_component_is_rejected(y0):
    # The initial step divided 0/0 there, and every attempt at t = nan was
    # rejected, so the solve never ended (scipy's RK45 does the same).  The
    # field raises after 1000 evaluations, so a regression fails, not hangs.
    evaluations = 0

    def field(t, y):
        nonlocal evaluations
        evaluations += 1
        if evaluations > 1000:
            raise AssertionError("the solve did not end")
        return -y

    with pytest.raises(InvalidArgumentError, match="atol"):
        integrate_dopri5(field, np.array(y0), 0.0, 1.0, atol=0.0)
    # With no zero component, atol 0 is a valid problem and stays scipy's.
    case = (lambda t, y: -y, np.array([0.5, 1.0]), 0.0, 1.0, 1e-3, 0.0)
    assert _outcome(integrate_dopri5, *case) == _outcome(_scipy_rk45, *case)


@pytest.mark.parametrize("t1", [0.5, 0.0], ids=["empty", "backward"])
def test_an_interval_that_does_not_move_forward_is_a_numerical_failure(t1):
    with pytest.raises(NumericalFailureError, match="t1 > t0"):
        integrate_dopri5(lambda t, y: -y, np.ones(2), 0.5, t1)
