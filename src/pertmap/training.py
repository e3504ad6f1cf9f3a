"""Flow-matching pretraining and guided generation.

Training follows the in-context recipe: every step draws a batch of
experiment bundles, a logit-normal time, standard-normal base noise, and
minimizes the mean squared difference between the predicted velocity at the
interpolated state and the straight-line target velocity.  The condition is
dropped to a learnable null token with fixed probability so classifier-free
guidance is defined at sampling time.  AdamW with a warmup-stable-decay
schedule updates the weights; an exponential moving average of the weights
is what inference uses.

The loss takes a stack of bundles, as ``forward`` does; a lone bundle is a
stack of one.  Each run of consecutive bundles with the same drop flag and
shapes in a process's share of a step (see below), at most STACK_BUNDLES
long, runs as one forward and one backward.  This is bit-identical to one graph per bundle: every loss,
gradient, trained weight and EMA weight is equal.  It holds because a
stacked matmul and every reduction over a stack's token or last axis equal
their per-bundle counterparts, because the stacks run in draw order, and
because a parameter adds a stack's gradients one bundle at a time (see
:mod:`pertmap.autodiff`), so each parameter's gradient sums its bundles in
the same order.

A step's bundles train on several processes at once.  This process
draws every bundle, time, noise and drop flag, cuts the step's draws into
contiguous shares of about equal work (a dropped bundle runs only the query
stream, so it counts DROPPED_COST of a conditioned one), trains the first
share's stacks itself and sends each later share to a helper process.  The
weights and their gradient live in memory that every process maps.  A helper
trains its share's stacks with each backward's leaf additions deferred into
a log that stays in its own memory, and replays the log into the gradient
once every earlier stack is in it; then it sends back its bundles' losses.
This too is bit-identical to one process.  A step's gradient is a sequence
of leaf additions, stack after stack, each stack in tape-walk order, and no
forward or backward work that makes an addend reads the gradient, so every
parameter sums the same terms in the same order; the batch loss adds the
bundles' losses in draw order; and how a share's bundles stack changes no
value, as above.

Generation integrates dY/dtau = v_u + omega * (v_c - v_u) from tau=0
(standard normal) to tau=1 with :func:`pertmap.ode.integrate_dopri5`, a port
of scipy's adaptive Dormand-Prince solver (RK45) that equals it bit for bit
(``tests/test_ode.py::test_port_equals_scipy_rk45_bit_for_bit``) and spares
every process the import of ``scipy.integrate``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterSet, Tensor
from .cores import usable_cores
from .errors import InvalidArgumentError, NumericalFailureError, require_integer, require_real
from .model import ExperimentBundle, ModelConfig, build_model, forward, parameter_layout
from .ode import integrate_dopri5


WARMUP_FRAC = 0.01
DECAY_FRAC = 0.20
CONDITION_DROP_PROB = 0.2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
# Bundles per stacked training graph at most.  This is a memory bound: each
# conditioned bundle in a stack holds about 3 MB of saved activations at
# toy width while the stack's graph lives, and each process holds at most
# one stack's graph.  A helper also holds its stacks' leaf adjoints, about
# 1.4 MB per bundle at toy width, until its replay.
STACK_BUNDLES = 3
# The work of a dropped bundle relative to a conditioned one, by which a
# step's draws are cut across processes.  At toy width one stack of 1, 2 or
# 3 bundles took 3.3, 5.2 or 7.1 ms dropped and 8.1, 15.8 or 23.6 ms
# conditioned.
DROPPED_COST = 0.35


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    peak_lr: float = 1e-4
    ema_decay: float = 0.999
    batch_size: int = 8  # bundles per step
    seed: int = 0

    def __post_init__(self):
        require_integer("total_steps", self.total_steps, 1)
        require_real("peak_lr", self.peak_lr, 0.0, strict=True)
        require_real("ema_decay", self.ema_decay, 0.0, high=1.0)
        require_integer("batch_size", self.batch_size, 1)
        require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class GuidanceConfig:
    """Classifier-free guidance weight: omega = 1 samples the conditional
    flow alone, omega > 1 pushes away from the unconditional one.  The ODE
    tolerances and step budget are ``integrate_dopri5``'s defaults: rtol
    1e-3, atol 1e-4 and 2000 accepted steps."""

    omega: float = 2.0

    def __post_init__(self):
        require_real("omega", self.omega)


@dataclass
class TrainResult:
    """``train``'s weight EMA, which inference and checkpoints use, and trace."""

    ema_params: ParameterSet
    trace: list[tuple[int, float, float]]  # (step, batch loss, lr)


def sample_time(rng: np.random.Generator) -> float:
    """tau = logistic(z), z ~ N(0, 1); the median sits at 0.5."""
    z = rng.standard_normal()
    return 1.0 / (1.0 + math.exp(-z))


def wsd_lr(step: int, cfg: TrainConfig) -> float:
    """Warmup-stable-decay schedule.

    Linear ramp to the peak over the first WARMUP_FRAC of the steps, flat
    until the final DECAY_FRAC, then a square-root decay to zero.  Step 0,
    the ramp's start, is 0; steps run to ``cfg.total_steps``.
    """
    require_integer("step", step, 0, cfg.total_steps)
    total = cfg.total_steps
    warmup = max(1, round(WARMUP_FRAC * total))
    decay_start = total - round(DECAY_FRAC * total)
    if step <= warmup:
        return cfg.peak_lr * step / warmup
    if step <= decay_start:
        return cfg.peak_lr
    return cfg.peak_lr * math.sqrt((total - step) / (total - decay_start))


def cfm_loss(
    params: ParameterSet,
    model_cfg: ModelConfig,
    bundle: ExperimentBundle | Sequence[ExperimentBundle],
    tau: float | Sequence[float],
    y0: np.ndarray,
    drop_condition: bool = False,
) -> Tensor:
    """Mean squared velocity error at the interpolated state, per bundle.

    The state is (1 - tau) * Y0 + tau * target and the regression target is
    target - Y0; the mean runs over all M * d entries.  A stack of B bundles
    (with B taus and Y0 of shape (B, M, d)) runs as one graph by ``forward``
    and has B losses.  A lone bundle, with a scalar tau and Y0 of shape
    (M, d), is a stack of one and returns that stack's loss as a scalar.
    """
    lone = isinstance(bundle, ExperimentBundle)
    if lone:  # a stack of one
        bundle, tau, y0 = (bundle,), (tau,), np.asarray(y0)[None]
    bundles, taus, y0 = tuple(bundle), tuple(tau), np.asarray(y0)
    if any(b.target is None for b in bundles):
        raise InvalidArgumentError("cfm_loss needs bundles with a target batch")
    targets = [np.asarray(b.target) for b in bundles]
    if any(t.shape != targets[0].shape for t in targets):
        raise InvalidArgumentError("stacked bundles differ in their target shapes")
    target = np.stack(targets)
    if y0.shape != target.shape:
        raise InvalidArgumentError(f"noise shape {y0.shape} != target shape {target.shape}")
    if len(taus) != len(bundles):
        raise InvalidArgumentError(f"{len(taus)} taus for {len(bundles)} stacked bundles")
    # Each bundle's state is the expression it has alone, so any input dtype rounds alike.
    y_tau = np.stack([(1.0 - t) * y + t * b for t, y, b in zip(taus, y0, targets)])
    v = forward(params, model_cfg, y_tau, taus, bundles, drop_condition)
    diff = v - (target - y0)
    loss = (diff * diff).mean(axis=(-2, -1))
    return loss[0] if lone else loss


# AdamW and the EMA walk the flat parameter arrays in slices of this many
# values, so their temporaries stay small at any model width.
BLOCK_VALUES = 1 << 16


def _blocks(size: int) -> Iterator[slice]:
    return (slice(lo, lo + BLOCK_VALUES) for lo in range(0, size, BLOCK_VALUES))


class AdamW:
    """Decoupled weight decay Adam over a ParameterSet's flat arrays."""

    def __init__(self, params: ParameterSet):
        self.params = params
        self.t = 0
        self._m = np.zeros(params.values.shape, params.values.dtype)
        self._v = np.zeros(params.values.shape, params.values.dtype)

    def step(self, lr: float) -> None:
        """One update of ``params.values`` from the gradient in ``params.grad``."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        for block in _blocks(self.params.values.size):
            theta = self.params.values[block]
            g = self.params.grad[block]
            m = self._m[block]
            v = self._v[block]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
            theta -= lr * (update + WEIGHT_DECAY * theta)


def ema_update(ema: np.ndarray, values: np.ndarray, decay: float) -> None:
    """In place: ema <- decay * ema + (1 - decay) * values, over flat arrays."""
    for block in _blocks(ema.size):
        ema[block] *= decay
        ema[block] += (1.0 - decay) * values[block]


def _draw(
    bundle_stream: Iterator[ExperimentBundle], rng: np.random.Generator, step: int
) -> tuple[ExperimentBundle, float, np.ndarray, bool]:
    """One bundle of the stream with its time, base noise and drop flag."""
    try:
        bundle = next(bundle_stream)
    except StopIteration:
        raise InvalidArgumentError(f"the bundle stream ended during step {step}") from None
    if bundle.target is None:
        raise InvalidArgumentError(f"step {step} drew a bundle without a target batch")
    tau = sample_time(rng)
    y0 = rng.standard_normal(bundle.target.shape)
    drop = rng.random() < CONDITION_DROP_PROB
    return bundle, tau, y0, drop


def _stacks(draws: list) -> list[list]:
    """Runs of consecutive draws that share their drop flag and shapes, each
    at most STACK_BUNDLES long, in draw order."""

    def key(draw):
        bundle, _, _, drop = draw
        return drop, bundle.y_obs.shape, tuple(b.shape for _, b in bundle.context), bundle.target.shape

    stacks: list[list] = []
    for draw in draws:
        if stacks and len(stacks[-1]) < STACK_BUNDLES and key(stacks[-1][0]) == key(draw):
            stacks[-1].append(draw)
        else:
            stacks.append([draw])
    return stacks


def _split(draws: list, parts: int) -> list[list]:
    """``draws`` cut into ``parts`` contiguous shares of about equal work, in
    order.  Each cut falls where the work before it is nearest its part of
    the step's, at the later draw on a tie, so that a lone draw stays in
    the first share.  A pure function of the drop flags."""
    prefix = [0.0]
    for _, _, _, drop in draws:
        prefix.append(prefix[-1] + (DROPPED_COST if drop else 1.0))
    cuts = [0]
    for part in range(1, parts):
        target = prefix[-1] * part / parts
        cuts.append(min(range(len(draws), -1, -1), key=lambda i: abs(prefix[i] - target)))
    cuts.append(len(draws))
    return [draws[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _train_stacks(
    params: ParameterSet, model_cfg: ModelConfig, draws: list, scale: float, leaf_log: list | None = None
) -> list[float]:
    """One ``cfm_loss`` and one backward, seeded with ``scale``, per stack of
    ``draws``, in order; the backwards defer their leaf additions into
    ``leaf_log`` where one is given.  The bundles' losses, in draw order."""
    losses: list[float] = []
    for stack in _stacks(draws):
        bundles, taus, y0s, drops = zip(*stack)
        loss = cfm_loss(params, model_cfg, bundles, taus, np.stack(y0s), drops[0])
        loss.backward(seed=scale, leaf_log=leaf_log)
        losses += loss.data.tolist()
        # Free this stack's graph before the next one is built: at most one
        # stack's saved activations are alive at a time.
        del loss
    return losses


def _shared_params(raw, dtype, model_cfg: ModelConfig) -> ParameterSet:
    """The parameter set whose values and gradient are the two halves of ``raw``."""
    values, grad = np.split(np.frombuffer(raw, dtype), 2)
    return ParameterSet(parameter_layout(model_cfg), values, grad)


def _help(conn, parent_end, raw, dtype, model_cfg: ModelConfig, scale: float) -> None:
    """A helper process: train each share of draws that ``train`` sends with
    the leaf additions deferred, replay them when ``train`` signals that
    every earlier stack is in the gradient, and send back the share's
    losses, or the error that stopped it.  Returns on None, or when
    ``train``'s process has ended."""
    parent_end.close()  # a forked copy, which would keep the pipe from reading EOF
    params = _shared_params(raw, dtype, model_cfg)
    try:
        for share in iter(conn.recv, None):
            log: list = []
            losses = _train_stacks(params, model_cfg, share, scale, log)
            conn.recv()  # the stacks before this share are in the gradient
            ad.replay(log)
            del log  # free the adjoints before waiting for the next share
            conn.send(losses)
    except EOFError:
        return
    except Exception as exc:
        import traceback  # here, so that importing pertmap does not pay for it

        conn.send((exc, traceback.format_exc()))


class _Helper:
    """A helper process and this process's end of its pipe."""

    def __init__(self, ctx, args: tuple):
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_help, args=(child_end, self.conn, *args), daemon=True)
        self.process.start()
        child_end.close()

    def replay(self) -> list[float]:
        """Let the helper add its share's gradient; the share's losses."""
        try:
            self.conn.send(None)
        except OSError:  # it has exited; recv tells how
            pass
        try:
            reply = self.conn.recv()
        except EOFError:
            self.process.join()
            raise RuntimeError(f"a training helper exited with code {self.process.exitcode}") from None
        if isinstance(reply, tuple):
            exc, remote_traceback = reply
            raise exc from RuntimeError(f"raised in a training helper:\n{remote_traceback}")
        return reply


@contextlib.contextmanager
def _helpers(params: ParameterSet, model_cfg: ModelConfig, scale: float, count: int):
    """``params`` moved into shared memory, and ``count`` helpers that train
    on it; ``params`` itself when ``count`` is 0.  No helper outlives the
    block, and if the block raises, every helper is stopped at once."""
    if count == 0:
        yield params, []
        return
    import multiprocessing  # here, so that importing pertmap does not pay for it

    ctx = multiprocessing.get_context()
    dtype = params.values.dtype
    raw = ctx.RawArray("b", 2 * params.values.nbytes)
    shared = _shared_params(raw, dtype, model_cfg)
    shared.values[...] = params.values
    del params  # its values are copied; free them while training runs
    helpers: list[_Helper] = []
    try:
        for _ in range(count):
            helpers.append(_Helper(ctx, (raw, dtype, model_cfg, scale)))
        yield shared, helpers
    except BaseException:
        for helper in helpers:
            helper.process.terminate()
        raise
    else:
        for helper in helpers:
            helper.conn.send(None)  # no more work
    finally:
        for helper in helpers:
            helper.conn.close()
            helper.process.join()


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    bundle_stream: Iterator[ExperimentBundle],
) -> TrainResult:
    """Run the pretraining loop; deterministic given configs and stream.

    Every step consumes batch_size bundles, accumulates velocity-matching
    gradients (each bundle independently noised and possibly condition
    dropped), applies one AdamW update at the scheduled learning rate, and
    advances the weight EMA.  Aborts on a non-finite loss.

    A step first draws all its bundles, times, noise and drop flags, in the
    order one bundle at a time would, then runs them as stacked graphs, one
    ``cfm_loss`` and one backward each (see the module docstring).

    The stacks run in one process per usable core, at most ``batch_size``:
    this one and helpers started once per call.  The result does not depend
    on the process count.  Helpers start by the default start method, so a
    script run under spawn or forkserver (the defaults on macOS and, from
    Python 3.14, on Linux) must call this under an ``if __name__ ==
    "__main__":`` guard.  No helper outlives the call; an error raised in
    one is raised here.
    """
    processes = min(usable_cores(), train_cfg.batch_size)
    scale = 1.0 / train_cfg.batch_size
    rng = np.random.default_rng(train_cfg.seed)
    with _helpers(build_model(model_cfg, train_cfg.seed), model_cfg, scale, processes - 1) as (params, helpers):
        optimizer = AdamW(params)
        ema = params.values.copy()
        trace: list[tuple[int, float, float]] = []

        for step in range(1, train_cfg.total_steps + 1):
            params.zero_grads()
            draws = [_draw(bundle_stream, rng, step) for _ in range(train_cfg.batch_size)]
            own, *shares = _split(draws, processes)
            busy = [(helper, share) for helper, share in zip(helpers, shares) if share]
            for helper, share in busy:
                helper.conn.send(share)
            losses = _train_stacks(params, model_cfg, own, scale)
            for helper, _ in busy:  # in draw order, so each replays after the stacks before it
                losses += helper.replay()
            batch_loss = 0.0
            for value in losses:  # one addition per bundle, in draw order
                batch_loss += value
            batch_loss /= train_cfg.batch_size
            if not math.isfinite(batch_loss):
                raise NumericalFailureError(f"non-finite loss at step {step}")
            lr = wsd_lr(step, train_cfg)
            optimizer.step(lr)
            ema_update(ema, params.values, train_cfg.ema_decay)
            trace.append((step, batch_loss, lr))

    return TrainResult(ema_params=ParameterSet(parameter_layout(model_cfg), ema), trace=trace)


def guided_field(
    params: ParameterSet,
    model_cfg: ModelConfig,
    bundle: ExperimentBundle,
    omega: float,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """v_u + omega * (v_c - v_u); at omega = 1 only the conditional path runs."""

    def field(tau: float, y: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            v_cond = forward(params, model_cfg, y, float(tau), bundle).data
            if omega == 1.0:
                return v_cond
            v_uncond = forward(params, model_cfg, y, float(tau), bundle, drop_condition=True).data
            return v_uncond + omega * (v_cond - v_uncond)

    return field


def generate(
    params: ParameterSet,
    model_cfg: ModelConfig,
    bundle: ExperimentBundle,
    guidance: GuidanceConfig,
    m: int,
    seed: int,
) -> np.ndarray:
    """Sample M predicted post-perturbation cells by integrating the flow."""
    require_integer("m", m, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    y0 = rng.standard_normal((m, model_cfg.max_genes))
    field = guided_field(params, model_cfg, bundle, guidance.omega)
    return integrate_dopri5(field, y0, 0.0, 1.0).y
