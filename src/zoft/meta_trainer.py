"""Learning-to-learn training of the scale network.

The model walks a plain first-order SGD trajectory; at every checkpoint a
one-step zeroth-order update using the current scale network is evaluated, and
the post-update loss is backpropagated to the network's weights through the
reparameterized perturbation u = s(omega) * z.  The finite-difference
coefficient c is treated as a constant during that backward pass (gradient
cut-off), tasks are shuffled every outer step, and the model is periodically
reset to its initial state.  Each inner step is handed to a recorder as it
ends; the default one is columnar (MetaLog): one entry per inner step in
arrays allocated before the first step, with no record object kept per step.

An inner step reads the task's loss and gradient at two points, the
lookahead point theta1 and the model's theta, each in one oracle call,
``task.loss_and_grad``, that returns both with the bits of ``loss`` and
``grad``; the two perturbed losses are ``task.loss`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pertnn as pertnn_mod
from .errors import ConfigError, DivergenceError, InvalidScaleError, NumericOverflowError
from .paramspace import ParamVector, dot
from .zo_optimizer import (
    DIVERGENCE_FACTOR,
    LossPair,
    OptState,
    _divergence,
    _start_vector,
    _used_scales,
    normalize_scales_vjp,
    step_features,
)

_Z_TAG = 0x2E7A2
_SHUFFLE_TAG = 0x5F0FF1E


def _seed_words(*keys: int) -> np.ndarray:
    """The uint32 entropy that np.random.SeedSequence makes of the list of
    nonnegative ints `keys`: each as its little-endian 32-bit words, 0 as one
    word.  A generator seeded with it draws what one seeded with the list
    does, and SeedSequence copies a uint32 array as it is instead of
    coercing the list one element at a time."""
    words = []
    for key in keys:
        words.append(key & 0xFFFFFFFF)
        while key >= 2**32:
            key >>= 32
            words.append(key & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


@dataclass
class MetaConfig:
    eta1: float  # model learning rate (also the ZO step size in the meta-objective)
    eta2: float  # scale-network learning rate
    steps: int
    epsilon: float = 1e-3
    reset_period: int = 50
    batch_size: int = 16
    seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        # the CLI's rule; a nan passes no comparison, so it fails here too
        for name, strict in (("epsilon", True), ("eta1", True), ("eta2", False)):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value > 0 if strict else value >= 0)):
                raise ConfigError(
                    f"{name}={value!r} must be finite and {'>' if strict else '>='} 0")
        if self.reset_period < 1:
            raise ConfigError("reset_period must be >= 1")
        if self.steps < 0:
            raise ConfigError("steps must be nonnegative")


@dataclass
class MetaEval:
    """Intermediates of one meta-objective evaluation."""

    l_zo: float
    coeff: float
    loss_pair: LossPair
    raw_stds: np.ndarray
    used_stds: np.ndarray
    norm: tuple | None  # the normalization's (budget, factor), None without it
    cache: pertnn_mod.ForwardCache
    grad1: np.ndarray | None  # the gradient at theta1 (meta_grad reads and drops it)


def meta_loss(theta: ParamVector, pertnn, task, task_state: OptState, batch,
              epsilon: float, eta1: float, z: np.ndarray,
              normalize: bool = True) -> MetaEval:
    """Post-update loss L(theta - eta1 * c * u) with u = s(omega) * z, z frozen.

    u is formed in place in the buffer of its scales' expansion, and each
    loss's argument, theta1 last, is written into one more buffer: two
    vectors besides theta and z, with the roundings of theta + epsilon * u.
    u is freed before the loss at theta1, which is read with the gradient
    there (MetaEval.grad1) in one task.loss_and_grad call.

    Meta-training stops at its first non-finite loss: NumericOverflowError.
    """
    l0 = float(task.loss(theta.values, batch)) if task_state.prev_losses is None else None
    features = step_features(theta, task_state, l0)
    raws, used, cache, norm = _used_scales(pertnn, features, theta.partition, normalize)
    u = np.repeat(used, theta.partition.sizes)
    u *= z
    arg = np.multiply(u, epsilon)
    loss_plus = float(task.loss(np.add(theta.values, arg, out=arg), batch))
    np.multiply(u, epsilon, out=arg)
    loss_minus = float(task.loss(np.subtract(theta.values, arg, out=arg), batch))
    if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
        raise NumericOverflowError(
            f"non-finite perturbed losses ({loss_plus}, {loss_minus})")
    coeff = (loss_plus - loss_minus) / (2.0 * epsilon)
    np.multiply(u, eta1 * coeff, out=arg)
    del u
    l_zo, grad1 = task.loss_and_grad(np.subtract(theta.values, arg, out=arg), batch)
    return MetaEval(
        l_zo=l_zo, coeff=coeff, loss_pair=LossPair(loss_plus, loss_minus),
        raw_stds=raws, used_stds=used, norm=norm, cache=cache, grad1=grad1,
    )


def meta_grad(theta: ParamVector, pertnn, task, task_state: OptState, batch,
              config: MetaConfig, z: np.ndarray):
    """Gradient of the cut-off meta-objective w.r.t. the network weights.

    The coefficient c is frozen, so the only omega-dependence is through
    u = s'(omega) * z:  dL/ds'_i = -eta1 * c * <grad L(theta1)|_i, z_i>, then
    the normalization's vector-Jacobian product (which couples blocks) and one
    batched backward pass through every block's network.
    """
    ev = meta_loss(theta, pertnn, task, task_state, batch,
                   config.epsilon, config.eta1, z, config.normalize)
    # the gradient is freed on return, before meta_step's gradient at theta
    g1, ev.grad1 = ev.grad1, None
    # one dot per block: no batched reduction over ragged blocks reproduces
    # its summation order, and the trajectory depends on its bits
    partition = theta.partition
    dots = np.array([dot(g1[sl], z[sl]) for sl in partition.slices])
    d_used = -config.eta1 * ev.coeff * dots
    d_raw = d_used
    if config.normalize:
        d_raw = normalize_scales_vjp(ev.raw_stds, partition, d_used, ev.norm, ev.used_stds)
    grads = pertnn_mod.backward(pertnn, ev.cache, d_raw)
    return grads, ev


def meta_step(theta: ParamVector, pertnn, task, task_state: OptState, batch,
              config: MetaConfig, z: np.ndarray) -> tuple[float, float]:
    """One inner meta-training step: update the network, then move the model.

    Returns (l_zo, loss): the meta-objective's post-update loss and the
    unperturbed loss before the model's SGD move.  That loss and the move's
    gradient are one task.loss_and_grad call, and the move is made in place.
    """
    grads, ev = meta_grad(theta, pertnn, task, task_state, batch, config, z)
    pertnn.add_scaled(grads, -config.eta2)
    loss_t, g = task.loss_and_grad(theta.values, batch)
    g *= config.eta1
    theta.values -= g
    task_state.prev_losses = ev.loss_pair
    task_state.prev_scales = ev.used_stds
    return ev.l_zo, loss_t


@dataclass
class MetaLog:
    """A meta-training run's inner steps as columns: entry k holds the k-th
    inner step, in the order train ran them.  train fills it through
    append, as it would any recorder."""

    task_names: tuple  # the names that `task` indexes
    task: np.ndarray  # (n,) index of the step's task
    l_zo: np.ndarray  # (n,) post-update loss of the meta-objective
    loss: np.ndarray  # (n,) unperturbed loss before the model's SGD move
    reset: np.ndarray  # (n,) bool: the model was reset after this step
    n: int = 0  # the entries appended so far

    @classmethod
    def empty(cls, task_names, n: int) -> "MetaLog":
        """Room for n entries, none appended yet."""
        return cls(tuple(task_names), np.zeros(n, dtype=np.int64), np.zeros(n),
                   np.zeros(n), np.zeros(n, dtype=bool))

    def append(self, task: int, l_zo: float, loss: float, reset: bool) -> None:
        k = self.n
        self.task[k], self.l_zo[k], self.loss[k], self.reset[k] = task, l_zo, loss, reset
        self.n = k + 1

    @property
    def t(self) -> np.ndarray:
        """(n,) outer step of each entry.  Every outer step runs each task
        once, so entry k is of outer step k // n_tasks + 1 and no column
        stores it."""
        return np.arange(len(self.task)) // len(self.task_names) + 1


def train(config: MetaConfig, tasks, pertnn, log=None):
    """Run the full learning-to-learn loop; returns (pertnn, log).

    All tasks must share one partition; the model parameters are shared across
    tasks and follow the first-order trajectory from the first task's
    init_theta(config.seed), reset to it every reset_period outer steps.
    Each inner step is handed to `log.append(task_index, l_zo, loss, reset)`
    as it ends, `reset` marking the last inner step of an outer step after
    which the model is reset.  Without a `log`, a MetaLog with room for every
    entry records them, so nothing else the loop keeps grows with the step
    count.  A start vector that is not finite raises ConfigError.
    """
    if not tasks:
        raise ConfigError("task list must not be empty")
    partition = tasks[0].partition
    for task in tasks[1:]:
        if task.partition != partition:
            raise ConfigError("all meta-training tasks must share one partition")
    pertnn = pertnn.copy()
    if log is None:
        log = MetaLog.empty([task.name for task in tasks], config.steps * len(tasks))
    if config.steps == 0:
        return pertnn, log
    # the start is regenerated at each reset: init_theta is a pure function
    # of the seed, so no copy of it is kept
    theta = _start_vector(tasks[0].init_theta(config.seed), partition)
    states = [OptState() for _ in tasks]
    shuffle_rng = np.random.default_rng([_SHUFFLE_TAG, config.seed])
    initial_loss = None
    for t in range(1, config.steps + 1):
        order = shuffle_rng.permutation(len(tasks)).tolist()
        # the outer step's last task is where a reset is recorded
        reset_after = order[-1] if t % config.reset_period == 0 else None
        for idx in order:
            task = tasks[idx]
            batch = task.sample_batch(
                config.batch_size, config.seed * 1000003 + t * 131 + idx
            )
            z = np.random.default_rng(
                _seed_words(_Z_TAG, config.seed, t, idx)).standard_normal(partition.total)
            try:
                l_zo, loss = meta_step(theta, pertnn, task, states[idx], batch, config, z)
            except (NumericOverflowError, InvalidScaleError) as exc:
                raise _divergence(t, exc) from exc
            log.append(idx, l_zo, loss, idx == reset_after)
            if initial_loss is None:
                initial_loss = abs(loss) + 1e-300
            if abs(loss) > DIVERGENCE_FACTOR * initial_loss:
                raise DivergenceError(
                    f"meta-training loss {loss:.3e} diverged at step {t}"
                )
        if reset_after is not None:
            theta.values[:] = tasks[0].init_theta(config.seed)
    return pertnn, log
