"""Learning-to-learn training of the scale network.

The model walks a plain first-order SGD trajectory; at every checkpoint a
one-step zeroth-order update using the current scale network is evaluated, and
the post-update loss is backpropagated to the network's weights through the
reparameterized perturbation u = s(omega) * z.  The finite-difference
coefficient c is treated as a constant during that backward pass (gradient
cut-off), tasks are shuffled every outer step, and the model is periodically
reset to its initial state.  The run's log is columnar (MetaLog): one entry
per inner step in arrays allocated before the first step, with no record
object kept per step.
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
    _used_scales,
    normalize_scales_vjp,
    step_features,
)

_Z_TAG = 0x2E7A2
_SHUFFLE_TAG = 0x5F0FF1E
_MBATCH_TAG = 0x3BA7C


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
        if self.epsilon <= 0 or self.eta1 <= 0 or self.eta2 < 0:
            raise ConfigError("epsilon and eta1 must be positive, eta2 nonnegative")
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
    theta1: np.ndarray
    cache: pertnn_mod.ForwardCache


def meta_loss(theta: ParamVector, pertnn, task, task_state: OptState, batch,
              epsilon: float, eta1: float, z: np.ndarray,
              normalize: bool = True) -> MetaEval:
    """Post-update loss L(theta - eta1 * c * u) with u = s(omega) * z, z frozen.

    Meta-training stops at its first non-finite loss: NumericOverflowError.
    """
    l0 = float(task.loss(theta.values, batch)) if task_state.prev_losses is None else None
    features = step_features(theta, task_state, l0)
    raws, used, cache, norm = _used_scales(pertnn, features, theta.partition, normalize)
    u = np.repeat(used, theta.partition.sizes) * z
    loss_plus = float(task.loss(theta.values + epsilon * u, batch))
    loss_minus = float(task.loss(theta.values - epsilon * u, batch))
    if not (math.isfinite(loss_plus) and math.isfinite(loss_minus)):
        raise NumericOverflowError(
            f"non-finite perturbed losses ({loss_plus}, {loss_minus})")
    coeff = (loss_plus - loss_minus) / (2.0 * epsilon)
    theta1 = theta.values - eta1 * coeff * u
    l_zo = float(task.loss(theta1, batch))
    return MetaEval(
        l_zo=l_zo, coeff=coeff, loss_pair=LossPair(loss_plus, loss_minus),
        raw_stds=raws, used_stds=used, norm=norm, theta1=theta1, cache=cache,
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
    g1 = task.grad(ev.theta1, batch)
    # one dot per block: no batched reduction over ragged blocks reproduces
    # its summation order, and the trajectory depends on its bits
    dots = np.array([dot(g1[sl], z[sl]) for sl in theta.partition.slices])
    d_used = -config.eta1 * ev.coeff * dots
    d_raw = d_used
    if config.normalize:
        d_raw = normalize_scales_vjp(ev.raw_stds, theta.partition, d_used, ev.norm)
    grads = pertnn_mod.backward(pertnn, ev.cache, d_raw)
    return grads, ev


def meta_step(theta: ParamVector, pertnn, task, task_state: OptState, batch,
              config: MetaConfig, z: np.ndarray) -> tuple[float, float]:
    """One inner meta-training step: update the network, then move the model.

    Returns (l_zo, loss): the meta-objective's post-update loss and the
    unperturbed loss before the model's SGD move.
    """
    grads, ev = meta_grad(theta, pertnn, task, task_state, batch, config, z)
    pertnn.add_scaled(grads, -config.eta2)
    loss_t = float(task.loss(theta.values, batch))
    theta.values -= config.eta1 * task.grad(theta.values, batch)
    task_state.prev_losses = ev.loss_pair
    task_state.prev_scales = ev.used_stds
    return ev.l_zo, loss_t


@dataclass
class MetaLog:
    """A meta-training run's inner steps as columns: entry k holds the k-th
    inner step, in the order train ran them."""

    task_names: tuple  # the names that `task` indexes
    t: np.ndarray  # (n,) outer step
    task: np.ndarray  # (n,) index of the step's task
    l_zo: np.ndarray  # (n,) post-update loss of the meta-objective
    loss: np.ndarray  # (n,) unperturbed loss before the model's SGD move
    reset: np.ndarray  # (n,) bool: the model was reset after this step

    @classmethod
    def empty(cls, task_names, n: int) -> "MetaLog":
        return cls(tuple(task_names), np.zeros(n, dtype=np.int64),
                   np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n),
                   np.zeros(n, dtype=bool))

    @property
    def reset_steps(self) -> list:
        """The outer steps after which the model was reset."""
        return self.t[self.reset].tolist()


def train(config: MetaConfig, tasks, pertnn):
    """Run the full learning-to-learn loop; returns (pertnn, MetaLog).

    All tasks must share one partition; the model parameters are shared across
    tasks and follow the first-order trajectory from the first task's
    init_theta(config.seed), reset to it every reset_period outer steps.
    The log's columns are allocated up front, so nothing else the loop keeps
    grows with the step count.
    """
    if not tasks:
        raise ConfigError("task list must not be empty")
    partition = tasks[0].partition
    for task in tasks[1:]:
        if task.partition != partition:
            raise ConfigError("all meta-training tasks must share one partition")
    pertnn = pertnn.copy()
    theta0 = tasks[0].init_theta(config.seed)
    theta = ParamVector(theta0.copy(), partition)
    states = [OptState() for _ in tasks]
    shuffle_rng = np.random.default_rng([_SHUFFLE_TAG, config.seed])
    log = MetaLog.empty([task.name for task in tasks], config.steps * len(tasks))
    k = 0  # the log entry of the next inner step
    initial_loss = None
    for t in range(1, config.steps + 1):
        order = shuffle_rng.permutation(len(tasks))
        for idx in order:
            task = tasks[idx]
            batch = task.sample_batch(
                config.batch_size, config.seed * 1000003 + t * 131 + int(idx)
            )
            z = np.random.default_rng([_Z_TAG, config.seed, t, int(idx)]).standard_normal(
                partition.total
            )
            try:
                l_zo, loss = meta_step(theta, pertnn, task, states[idx], batch, config, z)
            except (NumericOverflowError, InvalidScaleError) as exc:
                raise _divergence(t, exc) from exc
            log.t[k], log.task[k], log.l_zo[k], log.loss[k] = t, idx, l_zo, loss
            k += 1
            if initial_loss is None:
                initial_loss = abs(loss) + 1e-300
            if abs(loss) > DIVERGENCE_FACTOR * initial_loss:
                raise DivergenceError(
                    f"meta-training loss {loss:.3e} diverged at step {t}"
                )
        if t % config.reset_period == 0:
            theta.values[:] = theta0
            log.reset[k - 1] = True
    return pertnn, log
