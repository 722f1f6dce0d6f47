"""A plain statement of what meta-training (meta_trainer.train) computes.

This is the meta-step with every fast path taken out: blocks are plain
loops, each inner step draws its z afresh, and every argument of a loss is
a new vector, no buffer.  It rounds in the documented order: the argument
of a perturbed loss adds (s_i * z) * eps to each value of block i, theta1
subtracts (s_i * z) * (eta1 * c), a dot is paramspace.dot's (reference.dot),
and the network's update adds (-eta2) * g to each weight.  The scale
network's forward and backward passes are taken as given.

Only quadratic tasks are covered.  Nothing here checks for divergence.
"""

from dataclasses import dataclass

import numpy as np

from zoft import pertnn
from zoft.meta_trainer import _SHUFFLE_TAG, _Z_TAG
from zoft.testbeds import _QNOISE_TAG

from reference import dot, loss


def grad(task, values: np.ndarray, batch) -> np.ndarray:
    """eigs * delta + xi of one (d,) vector, xi the task's batch noise."""
    g = task.eigs * (values - task.theta_star)
    if task.noise_tau != 0.0:
        d = task.partition.total
        g += np.random.default_rng([_QNOISE_TAG, task.seed, int(batch)]).normal(
            0.0, np.sqrt(task.noise_tau / d), size=d)
    return g


@dataclass
class TaskState:
    """What a task carries from its last inner step to its next."""

    prev: tuple | None = None  # (l+, l-)
    prev_scales: np.ndarray | None = None


def moved(theta: np.ndarray, partition, used, z: np.ndarray, factor: float) -> np.ndarray:
    """A new vector: theta + (s_i * z) * factor on each block i."""
    out = np.empty_like(theta)
    for i, sl in enumerate(partition.slices):
        out[sl] = theta[sl] + (used[i] * z[sl]) * factor
    return out


def meta_step(task, theta: np.ndarray, state: TaskState, batch, z: np.ndarray, net,
              eta1: float, eta2: float, epsilon: float, normalize: bool):
    """One inner step on theta, net and state in place: (l_zo, loss).

    The scales come from the network on (l+, l-, previous scale, block
    mean, block variance), normalized so that sum_i d_i s_i^2 = d.  The
    meta-objective is the loss at theta1 = theta - eta1 * c * u, u = s * z,
    c = (l+ - l-) / (2 eps) held constant, and its gradient with respect to
    the network's output is pulled back through the normalization.  Then
    the network takes its step, and theta a plain gradient step.
    """
    partition = task.partition
    sizes = partition.sizes.astype(np.float64)
    if state.prev is None:
        current = loss(task, theta, batch)
        plus, minus = current, current
    else:
        plus, minus = state.prev
    features = np.empty((partition.n_blocks, pertnn.N_FEATURES))
    for i, sl in enumerate(partition.slices):
        prev = 1.0 if state.prev_scales is None else state.prev_scales[i]
        features[i] = plus, minus, prev, np.mean(theta[sl]), np.var(theta[sl])
    raw, cache = pertnn.forward_all(net, features)
    used = raw
    if normalize:
        budget = dot(raw**2, sizes)
        factor = np.sqrt(partition.total / budget)
        used = raw * factor

    l_plus = loss(task, moved(theta, partition, used, z, epsilon), batch)
    l_minus = loss(task, moved(theta, partition, used, z, -epsilon), batch)
    coeff = (l_plus - l_minus) / (2.0 * epsilon)
    theta1 = moved(theta, partition, used, z, -(eta1 * coeff))
    l_zo = loss(task, theta1, batch)
    g1 = grad(task, theta1, batch)

    # dL/ds_i = -eta1 * c * <grad L(theta1)|_i, z_i>
    d_used = np.array([(-eta1 * coeff) * dot(g1[sl], z[sl]) for sl in partition.slices])
    d_raw = d_used
    if normalize:
        # s'_i = factor * s_i:  d s'_i / d s_k = factor delta_ik - s'_i d_k s_k / budget
        inner = dot(d_used, used)
        d_raw = np.array([factor * d_used[k] - (sizes[k] * raw[k] / budget) * inner
                          for k in range(partition.n_blocks)])
    grads = pertnn.backward(net, cache, d_raw)
    for weights, g in zip(net.arrays, grads.arrays):
        weights[...] = weights + (-eta2) * g

    current = loss(task, theta, batch)
    theta -= grad(task, theta, batch) * eta1
    state.prev, state.prev_scales = (l_plus, l_minus), used
    return l_zo, current


def train(tasks, net, seed: int, steps: int, eta1: float, eta2: float, epsilon: float,
          reset_period: int, batch_size: int, normalize: bool):
    """(net, log): the trained copy of net, and one (task index, l_zo, loss,
    reset) entry per inner step.  Each outer step runs every task once in
    a shuffled order from one model theta, which restarts from the first
    task's init_theta(seed) after every reset_period-th outer step."""
    net = net.copy()
    theta = tasks[0].init_theta(seed)
    states = [TaskState() for _ in tasks]
    shuffle = np.random.default_rng([_SHUFFLE_TAG, seed])
    log = []
    for t in range(1, steps + 1):
        order = shuffle.permutation(len(tasks)).tolist()
        reset = t % reset_period == 0
        for k, idx in enumerate(order):
            task = tasks[idx]
            batch = task.sample_batch(batch_size, seed * 1000003 + t * 131 + idx)
            z = np.random.default_rng([_Z_TAG, seed, t, idx]).standard_normal(
                task.partition.total)
            l_zo, current = meta_step(task, theta, states[idx], batch, z, net,
                                      eta1, eta2, epsilon, normalize)
            log.append((idx, l_zo, current, reset and k == len(order) - 1))
        if reset:
            theta = tasks[0].init_theta(seed)
    return net, log
