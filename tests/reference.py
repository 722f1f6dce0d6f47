"""A plain statement of what one fine-tuning step computes.

This is the step with every fast path taken out: rows and blocks are plain
loops, every walk draws its noise afresh from the stream, and nothing is
kept between walks, no z and no scratch.  It rounds in the documented order:
a walk adds (step * s_i) * z to each value of block i, one move after the
other, and a loss sums its dots as paramspace.dot does, one BLAS dot per
_DOT_PIECE-value piece in index order.  The fast paths (the kept one-span z,
the pieced walk, rows in one pass, the stacked quadratic oracle) must give
these bits.

Only quadratic tasks are covered, and the scale network's forward pass is
taken as given, one row at a time.  Nothing here checks for divergence.
"""

from dataclasses import dataclass, field

import numpy as np

from zoft import pertnn
from zoft.paramspace import _DOT_PIECE, _NOISE_TAG, _STREAM_STRIDE
from zoft.testbeds import _QNOISE_TAG


def noise(seed: int, stream: int, d: int) -> np.ndarray:
    """z of the (seed, stream) noise stream: PCG64 seeded from (tag, seed),
    advanced by stream strides, d standard normals in one call."""
    bits = np.random.PCG64(np.random.SeedSequence([_NOISE_TAG, seed]))
    bits.advance((stream * _STREAM_STRIDE) % (1 << 128))
    return np.random.Generator(bits).standard_normal(d)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b summed one _DOT_PIECE-value piece at a time, in index order."""
    total = None
    for lo in range(0, len(a), _DOT_PIECE):
        part = float(a[lo:lo + _DOT_PIECE] @ b[lo:lo + _DOT_PIECE])
        total = part if total is None else total + part
    return total


def loss(task, values: np.ndarray, batch) -> float:
    """0.5 delta'(eigs * delta) + xi'delta of one (d,) vector, xi the
    task's batch noise (none when noise_tau is 0)."""
    delta = values - task.theta_star
    out = 0.5 * dot(delta, task.eigs * delta)
    if task.noise_tau != 0.0:
        d = task.partition.total
        xi = np.random.default_rng([_QNOISE_TAG, task.seed, int(batch)]).normal(
            0.0, np.sqrt(task.noise_tau / d), size=d)
        out += dot(delta, xi)
    return out


def walk(values: np.ndarray, partition, stds, seed: int, stream: int, *moves) -> None:
    """values <- values + move * u for each move in order, u|block i = s_i z,
    drawing z afresh."""
    z = noise(seed, stream, partition.total)
    for i, sl in enumerate(partition.slices):
        for move in moves:
            values[sl] += (move * stds[i]) * z[sl]


@dataclass
class Row:
    """One run: its task, its rate, whether it samples with the network's
    scales, its parameters and what it carries to the next step."""

    task: object
    lr: float
    learned: bool
    values: np.ndarray
    prev: tuple | None = None  # (l+, l-) of the last step
    prev_scales: np.ndarray | None = None
    losses: list = field(default_factory=list)  # each step's unperturbed loss


def start(tasks, lrs, learned, seed: int) -> list:
    return [Row(task, lr, own, task.init_theta(seed))
            for task, lr, own in zip(tasks, lrs, learned)]


def scales(row: Row, current: float, net, normalize: bool) -> np.ndarray:
    """The stds a row samples with: ones for a MeZO row; for a learned row,
    the network's output on (l+, l-, previous scale, block mean, block
    variance), rescaled so that sum_i d_i s_i^2 = d."""
    partition = row.task.partition
    if not row.learned:
        return np.ones(partition.n_blocks)
    plus, minus = (current, current) if row.prev is None else row.prev
    features = np.empty((partition.n_blocks, pertnn.N_FEATURES))
    for i, sl in enumerate(partition.slices):
        block = row.values[sl]
        prev = 1.0 if row.prev_scales is None else row.prev_scales[i]
        features[i] = plus, minus, prev, np.mean(block), np.var(block)
    raw, _ = pertnn.forward_all(net, features)
    if not normalize:
        return raw
    budget = np.dot(raw**2, partition.sizes.astype(np.float64))
    return raw * np.sqrt(partition.total / budget)


def step(rows, t: int, batch, seed: int, epsilon: float, net, normalize: bool) -> None:
    """Step t of every row: the unperturbed loss, the two perturbed ones, and
    a restore that applies -lr * c * u, c = (l+ - l-) / (2 eps)."""
    for row in rows:
        task, partition = row.task, row.task.partition
        current = loss(task, row.values, batch)
        stds = scales(row, current, net, normalize)
        walk(row.values, partition, stds, seed, t, +epsilon)
        plus = loss(task, row.values, batch)
        walk(row.values, partition, stds, seed, t, -2.0 * epsilon)
        minus = loss(task, row.values, batch)
        update = -row.lr * ((plus - minus) / (2.0 * epsilon))
        moves = (+epsilon, update) if update != 0.0 else (+epsilon,)
        walk(row.values, partition, stds, seed, t, *moves)
        row.prev, row.prev_scales = (plus, minus), stds
        row.losses.append(current)


def race(losses, threshold: float = 0.5, window: float = 0.1):
    """(first, hit, tail) of a run's losses: its first loss, the first step
    whose loss is at most threshold x the first, and its last
    max(1, round(window * T)) losses."""
    first = losses[0]
    hit = next((t for t, v in enumerate(losses, start=1) if v <= threshold * first), None)
    k = len(losses) if window >= 1 else min(len(losses), max(1, round(window * len(losses))))
    return first, hit, losses[len(losses) - k:]
