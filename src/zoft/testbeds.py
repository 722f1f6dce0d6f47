"""Desk-scale optimization targets with exact gradients.

Two families:

* block-diagonal quadratics with prescribed per-block effective ranks
  (the setting the convergence bounds are stated for), and
* a small hand-backpropagated softmax classifier whose natural weight
  tensors define the block partition.

Both expose the same informal interface: ``partition``, ``init_theta``,
``sample_batch``, ``loss``, ``grad`` and ``loss_and_grad``.  ``loss`` takes
what a ParamVector holds: a (d,) vector gives a float, (R, d) rows give R
losses, each with the bits of its row's vector loss.  Rows of several
quadratic tasks are one ``QuadraticRows`` call.  ``loss_and_grad`` is the
pair (loss, grad) of a (d,) vector from one pass, each with the bits of its
own call: meta-training reads both at each point it visits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .paramspace import _DOT_PIECE, BlockPartition

_QNOISE_TAG = 0x0BA7C4
_QINIT_TAG = 0x71E7A0
_BATCH_TAG = 0xBA7C41D
_DATA_TAG = 0xDA7A5E7
_MINIT_TAG = 0x3317A17


# ---------------------------------------------------------------------------
# Block-diagonal quadratics


class QuadraticTask:
    """L(theta) = 0.5 (theta - theta*)' H (theta - theta*) with diagonal H.

    The Hessian is given as its eigenvalue vector ``eigs`` (one value per
    coordinate), so it is exactly block-diagonal for any partition: cross-block
    coupling is identically zero.  A wide rank-family task (make_rank_family
    above _DOT_PIECE values) keeps it as two numbers per block instead, and
    ``eigs`` then forms the (d,) vector anew on each access; the loss, the
    gradient and ``block_eigs`` form only what they use.  Optional minibatch
    noise adds a linear term xi' (theta - theta*) with E xi = 0 and
    tr Cov(xi) = tau, drawn deterministically from the batch key.
    """

    def __init__(self, partition: BlockPartition, eigs, theta_star,
                 noise_tau: float = 0.0, init_scale: float | tuple = 1.0,
                 seed: int = 0, name: str = "quadratic"):
        self.partition = partition
        self.noise_tau, self.init_scale = noise_tau, init_scale  # scalar, or one per block
        self.seed, self.name = seed, name
        dense = not isinstance(eigs, _BlockSpectrum)
        self._eigs = np.asarray(eigs, dtype=np.float64) if dense else eigs
        self.theta_star = np.asarray(theta_star, dtype=np.float64)
        d = self.partition.total
        if self.theta_star.shape != (d,) or dense and self._eigs.shape != (d,):
            raise ConfigError("eigenvalues / optimum must have length d")
        # the least eigenvalue, not a d-sized mask of the negative ones
        if dense and self._eigs.min() < 0:
            raise ConfigError("quadratic eigenvalues must be nonnegative")
        # one sigma per block: init_theta scales each block's slice by it
        scale = np.asarray(self.init_scale, dtype=np.float64)
        if scale.ndim == 0:
            scale = np.full(self.partition.n_blocks, float(scale))
        elif scale.shape != (self.partition.n_blocks,):
            raise ConfigError("init_scale must be scalar or one value per block")
        self._init_sigma = scale
        self._noise_key, self._xi = None, None

    @property
    def dim(self) -> int:
        return self.partition.total

    @property
    def eigs(self) -> np.ndarray:
        """The (d,) eigenvalues; an O(d) array formed on each access when the
        spectrum is kept per block."""
        eigs = self._eigs
        return eigs if isinstance(eigs, np.ndarray) else eigs.fill(0, self.dim, np.empty(self.dim))

    def block_eigs(self, i: int) -> np.ndarray:
        """Block i's eigenvalues: a view of a dense spectrum, a new array of
        one kept per block."""
        sl = self.partition.slices[i]
        eigs = self._eigs
        if isinstance(eigs, np.ndarray):
            return eigs[sl]
        return eigs.fill(sl.start, sl.stop, np.empty(sl.stop - sl.start))

    @property
    def smoothness(self) -> float:
        eigs = self._eigs
        if isinstance(eigs, _BlockSpectrum):
            # a block's values are its top and its tail (its top again for
            # a block of one value)
            return float(max(map(max, eigs.tops, eigs.tails)))
        return max(float(self.block_eigs(i).max()) for i in range(self.partition.n_blocks))

    def effective_ranks(self) -> np.ndarray:
        """Per-block tr(H_i) / ||H_i||_op."""
        ranks = np.empty(self.partition.n_blocks)
        for i in range(self.partition.n_blocks):
            lam = self.block_eigs(i)
            top = lam.max()
            ranks[i] = lam.sum() / top if top > 0 else 1.0
        return ranks

    def _batch_noise(self, batch) -> np.ndarray | None:
        """The noise of batch key `batch`, kept for the last key asked: a step
        evaluates three losses on one batch and draws it once."""
        if self.noise_tau == 0.0:
            return None
        if batch != self._noise_key:
            rng = np.random.default_rng([_QNOISE_TAG, self.seed, int(batch)])
            self._xi = rng.normal(0.0, np.sqrt(self.noise_tau / self.dim), size=self.dim)
            self._noise_key = batch
        return self._xi

    def loss(self, values: np.ndarray, batch=0):
        """A float for a (d,) vector, R losses for (R, d) rows."""
        out = _quadratic_loss(values, self.theta_star, self._eigs, self._batch_noise(batch))
        return out if values.ndim > 1 else float(out)

    def grad(self, values: np.ndarray, batch=0) -> np.ndarray:
        """The gradient of a (d,) vector, with the bits of loss_and_grad's.
        It is its own pass because it needs no piece of scratch: a wide
        rank task's gradient peaks at one d-sized vector, where
        loss_and_grad's adds one _DOT_PIECE-value piece for the loss."""
        eigs = self._eigs
        if isinstance(eigs, np.ndarray):
            g = eigs * (values - self.theta_star)
        else:
            g = eigs.scale(values - self.theta_star)
        xi = self._batch_noise(batch)
        if xi is not None:
            g += xi  # g is a new array either way
        return g

    def loss_and_grad(self, values: np.ndarray, batch=0) -> tuple[float, np.ndarray]:
        """(loss, grad) of a (d,) vector from one pass of the loss, which
        writes its eigs * delta into the returned gradient and adds the
        batch noise after summing: the bits of both calls, and one d-sized
        vector above _DOT_PIECE values."""
        g = np.empty(values.shape)
        loss = _quadratic_loss(values, self.theta_star, self._eigs, self._batch_noise(batch), g)
        return float(loss), g

    def sample_batch(self, batch_size: int, seed: int):
        # A quadratic "batch" is just the noise key; the key is the seed itself
        # so identical seeds give identical batches.
        return int(seed)

    def init_theta(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([_QINIT_TAG, self.seed, int(seed)])
        z = rng.standard_normal(self.dim)
        for sl, sigma in zip(self.partition.slices, self._init_sigma.tolist()):
            z[sl] *= sigma
        return np.add(self.theta_star, z, out=z)


class _BlockSpectrum:
    """A rank-family spectrum as two numbers per block: block i's first
    eigenvalue is tops[i] and its other d_i - 1 are tails[i].  Each reader
    forms the values it needs, so the task holds no d-sized spectrum."""

    def __init__(self, partition: BlockPartition, tops, tails):
        self.starts = [sl.start for sl in partition.slices]
        self.ends = [sl.stop for sl in partition.slices]
        self.tops, self.tails = tuple(tops), tuple(tails)

    def fill(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """The eigenvalues of coordinates [lo, hi), written into
        out[..., :hi - lo] (each row of (R, n) scratch)."""
        out = out[..., :hi - lo]
        i = bisect_right(self.starts, lo) - 1
        while i < len(self.starts) and self.starts[i] < hi:
            start = self.starts[i]
            out[..., max(start, lo) - lo:min(self.ends[i], hi) - lo] = self.tails[i]
            if start >= lo:
                out[..., start - lo] = self.tops[i]
            i += 1
        return out

    def scale(self, delta: np.ndarray) -> np.ndarray:
        """delta times the eigenvalues, in place: each block times its tail,
        then its first value times its top, with the bits of a dense product."""
        for start, end, top, tail in zip(self.starts, self.ends, self.tops, self.tails):
            first = delta[start]
            delta[start:end] *= tail
            delta[start] = top * first
        return delta


def _quadratic_loss(values, theta_star, eigs, xi, grad=None):
    """0.5 delta'(eigs * delta) + xi'delta with delta = values - theta_star,
    for a (d,) vector or (R, d) rows (xi None: no noise term).  theta_star,
    eigs and xi are (d,), shared by every row, or (R, d), one row each;
    above _DOT_PIECE values eigs may also be a _BlockSpectrum.  Given a
    `grad` buffer of the values' shape, eigs * delta is formed there and xi
    added after the sums, leaving the gradient in it.

    np.vecdot runs one BLAS dot per row, as `@` does for one vector (an
    einsum or a matrix product may sum in another order), so a row's loss
    has the bits of its vector loss; above _DOT_PIECE values both sum the
    same pieces.
    """
    if values.shape[-1] > _DOT_PIECE:
        return _loss_in_pieces(values, theta_star, eigs, xi, grad)
    delta = values - theta_star
    out = 0.5 * np.vecdot(delta, np.multiply(eigs, delta, out=grad))
    if xi is not None:
        out += np.vecdot(delta, xi)
        if grad is not None:
            grad += xi
    return out


def _loss_in_pieces(values, theta_star, eigs, xi, grad=None):
    """_quadratic_loss above _DOT_PIECE values.

    Each dot is summed as paramspace.dot sums it, one BLAS dot per
    _DOT_PIECE-value piece in index order, so its bits do not depend on the
    BLAS thread count.  The piece's delta and eigs * delta go into scratch
    of one piece per row, never a d-sized temporary, or eigs * delta into
    the piece of `grad`, which then takes the piece's xi; a _BlockSpectrum
    forms the piece's eigenvalues where eigs * delta goes, and the product
    then overwrites them.
    """
    d = values.shape[-1]
    delta = np.empty(values.shape[:-1] + (_DOT_PIECE,))
    curved = np.empty_like(delta) if grad is None else None
    dense = isinstance(eigs, np.ndarray)
    quad = noise = None
    for lo in range(0, d, _DOT_PIECE):
        hi = min(lo + _DOT_PIECE, d)
        piece = delta[..., :hi - lo]
        scaled = curved[..., :hi - lo] if grad is None else grad[..., lo:hi]
        np.subtract(values[..., lo:hi], theta_star[..., lo:hi], out=piece)
        lam = eigs[..., lo:hi] if dense else eigs.fill(lo, hi, scaled)
        np.multiply(lam, piece, out=scaled)
        part = np.vecdot(piece, scaled)
        quad = part if quad is None else quad + part
        if xi is not None:
            part = np.vecdot(piece, xi[..., lo:hi])
            noise = part if noise is None else noise + part
            if grad is not None:
                scaled += xi[..., lo:hi]
    out = 0.5 * quad
    if xi is not None:
        out += noise
    return out


class QuadraticRows:
    """The loss oracle of (R, d) rows of several quadratic tasks, row r on
    tasks[r].

    The rows' optima and spectra are stacked into (R, d) arrays, so one call
    evaluates every row, and each row's loss has the bits of its task's
    vector loss: both are _quadratic_loss.  A spectrum goes into its row a
    block at a time.  Rows of one task need no stack: the task's own loss
    takes them.
    """

    def __init__(self, tasks):
        self.tasks = list(tasks)
        self.eigs = np.empty((len(self.tasks), self.tasks[0].dim))
        for row, task in zip(self.eigs, self.tasks):
            for i, sl in enumerate(task.partition.slices):
                row[sl] = task.block_eigs(i)
        self.theta_star = np.stack([task.theta_star for task in self.tasks])
        self.noisy = any(task.noise_tau != 0.0 for task in self.tasks)
        self._key, self._xi = None, None

    def _noise(self, batch) -> np.ndarray:
        if batch != self._key:
            # a noise-free task's row stays zero: adding its +0 leaves the
            # non-negative quadratic term's bits unchanged
            xi = np.zeros_like(self.theta_star)
            for r, task in enumerate(self.tasks):
                drawn = task._batch_noise(batch)
                if drawn is not None:
                    xi[r] = drawn
            self._key, self._xi = batch, xi
        return self._xi

    def __call__(self, values: np.ndarray, batch) -> np.ndarray:
        return _quadratic_loss(values, self.theta_star, self.eigs,
                               self._noise(batch) if self.noisy else None)


def check_ranks(where: str, block_sizes, ranks) -> None:
    """A ConfigError naming `where` unless each block has one rank in [1, d_i]."""
    if len(ranks) != len(block_sizes):
        raise ConfigError(f"{where} has {len(ranks)} ranks for {len(block_sizes)} blocks")
    for i, (rank, size) in enumerate(zip(ranks, block_sizes)):
        if not 1 <= rank <= size:
            raise ConfigError(f"{where}: rank {rank:g} of block {i} is infeasible "
                              f"for its size {size}")


def make_rank_family(block_sizes, ranks, opnorms, **kwargs) -> QuadraticTask:
    """Build a quadratic whose block spectra hit the requested effective ranks.

    Block i gets one eigenvalue equal to opnorms[i] and an equal tail chosen so
    tr / op == ranks[i] exactly: the d_i - 1 remaining eigenvalues are all
    opnorms[i] * (r_i - 1) / (d_i - 1).  Above _DOT_PIECE values the task
    keeps these two numbers per block, not a (d,) spectrum.
    """
    return _rank_task(None, block_sizes, ranks, opnorms, **kwargs)


def _tail(size: int, rank: float, top: float) -> float:
    """The value of a block's size - 1 equal eigenvalues after its top one
    that makes tr / op == rank.  A block of one value has no tail, and its
    top stands in."""
    return top * (rank - 1.0) / (size - 1.0) if size > 1 else top


def _rank_task(partition, block_sizes, ranks, opnorms, **kwargs) -> QuadraticTask:
    """make_rank_family on `partition` of block_sizes, or on a new one if None."""
    block_sizes = [int(s) for s in block_sizes]
    ranks = [float(r) for r in ranks]
    opnorms = [float(L) for L in opnorms]
    check_ranks("ranks", block_sizes, ranks)
    if len(opnorms) != len(block_sizes):
        raise ConfigError("block_sizes and opnorms must have equal length")
    if partition is None:
        partition = BlockPartition([(f"block{i}", s) for i, s in enumerate(block_sizes)])
    for i, L in enumerate(opnorms):
        if L <= 0:
            raise ConfigError(f"block {i}: operator norm must be positive")
    d = partition.total
    eigs = _BlockSpectrum(partition, opnorms, map(_tail, block_sizes, ranks, opnorms))
    if d <= _DOT_PIECE:
        # the small-d loss multiplies by a dense spectrum in one call; the task
        # keeps that array, not fill's view of it
        dense = np.empty(d)
        eigs.fill(0, d, dense)
        eigs = dense
    theta_star = kwargs.pop("theta_star", None)
    if theta_star is None:
        theta_star = np.zeros(d)
    return QuadraticTask(partition, eigs, theta_star, **kwargs)


@dataclass
class QuadraticFamily:
    """Generator of related quadratic tasks sharing a partition and rank profile.

    Each task index gives a fresh optimum shift, so a scale policy learned on
    some members transfers to held-out ones.  Its spectra are rescaled (a
    log-uniform factor per block) only when `opnorm_jitter > 0`, and the
    default is 0: every task then shares the family's spectra.
    """

    block_sizes: tuple = (4, 28)
    ranks: tuple = (1.0, 28.0)
    opnorms: tuple = (1.0, 1.0)
    opnorm_jitter: float = 0.0  # multiplicative log-uniform jitter per task
    shift_scale: float = 1.0
    init_scale: float | tuple = 1.0  # scalar, or one entry per block
    noise_tau: float = 0.0
    seed: int = 0
    # made by the first task, then shared by every task of the family
    _partition: BlockPartition | None = field(default=None, init=False, repr=False,
                                              compare=False)

    def make_task(self, index: int) -> QuadraticTask:
        rng = np.random.default_rng([self.seed, int(index)])
        opnorms = np.asarray(self.opnorms, dtype=np.float64)
        if self.opnorm_jitter > 0:
            opnorms = opnorms * np.exp(
                rng.uniform(-self.opnorm_jitter, self.opnorm_jitter, size=len(opnorms))
            )
        d = int(np.sum(self.block_sizes))
        shift = self.shift_scale * rng.standard_normal(d)
        task = _rank_task(
            self._partition,
            self.block_sizes,
            self.ranks,
            opnorms,
            theta_star=shift,
            noise_tau=self.noise_tau,
            init_scale=self.init_scale,
            seed=self.seed * 1000003 + index,
            name=f"quad{index}",
        )
        self._partition = task.partition
        return task

    def make_tasks(self, n: int, start: int = 0):
        return [self.make_task(start + k) for k in range(n)]


# ---------------------------------------------------------------------------
# Small MLP classifier


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class MLPTask:
    """Two-layer tanh classifier on synthetic Gaussian blobs, softmax CE loss.

    The flat parameter layout is always W1 | b1 | W2 | b2; the partition either
    names each tensor ("block" granularity, 4 blocks) or groups each layer's
    weight and bias ("layer" granularity, 2 blocks).
    """

    n_in: int = 4
    n_hidden: int = 8
    n_out: int = 3
    n_samples: int = 120
    data_seed: int = 0
    granularity: str = "block"
    name: str = "mlp"
    partition: BlockPartition = field(init=False)
    X: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = {
            "W1": self.n_in * self.n_hidden,
            "b1": self.n_hidden,
            "W2": self.n_hidden * self.n_out,
            "b2": self.n_out,
        }
        if self.granularity == "block":
            self.partition = BlockPartition(list(sizes.items()))
        elif self.granularity == "layer":
            self.partition = BlockPartition(
                [
                    ("layer1", sizes["W1"] + sizes["b1"]),
                    ("layer2", sizes["W2"] + sizes["b2"]),
                ]
            )
        else:
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        rng = np.random.default_rng([_DATA_TAG, self.data_seed])
        means = rng.normal(0.0, 2.0, size=(self.n_out, self.n_in))
        self.y = np.arange(self.n_samples) % self.n_out
        self.X = means[self.y] + rng.standard_normal((self.n_samples, self.n_in))

    def _unpack(self, values: np.ndarray):
        i, h, o = self.n_in, self.n_hidden, self.n_out
        w1 = values[: i * h].reshape(i, h)
        b1 = values[i * h : i * h + h]
        w2 = values[i * h + h : i * h + h + h * o].reshape(h, o)
        b2 = values[i * h + h + h * o :]
        return w1, b1, w2, b2

    def init_theta(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng([_MINIT_TAG, self.data_seed, int(seed)])
        i, h, o = self.n_in, self.n_hidden, self.n_out
        w1 = rng.standard_normal((i, h)) / np.sqrt(i)
        w2 = rng.standard_normal((h, o)) / np.sqrt(h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(o)])

    def sample_batch(self, batch_size: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng([_BATCH_TAG, self.data_seed, int(seed)])
        replace = batch_size > self.n_samples
        return rng.choice(self.n_samples, size=batch_size, replace=replace)

    def _forward(self, values: np.ndarray, batch):
        """(w2, inputs, labels, hidden activations, class probabilities) of
        the batch."""
        w1, b1, w2, b2 = self._unpack(values)
        xb, yb = self.X[batch], self.y[batch]
        hidden = np.tanh(xb @ w1 + b1)
        return w2, xb, yb, hidden, _softmax_rows(hidden @ w2 + b2)

    def loss(self, values: np.ndarray, batch):
        """A float for a (d,) vector, R losses for (R, d) rows."""
        if values.ndim > 1:
            return np.array([self.loss(row, batch) for row in values])
        _, _, yb, _, probs = self._forward(values, batch)
        return _cross_entropy(probs, yb)

    def grad(self, values: np.ndarray, batch) -> np.ndarray:
        return _backprop(*self._forward(values, batch))

    def loss_and_grad(self, values: np.ndarray, batch) -> tuple[float, np.ndarray]:
        """(loss, grad) of a (d,) vector from one forward pass."""
        w2, xb, yb, hidden, probs = self._forward(values, batch)
        return _cross_entropy(probs, yb), _backprop(w2, xb, yb, hidden, probs)


def _cross_entropy(probs: np.ndarray, yb: np.ndarray) -> float:
    return float(-np.mean(np.log(probs[np.arange(len(yb)), yb])))


def _backprop(w2, xb, yb, hidden, probs) -> np.ndarray:
    """The flat W1 | b1 | W2 | b2 gradient of the mean cross-entropy, from
    MLPTask._forward's values."""
    n = len(yb)
    dlogits = probs.copy()
    dlogits[np.arange(n), yb] -= 1.0
    dlogits /= n
    gw2 = hidden.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dhidden = (dlogits @ w2.T) * (1.0 - hidden**2)
    gw1 = xb.T @ dhidden
    gb1 = dhidden.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
