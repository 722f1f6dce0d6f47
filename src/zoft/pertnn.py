"""Per-block scale generator: a two-layer tanh MLP with a softplus output head.

Every parameter block has its own network mapping five step statistics (last
two perturbed losses, last scale, current block mean and variance) to one
positive raw standard deviation.  The B networks share one hidden width H and
are stored stacked along a leading block axis: W1 (B, H, 5), b1 (B, H),
W2 (B, H) and b2 (B,), views of one flat buffer in that order, so a copy,
an update or a backward pass writes one array.  One batched forward and one
batched backward serve every block at once.  The forward pass's first layer
is a batched `@` and its second np.vecdot, one dot per block and row; both
reproduce the per-block products bit for bit, and the bias and tanh are
applied in place.
The sigmoid in the backward pass stays the scalar `math.exp` form, because
numpy's vectorised exp rounds differently.
Checkpoints are a line-oriented text format, written and read a line at a
time; both directions walk one layout, `_block_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointError,
    ContractViolationError,
    DimensionMismatchError,
    MagicMismatchError,
    NumericOverflowError,
    TruncatedCheckpointError,
)
from .paramspace import BlockPartition, NoiseSeed, PartitionMismatchError

N_FEATURES = 5
CHECKPOINT_MAGIC = "ZOFT-PERTNN v1"

_INIT_TAG = 0x1417BEE

# softplus(b2) == 1 at zero input, so a fresh network starts near unit scales.
_B2_INIT = math.log(math.e - 1.0)

# the weight arrays' names, in buffer and checkpoint order
_WHAT = ("W1", "b1", "W2", "b2")


class PertNNParams:
    """Weights of every block's network, stacked along the block axis.

    w1 (B, hidden, 5), b1 (B, hidden), w2 (B, hidden), b2 (B,); block i's
    network is w1[i], b1[i], w2[i], b2[i].  The four are views of one flat
    buffer, `flat`, in that order, so a copy or an update is one call.
    """

    def __init__(self, block_names, hidden, w1, b1, w2, b2):
        if hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {hidden}")
        self._allot(block_names, hidden)
        for what, mine, arr in zip(_WHAT, self.arrays, (w1, b1, w2, b2)):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != mine.shape:
                raise ValueError(f"{what} shape {arr.shape}, expected {mine.shape}")
            mine[...] = arr
        self._check_finite()

    def _allot(self, block_names, hidden) -> None:
        """Name the blocks and give them one uninitialised flat buffer."""
        self.block_names = tuple(block_names)
        self.hidden = int(hidden)
        n, h = len(self.block_names), self.hidden
        # where b1, W2 and b2 start
        b1, w2, b2 = n * h * N_FEATURES, n * h * (N_FEATURES + 1), n * h * (N_FEATURES + 2)
        flat = self.flat = np.empty(b2 + n)
        self.w1 = flat[:b1].reshape(n, h, N_FEATURES)
        self.b1 = flat[b1:w2].reshape(n, h)
        self.w2 = flat[w2:b2].reshape(n, h)
        self.b2 = flat[b2:]

    @classmethod
    def _empty(cls, block_names, hidden) -> "PertNNParams":
        """Unchecked and uninitialised: for weights that the package writes
        itself, such as gradients, or checks after writing, as load does.
        Weights from outside go through __init__."""
        params = cls.__new__(cls)
        params._allot(block_names, hidden)
        return params

    def _check_finite(self) -> None:
        """NumericOverflowError naming the first weight array, in W1, b1, W2,
        b2 order, that holds a non-finite value, and its first such block."""
        for what, arr in zip(_WHAT, self.arrays):
            if not np.isfinite(arr).all():
                name = self.block_names[np.argwhere(~np.isfinite(arr))[0][0]]
                raise NumericOverflowError(f"block {name}: non-finite {what}")

    @property
    def n_blocks(self) -> int:
        return len(self.block_names)

    @property
    def arrays(self) -> tuple:
        return (self.w1, self.b1, self.w2, self.b2)

    def copy(self) -> "PertNNParams":
        out = PertNNParams._empty(self.block_names, self.hidden)
        out.flat[:] = self.flat
        out._check_finite()
        return out

    def add_scaled(self, other: "PertNNParams", factor: float) -> None:
        """In-place self += factor * other (used for SGD updates); `other`
        is left as it was."""
        if other.block_names != self.block_names or other.hidden != self.hidden:
            raise PartitionMismatchError("parameter shapes do not match")
        self.flat += factor * other.flat


@dataclass
class ForwardCache:
    """Activations of one forward pass over every block, block axis leading."""

    x: np.ndarray
    h: np.ndarray  # tanh activations
    y: np.ndarray  # pre-softplus output


def _sigmoid(y: float) -> float:
    # stable in both tails
    if y >= 0:
        return 1.0 / (1.0 + math.exp(-y))
    e = math.exp(y)
    return e / (1.0 + e)


def forward_all(params: PertNNParams, features: np.ndarray):
    """raw = softplus(W2 . tanh(W1 x + b1) + b2) for every block.

    features is (n_blocks, 5), or (R, n_blocks, 5) for R rows in one batched
    pass.  Returns (raw_stds, cache); raw_stds has the features' shape without
    the last axis.  Nothing is checked here: a step checks every row once
    (see zo_optimizer._used_scales).
    """
    if features.ndim not in (2, 3) or features.shape[-2:] != (params.n_blocks, N_FEATURES):
        raise PartitionMismatchError(
            f"expected features of shape ([R,] {params.n_blocks}, {N_FEATURES}), "
            f"got {features.shape}"
        )
    h = (params.w1 @ features[..., None])[..., 0]
    h += params.b1
    np.tanh(h, out=h)
    y = np.vecdot(params.w2, h)
    y += params.b2
    return np.logaddexp(0.0, y), ForwardCache(x=features, h=h, y=y)


def backward(params: PertNNParams, cache: ForwardCache, upstream):
    """Exact gradients of sum_i upstream_i * raw_std_i over every block.

    `upstream` is a scalar or one value per block, and the cache is of one
    (n_blocks, 5) feature matrix.  Returns the parameter gradients, written
    into one new buffer that aliases neither the parameters nor the cache,
    unchecked.
    """
    w2 = params.w2
    if cache.h.shape != w2.shape or cache.x.shape != params.w1.shape[:-2] + (N_FEATURES,):
        raise ContractViolationError("cache does not match these parameters")
    grads = PertNNParams._empty(params.block_names, params.hidden)
    dy = np.multiply(upstream, [_sigmoid(v) for v in cache.y.tolist()], out=grads.b2)
    # dpre = (dy * w2) * (1 - h**2), in b1's place, with 1 - h**2 in W2's
    # until W2's gradient overwrites it: no temporary of the weights' size
    dpre = np.multiply(dy[..., None], w2, out=grads.b1)
    slope = np.square(cache.h, out=grads.w2)
    dpre *= np.subtract(1.0, slope, out=slope)
    np.multiply(dpre[..., :, None], cache.x[..., None, :], out=grads.w1)
    np.multiply(dy[..., None], cache.h, out=grads.w2)
    return grads


def init(partition: BlockPartition, hidden: int = 64, seed: NoiseSeed = NoiseSeed(0)) -> PertNNParams:
    """Small uniform init (+-1/sqrt(fan_in)); b2 set so output at zero input ~ 1.

    Each block draws from its own stream, so a block's weights do not depend
    on how many blocks come before it.
    """
    params = constant_params(partition, hidden)
    lim1 = 1.0 / math.sqrt(N_FEATURES)
    lim2 = 1.0 / math.sqrt(hidden)
    for i in range(partition.n_blocks):
        rng = np.random.default_rng([_INIT_TAG, seed.seed, seed.stream, i])
        params.w1[i] = rng.uniform(-lim1, lim1, size=(hidden, N_FEATURES))
        params.b1[i] = rng.uniform(-lim1, lim1, size=hidden)
        params.w2[i] = rng.uniform(-lim2, lim2, size=hidden)
    return params


def constant_params(partition: BlockPartition, hidden: int = 64) -> PertNNParams:
    """All-zero weights with b2 = ln(e-1): every block outputs exactly 1."""
    n = partition.n_blocks
    return PertNNParams(
        partition.names, hidden,
        np.zeros((n, hidden, N_FEATURES)), np.zeros((n, hidden)),
        np.zeros((n, hidden)), np.full(n, _B2_INIT),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _block_rows(params: PertNNParams, i: int):
    """Block i's lines after its name, in file order: (what, view) for each,
    the view being the weights that the line holds."""
    for r, row in enumerate(params.w1[i]):
        yield f"W1 row {r}", row
    yield "b1", params.b1[i]
    yield "W2", params.w2[i]
    yield "b2", params.b2[i:i + 1]


def _checkpoint_lines(params: PertNNParams):
    """The checkpoint's lines, made one at a time."""
    yield CHECKPOINT_MAGIC
    yield f"blocks={params.n_blocks} hidden={params.hidden} features={N_FEATURES}"
    for i, name in enumerate(params.block_names):
        yield name
        for _, row in _block_rows(params, i):
            yield " ".join(map(_fmt, row))


def save(params: PertNNParams, path) -> None:
    """Write the checkpoint a line at a time: the file is binary, so each
    encoded line goes straight into its buffer, and the text is never held
    whole."""
    with open(path, "wb") as f:
        for line in _checkpoint_lines(params):
            f.write(f"{line}\n".encode())


def _parse_floats(line: str, out: np.ndarray, what: str) -> None:
    fields = line.split()
    if len(fields) != out.size:
        raise DimensionMismatchError(f"{what}: expected {out.size} fields, got {len(fields)}")
    try:
        out[:] = [float(v) for v in fields]
    except ValueError as exc:
        raise DimensionMismatchError(f"{what}: {exc}") from exc


def _text_lines(f, path):
    """The binary file's lines, decoded one at a time, newline stripped; a
    byte that is not UTF-8 is named by its offset in the file."""
    at = 0
    for raw in f:
        try:
            yield raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: not UTF-8 text: {exc.reason} at byte {at + exc.start}") from exc
        at += len(raw)


def load(path) -> PertNNParams:
    """Read a checkpoint a line at a time, each line parsed straight into the
    weights it holds (see _block_rows)."""
    with open(path, "rb") as f:
        lines = _text_lines(f, path)
        magic = next(lines, None)
        if magic != CHECKPOINT_MAGIC:
            got = "<empty file>" if magic is None else magic
            raise MagicMismatchError(f"expected magic {CHECKPOINT_MAGIC!r}, got {got!r}")
        header = next(lines, None)
        if header is None:
            raise TruncatedCheckpointError("missing header line")
        try:
            fields = dict(kv.split("=", 1) for kv in header.split())
            n_blocks, hidden, features = (
                int(fields[k]) for k in ("blocks", "hidden", "features"))
        except (KeyError, ValueError) as exc:
            raise DimensionMismatchError(f"malformed header {header!r}") from exc
        if features != N_FEATURES:
            raise DimensionMismatchError(f"unsupported feature count {features}")
        if n_blocks < 1 or hidden < 1:
            raise DimensionMismatchError(
                f"header declares {n_blocks} blocks of width {hidden}")
        names = [""] * n_blocks  # each filled in as its line is read
        params = PertNNParams._empty(names, hidden)
        try:
            for b in range(n_blocks):
                names[b] = next(lines)
                for what, row in _block_rows(params, b):
                    _parse_floats(next(lines), row, f"block {b} {what}")
        except StopIteration:
            raise TruncatedCheckpointError(
                f"file declares {n_blocks} blocks but ends inside block {b}") from None
    params.block_names = tuple(names)
    try:
        params._check_finite()
    except NumericOverflowError as exc:
        # `float` reads "nan", "inf" and "1e999" as weights
        raise CheckpointError(f"{path}: {exc}") from exc
    return params
