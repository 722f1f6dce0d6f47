"""Flat parameter vectors split into named blocks, with seeded Gaussian perturbations.

Perturbation noise is never stored: every draw is regenerated bit-exactly from a
(seed, stream) pair, consumed block by block, so a perturbation can be applied,
reversed, and re-applied without keeping a second parameter-sized buffer alive.
A stream is reached by rewinding one shared generator to its seed's base state
and advancing it, so nothing is kept per stream, and a run's memory does not
grow with its step count.
A walk can apply several moves along one regeneration.  A partition of one
span (d <= 32768 values) keeps its noise between walks, so the three walks of
an optimizer step draw it once, and its scratch is one chunk per row.  A longer
one regenerates its noise on every walk, one 8192-value piece at a time into
reused scratch, so its scratch is one piece of noise and one piece per row at
any dimension: no more than a loss call's two pieces per row.  Parameters are
(R, d) rows, one per run of a population, and a single (d,) vector walks as
one row: the rows share one noise stream, so one draw serves every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidScaleError, NumericOverflowError, PartitionMismatchError

# Domain-separation tag so block-noise streams never collide with other
# rng streams derived from the same user seed.
_NOISE_TAG = 0x5A0F7B10C

# A walk regenerates noise this many float64 values (256 KiB) at a time.
# Generator draws fill their output sequentially, so where a span starts or
# ends, within a block or across blocks, does not change the stream.
_CHUNK = 32768

# A BLAS dot of at most this many values is one single-threaded kernel call.
# OpenBLAS splits a longer ddot over its threads (from 10,000 values in its
# kernel sources), and the split changes the rounding, so `dot` sums longer
# vectors as pieces of this size and a result does not depend on the thread
# count.
_DOT_PIECE = 8192


class BlockPartition:
    """Ordered, contiguous, non-overlapping named blocks over [0, d)."""

    def __init__(self, blocks):
        names = [name for name, _ in blocks]
        sizes = [int(size) for _, size in blocks]
        if not blocks:
            raise ValueError("partition needs at least one block")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        if len(set(names)) != len(names):
            raise ValueError(f"block names must be unique, got {names}")
        self.names = tuple(names)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.total = int(self.sizes.sum())
        # hot loops index these tuples instead of rebuilding slices per call
        self.py_sizes = tuple(sizes)
        offs = np.cumsum([0, *sizes[:-1]]).tolist()
        self.slices = tuple(
            slice(o, o + s) for o, s in zip(offs, sizes)
        )
        self.spans = _span_plan(offs, sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, BlockPartition)
            and self.names == other.names
            and np.array_equal(self.sizes, other.sizes)
        )

    def __repr__(self):
        parts = ", ".join(f"{n}:{s}" for n, s in zip(self.names, self.sizes))
        return f"BlockPartition({parts})"


def _span_plan(offsets, sizes) -> tuple:
    """The noise walk's plan: [0, d) cut into spans of up to _CHUNK values.

    A span may cover several blocks, and a block wider than a chunk spreads
    over several spans.  Each span is (slice, length, lengths, blocks): the
    blocks it covers as a slice of block indices, and the length of each
    one's share of the span, in partition order (None when the span lies
    inside one block, whose factor column broadcasts over it).  A walk of
    several spans, and meta_trainer.meta_loss, cut each into _DOT_PIECE-value
    pieces as they go (_span_pieces), so the plan holds no per-piece entry.
    """
    total, n = offsets[-1] + sizes[-1], len(sizes)
    spans, i = [], 0
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        first, lengths = i, []
        while i < n and offsets[i] < hi:
            end = offsets[i] + sizes[i]
            lengths.append(min(end, hi) - max(offsets[i], lo))
            if end > hi:
                break  # the block goes on in the next span
            i += 1
        spans.append((slice(lo, hi), hi - lo,
                      np.array(lengths, dtype=np.intp) if len(lengths) > 1 else None,
                      slice(first, first + len(lengths))))
    return tuple(spans)


@dataclass
class ParamVector:
    """A length-d float64 vector, or (R, d) rows of them, tied to a partition."""

    values: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != self.partition.total:
            raise PartitionMismatchError(
                f"vector length {self.values.shape} does not match partition "
                f"total {self.partition.total}"
            )
        # min and max propagate a nan, and need no d-sized mask
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise NumericOverflowError("parameter vector contains non-finite entries")


@dataclass
class PerturbScales:
    """One standard deviation per block; the sampling law is u|block i = stds[i] * z.

    stds is (n_blocks,), or (R, n_blocks) with one row per population row.
    """

    stds: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        self.stds = np.asarray(self.stds, dtype=np.float64)
        if self.stds.ndim not in (1, 2) or self.stds.shape[-1] != self.partition.n_blocks:
            raise PartitionMismatchError(
                f"expected {self.partition.n_blocks} scales, got {self.stds.shape}"
            )
        # one pass over valid scales; a failure then names what is wrong
        if np.count_nonzero((self.stds > 0.0) & (self.stds < np.inf)) == self.stds.size:
            return
        if not np.isfinite(self.stds).all():
            raise InvalidScaleError("scales must be finite")
        raise InvalidScaleError(f"scales must be strictly positive, got {self.stds}")

    @classmethod
    def _wrap(cls, stds: np.ndarray, partition: BlockPartition) -> "PerturbScales":
        """Unchecked: for float64 scales of the right shape that the package
        has just checked itself (see zo_optimizer._used_scales).  Scales from
        outside go through __init__."""
        scales = cls.__new__(cls)
        scales.stds, scales.partition = stds, partition
        return scales

    @classmethod
    def unit(cls, partition: BlockPartition) -> "PerturbScales":
        return cls(np.ones(partition.n_blocks), partition)


@dataclass(frozen=True)
class NoiseSeed:
    """Key for a regenerable noise stream.  Same (seed, stream) -> same bits."""

    seed: int
    stream: int = 0


# Stream stride: odd constant near 2**128 / golden ratio, the same spacing
# numpy's PCG64.jumped uses.  Power-of-two strides are unsafe here: A**(2**k)
# is congruent to 1 modulo a large power of two, which leaves the low state
# bits of different streams related by a constant offset.
_STREAM_STRIDE = 0x9E3779B97F4A7C15F39CC0605CEDC835
_STATE_MASK = (1 << 128) - 1


@lru_cache(maxsize=None)
def _base_rng_state(seed: int):
    return np.random.PCG64(np.random.SeedSequence([_NOISE_TAG, seed])).state


@lru_cache(maxsize=None)
def _generator() -> np.random.Generator:
    """The one generator every walk rewinds, made on first use.  Walks never
    interleave: the package runs single-threaded, and a walk draws all of
    its noise before returning."""
    return np.random.Generator(np.random.PCG64(0))


def _stream_rng(seed: NoiseSeed) -> np.random.Generator:
    """Generator rewound to the start of the (seed, stream) noise stream.

    Stream k of a given seed is PCG64 seeded from (tag, seed) and advanced by
    k * stride states; blocks are drawn from it sequentially in partition
    order.  Only the seed's base state is cached: every call rewinds the
    module's generator to it and advances, so nothing is kept per stream,
    although every optimizer step opens a new one.
    """
    gen = _generator()
    bits = gen.bit_generator
    bits.state = _base_rng_state(seed.seed)
    if seed.stream:
        bits.advance((seed.stream * _STREAM_STRIDE) & _STATE_MASK)
    return gen


def _check_scales(partition: BlockPartition, scales: PerturbScales) -> None:
    if scales.partition is partition:  # the common case, skip the field compare
        return
    if scales.partition != partition:
        raise PartitionMismatchError("scales were built for a different partition")


class _KeptNoise:
    """The z of the last one-span walk, so that the walks of a step draw it once.

    A partition of one span (d <= _CHUNK) draws all of its z in one call.
    The key (seed, stream, d) names that draw: a walk with another seed,
    stream or length draws afresh into the buffer, so a kept z is never
    stale.  The buffer holds one span, at most one chunk.
    """

    def __init__(self):
        self.key = None
        self.z = np.empty(0)

    def draw(self, seed: NoiseSeed, n: int) -> np.ndarray:
        key = (seed.seed, seed.stream, n)
        if key != self.key:
            self.key = None  # no key names a half-drawn buffer
            if len(self.z) != n:
                self.z = None  # free the old span before taking the new one
                self.z = np.empty(n)
            _stream_rng(seed).standard_normal(out=self.z)
            self.key = key
        return self.z


_KEPT = _KeptNoise()


def perturb_in_place(
    theta: ParamVector, scales: PerturbScales, seed: NoiseSeed, *steps
) -> None:
    """theta <- theta + step * u(seed, scales) for each step in order.

    theta holds (R, d) rows, or one (d,) vector that walks as one row;
    scales hold one row per theta row or one set that every row shares, and
    each step is one value, or one value per row.  Every row sees the same
    z, so z is drawn once for all.  Each step's factors step * stds[i] are
    formed in one multiply per span (see _span_plan) and spread over the
    values they scale, or broadcast where the values lie inside one block,
    so the result is bit-identical to one call per step, per row and per
    block.

    A partition of one span (d <= 32768 values) draws its z in one call and
    keeps it between calls, so the three walks of an optimizer step draw it
    once; its scratch is one chunk per row, for the moves.  The one span
    covers every value and every block, so such a walk slices neither theta
    nor the scales.  A longer partition regenerates u on every walk, one
    _DOT_PIECE-value piece at a time: each piece's z is drawn in one call
    from the stream, and every step is applied to it before the next piece
    is drawn.  Its scratch is one piece of z and one piece per row, no more
    than a loss call's, never a block- or d-sized buffer, which is the
    whole point of the store-a-seed design.  Either way each walk applies
    the same z bits.

    Nothing here checks for overflow: the caller checks finiteness once per
    step, since one row's overflow must not stop the others.
    """
    partition = theta.partition
    _check_scales(partition, scales)
    rows = theta.values.reshape(-1, partition.total)  # a view, for a vector too
    # (n_blocks, R): through the transpose, a step of one value per row
    # scales each row's factors
    per_block = scales.stds.reshape(-1, partition.n_blocks).T
    spans = partition.spans
    if len(spans) == 1:
        z, lengths = _KEPT.draw(seed, partition.total), spans[0][2]
        for step in steps:
            _add_move(rows, (per_block * step).T, lengths, z)
        return
    gen, z_buf = _stream_rng(seed), np.empty(_DOT_PIECE)
    for sl, n, lengths, blocks in spans:
        dst = rows[:, sl]
        factors = [(per_block[blocks] * step).T for step in steps]
        for lo, hi, piece_lengths in _span_pieces(n, lengths):
            z = z_buf[:hi - lo]
            gen.standard_normal(out=z)
            for factor in factors:
                _add_move(dst[:, lo:hi], factor, piece_lengths, z)


def _span_pieces(n: int, lengths) -> list:
    """The _DOT_PIECE-value pieces of a span of n values whose blocks have
    `lengths` (a _span_plan entry): (lo, hi, piece_lengths) of each, in
    order, with the piece's length of each of the span's blocks, 0 for one
    outside it.  piece_lengths is None where lengths is (the span lies
    inside one block), and lengths itself where the span is one piece.  A
    span holds at most four pieces."""
    if n <= _DOT_PIECE:
        return [(0, n, lengths)]
    if lengths is None:
        return [(lo, min(lo + _DOT_PIECE, n), None) for lo in range(0, n, _DOT_PIECE)]
    # where each of the span's blocks starts and ends within it
    bounds = np.append(0, lengths.cumsum())
    pieces = []
    for lo in range(0, n, _DOT_PIECE):
        hi = min(lo + _DOT_PIECE, n)
        cut = np.minimum(np.maximum(bounds, lo), hi)
        pieces.append((lo, hi, cut[1:] - cut[:-1]))
    return pieces


def _add_move(dst, factor, lengths, z) -> None:
    """dst += each value's factor times z.  factor is (R, blocks), each
    column spread over its block's length of the values, or one column
    broadcast over all of them when lengths is None."""
    if lengths is None:
        dst += factor * z
    else:
        move = factor.repeat(lengths, axis=1)
        move *= z
        dst += move


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two 1-D float64 arrays, with bits that do not depend on the
    BLAS thread count: up to _DOT_PIECE values it is that one call, above it
    the sum, in index order, of one such call per _DOT_PIECE-value piece."""
    if len(a) <= _DOT_PIECE:
        return float(a @ b)
    total = float(a[:_DOT_PIECE] @ b[:_DOT_PIECE])
    for lo in range(_DOT_PIECE, len(a), _DOT_PIECE):
        total += float(a[lo:lo + _DOT_PIECE] @ b[lo:lo + _DOT_PIECE])
    return total


def _squared_deviations(vals: np.ndarray, mean, out=None):
    """np.add.reduce((vals - mean)**2, axis=-1), bit for bit, with scratch of
    at most one _DOT_PIECE-value piece per row, written into `out` when it
    is given.

    numpy sums a contiguous run pairwise: a run of over 128 values is the
    sum of its halves, split at n2 = n // 2 rounded down to a multiple of 8,
    whatever the length.  So a run wider than a piece is split the same
    way, and the halves' sums add up to the run's.
    """
    n = vals.shape[-1]
    if n > _DOT_PIECE:
        half = n // 2
        half -= half % 8
        return np.add(_squared_deviations(vals[..., :half], mean),
                      _squared_deviations(vals[..., half:], mean), out=out)
    dev = np.subtract(vals, mean)
    np.square(dev, out=dev)
    return np.add.reduce(dev, axis=-1, out=out)


def block_stats(theta: ParamVector, out=None):
    """Arithmetic mean and population variance (divide by d_i) of every block.

    Two (..., n_blocks) arrays: (n_blocks,) for a vector, (R, n_blocks) for
    rows, written into `out`, a (means, variances) pair of such arrays (two
    columns of a feature array, say), when it is given.  Each entry is bit
    for bit np.mean and np.var of its block: the same ufunc reductions on
    the same values, without numpy's Python-level wrappers.  A vector's
    statistics are numpy scalars, divided one block at a time.  Rows reduce
    each block straight into its column, and divide the sums and the
    squared deviations by the block sizes in one call each.  The deviations
    of a partition of one span (d <= 32768 values) are formed for every
    block at once, one chunk per row; a longer partition's are formed a
    block and a _DOT_PIECE-value piece at a time (see _squared_deviations),
    one piece per row, less than a loss call's scratch.
    """
    values, partition = theta.values, theta.partition
    if out is None:
        shape = values.shape[:-1] + (partition.n_blocks,)
        out = np.empty(shape), np.empty(shape)
    means, variances = out
    slices = partition.slices
    # each reduction runs along one row's memory, exactly as np.mean's over
    # that row alone, so rows match their vectors too
    if values.ndim == 1:
        for i, (sl, n) in enumerate(zip(slices, partition.py_sizes)):
            vals = values[sl]
            means[i] = mean = np.add.reduce(vals) / n
            variances[i] = _squared_deviations(vals, mean) / n
        return means, variances
    sizes = partition.sizes
    for i, sl in enumerate(slices):
        np.add.reduce(values[:, sl], axis=1, out=means[:, i])
    np.divide(means, sizes, out=means)
    if len(partition.spans) == 1:
        dev = np.subtract(values, means.repeat(sizes, axis=1))
        np.square(dev, out=dev)
        for i, sl in enumerate(slices):
            np.add.reduce(dev[:, sl], axis=1, out=variances[:, i])
    else:
        for i, sl in enumerate(slices):
            _squared_deviations(values[:, sl], means[:, i, None], out=variances[:, i])
    np.divide(variances, sizes, out=variances)
    return means, variances
