"""Flat parameter vectors split into named blocks, with seeded Gaussian perturbations.

Perturbation noise is never stored: every draw is regenerated bit-exactly from a
(seed, stream) pair, consumed block by block, so a perturbation can be applied,
reversed, and re-applied without keeping a second parameter-sized buffer alive.
A stream is reached by rewinding one shared generator to its seed's base state
and advancing it, so nothing is kept per stream, and a run's memory does not
grow with its step count.
A walk regenerates the noise in fixed-size chunks into reused scratch, so its
own memory is O(chunk) at any dimension, and it can apply several moves along
one regeneration.  A partition of one span (d <= 32768 values) keeps its noise
between walks, so the three walks of an optimizer step draw it once; a longer
one regenerates it on every walk.  Parameters are (R, d) rows, one per run of
a population, and a single (d,) vector walks as one row: the rows share one
noise stream, so one draw serves every row.
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
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        self.total = int(self.sizes.sum())
        # hot loops index these tuples instead of rebuilding slices per call
        self.py_sizes = tuple(sizes)
        offs = [int(o) for o in self.offsets]
        self.slices = tuple(
            slice(o, o + s) for o, s in zip(offs, sizes)
        )
        self.spans = _span_plan(offs, sizes)
        self.max_span = min(_CHUNK, self.total)

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
    one's piece of the span, in partition order (None when the span lies
    inside one block, whose factor column broadcasts over it).
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

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.partition)


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

    def per_coordinate(self) -> np.ndarray:
        """Expand to a length-d vector of per-coordinate standard deviations."""
        return np.repeat(self.stds, self.partition.sizes)

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
    gen.bit_generator.state = _base_rng_state(seed.seed)
    if seed.stream:
        gen.bit_generator.advance((seed.stream * _STREAM_STRIDE) & _STATE_MASK)
    return gen


def _check_scales(partition: BlockPartition, scales: PerturbScales) -> None:
    if scales.partition is partition:  # the common case, skip the field compare
        return
    if scales.partition != partition:
        raise PartitionMismatchError("scales were built for a different partition")


def sample_block_noise(
    partition: BlockPartition, scales: PerturbScales, seed: NoiseSeed
) -> np.ndarray:
    """Draw u of length d with u|block i = stds[i] * z, z iid standard normal.

    The draw is a pure function of (seed, scales): the z values come from one
    deterministic stream consumed block by block in partition order, so
    regeneration is bit-exact and scales enter only as per-block multipliers.
    """
    _check_scales(partition, scales)
    u = np.empty(partition.total)
    gen = _stream_rng(seed)
    for i, (sl, n) in enumerate(zip(partition.slices, partition.py_sizes)):
        u[sl] = scales.stds[i] * gen.standard_normal(n)
    return u


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
    z, so z is drawn once for all.  u is regenerated once, span by span (see
    _span_plan): each span's z is drawn in one call, and every step is
    applied to it before the next span is drawn.  Each step's factors
    step * stds[i] are formed once per walk and spread over the values of
    each span, or broadcast where the span lies inside one block, so the
    result is bit-identical to one call per step, per row and per block.
    Scratch is one chunk of z and one chunk per row, never a block- or
    d-sized buffer, which is the whole point of the store-a-seed design.

    A partition of one span (d <= 32768 values) keeps its z between calls,
    so the three walks of an optimizer step draw it once; a longer partition
    regenerates it on every walk.  Either way each walk applies the same z
    bits, and the kept z is at most one chunk.

    Nothing here checks for overflow: the caller checks finiteness once per
    step, since one row's overflow must not stop the others.
    """
    partition = theta.partition
    _check_scales(partition, scales)
    rows = theta.values.reshape(-1, partition.total)  # a view, for a vector too
    # each step's (R, n_blocks) factors in one multiply
    per_block = scales.stds.reshape(-1, partition.n_blocks).T
    factors = [(per_block * step).T for step in steps]
    if len(partition.spans) == 1:
        gen, z = None, _KEPT.draw(seed, partition.total)
    else:
        gen, z_buf = _stream_rng(seed), np.empty(partition.max_span)
    for sl, n, lengths, blocks in partition.spans:
        if gen is not None:
            z = z_buf[:n]
            gen.standard_normal(out=z)
        dst = rows[:, sl]
        for factor in factors:
            if lengths is None:
                move = factor[:, blocks] * z
            else:
                move = factor[:, blocks].repeat(lengths, axis=1)  # each value's factor
                move *= z
            dst += move
            del move  # one chunk per row at a time


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b of two 1-D float64 arrays, with bits that do not depend on the
    BLAS thread count: up to _DOT_PIECE values it is that one call, above it
    the sum, in index order, of one such call per _DOT_PIECE-value piece."""
    total = float(a[:_DOT_PIECE] @ b[:_DOT_PIECE])
    for lo in range(_DOT_PIECE, len(a), _DOT_PIECE):
        total += float(a[lo:lo + _DOT_PIECE] @ b[lo:lo + _DOT_PIECE])
    return total


def _squared_deviations(vals: np.ndarray, mean):
    """np.add.reduce((vals - mean)**2) along axis 0, bit for bit, with
    scratch of at most one chunk per row.

    numpy sums a contiguous run pairwise: a run of over 128 values is the
    sum of its halves, split at n2 = n // 2 rounded down to a multiple of 8.
    So a block wider than a chunk is split the same way, and the halves'
    sums add up to the block's.
    """
    n = len(vals)
    if n > _CHUNK:
        half = n // 2
        half -= half % 8
        return (_squared_deviations(vals[:half], mean)
                + _squared_deviations(vals[half:], mean))
    dev = np.subtract(vals, mean)
    np.square(dev, out=dev)
    return np.add.reduce(dev)


def block_stats(theta: ParamVector):
    """Arithmetic mean and population variance (divide by d_i) of every block.

    Two (..., n_blocks) arrays: (n_blocks,) for a vector, (R, n_blocks) for
    rows.  Each entry is bit for bit np.mean and np.var of its block: the
    same ufunc reductions on the same slice, without numpy's Python-level
    wrappers, with the block sum taken once and the deviations formed a
    chunk at a time.
    """
    # one path for both shapes: through the transpose a block is values[sl]
    # and its mean a scalar (vector) or one value per row that broadcasts
    # without indexing; a vector's transpose is itself
    values, partition = theta.values.T, theta.partition
    means = np.empty((partition.n_blocks,) + values.shape[1:])
    variances = np.empty_like(means)
    for i, (sl, n) in enumerate(zip(partition.slices, partition.py_sizes)):
        vals = values[sl]
        # the reductions run along each row's memory, exactly as the same
        # reduction over that row alone, so rows match their vectors too
        mean = np.add.reduce(vals) / n
        means[i] = mean
        variances[i] = _squared_deviations(vals, mean) / n
    return means.T, variances.T
