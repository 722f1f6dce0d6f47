import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from zoft.errors import (
    InvalidScaleError,
    NumericOverflowError,
    PartitionMismatchError,
)
from zoft import paramspace
from zoft.paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    _CHUNK,
    _DOT_PIECE,
    _squared_deviations,
    _stream_rng,
    block_stats,
    perturb_in_place,
)

_NOISE_TAG = 0x5A0F7B10C


def two_block_partition():
    return BlockPartition([("w", 3), ("b", 5)])


def multi_chunk_partition():
    # one block over two full chunks plus a ragged tail, then a 1-entry block
    return BlockPartition([("big", 2 * _CHUNK + 123), ("one", 1), ("small", 5)])


def reference_noise(p, stds, seed) -> np.ndarray:
    """u of the (seed, stream) stream, u|block i = stds[i] * z: the plain
    reference walk's one unit move from zero."""
    u = np.zeros(p.total)
    reference.walk(u, p, stds, seed.seed, seed.stream, 1.0)
    return u


def walked(p, stds, seed) -> np.ndarray:
    """u as perturb_in_place forms it: one unit move from zero."""
    theta = ParamVector(np.zeros(p.total), p)
    perturb_in_place(theta, PerturbScales(stds, p), seed, 1.0)
    return theta.values


def traced_peak_bytes(fn) -> int:
    """Peak traced memory while fn runs, above what was live when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestBlockPartition:
    def test_offsets_and_total(self):
        p = BlockPartition([("a", 2), ("b", 3), ("c", 1)])
        assert p.total == 6
        assert [sl.start for sl in p.slices] == [0, 2, 5]
        assert p.slices[1] == slice(2, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlockPartition([])

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            BlockPartition([("a", 0)])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            BlockPartition([("a", 1), ("a", 2)])

    def test_equality_is_structural(self):
        assert two_block_partition() == two_block_partition()
        assert two_block_partition() != BlockPartition([("w", 3), ("b", 4)])


class TestParamVector:
    def test_length_mismatch(self):
        with pytest.raises(PartitionMismatchError):
            ParamVector(np.zeros(7), two_block_partition())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(8,), (3, 8)])
    def test_non_finite_rejected(self, bad, shape):
        values = np.zeros(shape)
        values[..., 3] = bad
        with pytest.raises(NumericOverflowError):
            ParamVector(values, two_block_partition())


class TestPerturbScales:
    def test_wrong_count(self):
        with pytest.raises(PartitionMismatchError):
            PerturbScales(np.ones(3), two_block_partition())

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidScaleError):
            PerturbScales(np.array([1.0, 0.0]), two_block_partition())

    def test_budget(self):
        sc = PerturbScales(np.array([2.0, 3.0]), two_block_partition())
        assert np.dot(sc.partition.sizes, sc.stds**2) == 3 * 4.0 + 5 * 9.0

    def test_unit_budget_equals_dim(self):
        p = two_block_partition()
        assert np.dot(p.sizes, PerturbScales.unit(p).stds**2) == p.total


class TestNoiseStreams:
    """The noise u as a walk forms it: one unit move from zero."""

    def test_regeneration_is_bit_exact(self):
        # one span keeps its z, several regenerate it; a walk on another
        # stream in between leaves no trace on either
        for p in (two_block_partition(), multi_chunk_partition()):
            stds = np.linspace(0.5, 2.0, p.n_blocks)
            seed = NoiseSeed(42, stream=7)
            u1 = walked(p, stds, seed)
            walked(p, stds, NoiseSeed(42, stream=8))
            u2 = walked(p, stds, seed)
            assert np.array_equal(u1, u2)
            assert np.array_equal(u1, reference_noise(p, stds, seed))

    def test_streams_are_distinct(self):
        p = two_block_partition()
        stds = np.ones(p.n_blocks)
        u1 = walked(p, stds, NoiseSeed(42, stream=0))
        u2 = walked(p, stds, NoiseSeed(42, stream=1))
        u3 = walked(p, stds, NoiseSeed(43, stream=0))
        assert not np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)
        assert not np.array_equal(u2, u3)

    def test_scales_enter_linearly(self):
        # doubling a block's std must double exactly that slice of the draw
        seed = NoiseSeed(3)
        for p in (two_block_partition(), multi_chunk_partition()):
            ones = np.ones(p.n_blocks)
            doubled = ones.copy()
            doubled[0] = 2.0
            u1 = walked(p, ones, seed)
            u2 = walked(p, doubled, seed)
            first = p.slices[0]
            assert np.array_equal(u2[first], 2.0 * u1[first])
            assert np.array_equal(u2[first.stop:], u1[first.stop:])

    @given(seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fast_rng_matches_reference(self, seed, stream):
        # stream k = base generator for the seed, advanced by k * stride states
        stride = 0x9E3779B97F4A7C15F39CC0605CEDC835
        bg = np.random.PCG64(np.random.SeedSequence([_NOISE_TAG, seed]))
        bg.advance((stream * stride) % (1 << 128))
        ref = np.random.Generator(bg).standard_normal(16)
        got = _stream_rng(NoiseSeed(seed, stream)).standard_normal(16)
        assert np.array_equal(ref, got)

    def test_block_moments(self):
        # sample covariance of u is diag(s_i^2) per block
        p = two_block_partition()
        stds = np.array([2.0, 3.0])
        draws = np.array(
            [walked(p, stds, NoiseSeed(0, stream=k)) for k in range(20_000)]
        )
        var = draws.var(axis=0)
        assert np.allclose(var[:3], 4.0, rtol=0.06)
        assert np.allclose(var[3:], 9.0, rtol=0.06)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.08)


class TestPerturbInPlace:
    def test_matches_buffered_draw(self):
        p = two_block_partition()
        sc = PerturbScales(np.array([0.7, 1.3]), p)
        seed = NoiseSeed(5, stream=2)
        theta = ParamVector(np.linspace(-1, 1, 8), p)
        expected = theta.values.copy()
        reference.walk(expected, p, sc.stds, seed.seed, seed.stream, 0.25)
        perturb_in_place(theta, sc, seed, 0.25)
        assert np.array_equal(theta.values, expected)

    def test_walk_restores_parameters(self):
        p = two_block_partition()
        sc = PerturbScales(np.array([0.7, 1.3]), p)
        seed = NoiseSeed(11, stream=4)
        start = np.linspace(0.5, 4.0, 8)
        theta = ParamVector(start.copy(), p)
        eps = 1e-3
        perturb_in_place(theta, sc, seed, +eps)
        perturb_in_place(theta, sc, seed, -2 * eps)
        perturb_in_place(theta, sc, seed, +eps)
        assert np.allclose(theta.values, start, rtol=1e-12, atol=0)

    def test_in_place_mode_allocates_no_full_buffer(self):
        # a single 2e6-entry block: a walk, fused or not, allocates only chunk
        # scratch, at most a tenth of the parameter bytes
        p = BlockPartition([("w", 2_000_000)])
        sc = PerturbScales.unit(p)
        theta = ParamVector(np.zeros(p.total), p)
        bound = 0.1 * theta.values.nbytes
        seed = NoiseSeed(0)
        assert traced_peak_bytes(lambda: perturb_in_place(theta, sc, seed, 0.1)) <= bound
        assert traced_peak_bytes(
            lambda: perturb_in_place(theta, sc, seed, 1e-3, -0.1)) <= bound

    def test_chunked_walk_draws_the_reference_noise(self):
        p = multi_chunk_partition()
        sc = PerturbScales(np.array([0.7, 1.3, 2.0]), p)
        seed = NoiseSeed(5, stream=2)
        theta = ParamVector(np.zeros(p.total), p)
        perturb_in_place(theta, sc, seed, 1.0)
        assert np.array_equal(theta.values, reference_noise(p, sc.stds, seed))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_span_plan_draws_the_per_block_reference(self, rows):
        # 40 tiny blocks share the first span, a block wider than a chunk
        # crosses span seams, and the last span is ragged; every block gets
        # its own scale, so a piece scaled by another block's std, or spans
        # drawn out of order, move the values
        rng = np.random.default_rng(7)
        sizes = [int(s) for s in rng.integers(1, 9, size=40)]
        sizes += [_CHUNK + 1000, 3, 2 * _CHUNK - 7, 11]
        p = BlockPartition([(f"b{i}", s) for i, s in enumerate(sizes)])
        assert len(p.spans) == -(-p.total // _CHUNK) and len(p.spans[0][2]) > 40
        assert p.total % _CHUNK
        stds = 1.0 + np.arange(p.n_blocks) / 8.0
        seed = NoiseSeed(9, stream=3)
        if rows:
            factors = np.array([1.0, 0.5, 2.0])
            theta = ParamVector(np.zeros((rows, p.total)), p)
            perturb_in_place(theta, PerturbScales(np.outer(factors, stds), p), seed, 1.0)
            for row, f in zip(theta.values, factors):
                assert np.array_equal(row, reference_noise(p, f * stds, seed))
        else:
            theta = ParamVector(np.zeros(p.total), p)
            perturb_in_place(theta, PerturbScales(stds, p), seed, 1.0)
            assert np.array_equal(theta.values, reference_noise(p, stds, seed))

    @pytest.mark.parametrize("rows", [0, 3])
    def test_pieces_cut_blocks_where_the_reference_does(self, rows):
        # above one chunk the walk draws a piece at a time: here blocks end
        # inside a span's fourth piece and a later span's second, and a
        # 3-value block lies inside one piece, so every piece but the first
        # has blocks of length 0 on either side
        sizes = [5000, 20_000, 3, 9000, 40_000, 7]
        p = BlockPartition([(f"b{i}", s) for i, s in enumerate(sizes)])
        stds = 1.0 + np.arange(p.n_blocks) / 8.0
        factors = np.array([1.0, 0.5, 2.0][:rows or 1])
        seed = NoiseSeed(4, stream=6)
        theta = ParamVector(np.zeros((rows, p.total) if rows else p.total), p)
        all_stds = np.outer(factors, stds) if rows else stds
        perturb_in_place(theta, PerturbScales(all_stds, p), seed, 1.0)
        for row, f in zip(theta.values.reshape(-1, p.total), factors):
            assert np.array_equal(row, reference_noise(p, f * stds, seed))

    def test_fused_moves_equal_sequential_walks(self):
        p = multi_chunk_partition()
        sc = PerturbScales(np.array([0.7, 1.3, 2.0]), p)
        start = np.random.default_rng(0).normal(size=p.total)
        fused = ParamVector(start.copy(), p)
        sequential = ParamVector(start.copy(), p)
        for stream in range(3):
            seed = NoiseSeed(3, stream=stream)
            perturb_in_place(fused, sc, seed, 1e-3, -0.37)
            perturb_in_place(sequential, sc, seed, 1e-3)
            perturb_in_place(sequential, sc, seed, -0.37)
        assert np.array_equal(fused.values, sequential.values)

    def test_partition_mismatch_rejected(self):
        other = BlockPartition([("w", 4), ("b", 4)])
        sc = PerturbScales.unit(other)
        theta = ParamVector(np.zeros(8), two_block_partition())
        with pytest.raises(PartitionMismatchError):
            perturb_in_place(theta, sc, NoiseSeed(0), 0.1)


class TestKeptNoise:
    """A one-span vector keeps its z between walks; it must never go stale."""

    @staticmethod
    def walk_equals_reference(p, seed, rows, rng):
        # the reference walk rounds (step * s_i) * z as the walk does
        stds = rng.uniform(0.2, 3.0, size=p.n_blocks)
        step = float(rng.choice([0.37, -2e-3, 1.5, 1.0]))
        start = rng.normal(size=(rows, p.total) if rows else p.total)
        expected = start.copy()
        for row in expected.reshape(-1, p.total):
            reference.walk(row, p, stds, seed.seed, seed.stream, step)
        theta = ParamVector(start.copy(), p)
        scales = PerturbScales(np.broadcast_to(stds, start.shape[:-1] + stds.shape), p)
        perturb_in_place(theta, scales, seed, step)
        assert np.array_equal(theta.values, expected), (p, seed, rows)

    def test_interleaved_walks_match_fresh_draws(self):
        one = two_block_partition()  # 8 values
        same_length = BlockPartition([("x", 6), ("y", 2)])  # 8 values, other blocks
        other_length = BlockPartition([("a", 5), ("b", 7)])
        full_chunk = BlockPartition([("a", _CHUNK - 9), ("b", 9)])  # one span exactly
        two_spans = BlockPartition([("a", _CHUNK), ("b", 1)])
        multi = multi_chunk_partition()
        partitions = [one, same_length, other_length, full_chunk, two_spans, multi]
        seeds = [NoiseSeed(1, 1), NoiseSeed(1, 2), NoiseSeed(2, 1), NoiseSeed(2, 2)]
        rng = np.random.default_rng(0)
        # a step's three walks on one key, then every change of seed, stream,
        # length and span count, in both orders and with rows
        for p, seed in [(one, seeds[0])] * 3 + [
                (one, seeds[1]), (one, seeds[2]), (one, seeds[3]), (other_length, seeds[3]),
                (one, seeds[3]), (same_length, seeds[3]), (multi, seeds[3]), (one, seeds[3]),
                (full_chunk, seeds[3]), (two_spans, seeds[3]), (full_chunk, seeds[3])]:
            self.walk_equals_reference(p, seed, 0, rng)
        for _ in range(60):
            p = partitions[rng.integers(len(partitions))]
            seed = seeds[rng.integers(len(seeds))]
            rows = int(rng.choice([0, 0, 3]))
            if rng.random() < 0.2:
                # a walk on another seed, with a partition of its own,
                # redraws the kept z in between
                other = partitions[rng.integers(len(partitions))]
                walked(other, np.ones(other.n_blocks), NoiseSeed(3, 0))
            self.walk_equals_reference(p, seed, rows, rng)

    def test_one_span_draws_once_per_step(self, monkeypatch):
        # the three walks of a step on one key: one draw for one span, a
        # regeneration per walk for several spans
        rewinds = []
        original = paramspace._stream_rng
        monkeypatch.setattr(paramspace, "_stream_rng",
                            lambda seed: rewinds.append(seed) or original(seed))
        for p, expected in [(two_block_partition(), 1),
                            (BlockPartition([("w", _CHUNK)]), 1),
                            (BlockPartition([("w", _CHUNK + 1)]), 3)]:
            rewinds.clear()
            theta = ParamVector(np.zeros(p.total), p)
            seed = NoiseSeed(17, stream=123)
            for step in (1e-3, -2e-3, 1e-3):
                perturb_in_place(theta, PerturbScales.unit(p), seed, step)
            assert len(rewinds) == expected, p

    def test_held_noise_is_at_most_one_chunk(self):
        chunk = BlockPartition([("w", _CHUNK)])
        small = two_block_partition()

        def walk(p, stream):
            perturb_in_place(ParamVector(np.zeros(p.total), p), PerturbScales.unit(p),
                             NoiseSeed(23, stream), 0.1)

        chunk_bytes = _CHUNK * 8
        tracemalloc.start()
        try:
            walk(small, 1)  # the kept buffer now holds 8 values
            base = tracemalloc.get_traced_memory()[0]
            held = []
            for p, stream in [(chunk, 2), (multi_chunk_partition(), 3), (chunk, 4),
                              (small, 5)]:
                walk(p, stream)
                held.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        slack = 4096  # the stream-state cache's new entries
        # one chunk of z stays held after a chunk-sized walk; a multi-span
        # walk keeps nothing of its own, and a shorter vector frees the chunk
        assert chunk_bytes <= held[0] <= chunk_bytes + slack
        assert held[1] <= chunk_bytes + slack and held[2] <= chunk_bytes + slack
        assert held[3] <= slack


def reference_block_stats(values, partition):
    """Per-block np.mean and np.var: the numbers block_stats must equal exactly."""
    means = [values[..., sl].mean(axis=-1) for sl in partition.slices]
    variances = [values[..., sl].var(axis=-1) for sl in partition.slices]
    return np.stack(means, axis=-1), np.stack(variances, axis=-1)


class TestBlockStats:
    def test_matches_numpy(self):
        p = two_block_partition()
        values = np.array([1.0, 2.0, 6.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        mean, var = block_stats(ParamVector(values, p))
        assert mean.tolist() == [values[:3].mean(), values[3:].mean()]
        assert var.tolist() == [values[:3].var(), values[3:].var()]

    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_bit_identical_to_per_block_numpy(self, rows):
        # ragged blocks from 1 value to past numpy's 128-value pairwise-sum
        # block, offset from zero so that the deviations cancel digits
        rng = np.random.default_rng(100 + rows)
        for _ in range(40):
            sizes = [int(s) for s in rng.integers(1, 700, size=rng.integers(1, 7))]
            sizes += [1, int(rng.integers(129, 2000))]
            rng.shuffle(sizes)
            p = BlockPartition([(f"b{i}", s) for i, s in enumerate(sizes)])
            shape = (rows, p.total) if rows else (p.total,)
            values = rng.uniform(-1e3, 1e3) + rng.uniform(1e-3, 1e2) * rng.normal(size=shape)
            theta = ParamVector(values, p)
            mean, var = block_stats(theta)
            ref_mean, ref_var = reference_block_stats(values, p)
            assert mean.shape == var.shape == shape[:-1] + (p.n_blocks,)
            assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)
            for r in range(rows):  # a row's stats are its vector's, bit for bit
                row_mean, row_var = block_stats(ParamVector(values[r], p))
                assert np.array_equal(mean[r], row_mean) and np.array_equal(var[r], row_var)

    @pytest.mark.parametrize("rows", [0, 1, 12])
    @pytest.mark.parametrize("sizes", [(48, 16), (1, 129, 7), (3, _CHUNK + 77, 129)])
    def test_written_into_feature_columns(self, rows, sizes):
        # step_features has the statistics written straight into two strided
        # columns of its feature array, and the other columns left alone
        p = BlockPartition([(f"b{i}", s) for i, s in enumerate(sizes)])
        rng = np.random.default_rng(rows + len(sizes))
        shape = (rows, p.total) if rows else (p.total,)
        values = rng.uniform(-1e3, 1e3) + rng.uniform(1e-3, 1e2) * rng.normal(size=shape)
        features = np.full(shape[:-1] + (p.n_blocks, 5), np.nan)
        mean, var = block_stats(ParamVector(values, p),
                                out=(features[..., 3], features[..., 4]))
        ref_mean, ref_var = reference_block_stats(values, p)
        assert np.shares_memory(mean, features) and np.shares_memory(var, features)
        assert np.array_equal(features[..., 3], ref_mean)
        assert np.array_equal(features[..., 4], ref_var)
        assert np.isnan(features[..., :3]).all()

    # blocks a little under, at and over one piece or chunk, and at numpy's
    # pairwise split points above it: a block of n values is summed as
    # halves of n // 2 rounded down to a multiple of 8, so 2 and 4 pieces
    # plus a few values put a half, or a quarter, just over or under a piece
    @given(width=st.sampled_from([_DOT_PIECE, 2 * _DOT_PIECE, _CHUNK, 2 * _CHUNK,
                                  3 * _CHUNK, 4 * _CHUNK]),
           offset=st.integers(-24, 24), rows=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_wide_blocks_match_numpy(self, width, offset, rows, seed):
        rng = np.random.default_rng(seed)
        p = BlockPartition([("head", 3), ("wide", width + offset), ("tail", 129)])
        shape = (rows, p.total) if rows else (p.total,)
        values = rng.uniform(-1e3, 1e3) + rng.uniform(1e-3, 1e2) * rng.normal(size=shape)
        mean, var = block_stats(ParamVector(values, p))
        ref_mean, ref_var = reference_block_stats(values, p)
        assert np.array_equal(mean, ref_mean) and np.array_equal(var, ref_var)
        for r in range(rows):
            row_mean, row_var = block_stats(ParamVector(values[r], p))
            assert np.array_equal(mean[r], row_mean) and np.array_equal(var[r], row_var)


class TestSquaredDeviations:
    # under and over numpy's 128-value pairwise block, around one piece and
    # one chunk, and widths whose halves numpy rounds down to a multiple of
    # 8 (16,394 and 65,550 split at 8192 and 32,768, not at 8197 and 32,775)
    @pytest.mark.parametrize("n", [1, 7, 128, 129, 8191, 8192, 8193, 16_394, 32768, 32769,
                                   65_550, 100_003])
    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize("into", [False, True], ids=["returned", "out"])
    def test_has_the_bits_of_numpy(self, n, rows, into):
        rng = np.random.default_rng(n + rows)
        shape = (rows, n) if rows else (n,)
        values = 3.0 + rng.normal(size=shape)
        # block_stats' means: a numpy scalar for a vector, a column for rows
        mean = np.add.reduce(values, axis=-1, keepdims=bool(rows)) / n
        expected = np.add.reduce((values - mean) ** 2, axis=-1)
        if not into:
            got = _squared_deviations(values, mean)
        else:
            # a strided column, as block_stats writes into, for rows
            out = np.full((rows, 2), np.nan)[:, 1] if rows else np.empty(())
            got = _squared_deviations(values, mean, out=out)
            assert got is out
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
