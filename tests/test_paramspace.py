import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zoft.errors import (
    InvalidScaleError,
    NumericOverflowError,
    PartitionMismatchError,
)
from zoft.paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    _CHUNK,
    _stream_rng,
    block_stats,
    perturb_in_place,
    sample_block_noise,
)

_NOISE_TAG = 0x5A0F7B10C


def two_block_partition():
    return BlockPartition([("w", 3), ("b", 5)])


def multi_chunk_partition():
    # one block over two full chunks plus a ragged tail, then a 1-entry block
    return BlockPartition([("big", 2 * _CHUNK + 123), ("one", 1), ("small", 5)])


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
        assert list(p.offsets) == [0, 2, 5]
        assert p.block_slice(1) == slice(2, 5)

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

    def test_non_finite_rejected(self):
        values = np.zeros(8)
        values[3] = np.inf
        with pytest.raises(NumericOverflowError):
            ParamVector(values, two_block_partition())

    def test_copy_is_independent(self):
        theta = ParamVector(np.arange(8.0), two_block_partition())
        clone = theta.copy()
        clone.values[0] = -1.0
        assert theta.values[0] == 0.0


class TestPerturbScales:
    def test_wrong_count(self):
        with pytest.raises(PartitionMismatchError):
            PerturbScales(np.ones(3), two_block_partition())

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidScaleError):
            PerturbScales(np.array([1.0, 0.0]), two_block_partition())

    def test_allow_zero_admits_zero_but_not_negative(self):
        PerturbScales(np.array([1.0, 0.0]), two_block_partition(), allow_zero=True)
        with pytest.raises(InvalidScaleError):
            PerturbScales(np.array([1.0, -0.5]), two_block_partition(), allow_zero=True)

    def test_per_coordinate_expansion(self):
        sc = PerturbScales(np.array([2.0, 3.0]), two_block_partition())
        assert np.array_equal(sc.per_coordinate(), [2, 2, 2, 3, 3, 3, 3, 3])

    def test_budget(self):
        sc = PerturbScales(np.array([2.0, 3.0]), two_block_partition())
        assert sc.budget() == 3 * 4.0 + 5 * 9.0

    def test_unit_budget_equals_dim(self):
        p = two_block_partition()
        assert PerturbScales.unit(p).budget() == p.total


class TestNoiseStreams:
    def test_regeneration_is_bit_exact(self):
        p = two_block_partition()
        sc = PerturbScales(np.array([0.5, 2.0]), p)
        seed = NoiseSeed(42, stream=7)
        u1 = sample_block_noise(p, sc, seed)
        u2 = sample_block_noise(p, sc, seed)
        assert np.array_equal(u1, u2)

    def test_streams_are_distinct(self):
        p = two_block_partition()
        sc = PerturbScales.unit(p)
        u1 = sample_block_noise(p, sc, NoiseSeed(42, stream=0))
        u2 = sample_block_noise(p, sc, NoiseSeed(42, stream=1))
        u3 = sample_block_noise(p, sc, NoiseSeed(43, stream=0))
        assert not np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)

    def test_scales_enter_linearly(self):
        # doubling a block's std must double exactly that slice of the draw
        p = two_block_partition()
        seed = NoiseSeed(3)
        u1 = sample_block_noise(p, PerturbScales(np.array([1.0, 1.0]), p), seed)
        u2 = sample_block_noise(p, PerturbScales(np.array([2.0, 1.0]), p), seed)
        assert np.array_equal(u2[:3], 2.0 * u1[:3])
        assert np.array_equal(u2[3:], u1[3:])

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
        sc = PerturbScales(np.array([2.0, 3.0]), p)
        draws = np.array(
            [sample_block_noise(p, sc, NoiseSeed(0, stream=k)) for k in range(20_000)]
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
        expected = theta.values + 0.25 * sample_block_noise(p, sc, seed)
        perturb_in_place(theta, sc, seed, 0.25)
        assert np.allclose(theta.values, expected, rtol=0, atol=1e-15)

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
        assert np.array_equal(theta.values, sample_block_noise(p, sc, seed))

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
        reference = sample_block_noise(p, PerturbScales(stds, p), seed)
        if rows:
            factors = np.array([1.0, 0.5, 2.0])
            theta = ParamVector(np.zeros((rows, p.total)), p)
            perturb_in_place(theta, PerturbScales(np.outer(factors, stds), p), seed, 1.0)
            for row, f in zip(theta.values, factors):
                assert np.array_equal(row, sample_block_noise(
                    p, PerturbScales(f * stds, p), seed))
        else:
            theta = ParamVector(np.zeros(p.total), p)
            perturb_in_place(theta, PerturbScales(stds, p), seed, 1.0)
            assert np.array_equal(theta.values, reference)

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

    def test_overflow_detected(self):
        p = two_block_partition()
        theta = ParamVector(np.zeros(8), p)
        huge = PerturbScales(np.array([1e300, 1e300]), p)
        with pytest.raises(NumericOverflowError), np.errstate(over="ignore", invalid="ignore"):
            perturb_in_place(theta, huge, NoiseSeed(0), 1e300)
        # theta may be left perturbed after the failure; that is the caller's
        # signal to abort the run rather than continue


class TestBlockStats:
    def test_matches_numpy(self):
        p = two_block_partition()
        values = np.array([1.0, 2.0, 6.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        theta = ParamVector(values, p)
        mean, var = block_stats(theta, 0)
        assert mean == pytest.approx(values[:3].mean())
        assert var == pytest.approx(values[:3].var())
        mean, var = block_stats(theta, 1)
        assert mean == pytest.approx(values[3:].mean())
        assert var == pytest.approx(values[3:].var())
