import numpy as np
import pytest
from scipy import stats

from zoft.bounds import BoundInputs, expected_decrease
from zoft.errors import ConfigError
from zoft.paramspace import BlockPartition, PerturbScales, dot
from zoft.testbeds import (
    _QINIT_TAG,
    _BlockSpectrum,
    MLPTask,
    QuadraticFamily,
    QuadraticRows,
    QuadraticTask,
    make_rank_family,
)


def fd_grad(loss, theta, batch, eps=1e-6):
    g = np.empty_like(theta)
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += eps
        dn[j] -= eps
        g[j] = (loss(up, batch) - loss(dn, batch)) / (2 * eps)
    return g


class TestQuadraticTask:
    def test_loss_oracle(self):
        p = BlockPartition([("a", 2)])
        task = QuadraticTask(p, eigs=[2.0, 0.5], theta_star=[1.0, -1.0])
        theta = np.array([3.0, 0.0])
        # 0.5 * (2*(3-1)^2 + 0.5*(0+1)^2)
        assert task.loss(theta) == pytest.approx(4.25)
        assert np.allclose(task.grad(theta), [4.0, 0.5])

    @pytest.mark.parametrize("sizes", [(48, 16), (8192,), (8193,), (40000, 10000, 123)])
    def test_loss_sums_its_dots_as_dot_does(self, sizes):
        # one BLAS dot up to 8192 values, 8192-value pieces above; the
        # vector loss and the stacked rows agree with `dot` bit for bit
        task = make_rank_family(sizes, [2.0] * len(sizes), [1.0] * len(sizes),
                                noise_tau=0.5, seed=3,
                                theta_star=np.linspace(-1.0, 1.0, sum(sizes)))
        values = task.init_theta(0)
        delta = values - task.theta_star
        want = 0.5 * dot(delta, task.eigs * delta) + dot(delta, task._batch_noise(7))
        assert task.loss(values, 7) == want
        assert task.loss(np.stack([values, values]), 7).tolist() == [want, want]
        rows = QuadraticRows([task, task])(np.stack([values, values]), 7)
        assert rows.tolist() == [want, want]

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            p = BlockPartition([("a", 3), ("b", 4)])
            task = QuadraticTask(
                p, eigs=rng.uniform(0.1, 2.0, 7), theta_star=rng.normal(size=7),
                noise_tau=0.5, seed=trial,
            )
            theta = rng.normal(size=7)
            g = task.grad(theta, batch=trial)
            fd = fd_grad(task.loss, theta, trial)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_batch_noise_deterministic_and_centered(self):
        p = BlockPartition([("a", 6)])
        task = QuadraticTask(p, eigs=np.ones(6), theta_star=np.zeros(6),
                             noise_tau=3.0, seed=5)
        theta = np.ones(6)
        assert task.loss(theta, batch=1) == task.loss(theta, batch=1)
        assert task.loss(theta, batch=1) != task.loss(theta, batch=2)
        # gradient noise has mean ~0 and total variance ~tau
        xi = np.array([task.grad(theta, b) for b in range(2000)]) - task.eigs * theta
        assert np.all(np.abs(xi.mean(axis=0)) < 0.07)
        assert np.sum(xi.var(axis=0)) == pytest.approx(3.0, rel=0.15)

    def test_block_grad_sqnorms(self):
        p = BlockPartition([("a", 2), ("b", 2)])
        task = QuadraticTask(p, eigs=[1.0, 1.0, 2.0, 2.0], theta_star=np.zeros(4))
        theta = np.array([1.0, 2.0, 1.0, 1.0])
        assert np.allclose(BoundInputs.from_task(task, theta).grad_sqnorms, [5.0, 8.0])

    def test_validation(self):
        p = BlockPartition([("a", 2)])
        with pytest.raises(ConfigError):
            QuadraticTask(p, eigs=[1.0], theta_star=[0.0, 0.0])
        with pytest.raises(ConfigError):
            QuadraticTask(p, eigs=[1.0, -1.0], theta_star=[0.0, 0.0])

    def test_per_block_init_scale(self):
        p = BlockPartition([("a", 400), ("b", 400)])
        task = QuadraticTask(p, eigs=np.ones(800), theta_star=np.zeros(800),
                             init_scale=(0.5, 2.0))
        theta = task.init_theta(0)
        assert np.std(theta[:400]) == pytest.approx(0.5, rel=0.15)
        assert np.std(theta[400:]) == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("init_scale", [0.7, (0.3, 1.9, 4.1)])
    def test_init_theta_keeps_the_bits_of_a_per_coordinate_sigma(self, init_scale):
        # one sigma per block, against the per-coordinate formula; the first
        # block is wider than a 32768-value chunk
        sizes = (40000, 17, 300)
        d = sum(sizes)
        task = make_rank_family(sizes, [2.0] * 3, [1.0] * 3, init_scale=init_scale,
                                theta_star=np.random.default_rng(1).standard_normal(d),
                                seed=4)
        sigma = np.repeat(np.broadcast_to(init_scale, (3,)), sizes)
        for seed in (0, 9):
            z = np.random.default_rng([_QINIT_TAG, task.seed, seed]).standard_normal(d)
            expected = task.theta_star + sigma * z
            assert task.init_theta(seed).tobytes() == expected.tobytes()

    def test_init_scale_wrong_length(self):
        p = BlockPartition([("a", 2), ("b", 2)])
        with pytest.raises(ConfigError):
            QuadraticTask(p, eigs=np.ones(4), theta_star=np.zeros(4),
                          init_scale=(1.0, 2.0, 3.0))


class TestRankFamily:
    def test_effective_ranks_exact(self):
        task = make_rank_family([5, 9, 3], [1.0, 4.5, 3.0], [2.0, 1.0, 0.5])
        assert np.allclose(task.effective_ranks(), [1.0, 4.5, 3.0], rtol=0, atol=1e-14)

    def test_opnorm_is_max_eig(self):
        task = make_rank_family([4, 6], [2.0, 6.0], [3.0, 1.5])
        assert task.smoothness == 3.0
        assert task.eigs[:4].max() == 3.0
        assert task.eigs[4:].max() == 1.5

    def test_infeasible_rank_rejected(self):
        with pytest.raises(ConfigError):
            make_rank_family([4], [5.0], [1.0])
        with pytest.raises(ConfigError):
            make_rank_family([4], [0.5], [1.0])
        with pytest.raises(ConfigError):
            make_rank_family([4], [2.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            make_rank_family([4, 4], [1.0], [1.0, 1.0])


# A partition with blocks of one value, blocks narrower than a loss piece
# (8192 values), one that crosses two piece boundaries and one wider than a
# noise chunk (32768 values)
WIDE_SIZES = (1, 300, 20000, 1, 40000, 7)
WIDE_RANKS = (1.0, 30.0, 2000.0, 1.0, 4000.0, 3.0)
WIDE_OPNORMS = (2.0, 1.0, 0.5, 3.0, 1.0, 0.25)


WIDE = (WIDE_SIZES, WIDE_RANKS, WIDE_OPNORMS, (1.0, 0.5, 2.0, 1.0, 0.3, 4.0))
# blocks that start at 0, 8192, 16384 and 32768, so each of their tops is
# the first value of an 8192-value piece of the loss, and one block of one
# value and one of a piece less one value between them
ALIGNED = ((8192, 1, 8191, 16384, 5), (50.0, 1.0, 8191.0, 2.0, 3.0),
           (1.0, 2.0, 0.5, 3.0, 0.25), (1.0, 0.5, 2.0, 0.3, 4.0))


def wide_task_and_twin(noise_tau=0.0, seed=4, profile=WIDE):
    """A wide rank-family task of `profile` (sizes, ranks, top eigenvalues,
    init scales) and a QuadraticTask built from its dense eigs."""
    sizes, ranks, opnorms, init_scale = profile
    task = make_rank_family(sizes, ranks, opnorms, noise_tau=noise_tau,
                            init_scale=init_scale, seed=seed,
                            theta_star=np.linspace(-1.0, 1.0, sum(sizes)))
    twin = QuadraticTask(task.partition, task.eigs, task.theta_star, noise_tau=noise_tau,
                         init_scale=task.init_scale, seed=task.seed)
    return task, twin


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCompactSpectrum:
    def test_wide_rank_task_keeps_two_numbers_per_block(self):
        task, _ = wide_task_and_twin()
        assert isinstance(task._eigs, _BlockSpectrum)
        assert isinstance(make_rank_family([8192], [2.0], [1.0])._eigs, np.ndarray)
        eigs = task.eigs
        for sl, size, rank, top in zip(task.partition.slices, WIDE_SIZES, WIDE_RANKS,
                                       WIDE_OPNORMS):
            assert eigs[sl.start] == top
            if size > 1:
                assert np.all(eigs[sl.start + 1:sl.stop] == top * (rank - 1.0) / (size - 1.0))
        assert np.allclose(task.effective_ranks(), WIDE_RANKS, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("noise_tau", [0.0, 0.5], ids=["noise-free", "noisy"])
    def test_loss_has_the_bits_of_the_dense_twin(self, noise_tau):
        task, twin = wide_task_and_twin(noise_tau)
        rows = np.stack([task.init_theta(k) for k in range(3)])
        for batch in (0, 7):
            assert same_bits(task.loss(rows[0], batch), twin.loss(rows[0], batch))
            assert same_bits(task.loss(rows, batch), twin.loss(rows, batch))

    @pytest.mark.parametrize("noise_tau", [0.0, 0.5], ids=["noise-free", "noisy"])
    def test_tops_at_piece_starts_have_the_bits_of_the_dense_twin(self, noise_tau):
        task, twin = wide_task_and_twin(noise_tau, profile=ALIGNED)
        assert isinstance(task._eigs, _BlockSpectrum)
        rows = np.stack([task.init_theta(k) for k in range(3)])
        for batch in (0, 7):
            assert same_bits(task.loss(rows, batch), twin.loss(rows, batch))
            for row in rows:
                assert same_bits(task.loss(row, batch), twin.loss(row, batch))
                loss, grad = task.loss_and_grad(row, batch)
                want_loss, want_grad = twin.loss_and_grad(row, batch)
                assert same_bits(loss, want_loss) and same_bits(grad, want_grad)
                assert same_bits(task.grad(row, batch), want_grad)

    @pytest.mark.parametrize("noise_tau", [0.0, 0.5], ids=["noise-free", "noisy"])
    def test_block_readers_have_the_bits_of_the_dense_twin(self, noise_tau):
        task, twin = wide_task_and_twin(noise_tau)
        theta = task.init_theta(1)
        assert same_bits(task.grad(theta, 3), twin.grad(theta, 3))
        assert same_bits(BoundInputs.from_task(task, theta, task.grad(theta, 3)).grad_sqnorms,
                         BoundInputs.from_task(twin, theta, twin.grad(theta, 3)).grad_sqnorms)
        assert same_bits(task.effective_ranks(), twin.effective_ranks())
        assert same_bits(task.smoothness, twin.smoothness)
        for i in range(task.partition.n_blocks):
            assert same_bits(task.block_eigs(i), twin.block_eigs(i))

    def test_noisy_grad_has_the_bits_of_a_sum(self):
        # the batch noise is added in place, with the bits of g + xi
        for task in wide_task_and_twin(0.5):
            theta = task.init_theta(1)
            want = task.eigs * (theta - task.theta_star) + task._batch_noise(3)
            assert same_bits(task.grad(theta, 3), want)

    def test_bounds_have_the_bits_of_the_dense_twin(self):
        task, twin = wide_task_and_twin()
        theta = task.init_theta(2)
        scales = PerturbScales(np.linspace(0.5, 1.5, len(WIDE_SIZES)), task.partition)
        got, want = (BoundInputs.from_task(t, theta) for t in (task, twin))
        assert same_bits(got.smoothness, want.smoothness)
        assert same_bits(got.ranks, want.ranks)
        assert same_bits(got.grad_sqnorms, want.grad_sqnorms)
        closed = [expected_decrease(t, theta, scales, (0.01, 0.02))[0] for t in (task, twin)]
        assert same_bits(*closed)
        mc = [expected_decrease(t, theta, scales, (0.01, 0.02), mode="monte_carlo", n=6)
              for t in (task, twin)]
        assert same_bits(mc[0][0], mc[1][0]) and same_bits(mc[0][1], mc[1][1])

    def test_stacked_rows_have_the_bits_of_the_dense_twins(self):
        (a, twin_a), (b, twin_b) = wide_task_and_twin(0.5, 4), wide_task_and_twin(0.0, 5)
        rows = np.stack([a.init_theta(0), b.init_theta(0)])
        got, want = QuadraticRows([a, b]), QuadraticRows([twin_a, twin_b])
        assert same_bits(got.eigs, want.eigs)
        assert same_bits(got(rows, 7), want(rows, 7))
        assert same_bits(got(rows, 7), [a.loss(rows[0], 7), b.loss(rows[1], 7)])


class TestQuadraticFamily:
    def test_tasks_are_deterministic(self):
        fam = QuadraticFamily(seed=3)
        a, b = fam.make_task(5), fam.make_task(5)
        assert np.array_equal(a.theta_star, b.theta_star)
        assert np.array_equal(a.eigs, b.eigs)

    def test_tasks_differ_by_index(self):
        fam = QuadraticFamily(seed=3)
        assert not np.array_equal(fam.make_task(0).theta_star,
                                  fam.make_task(1).theta_star)

    def test_rank_profile_shared(self):
        fam = QuadraticFamily(block_sizes=(4, 8), ranks=(1.0, 8.0),
                              opnorm_jitter=0.3, seed=0)
        for k in range(3):
            assert np.allclose(fam.make_task(k).effective_ranks(), [1.0, 8.0])

    def test_tasks_share_one_partition(self):
        fam = QuadraticFamily(block_sizes=(4, 8), ranks=(1.0, 8.0), seed=0)
        first, *rest = fam.make_tasks(3)
        assert all(task.partition is first.partition for task in rest)
        assert first.partition == make_rank_family((4, 8), (1.0, 8.0), (1.0, 1.0)).partition

    @pytest.mark.parametrize("sizes", [(4, 8), (8192, 20000)], ids=["dense", "wide"])
    def test_tasks_share_one_spectrum(self, sizes):
        fam = QuadraticFamily(block_sizes=sizes, ranks=(1.0, 8.0), seed=0)
        first, *rest = fam.make_tasks(3)
        assert all(task._eigs is first._eigs for task in rest)
        if sizes == (4, 8):
            # no task can write into the dense spectrum its family shares
            assert not first.eigs.flags.writeable
            assert not first.block_eigs(1).flags.writeable

    def test_jittered_tasks_keep_their_own_spectra(self):
        fam = QuadraticFamily(block_sizes=(4, 8), ranks=(1.0, 8.0), opnorm_jitter=0.3,
                              seed=0)
        tasks = fam.make_tasks(3)
        assert len({id(task._eigs) for task in tasks}) == 3
        assert not np.array_equal(tasks[0].eigs, tasks[1].eigs)

    @pytest.mark.parametrize("sizes, noise_tau", [((48, 16), 0.0), ((48, 16), 0.5),
                                                  ((8192, 20000), 0.5)],
                             ids=["dense", "noisy", "wide-noisy"])
    def test_a_later_task_has_the_bits_of_a_first_one(self, sizes, noise_tau):
        # task 3 of a family that built tasks 0-2 first, and task 3 as the
        # first task of a fresh family
        def family():
            return QuadraticFamily(block_sizes=sizes, ranks=(4.0, 16.0), opnorms=(1.0, 0.05),
                                   noise_tau=noise_tau, seed=2)

        later, first = family().make_tasks(4)[3], family().make_task(3)
        for k, batch in enumerate((0, 1)):
            theta = first.init_theta(k)
            assert same_bits(later.loss(theta, batch), first.loss(theta, batch))
            for got, want in zip(later.loss_and_grad(theta, batch),
                                 first.loss_and_grad(theta, batch)):
                assert same_bits(got, want)

    def test_rows_of_a_shared_spectrum_have_their_tasks_bits(self):
        fam = QuadraticFamily(block_sizes=(48, 16), ranks=(4.0, 16.0), noise_tau=0.5, seed=2)
        tasks = fam.make_tasks(3)
        rows = np.stack([task.init_theta(k) for k, task in enumerate(tasks)])
        want = [task.loss(row, 7) for task, row in zip(tasks, rows)]
        assert same_bits(QuadraticRows(tasks)(rows, 7), want)

    def test_make_tasks_start_offset(self):
        fam = QuadraticFamily(seed=1)
        held_out = fam.make_tasks(3, start=10)
        assert [t.name for t in held_out] == ["quad10", "quad11", "quad12"]


class TestMLPTask:
    def test_partition_layouts(self):
        block = MLPTask(n_in=4, n_hidden=8, n_out=3, granularity="block")
        assert block.partition.names == ("W1", "b1", "W2", "b2")
        assert list(block.partition.sizes) == [32, 8, 24, 3]
        layer = MLPTask(n_in=4, n_hidden=8, n_out=3, granularity="layer")
        assert layer.partition.names == ("layer1", "layer2")
        assert list(layer.partition.sizes) == [40, 27]
        assert block.partition.total == layer.partition.total == 67

    def test_granularity_does_not_change_loss(self):
        a = MLPTask(data_seed=1, granularity="block")
        b = MLPTask(data_seed=1, granularity="layer")
        theta = a.init_theta(0)
        batch = a.sample_batch(16, 0)
        assert a.loss(theta, batch) == b.loss(theta, batch)

    def test_unknown_granularity(self):
        with pytest.raises(ConfigError):
            MLPTask(granularity="tensor")

    def test_grad_matches_finite_differences(self):
        task = MLPTask(n_in=3, n_hidden=4, n_out=3, n_samples=30, data_seed=2)
        rng = np.random.default_rng(0)
        for trial in range(5):
            theta = task.init_theta(trial) + 0.1 * rng.normal(size=task.partition.total)
            batch = task.sample_batch(8, trial)
            g = task.grad(theta, batch)
            fd = fd_grad(task.loss, theta, batch)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_gradient_descent_learns(self):
        task = MLPTask(data_seed=0)
        theta = task.init_theta(0)
        full = np.arange(task.n_samples)
        start = task.loss(theta, full)
        for _ in range(200):
            theta -= 0.5 * task.grad(theta, full)
        assert task.loss(theta, full) < 0.25 * start

    def test_batch_without_replacement(self):
        task = MLPTask(n_samples=60)
        batch = task.sample_batch(60, 0)
        assert len(set(batch.tolist())) == 60

    def test_batch_indices_uniform(self):
        # chi-square over pooled single-draw batches
        task = MLPTask(n_samples=30)
        counts = np.zeros(30)
        n_draws = 6000
        for s in range(n_draws):
            counts[task.sample_batch(1, s)[0]] += 1
        chi2 = float(((counts - n_draws / 30) ** 2 / (n_draws / 30)).sum())
        assert stats.chi2.sf(chi2, df=29) > 1e-4

    def test_batches_deterministic(self):
        task = MLPTask()
        assert np.array_equal(task.sample_batch(16, 9), task.sample_batch(16, 9))
        assert not np.array_equal(task.sample_batch(16, 9), task.sample_batch(16, 10))


def _fused_cases():
    """(task, points, batches) of every loss path: a dense and a noisy small
    quadratic, a wide rank family (a block wider than a chunk) and its dense
    twin, noise-free and noisy, and the MLP at both granularities."""
    rng = np.random.default_rng(5)
    p = BlockPartition([("a", 3), ("b", 4)])
    eigs, star = rng.uniform(0.1, 2.0, 7), rng.normal(size=7)
    yield "dense", QuadraticTask(p, eigs=eigs, theta_star=star), (0, 0)
    yield "noisy", QuadraticTask(p, eigs=eigs, theta_star=star, noise_tau=0.5, seed=1), (2, 3)
    for tau in (0.0, 0.5):
        task, twin = wide_task_and_twin(tau)
        yield f"wide-rank-{tau}", task, (0, 3)
        yield f"wide-dense-{tau}", twin, (0, 3)
    for granularity in ("block", "layer"):
        mlp = MLPTask(data_seed=1, granularity=granularity)
        yield f"mlp-{granularity}", mlp, (mlp.sample_batch(16, 0), mlp.sample_batch(16, 1))


FUSED_CASES = {name: (task, batches) for name, task, batches in _fused_cases()}


class TestLossAndGrad:
    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_has_the_bits_of_loss_and_grad(self, name):
        task, batches = FUSED_CASES[name]
        for k, batch in enumerate(batches):
            theta = task.init_theta(k)
            loss, grad = task.loss_and_grad(theta, batch)
            assert type(loss) is float
            assert same_bits(loss, task.loss(theta, batch))
            assert same_bits(grad, task.grad(theta, batch))
            assert not np.shares_memory(grad, theta)

    @pytest.mark.parametrize("name", list(FUSED_CASES))
    def test_may_write_its_gradient_over_its_argument(self, name):
        # meta_loss reads the loss and gradient at theta1 with out=theta1
        task, batches = FUSED_CASES[name]
        for k, batch in enumerate(batches):
            theta = task.init_theta(k)
            want_loss, want_grad = task.loss_and_grad(theta, batch)
            loss, grad = task.loss_and_grad(theta, batch, out=theta)
            assert grad is theta
            assert same_bits(loss, want_loss) and same_bits(grad, want_grad)
