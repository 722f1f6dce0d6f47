import math

import numpy as np
import pytest

from zoft.errors import (
    ConfigError,
    DivergenceError,
    InvalidScaleError,
    NumericOverflowError,
)
from zoft.meta_trainer import (
    _Z_TAG,
    MetaConfig,
    _seed_words,
    meta_grad,
    meta_loss,
    meta_step,
    train,
)
from zoft.paramspace import BlockPartition, NoiseSeed, ParamVector, PerturbScales
from zoft.testbeds import QuadraticFamily, QuadraticTask
from zoft.zo_optimizer import LossPair, OptState, step_features
from zoft import pertnn

from test_pertnn import assert_same_params


def scalar_task():
    p = BlockPartition([("a", 1)])
    return QuadraticTask(p, eigs=[1.0], theta_star=[0.0])


def two_block_task(seed=0):
    p = BlockPartition([("a", 2), ("b", 3)])
    rng = np.random.default_rng(seed)
    return QuadraticTask(p, eigs=rng.uniform(0.2, 2.0, 5),
                         theta_star=rng.normal(size=5))


class TestMetaLoss:
    def test_hand_value_on_scalar_quadratic(self):
        # theta=1, H=1, unit scale, z=1, eps=0.1:
        #   loss+ = 0.605, loss- = 0.405, c = 1, theta1 = 1 - 0.1 = 0.9
        task = scalar_task()
        theta = ParamVector(np.array([1.0]), task.partition)
        net = pertnn.constant_params(task.partition, hidden=2)
        ev = meta_loss(theta, net, task, OptState(), batch=0,
                       epsilon=0.1, eta1=0.1, z=np.array([1.0]))
        assert ev.coeff == pytest.approx(1.0, rel=1e-12)
        assert ev.l_zo == pytest.approx(0.405, rel=1e-12)
        assert ev.loss_pair.plus == pytest.approx(0.605, rel=1e-12)
        assert ev.loss_pair.minus == pytest.approx(0.405, rel=1e-12)

    def test_first_step_feeds_current_loss_twice(self):
        task = two_block_task()
        theta = ParamVector(task.init_theta(0), task.partition)
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(1))
        state = OptState()
        z = np.random.default_rng(0).standard_normal(5)
        ev = meta_loss(theta, net, task, state, 0, 1e-3, 0.05, z)
        # a fresh state must behave exactly like one whose previous loss pair
        # holds the current unperturbed loss twice
        l0 = float(task.loss(theta.values, 0))
        explicit = OptState(prev_losses=LossPair(l0, l0), prev_scales=np.ones(2))
        ev2 = meta_loss(theta, net, task, explicit, 0, 1e-3, 0.05, z)
        assert ev.l_zo == ev2.l_zo
        assert np.array_equal(ev.used_stds, ev2.used_stds)
        assert ev.loss_pair.plus != l0  # perturbed losses move off the base loss

    def test_normalized_scales_meet_budget(self):
        task = two_block_task()
        theta = ParamVector(task.init_theta(0), task.partition)
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(1))
        z = np.random.default_rng(0).standard_normal(5)
        ev = meta_loss(theta, net, task, OptState(), 0, 1e-3, 0.05, z)
        budget = float(task.partition.sizes @ ev.used_stds**2)
        assert budget == pytest.approx(task.partition.total, rel=1e-12)


class TestMetaGrad:
    def _fd_oracle(self, task, theta, net, state, batch, config, z, base_ev):
        """Loss after one update with the finite-difference coefficient frozen."""
        def f(candidate):
            from zoft.pertnn import forward_all
            l0 = float(task.loss(theta.values, batch))
            feats = step_features(theta, state, l0)
            raws, _ = forward_all(candidate, feats)
            if config.normalize:
                d = theta.partition.total
                used = raws * np.sqrt(d / float(theta.partition.sizes @ raws**2))
            else:
                used = raws
            u = np.repeat(used, theta.partition.sizes) * z
            theta1 = theta.values - config.eta1 * base_ev.coeff * u
            return float(task.loss(theta1, batch))
        return f

    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_finite_differences(self, normalize):
        worst = 0.0
        for trial in range(20):
            task = two_block_task(seed=trial)
            theta = ParamVector(task.init_theta(trial), task.partition)
            net = pertnn.init(task.partition, hidden=3, seed=NoiseSeed(trial))
            state = OptState()
            config = MetaConfig(eta1=0.05, eta2=0.0, steps=1, epsilon=1e-3,
                                seed=0, normalize=normalize)
            z = np.random.default_rng(trial).standard_normal(5)
            grads, ev = meta_grad(theta, net, task, state, 0, config, z)
            f = self._fd_oracle(task, theta, net, state, 0, config, z, ev)

            eps = 1e-5
            rng = np.random.default_rng(trial + 1000)
            for i in range(net.n_blocks):
                arrays = [(net.w1[i], grads.w1[i]), (net.b1[i], grads.b1[i]),
                          (net.w2[i], grads.w2[i])]
                for arr, garr in arrays:
                    flat_idx = rng.integers(0, arr.size, size=3)
                    for j in flat_idx:
                        old = arr.flat[j]
                        arr.flat[j] = old + eps
                        up = f(net)
                        arr.flat[j] = old - eps
                        dn = f(net)
                        arr.flat[j] = old
                        fd = (up - dn) / (2 * eps)
                        # floor absorbs central-difference roundoff on
                        # near-zero gradients (abs error ~1e-11 here)
                        denom = max(abs(fd), abs(garr.flat[j]), 1e-4)
                        worst = max(worst, abs(fd - garr.flat[j]) / denom)
                old = net.b2[i]
                net.b2[i] = old + eps
                up = f(net)
                net.b2[i] = old - eps
                dn = f(net)
                net.b2[i] = old
                fd = (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(grads.b2[i]), 1e-4)
                worst = max(worst, abs(fd - grads.b2[i]) / denom)
        assert worst <= 1e-5

    def test_single_block_gradient_vanishes_under_normalization(self):
        # with one block the budget pins the scale, so nothing can change
        task = scalar_task()
        theta = ParamVector(np.array([1.0]), task.partition)
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(0))
        config = MetaConfig(eta1=0.1, eta2=0.0, steps=1, seed=0)
        grads, _ = meta_grad(theta, net, task, OptState(), 0, config,
                             np.array([0.7]))
        for i in range(net.n_blocks):
            assert np.all(np.abs(grads.w1[i]) <= 1e-12)
            assert abs(grads.b2[i]) <= 1e-12


def _reference_sigmoid(y):
    return 1.0 / (1.0 + math.exp(-y)) if y >= 0 else math.exp(y) / (1.0 + math.exp(y))


def reference_meta_grad(theta, net, task, state, batch, config, z):
    """The meta-gradient computed one block at a time: per-block forward,
    inline budget normalization and its Jacobian, per-block backward."""
    part = theta.partition
    l0 = float(task.loss(theta.values, batch))
    feats = step_features(theta, state, l0)
    hs, ys, raws = [], [], []
    for i in range(part.n_blocks):
        h = np.tanh(net.w1[i] @ feats[i] + net.b1[i])
        y = float(net.w2[i] @ h + net.b2[i])
        hs.append(h)
        ys.append(y)
        raws.append(float(np.logaddexp(0.0, y)))
    raws = np.array(raws)
    sizes = part.sizes.astype(np.float64)
    budget = float(sizes @ raws**2)
    factor = np.sqrt(part.total / budget)
    used = raws * factor if config.normalize else raws.copy()
    u = np.repeat(used, part.sizes) * z
    eps = config.epsilon
    coeff = (float(task.loss(theta.values + eps * u, batch))
             - float(task.loss(theta.values - eps * u, batch))) / (2.0 * eps)
    g1 = task.grad(theta.values - config.eta1 * coeff * u, batch)
    d_used = np.array([-config.eta1 * coeff * float(g1[sl] @ z[sl])
                       for sl in part.slices])
    if config.normalize:
        d_raw = factor * d_used - (sizes * raws / budget) * float(d_used @ used)
    else:
        d_raw = d_used
    grads = pertnn.PertNNParams(net.block_names, net.hidden,
                                *(np.zeros_like(a) for a in net.arrays))
    for i in range(part.n_blocks):
        dy = float(d_raw[i]) * _reference_sigmoid(ys[i])
        grads.w2[i] = dy * hs[i]
        grads.b2[i] = dy
        dpre = (dy * net.w2[i]) * (1.0 - hs[i] ** 2)
        grads.w1[i] = np.outer(dpre, feats[i])
        grads.b1[i] = dpre
    return raws, grads


class TestStackedNetworkBitExact:
    @pytest.mark.parametrize("n_blocks", [1, 2, 33])
    @pytest.mark.parametrize("hidden", [1, 2, 32])
    def test_batched_passes_equal_per_block_reference(self, n_blocks, hidden):
        rng = np.random.default_rng(1000 * n_blocks + hidden)
        part = BlockPartition([(f"b{i}", int(s))
                               for i, s in enumerate(rng.integers(1, 10, n_blocks))])
        task = QuadraticTask(part, eigs=rng.uniform(0.2, 2.0, part.total),
                             theta_star=rng.normal(size=part.total))
        theta = ParamVector(task.init_theta(0), part)
        net = pertnn.init(part, hidden=hidden, seed=NoiseSeed(n_blocks))
        # outputs of both signs reach both branches of the stable sigmoid
        net.b2[:] = rng.uniform(-4.0, 4.0, n_blocks)
        state = OptState(prev_losses=LossPair(1.5, 1.25),
                         prev_scales=rng.uniform(0.5, 2.0, n_blocks))
        z = rng.standard_normal(part.total)
        for normalize in (True, False):
            config = MetaConfig(eta1=0.05, eta2=0.0, steps=1, seed=0,
                                normalize=normalize)
            ref_raws, ref_grads = reference_meta_grad(theta, net, task, state, 0,
                                                      config, z)
            feats = step_features(theta, state)
            raws, _ = pertnn.forward_all(net, feats)
            assert np.array_equal(raws, ref_raws)
            grads, ev = meta_grad(theta, net, task, state, 0, config, z)
            assert np.array_equal(ev.raw_stds, ref_raws)
            for got, want in zip(grads.arrays, ref_grads.arrays):
                assert np.array_equal(got, want)


class TestMetaStepAndTrain:
    def test_meta_step_updates_network_and_model(self):
        task = two_block_task()
        theta = ParamVector(task.init_theta(0), task.partition)
        before_theta = theta.values.copy()
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(0))
        before_b2 = net.b2.copy()
        config = MetaConfig(eta1=0.05, eta2=0.1, steps=1, seed=0)
        state = OptState()
        z = np.random.default_rng(1).standard_normal(5)
        _, loss = meta_step(theta, net, task, state, 0, config, z)
        assert not np.array_equal(theta.values, before_theta)
        assert not np.array_equal(net.b2, before_b2)
        assert state.prev_losses is not None
        assert loss == pytest.approx(task.loss(before_theta, 0))

    def test_meta_step_builds_no_perturb_scales(self, monkeypatch):
        # the scales stay arrays from the network to the backward pass
        built = []
        check = PerturbScales.__post_init__
        monkeypatch.setattr(PerturbScales, "__post_init__",
                            lambda self: built.append(1) or check(self))
        task = two_block_task()
        theta = ParamVector(task.init_theta(0), task.partition)
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(0))
        z = np.random.default_rng(1).standard_normal(5)
        for normalize in (True, False):
            config = MetaConfig(eta1=0.05, eta2=0.1, steps=1, seed=0, normalize=normalize)
            meta_step(theta, net, task, OptState(), 0, config, z)
        assert built == []

    def test_invalid_scales_are_divergence(self):
        # b2 = -800 underflows every block's softplus to 0: no budget to meet
        fam = QuadraticFamily(block_sizes=(2, 3), ranks=(2.0, 3.0), seed=0)
        tasks = fam.make_tasks(1)
        net = pertnn.constant_params(tasks[0].partition, 2)
        net.b2[:] = -800.0
        with pytest.raises(DivergenceError, match="invalid scales at step 1") as info, \
                np.errstate(divide="ignore", invalid="ignore"):
            train(MetaConfig(eta1=0.05, eta2=0.01, steps=2, seed=0), tasks, net)
        assert isinstance(info.value.__cause__, InvalidScaleError)

    def test_non_finite_perturbed_loss_is_divergence(self):
        # the start loss is finite and the +eps loss is not: meta_loss raises
        # at once, so one meta-step is enough to end the run
        task = two_block_task()
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(0))
        vector_loss, calls = task.loss, []

        def loss(values, batch=0):
            calls.append(1)
            return math.inf if len(calls) == 2 else vector_loss(values, batch)

        task.loss = loss
        with pytest.raises(DivergenceError, match="non-finite value at step 1: "
                           "non-finite perturbed losses") as info:
            train(MetaConfig(eta1=0.05, eta2=0.01, steps=1, seed=0), [task], net)
        assert isinstance(info.value.__cause__, NumericOverflowError)

    def test_train_record_accounting(self):
        fam = QuadraticFamily(block_sizes=(2, 3), ranks=(1.0, 3.0), seed=0)
        tasks = fam.make_tasks(3)
        net = pertnn.init(tasks[0].partition, hidden=4, seed=NoiseSeed(0))
        config = MetaConfig(eta1=0.05, eta2=0.01, steps=12, reset_period=5, seed=0)
        _, log = train(config, tasks, net)
        assert len(log.l_zo) == 12 * 3
        assert log.t.tolist() == [t for t in range(1, 13) for _ in tasks]
        flagged = log.t[log.reset].tolist()
        assert flagged == [5, 10]

    def test_train_is_deterministic_and_pure(self):
        fam = QuadraticFamily(block_sizes=(2, 3), ranks=(1.0, 3.0), seed=0)
        tasks = fam.make_tasks(2)
        net = pertnn.init(tasks[0].partition, hidden=4, seed=NoiseSeed(0))
        config = MetaConfig(eta1=0.05, eta2=0.01, steps=8, seed=0)
        out1, log1 = train(config, tasks, net)
        out2, log2 = train(config, tasks, net)
        assert_same_params(out1, out2)
        assert log1.l_zo.tolist() == log2.l_zo.tolist()
        # the input network is untouched
        assert_same_params(net, pertnn.init(tasks[0].partition, hidden=4, seed=NoiseSeed(0)))

    def test_train_shuffles_tasks(self):
        fam = QuadraticFamily(block_sizes=(2, 3), ranks=(1.0, 3.0), seed=0)
        tasks = fam.make_tasks(4)
        net = pertnn.init(tasks[0].partition, hidden=4, seed=NoiseSeed(0))
        config = MetaConfig(eta1=0.05, eta2=0.0, steps=6, seed=0)
        _, log = train(config, tasks, net)
        orders = [
            tuple(log.task_names[i] for i in log.task[k * 4 : (k + 1) * 4])
            for k in range(6)
        ]
        assert len(set(orders)) > 1  # not always the listed order
        for order in orders:
            assert sorted(order) == sorted(t.name for t in tasks)

    def test_zero_steps_draw_no_start(self, monkeypatch):
        # a set-up that trains no step returns the network as given and an
        # empty log, without the d normals of a start it never uses
        task = QuadraticFamily(block_sizes=(2, 3), ranks=(1.0, 3.0), seed=0).make_task(0)
        net = pertnn.init(task.partition, hidden=4, seed=NoiseSeed(0))

        def no_start(seed):
            raise AssertionError("init_theta drawn")

        monkeypatch.setattr(task, "init_theta", no_start)
        out, log = train(MetaConfig(eta1=0.05, eta2=0.01, steps=0, seed=0), [task], net)
        assert_same_params(out, net)
        assert out is not net
        assert len(log.l_zo) == 0 and log.task_names == (task.name,)

    def test_mismatched_partitions_rejected(self):
        a = QuadraticFamily(block_sizes=(2, 3), ranks=(2.0, 3.0), seed=0).make_task(0)
        b = QuadraticFamily(block_sizes=(3, 2), ranks=(3.0, 2.0), seed=0).make_task(0)
        net = pertnn.init(a.partition, hidden=4, seed=NoiseSeed(0))
        with pytest.raises(ConfigError):
            train(MetaConfig(eta1=0.05, eta2=0.01, steps=1, seed=0), [a, b], net)

    def test_empty_task_list_rejected(self):
        with pytest.raises(ConfigError):
            train(MetaConfig(eta1=0.05, eta2=0.01, steps=1, seed=0), [],
                  pertnn.constant_params(BlockPartition([("a", 1)]), 2))

    def test_divergence_guard(self):
        fam = QuadraticFamily(block_sizes=(2, 3), ranks=(2.0, 3.0),
                              opnorms=(8.0, 8.0), seed=0)
        tasks = fam.make_tasks(1)
        net = pertnn.init(tasks[0].partition, hidden=4, seed=NoiseSeed(0))
        with pytest.raises(DivergenceError):
            train(MetaConfig(eta1=2.0, eta2=0.0, steps=300, reset_period=1000,
                             seed=0), tasks, net)


class TestMetaConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(eta1=0.0, eta2=0.1, steps=1),
        dict(eta1=0.1, eta2=-0.1, steps=1),
        dict(eta1=0.1, eta2=0.1, steps=1, epsilon=0.0),
        dict(eta1=0.1, eta2=0.1, steps=-1),
        dict(eta1=0.1, eta2=0.1, steps=1, reset_period=0),
        # the CLI's rule (low = 1) and ZOConfig's
        dict(eta1=0.1, eta2=0.1, steps=1, batch_size=0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            MetaConfig(**kwargs)

    # a nan passes no `<= 0` test: before it was refused, eta2 = nan trained
    # one step, poisoned the network and ended in a divergence at step 2
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, rule", [("epsilon", "> 0"), ("eta1", "> 0"),
                                             ("eta2", ">= 0")])
    def test_rejects_non_finite(self, field, rule, value):
        kwargs = dict(eta1=0.05, eta2=0.05, steps=1, epsilon=1e-3) | {field: value}
        with pytest.raises(ConfigError, match=f"^{field}=.* must be finite and {rule}$"):
            MetaConfig(**kwargs)

    def test_accepts_a_frozen_network(self):
        assert MetaConfig(eta1=0.05, eta2=0.0, steps=1).eta2 == 0.0


class TestSeedWords:
    @pytest.mark.parametrize("key", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_words_seed_what_the_list_seeds(self, key):
        # ints of 2**32 and above are split into little-endian 32-bit words
        keys = (_Z_TAG, key, 3, key)
        words = _seed_words(*keys)
        assert words.dtype == np.uint32
        assert np.array_equal(np.random.SeedSequence(list(keys)).generate_state(8),
                              np.random.SeedSequence(words).generate_state(8))
        assert np.array_equal(np.random.default_rng(list(keys)).standard_normal(5),
                              np.random.default_rng(words).standard_normal(5))
