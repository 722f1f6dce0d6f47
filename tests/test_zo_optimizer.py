import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zoft.errors import DivergenceError, InvalidScaleError, NumericOverflowError
from zoft.paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    _CHUNK,
    perturb_in_place,
)
from zoft.testbeds import QuadraticTask, make_rank_family
from zoft import pertnn
from zoft.zo_optimizer import (
    LossPair,
    OptState,
    ZOConfig,
    _scales_for_step,
    _used_scales,
    normalize_scales,
    run_population,
    step,
    step_features,
    two_point,
)

from test_population import run_every_step


def partition():
    return BlockPartition([("a", 3), ("b", 5)])


def noise(sc, seed) -> np.ndarray:
    """u of `seed` at scales sc: one unit walk from zero."""
    u = ParamVector(np.zeros(sc.partition.total), sc.partition)
    perturb_in_place(u, sc, seed, 1.0)
    return u.values


def quadratic():
    rng = np.random.default_rng(1)
    return QuadraticTask(partition(), eigs=rng.uniform(0.2, 2.0, 8),
                         theta_star=rng.normal(size=8))


def reference_step(theta, state, batch, config, loss_of, learning_rate, pertnn=None):
    """step as four walks: +eps, -2eps and +eps restore theta, then a fourth
    walk applies -lr * c * u (skipped when c or lr is 0).  Returns the
    pre-update loss and leaves the pair and scales in state, as step does."""
    t = state.t + 1
    loss = lambda: float(loss_of(theta.values, batch))
    current_loss = loss()
    scales = _scales_for_step(theta, state, config, pertnn, current_loss)
    seed = NoiseSeed(config.seed, stream=t)
    eps = config.epsilon
    perturb_in_place(theta, scales, seed, +eps)
    plus = loss()
    perturb_in_place(theta, scales, seed, -2.0 * eps)
    minus = loss()
    perturb_in_place(theta, scales, seed, +eps)
    coeff = (plus - minus) / (2.0 * eps)
    if coeff != 0.0 and learning_rate != 0.0:
        perturb_in_place(theta, scales, seed, -learning_rate * coeff)
    pair = LossPair(plus, minus)
    state.prev_losses = pair
    state.prev_scales = scales.stds.copy()
    state.t = t
    return current_loss


class TestNormalizeScales:
    def test_budget_is_dimension(self):
        p = partition()
        out = normalize_scales(np.array([0.3, 7.0]), p)
        assert float(p.sizes @ out**2) == pytest.approx(p.total, rel=1e-15)

    def test_ratios_preserved(self):
        out = normalize_scales(np.array([0.3, 7.0]), partition())
        assert out[1] / out[0] == pytest.approx(7.0 / 0.3, rel=1e-12)

    def test_unit_scales_fixed_point(self):
        out = normalize_scales(np.ones(2), partition())
        assert np.allclose(out, 1.0, rtol=1e-15)

    def test_rejects_nonpositive(self):
        # normalization checks nothing; the step's one check flags a raw
        # scale whose softplus underflows to 0, which normalizing keeps at 0
        net = pertnn.constant_params(partition(), hidden=1)
        net.b2[1] = -800.0
        features = np.zeros((2, 5))
        with pytest.raises(InvalidScaleError):
            _used_scales(net, features, partition(), normalize=True)
        failures = {}
        _, used, _, _ = _used_scales(net, np.zeros((3, 2, 5)), partition(), True, failures)
        assert list(failures) == [0, 1, 2] and np.all(used == 1.0)

    @given(s1=st.floats(1e-3, 1e3), s2=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_budget_property(self, s1, s2):
        p = partition()
        out = normalize_scales(np.array([s1, s2]), p)
        assert float(p.sizes @ out**2) == pytest.approx(p.total, rel=1e-12)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_mixed_rows_sample_with_exactly_one(self, normalize):
        # every scale is valid, so the one test passes: MeZO rows take 1.0,
        # learned rows their used scales, and the network's raw output is
        # left as it was, even where `used` is `raw` (normalization off)
        p, learned = partition(), np.array([True, False, True, False])
        net = pertnn.init(p, hidden=4, seed=NoiseSeed(2))
        features = np.random.default_rng(3).normal(size=(4, 2, 5))
        raw_alone, _ = pertnn.forward_all(net, features)
        failures = {}
        raw, used, _, _ = _used_scales(net, features, p, normalize, failures, learned)
        assert failures == {} and np.array_equal(raw, raw_alone)
        want = normalize_scales(raw, p) if normalize else raw
        assert np.all(used[~learned] == 1.0)
        assert np.array_equal(used[learned], want[learned])

    def test_invalid_learned_rows_are_flagged_one_by_one(self):
        # a softplus that underflows to 0 fails the one test; then each
        # learned row is flagged on its own and samples with 1.0, and the
        # MeZO rows, which are never flagged, sample with 1.0 too
        p, learned = partition(), np.array([True, False, True, False])
        net = pertnn.constant_params(p, hidden=1)
        net.b2[1] = -800.0
        features = np.zeros((4, 2, 5))
        features[1, 0, 0] = np.nan  # a MeZO row's bad feature is its own business
        failures = {}
        with np.errstate(invalid="ignore"):
            _, used, _, _ = _used_scales(net, features, p, True, failures, learned)
        assert sorted(failures) == [0, 2]
        assert all(isinstance(failures[r], InvalidScaleError) for r in failures)
        assert np.all(used == 1.0)

    def test_rows_match_one_vector_at_a_time(self):
        p = partition()
        rows = np.random.default_rng(0).uniform(0.05, 20.0, (7, 2))
        out = normalize_scales(rows, p)
        for row, want in zip(rows, out):
            assert np.array_equal(normalize_scales(row, p), want)
            # and the budget of one vector is np.dot's, bit for bit
            assert np.vecdot(row**2, p.sizes) == float(np.dot(p.sizes, row**2))


class TestSPSAEstimate:
    def test_coefficient_exact_on_quadratic(self):
        # central differences are exact for quadratics: c = u . grad
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        sc = PerturbScales(np.array([0.5, 1.5]), partition())
        seed = NoiseSeed(9, stream=3)
        g = task.grad(theta.values.copy())
        pair, coeff = two_point(theta, sc, seed, 1e-3, lambda: task.loss(theta.values), 0.0)
        u = noise(sc, seed)
        assert coeff == pytest.approx(float(u @ g), rel=1e-8)
        assert pair.plus != pair.minus

    def test_theta_restored(self):
        task = quadratic()
        start = task.init_theta(0)
        theta = ParamVector(start.copy(), partition())
        two_point(theta, PerturbScales.unit(partition()), NoiseSeed(1), 1e-3,
                  lambda: task.loss(theta.values), 0.0)
        assert np.allclose(theta.values, start, rtol=1e-12, atol=0)

    def test_estimator_mean_is_preconditioned_gradient(self):
        # E[c u] = diag(per-coordinate variance) . grad
        task = quadratic()
        theta = ParamVector(task.init_theta(3), partition())
        sc = PerturbScales(np.array([2.0, 0.5]), partition())
        g = task.grad(theta.values.copy())
        n = 20_000
        acc = np.zeros(8)
        sq = np.zeros(8)
        for k in range(n):
            seed = NoiseSeed(0, stream=k)
            _, coeff = two_point(theta, sc, seed, 1e-3, lambda: task.loss(theta.values), 0.0)
            ghat = coeff * noise(sc, seed)
            acc += ghat
            sq += ghat**2
        mean = acc / n
        se = np.sqrt((sq / n - mean**2) / n)
        expected = np.repeat(sc.stds**2, sc.partition.sizes) * g
        assert np.all(np.abs(mean - expected) < 4 * se)


class TestTwoPointUpdate:
    def test_regenerates_the_same_direction(self):
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        sc = PerturbScales(np.array([1.0, 2.0]), partition())
        seed = NoiseSeed(4, stream=1)
        before = theta.values.copy()
        _, coeff = two_point(theta, sc, seed, 1e-3, lambda: task.loss(theta.values), 0.1)
        u = noise(sc, seed)
        assert np.allclose(theta.values, before - 0.1 * coeff * u,
                           rtol=1e-12, atol=1e-15)

    def test_rows_match_single_vector_calls(self):
        # each row of a population walk equals its own vector walk bit for bit
        task = quadratic()
        rows = ParamVector(np.stack([task.init_theta(k) for k in range(3)]), partition())
        sc = PerturbScales(np.array([1.0, 2.0]), partition())
        seed = NoiseSeed(4, stream=1)
        rates = np.array([0.1, 0.0, 0.3])
        singles = [ParamVector(row.copy(), partition()) for row in rows.values]
        pair, coeff = two_point(rows, sc, seed, 1e-3,
                                lambda: np.array([task.loss(r) for r in rows.values]), rates)
        for r, single in enumerate(singles):
            p, c = two_point(single, sc, seed, 1e-3, lambda: task.loss(single.values), rates[r])
            assert np.array_equal(rows.values[r], single.values)
            assert (pair.plus[r], pair.minus[r], coeff[r]) == (p.plus, p.minus, c)

    def test_zero_coefficient_is_a_plain_restore(self):
        # a flat loss gives c = 0, and the update walk then moves theta as lr = 0 does
        start = quadratic().init_theta(0)
        sc = PerturbScales(np.array([1.0, 2.0]), partition())
        moved, restored = (ParamVector(start.copy(), partition()) for _ in range(2))
        _, coeff = two_point(moved, sc, NoiseSeed(4), 1e-3, lambda: 1.0, 0.1)
        two_point(restored, sc, NoiseSeed(4), 1e-3, lambda: 1.0, 0.0)
        assert coeff == 0.0
        assert np.array_equal(moved.values, restored.values)

    def test_vector_raises_on_non_finite_loss(self):
        theta = ParamVector(quadratic().init_theta(0), partition())
        with pytest.raises(NumericOverflowError):
            two_point(theta, PerturbScales.unit(partition()), NoiseSeed(1), 1e-3,
                      lambda: float("inf"), 0.1)

    def test_row_failure_is_recorded_and_spares_the_other_rows(self):
        task = quadratic()
        start = np.stack([task.init_theta(k) for k in range(3)])
        sc = PerturbScales(np.array([1.0, 2.0]), partition())
        seed = NoiseSeed(4, stream=1)

        def losses(theta):
            out = np.array([task.loss(r) for r in theta.values])
            out[1] = np.nan
            return out

        raising = ParamVector(start.copy(), partition())
        with pytest.raises(NumericOverflowError):
            two_point(raising, sc, seed, 1e-3, lambda: losses(raising), np.full(3, 0.1))
        rows = ParamVector(start.copy(), partition())
        failures = {}
        with np.errstate(invalid="ignore"):
            two_point(rows, sc, seed, 1e-3, lambda: losses(rows), np.full(3, 0.1), failures)
        assert list(failures) == [1]
        assert isinstance(failures[1], NumericOverflowError)
        for r in (0, 2):
            single = ParamVector(start[r].copy(), partition())
            two_point(single, sc, seed, 1e-3, lambda: task.loss(single.values), 0.1)
            assert np.array_equal(rows.values[r], single.values)

    def test_overflow_detected(self):
        # the walk checks nothing; two_point flags the non-finite losses of
        # a walk that overflowed: a vector raises, a row of a population is
        # recorded and the other rows are spared
        huge = np.array([1e300, 1e300])
        theta = ParamVector(np.zeros(8), partition())
        with pytest.raises(NumericOverflowError), \
                np.errstate(over="ignore", invalid="ignore"):
            two_point(theta, PerturbScales(huge, partition()), NoiseSeed(0), 1e300,
                      lambda: float(theta.values.sum()), 0.0)
        rows = ParamVector(np.zeros((3, 8)), partition())
        scales = PerturbScales(np.stack([np.ones(2), huge, np.ones(2)]), partition())
        failures = {}
        with np.errstate(over="ignore", invalid="ignore"):
            two_point(rows, scales, NoiseSeed(0), 1e300,
                      lambda: rows.values.sum(axis=1), np.zeros(3), failures)
        assert list(failures) == [1]
        assert isinstance(failures[1], NumericOverflowError)
        assert np.isfinite(rows.values[[0, 2]]).all()


class TestStep:
    def test_mezo_uses_unit_scales(self):
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        state = OptState()
        step(theta, state, 0, ZOConfig(1, mode="mezo", seed=0), task.loss, 0.05)
        assert np.all(state.prev_scales == 1.0)

    def test_mezo_builds_unit_scales_of_each_shape(self):
        p = partition()
        state, config = OptState(), ZOConfig(1, mode="mezo")
        rows = ParamVector(np.zeros((3, 8)), p)
        first = _scales_for_step(rows, state, config, None, np.zeros(3))
        assert first.stds.shape == (3, 2) and np.all(first.stds == 1.0)
        # each step builds its own, which the state then keeps
        assert _scales_for_step(rows, state, config, None, np.zeros(3)).stds is not first.stds
        fewer = ParamVector(np.zeros((2, 8)), p)
        assert _scales_for_step(fewer, state, config, None, np.zeros(2)).stds.shape == (2, 2)
        vector = ParamVector(np.zeros(8), p)
        assert _scales_for_step(vector, state, config, None, 0.0).stds.shape == (2,)
        other = ParamVector(np.zeros(8), BlockPartition([("x", 4), ("y", 4)]))
        assert _scales_for_step(other, state, config, None, 0.0).partition is other.partition

    @pytest.mark.parametrize("rows", [None, 3])
    def test_finetuner_step_builds_one_perturb_scales(self, monkeypatch, rows):
        # one per step, unchecked: scales are checked where they come from
        # outside, and a step's are ones or the used scales that
        # _used_scales has just checked
        built, checked = [], []
        wrap, check = PerturbScales._wrap, PerturbScales.__post_init__
        monkeypatch.setattr(PerturbScales, "_wrap",
                            lambda *args: built.append(1) or wrap(*args))
        monkeypatch.setattr(PerturbScales, "__post_init__",
                            lambda self: checked.append(1) or check(self))
        task = quadratic()
        net = pertnn.init(partition(), hidden=8, seed=NoiseSeed(2))
        loss = task.loss if rows is None else (
            lambda values, batch: np.array([task.loss(v) for v in values]))
        lr = 0.05 if rows is None else np.full(rows, 0.05)
        for mode in ("mezo", "finetuner"):
            start = task.init_theta(0)
            theta = ParamVector(start if rows is None else np.tile(start, (rows, 1)),
                                partition())
            state, config = OptState(), ZOConfig(1, mode=mode, seed=0)
            built.clear()
            for t in range(1, 4):
                step(theta, state, t, config, loss, lr, net, failures={})
                assert len(built) == t
        assert checked == []

    def test_budget_invariant_every_step(self):
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        state = OptState()
        net = pertnn.init(partition(), hidden=8, seed=NoiseSeed(2))
        config = ZOConfig(1, mode="finetuner", seed=0)
        d = partition().total
        for t in range(30):
            step(theta, state, t, config, task.loss, 0.05, net)
            budget = float(partition().sizes @ state.prev_scales**2)
            assert budget == pytest.approx(d, rel=1e-12)

    def test_finetuner_requires_network(self):
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        with pytest.raises(ValueError):
            step(theta, OptState(), 0, ZOConfig(1, mode="finetuner", seed=0),
                 task.loss, 0.05)

    def test_records_pre_update_loss_and_time(self):
        task = quadratic()
        theta = ParamVector(task.init_theta(0), partition())
        state = OptState()
        config = ZOConfig(2, mode="mezo", seed=0)
        l0 = task.loss(theta.values.copy())
        assert step(theta, state, 0, config, task.loss, 0.05) == pytest.approx(l0)
        assert state.t == 1
        step(theta, state, 0, config, task.loss, 0.05)
        assert state.t == 2

    @pytest.mark.parametrize("mode", ["mezo", "finetuner"])
    @pytest.mark.parametrize("lr", [1e-5, 0.0])
    def test_fused_walk_matches_four_walk_reference(self, mode, lr):
        # one block over two full chunks plus a ragged tail, then a 1-entry block
        task = make_rank_family([2 * _CHUNK + 123, 1, 5], [40.0, 1.0, 3.0],
                                [1.0, 0.5, 2.0], seed=0)
        net = pertnn.init(task.partition, hidden=8, seed=NoiseSeed(1))
        config = ZOConfig(50, mode=mode, seed=3)
        fused = ParamVector(task.init_theta(3), task.partition)
        reference = ParamVector(fused.values.copy(), task.partition)
        fused_state, reference_state = OptState(), OptState()
        for t in range(1, 51):
            a = step(fused, fused_state, t, config, task.loss, lr, net)
            b = reference_step(reference, reference_state, t, config, task.loss, lr, net)
            assert np.array_equal(fused.values, reference.values)
            assert a == b
            assert ((fused_state.t, fused_state.prev_losses)
                    == (reference_state.t, reference_state.prev_losses))
            assert np.array_equal(fused_state.prev_scales, reference_state.prev_scales)

    def test_step_features_layout(self):
        theta = ParamVector(np.arange(8.0), partition())
        f = step_features(theta, OptState(LossPair(2.0, 1.0), np.array([0.5, 0.25])))
        assert f.shape == (2, 5)
        assert np.all(f[:, 0] == 2.0) and np.all(f[:, 1] == 1.0)
        assert f[0, 2] == 0.5 and f[1, 2] == 0.25
        assert f[0, 3] == pytest.approx(np.mean(np.arange(3.0)))
        assert f[1, 4] == pytest.approx(np.var(np.arange(3.0, 8.0)))

    def test_first_step_features_read_the_current_loss_and_unit_scales(self):
        # with no losses carried, the pair is the current loss twice and the
        # previous scales are ones; a non-finite loss is flagged, on rows
        # only where the row is learned
        theta = ParamVector(np.arange(8.0), partition())
        f = step_features(theta, OptState(), 3.0)
        assert np.all(f[:, :2] == 3.0) and np.all(f[:, 2] == 1.0)
        with pytest.raises(NumericOverflowError, match="^non-finite loss inf$"):
            step_features(theta, OptState(), np.inf)
        rows = ParamVector(np.tile(np.arange(8.0), (3, 1)), partition())
        loss = np.array([np.inf, 2.0, np.nan])
        failures = {}
        f = step_features(rows, OptState(learned=np.array([True, True, False])),
                          loss, failures)
        for column in (0, 1):
            assert np.array_equal(f[..., column], np.stack([loss, loss], axis=1),
                                  equal_nan=True)
        assert np.all(f[..., 2] == 1.0)
        assert list(failures) == [0] and str(failures[0]) == "non-finite loss inf"
        failures = {}
        step_features(rows, OptState(), loss, failures)
        assert sorted(failures) == [0, 2] and str(failures[2]) == "non-finite loss nan"


class TestRunFinetune:
    def test_loss_decreases_on_easy_quadratic(self):
        task = make_rank_family([4, 4], [4.0, 4.0], [1.0, 1.0], seed=0)
        [traj] = run_every_step([task], [0.1], ZOConfig(300, mode="mezo", seed=0))
        assert len(traj.loss) == 300
        tail = np.mean(traj.loss[-30:])
        assert tail < 0.2 * traj.loss[0]

    def test_deterministic(self):
        task = quadratic()
        [a] = run_every_step([task], [0.05], ZOConfig(50, mode="mezo", seed=7))
        [b] = run_every_step([task], [0.05], ZOConfig(50, mode="mezo", seed=7))
        assert np.array_equal(a.loss, b.loss)

    def test_seed_changes_trajectory(self):
        task = quadratic()
        [a] = run_every_step([task], [0.05], ZOConfig(20, mode="mezo", seed=7))
        [b] = run_every_step([task], [0.05], ZOConfig(20, mode="mezo", seed=8))
        assert not np.array_equal(a.loss, b.loss)

    def test_divergence_guard(self):
        task = make_rank_family([4, 4], [4.0, 4.0], [5.0, 5.0], seed=0)
        [outcome] = run_population([task], [5.0], ZOConfig(500, mode="mezo", seed=0))
        assert isinstance(outcome, DivergenceError)

    def test_non_finite_loss_is_divergence(self):
        task = make_rank_family([4, 4], [4.0, 4.0], [1.0, 1.0], seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            [outcome] = run_population([task], [1e155], ZOConfig(20, mode="mezo", seed=0))
        assert isinstance(outcome, DivergenceError) and "non-finite" in str(outcome)

    @pytest.mark.parametrize("lr", [-0.1, -5e-324, -np.inf])
    def test_rejects_negative_learning_rate(self, lr):
        with pytest.raises(ValueError, match="nonnegative"):
            run_population([quadratic()], [lr], ZOConfig(5, mode="mezo", seed=0))

    def test_finetuner_runs_with_fresh_network(self):
        task = quadratic()
        net = pertnn.init(partition(), hidden=8, seed=NoiseSeed(0))
        [traj] = run_every_step([task], [0.05], ZOConfig(40, mode="finetuner", seed=0),
                                net)
        assert len(traj.loss) == 40
        assert traj.scales.shape == (40, 2) and np.all(np.isfinite(traj.scales))


class TestZOConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(steps=-1),
        dict(steps=1, epsilon=0.0),
        dict(steps=1, batch_size=0),
        dict(steps=1, mode="adam"),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ZOConfig(**kwargs)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon=.* must be finite and > 0$"):
            ZOConfig(1, epsilon=epsilon)
