"""Population runs: every row equals its own single run, bit for bit.

The reference is a plain loop of `step` calls on one (d,) parameter vector
with no failure record, so it raises at the first non-finite value or
invalid scale.  A vector steps through the same statements as one row, so
what the reference checks is run_population's own work: one noise draw for
every row, the rows' loss oracles, the divergence guard and the removal of
failed rows.
"""

import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from zoft import pertnn, testbeds
from zoft.errors import (
    DivergenceError,
    InvalidScaleError,
    NumericOverflowError,
    PartitionMismatchError,
)
from zoft.paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    perturb_in_place,
)
from zoft.testbeds import (
    MLPTask,
    QuadraticFamily,
    QuadraticRows,
    QuadraticTask,
    make_rank_family,
)
from zoft.zo_optimizer import (
    DIVERGENCE_FACTOR,
    OptState,
    RaceRecorder,
    RunRecord,
    ZOConfig,
    run_population,
    step,
)


@dataclass
class Kept(RunRecord):
    """A RunRecord with every step's loss, (T,), and scales, (T, n_blocks)."""

    loss: np.ndarray
    scales: np.ndarray


class EveryStep(RaceRecorder):
    """A recorder that keeps every step: each row's RunRecord for its race,
    and the loss and the scales it sampled with at each step (a Kept)."""

    def __init__(self, n_rows, steps, **race):
        super().__init__(n_rows, steps, **race)
        self.kept = [[] for _ in range(n_rows)]

    def append(self, t, rows, losses, scales):
        super().append(t, rows, losses, scales)
        for k, r in enumerate(np.arange(len(self.kept))[rows].tolist()):
            self.kept[r].append((losses[k], scales[k].copy()))

    def result(self, r):
        record = super().result(r)
        return Kept(record.first, record.hit, record.tail,
                    np.array([loss for loss, _ in self.kept[r]]),
                    np.array([scales for _, scales in self.kept[r]]))


def run_every_step(models, lrs, config, pertnn=None, learned=None):
    """run_population, each row's outcome a Kept (or its DivergenceError)."""
    return run_population(models, lrs, config, pertnn, learned,
                          EveryStep(len(models), config.steps))


def reference_run(model, lr, config, net):
    """The single-run loop: each step's (t, loss, scales), or None where the
    run diverges."""
    theta = ParamVector(model.init_theta(config.seed), model.partition)
    state = OptState()
    records, initial = [], None
    for t in range(1, config.steps + 1):
        batch = model.sample_batch(config.batch_size, config.seed * 1000003 + t)
        try:
            loss = step(theta, state, batch, config, model.loss, lr, net)
        except (NumericOverflowError, InvalidScaleError):
            return None
        records.append((state.t, loss, state.prev_scales))
        if initial is None:
            initial = abs(loss) + 1e-300
        if abs(loss) > DIVERGENCE_FACTOR * initial:
            return None
    return records


def assert_rows_match(models, lrs, config, net, learned=None):
    """Each row equals its single run in its own method: finetuner where
    `learned` holds True, mezo where it holds False (default: config.mode)."""
    outcomes = run_every_step(models, lrs, config, net, learned)
    assert len(outcomes) == len(models)
    if learned is None:
        learned = [config.mode == "finetuner"] * len(models)
    for model, lr, own, outcome in zip(models, lrs, learned, outcomes):
        own_config = replace(config, mode="finetuner" if own else "mezo")
        want = reference_run(model, lr, own_config, net)
        if want is None:
            assert isinstance(outcome, DivergenceError), (model.name, lr, own)
            [alone] = run_population([model], [lr], own_config, net)
            assert isinstance(alone, DivergenceError)
            continue
        assert not isinstance(outcome, DivergenceError), (model.name, lr, own)
        assert len(outcome.loss) == len(want)
        steps, *columns = zip(*want)
        assert steps == tuple(range(1, len(want) + 1))
        for name, ref in zip(("loss", "scales"), columns):
            assert np.array_equal(getattr(outcome, name), np.array(ref)), (name, lr, own)
    return outcomes


def leave_step(outcome) -> int:
    """The step at which the divergence guard ended a row."""
    return int(str(outcome).rsplit(" ", 1)[1])


def race_family():
    return QuadraticFamily(
        block_sizes=(48, 16), ranks=(48.0, 16.0), opnorms=(1.0, 0.05),
        shift_scale=1.0, init_scale=(0.204, 1.58), seed=0,
    )


class TestRowsEqualSingleRuns:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("mode", ["mezo", "finetuner", "mixed"])
    def test_race_family(self, mode, normalize):
        # 0.125 diverges by the loss guard and 1e155 by overflow, so rows
        # leave the population at different steps.  A mixed population
        # alternates mezo and finetuner rows, and on each task the two
        # methods' 0.125 rows leave at different steps (30 to 41): a mask
        # that did not leave with its rows would hand rows the other method
        tasks = race_family().make_tasks(2, start=100)
        net = pertnn.init(tasks[0].partition, 16, NoiseSeed(4))
        lrs = [0.02, 0.05, 0.125, 1e155]
        methods = ["mezo", "finetuner"] if mode == "mixed" else [mode]
        rows = [(task, lr, method) for task in tasks for lr in lrs for method in methods]
        config = ZOConfig(150, mode="mezo" if mode == "mezo" else "finetuner", seed=3,
                          normalize=normalize)
        models, learned = [task for task, _, _ in rows], [m == "finetuner" for *_, m in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = assert_rows_match(models, [lr for _, lr, _ in rows], config, net,
                                         learned)
            kept = run_population(models, [lr for _, lr, _ in rows], config, net, learned)
        # the default record holds what the loss column gives, and the rows
        # leave where they did
        for outcome, record in zip(outcomes, kept):
            if isinstance(outcome, DivergenceError):
                assert str(record) == str(outcome)
            else:
                column = outcome.loss
                hits = np.flatnonzero(column <= 0.5 * column[0])
                assert type(record) is RunRecord
                assert record.first == outcome.first == column[0]
                assert record.hit == outcome.hit == (int(hits[0]) + 1 if len(hits) else None)
                assert record.tail.tobytes() == outcome.tail.tobytes() == column[-15:].tobytes()
        diverged = [isinstance(o, DivergenceError) for o in outcomes]
        assert diverged == [lr > 0.1 for _, lr, _ in rows]
        guard = {(task.name, method): leave_step(o)
                 for (task, lr, method), o in zip(rows, outcomes) if lr == 0.125}
        assert all(1 < t < 150 for t in guard.values())
        if mode == "mixed":
            assert all(guard[task.name, "mezo"] != guard[task.name, "finetuner"]
                       for task in tasks)

    def test_mlp_block_partition(self):
        model = MLPTask(n_in=4, n_hidden=8, n_out=3, n_samples=120,
                        data_seed=0, granularity="block")
        net = pertnn.init(model.partition, 8, NoiseSeed(1))
        config = ZOConfig(60, batch_size=16, mode="finetuner", seed=2)
        assert_rows_match([model] * 3, [0.05, 0.2, 1.0], config, net)

    @pytest.mark.parametrize("mode", ["mezo", "finetuner"])
    def test_wide_partition(self, mode):
        # the 40000-entry block spans two noise chunks; lr 0 skips every
        # update while the other rows apply theirs
        model = make_rank_family([40000, 24, 1], [400.0, 8.0, 1.0],
                                 [1.0, 0.5, 1.0], seed=0)
        net = pertnn.init(model.partition, 8, NoiseSeed(0))
        config = ZOConfig(8, mode=mode, seed=0)
        assert_rows_match([model] * 3, [1e-5, 0.0, 3e-5], config, net)


class TestStackedQuadraticOracle:
    def test_rows_equal_each_tasks_vector_loss(self):
        # noisy and noise-free tasks mixed, repeated rows, then the oracle
        # that a population rebuilds from the rows that stay
        family = race_family()
        noisy = QuadraticFamily(**{**vars(family), "noise_tau": 0.7})
        tasks = [noisy.make_task(3), family.make_task(4), noisy.make_task(5)]
        rows_of = [tasks[0], tasks[0], tasks[1], tasks[2], tasks[2]]
        oracle = QuadraticRows(rows_of)
        values = np.random.default_rng(0).normal(size=(5, 64))
        for key in (11, 11, 12):
            want = [task.loss(row, key) for task, row in zip(rows_of, values)]
            assert np.array_equal(oracle(values, key), np.array(want))
        keep = [1, 2, 4]
        oracle = QuadraticRows([rows_of[k] for k in keep])
        want = [rows_of[k].loss(values[k], 12) for k in keep]
        assert np.array_equal(oracle(values[keep], 12), np.array(want))
        want = [rows_of[k].loss(values[k], 13) for k in keep]
        assert np.array_equal(oracle(values[keep], 13), np.array(want))
        # rows of one task, noisy and noise-free, take the task's own loss
        for task in tasks[:2]:
            for key in (11, 11, 12):
                want = [task.loss(row, key) for row in values]
                assert np.array_equal(task.loss(values, key), np.array(want))
        mlp = MLPTask(n_in=4, n_hidden=8, n_out=3)
        rows = np.random.default_rng(1).normal(size=(3, mlp.partition.total))
        batch = mlp.sample_batch(16, 0)
        want = [mlp.loss(row, batch) for row in rows]
        assert np.array_equal(mlp.loss(rows, batch), np.array(want))

    def test_noisy_run_draws_its_batch_noise_once_per_step(self, monkeypatch):
        # a step evaluates three losses on one batch, and draws its noise once
        task = QuadraticFamily(**{**vars(race_family()), "noise_tau": 0.5}).make_task(100)
        draws = []
        default_rng = np.random.default_rng

        def counted(seed=None):
            if isinstance(seed, list) and seed[0] == testbeds._QNOISE_TAG:
                draws.append(seed[2])
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        run_population([task], [0.02], ZOConfig(10, seed=5))
        assert draws == [5 * 1000003 + t for t in range(1, 11)]

    @pytest.mark.parametrize("mode", ["mezo", "finetuner"])
    def test_noisy_family_with_a_row_diverging_mid_run(self, mode, monkeypatch):
        # 0.45 leaves the population by the loss guard after some steps,
        # 1e155 by overflow, so the stacked oracle is rebuilt twice; no row
        # may reach the per-task loss
        family = QuadraticFamily(**{**vars(race_family()), "noise_tau": 0.5})
        tasks = family.make_tasks(3, start=100)
        net = pertnn.init(tasks[0].partition, 16, NoiseSeed(4))
        lrs = [0.02, 0.05, 0.45, 1e155]
        models = [task for task in tasks for _ in lrs]
        config = ZOConfig(120, mode=mode, seed=5)
        calls = []
        vector_loss = QuadraticTask.loss

        def counted(self, values, batch=0):
            calls.append(values.ndim)
            return vector_loss(self, values, batch)

        monkeypatch.setattr(QuadraticTask, "loss", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = run_population(models, lrs * 3, config, net)
        assert calls == []
        monkeypatch.setattr(QuadraticTask, "loss", vector_loss)
        with np.errstate(over="ignore", invalid="ignore"):
            assert_rows_match(models, lrs * 3, config, net)
        diverged = [o for o in outcomes if isinstance(o, DivergenceError)]
        assert 0 < len(diverged) < len(outcomes)
        guard = [o for o in diverged if "exceeded" in str(o)]
        assert guard and all(leave_step(o) > 1 for o in guard)
        # rows of one noisy task: the task's own loss takes them all
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = assert_rows_match([tasks[0]] * 4, lrs, config, net)
        assert [isinstance(o, DivergenceError) for o in outcomes] == [False, False, True, True]


class TestFailures:
    def test_invalid_scales_leave_only_their_row(self):
        # h = tanh(l+) and y = 100 h - 800: the far task's loss keeps its
        # softplus at e^-701 > 0, the near task's underflows it to 0, an
        # invalid scale for that row alone
        far = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=0)
        near = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], init_scale=1e-8,
                                seed=0)
        net = pertnn.constant_params(far.partition, 1)
        net.w1[:, 0, 0] = 1.0
        net.w2[:, 0] = 100.0
        net.b2[:] = -800.0
        config = ZOConfig(5, mode="finetuner", seed=0, normalize=False)
        outcomes = assert_rows_match([far, far, near], [0.05, 0.1, 0.05], config, net)
        assert [isinstance(o, DivergenceError) for o in outcomes] == [False, False, True]
        assert isinstance(outcomes[2].__cause__, InvalidScaleError)
        [alone] = run_population([near], [0.05], config, net)
        assert isinstance(alone, DivergenceError) and "invalid scales" in str(alone)

    def test_each_failing_row_names_only_its_own_scales(self):
        # b2 = -800 underflows every softplus to 0 and the budget to nan, in
        # both rows at step 1: each row's error shows its own two scales
        tasks = [make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=k) for k in (0, 1)]
        net = pertnn.constant_params(tasks[0].partition, 1)
        net.b2[:] = -800.0
        config = ZOConfig(3, mode="finetuner", seed=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            outcomes = run_population(tasks, [0.05, 0.05], config, net)
        causes = [o.__cause__ for o in outcomes]
        assert all(isinstance(c, InvalidScaleError) for c in causes)
        assert causes[0] is not causes[1]
        for cause in causes:
            assert str(cause).endswith("got [nan nan]")

    @pytest.mark.parametrize("normalize", [True, False])
    def test_network_failures_leave_only_finetuner_rows(self, normalize):
        # b2 = -800 underflows every softplus to 0: every finetuner row has
        # invalid scales at step 1, while the mezo rows beside them, whose
        # features go through the same network, step on as single runs
        tasks = [make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=k) for k in (0, 1)]
        net = pertnn.constant_params(tasks[0].partition, 1)
        net.b2[:] = -800.0
        config = ZOConfig(5, mode="finetuner", seed=0, normalize=normalize)
        models = [task for task in tasks for _ in range(2)]
        learned = [False, True] * 2
        with np.errstate(divide="ignore", invalid="ignore"):
            outcomes = assert_rows_match(models, [0.05] * 4, config, net, learned)
        for own, outcome in zip(learned, outcomes):
            if own:
                assert isinstance(outcome.__cause__, InvalidScaleError)
                assert str(outcome).startswith("invalid scales at step 1")
            else:
                assert not isinstance(outcome, DivergenceError)
                assert np.array_equal(outcome.scales, np.ones((5, 2)))

    def test_each_method_fails_as_its_single_run(self):
        # an initial loss that overflows to inf: a finetuner run fails on it
        # before its scale pass, a mezo run on its perturbed losses, and in a
        # mixed population each row fails as it does alone
        task = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], init_scale=1e200, seed=0)
        net = pertnn.init(task.partition, 4, NoiseSeed(0))
        config = ZOConfig(3, mode="finetuner", seed=0)
        learned = [False, True]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = run_population([task, task], [0.05, 0.05], config, net, learned)
            for own, outcome in zip(learned, outcomes):
                own_config = replace(config, mode="finetuner" if own else "mezo")
                [alone] = run_population([task], [0.05], own_config, net)
                assert isinstance(alone, DivergenceError)
                assert str(outcome) == str(alone)
        assert str(outcomes[0]).endswith("non-finite perturbed losses")
        assert str(outcomes[1]).endswith("non-finite loss inf")

    def test_bad_network_output_and_overflowing_budget_leave_only_their_rows(self):
        # h0 = tanh(block mean), h1 = tanh(100) == 1 and y = 1e308 (h0 + h1):
        # a mean near -100 makes h0 == -1 and y == 0 (unit raw scales), one
        # near 0 gives y ~ 1e308, whose square overflows the budget, and one
        # near 100 overflows y itself
        def task(mean, init_scale=1.0):
            return make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=0,
                                    init_scale=init_scale, theta_star=np.full(8, mean))
        healthy, budget, overflow = task(-100.0), task(0.0, 0.1), task(100.0)
        net = pertnn.constant_params(healthy.partition, 2)
        net.w1[:, 0, 3] = 1.0
        net.b1[:, 1] = 100.0
        net.w2[:] = 1e308
        config = ZOConfig(5, mode="finetuner", seed=0)
        models = [healthy, budget, healthy, overflow]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = assert_rows_match(models, [0.05, 0.05, 0.1, 0.05], config, net)
            causes = [type(o.__cause__) if isinstance(o, DivergenceError) else None
                      for o in outcomes]
            assert causes == [None, InvalidScaleError, None, NumericOverflowError]
            assert all(np.allclose(o.scales, 1.0) for o in (outcomes[0], outcomes[2]))
            [alone] = run_population([overflow], [0.05], config, net)
            assert isinstance(alone, DivergenceError)
            assert ("non-finite value at step 1: "
                    "non-finite activation in blocks block0, block1") in str(alone)
            [alone] = run_population([budget], [0.05], config, net)
            assert isinstance(alone, DivergenceError)
            assert "invalid scales at step 1" in str(alone)

    def test_rejects_mismatched_inputs(self):
        model = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=0)
        other = make_rank_family([4, 5], [2.0, 3.0], [1.0, 1.0], seed=0)
        config = ZOConfig(2, seed=0)
        with pytest.raises(ValueError):
            run_population([model, model], [0.05], config)
        with pytest.raises(ValueError):
            run_population([model], [-0.1], config)
        with pytest.raises(PartitionMismatchError):
            run_population([model, other], [0.05, 0.05], config)
        with pytest.raises(ValueError):
            run_population([model, model], [0.05, 0.05], config, learned=[True])
        with pytest.raises(ValueError):  # mezo mode has no network to sample with
            run_population([model, model], [0.05, 0.05], config, learned=[False, True])
        with pytest.raises(ValueError):  # only quadratic tasks stack their rows
            run_population([MLPTask(data_seed=0), MLPTask(data_seed=1)], [0.05, 0.05],
                           config)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1.0])
    def test_rejects_a_rate_that_is_not_finite_and_nonnegative(self, lr):
        # before the first step: a nan or infinite rate once ran to a numpy
        # RuntimeWarning and a divergence at step 1
        model = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="learning rate must be finite and "
                               "nonnegative"):
                run_population([model, model], [0.05, lr], ZOConfig(2, seed=0))


def test_population_walk_allocates_no_parameter_sized_buffer():
    # R rows share each piece of z: scratch is one piece of z and one per
    # row, at most a tenth of the rows' parameter bytes
    p = BlockPartition([("a", 750_000), ("b", 250_000)])
    rows = 2
    theta = ParamVector(np.zeros((rows, p.total)), p)
    scales = PerturbScales(np.array([[1.0, 2.0], [0.5, 1.5]]), p)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        perturb_in_place(theta, scales, NoiseSeed(0, 1), 1e-3, np.array([-0.1, 0.2]))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 0.1 * theta.values.nbytes


def test_one_row_starts_from_its_start_vector_without_a_copy():
    # a one-row mezo step at d ~ 1e6 on an MLP, whose loss allocates little:
    # the peak is init_theta's two d-sized arrays.  It was 16,065,952 B
    # when a single run stepped as a (d,) vector (tracemalloc, Python 3.11,
    # numpy 2.4); copying the start vector into fresh (1, d) rows adds a
    # third, 24.1 MB
    model = MLPTask(n_in=1000, n_hidden=1000, n_out=3)
    config = ZOConfig(1, mode="mezo", seed=0)
    run_population([model], [1e-3], config)  # warm caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        [outcome] = run_population([model], [1e-3], config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert not isinstance(outcome, DivergenceError)
    assert peak <= 1.05 * 16_065_952, peak


def test_columnar_trajectories_halve_the_record_objects_peak():
    # the race population of 2 tasks x 3 rates, mezo, 400 steps; the 0.08
    # rows diverge.  Per-row step record and LossPair objects peaked at
    # 708 KB (tracemalloc, Python 3.11, numpy 2.4); columns need a fraction
    tasks = race_family().make_tasks(2, start=100)
    lrs = [0.02, 0.05, 0.08]
    models = [task for task in tasks for _ in lrs]
    config = ZOConfig(400, mode="mezo", seed=0)
    run_population(models, lrs * 2, config)  # warm caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        outcomes = run_population(models, lrs * 2, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert [isinstance(o, DivergenceError) for o in outcomes] == [False, False, True] * 2
    assert peak <= 708_000 // 2
