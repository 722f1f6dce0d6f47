"""End-to-end acceptance checks for the whole library.

Each test class pins one externally meaningful guarantee: estimator
unbiasedness, the variance-budget invariant, gradient exactness, the one-step
decrease bounds, the convergence race against the isotropic baseline,
robustness and ablation orderings, the regenerate-from-seed memory design,
and byte-level determinism of the command line.  Stated runtime limits are
asserted so performance regressions fail loudly.
"""

import filecmp
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zoft
from zoft import cli, pertnn, zo_optimizer
from zoft.errors import DivergenceError
from zoft.meta_trainer import MetaConfig, meta_grad, train
from zoft.paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    perturb_in_place,
    sample_block_noise,
)
from zoft.bounds import verify_bound
from zoft.config import ExperimentConfig, build_task_source
from zoft.testbeds import MLPTask, QuadraticFamily, QuadraticTask, make_rank_family
from zoft.zo_optimizer import (
    OptState,
    ZOConfig,
    normalize_scales,
    run_population,
    step_features,
    two_point,
)

from test_pertnn import write_checkpoint
from test_population import run_every_step


def forward_block(params, x, block):
    """Block `block`'s raw std for the feature vector x, read from forward_all
    on a feature matrix with x in row `block` and zeros elsewhere."""
    features = np.zeros((params.n_blocks, pertnn.N_FEATURES))
    features[block] = x
    raws, cache = pertnn.forward_all(params, features)
    return float(raws[block]), cache


def backward_block(params, cache, upstream, block):
    """backward with `upstream` on block `block` and 0 on the others: the
    parameter gradients."""
    vector = np.zeros(params.n_blocks)
    vector[block] = upstream
    return pertnn.backward(params, cache, vector)


def race_family():
    # two blocks with very different curvature and distance from the optimum,
    # so per-block scale allocation has something real to win
    return QuadraticFamily(
        block_sizes=(48, 16), ranks=(48.0, 16.0), opnorms=(1.0, 0.05),
        shift_scale=1.0, init_scale=(0.204, 1.58), seed=0,
    )


def train_race_net(family, seed=0):
    tasks = family.make_tasks(8)
    cfg = MetaConfig(eta1=0.05, eta2=0.05, steps=500, reset_period=50, seed=seed)
    net, _ = train(cfg, tasks, pertnn.init(tasks[0].partition, 32, NoiseSeed(seed)))
    return net


def run_cells(models, lrs, method, seed, net, steps=400, batch_size=1,
              normalize=True):
    """(final_window_mean, steps_to_half, diverged) for each (model, lr) run,
    all run as one population."""
    config = ZOConfig(steps=steps, batch_size=batch_size, mode=method, seed=seed,
                      normalize=normalize)
    outcomes = run_every_step(models, lrs, config, net if method == "finetuner" else None)
    cells = []
    for traj in outcomes:
        if isinstance(traj, DivergenceError):
            cells.append((float("inf"), steps + 1, True))
            continue
        k = max(1, steps // 10)
        final = float(np.mean(traj.loss[-k:]))
        hits = np.flatnonzero(traj.loss <= 0.5 * traj.loss[0])
        stt = int(hits[0]) + 1 if len(hits) else steps + 1
        cells.append((final, stt, False))
    return cells


class TestEstimatorMean:
    def test_mean_matches_scaled_gradient(self):
        # E[ghat] -> diag(s_i^2) grad L as eps -> 0; check every coordinate
        # against 1e5 draws within 4 Monte Carlo standard errors, under 10s
        start = time.perf_counter()
        task = make_rank_family([3, 5], [1.0, 3.0], [1.0, 0.5], seed=0)
        p = task.partition
        theta = ParamVector(task.theta_star + np.linspace(0.3, 1.1, p.total), p)
        scales = PerturbScales(np.array([2.0, 0.5]), p)
        eps = 1e-4
        losses = lambda: task.loss(theta.values, None)
        grad = task.grad(theta.values, None)
        base = theta.values.copy()

        n, chunk = 100_000, 1000
        sums = np.zeros(p.total)
        sqs = np.zeros(p.total)
        buf = np.empty((chunk, p.total))
        for c in range(n // chunk):
            for j in range(chunk):
                # at learning rate 1 the update walk leaves theta at
                # base - c*u: read c*u from it, then put theta back
                two_point(theta, scales, NoiseSeed(0, stream=c * chunk + j), eps,
                          losses, 1.0)
                np.subtract(base, theta.values, out=buf[j])
                theta.values[:] = base
            sums += buf.sum(axis=0)
            sqs += (buf * buf).sum(axis=0)
        mean = sums / n
        stderr = np.sqrt((sqs / n - mean**2) / n)

        expected = np.repeat(scales.stds**2, p.sizes) * grad
        assert np.all(np.abs(mean - expected) <= 4.0 * stderr)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s of its 10 s budget"


class TestVarianceBudget:
    def test_budget_holds_after_every_step(self):
        family = race_family()
        task = family.make_task(0)
        net = pertnn.init(task.partition, 8, NoiseSeed(3))
        [traj] = run_every_step(
            [task], [0.02], ZOConfig(steps=50, mode="finetuner", seed=0),
            net,
        )
        d = task.partition.total
        sizes = task.partition.sizes
        assert traj.scales.shape == (50, task.partition.n_blocks)
        for scales in traj.scales:
            budget = float(sizes @ scales**2)
            assert abs(budget - d) <= 1e-12 * d

    def test_normalization_preserves_ratios(self):
        p = BlockPartition([("a", 3), ("b", 5), ("c", 2)])
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = rng.uniform(0.05, 20.0, 3)
            out = normalize_scales(raw, p)
            for i in range(3):
                for j in range(3):
                    want = raw[i] / raw[j]
                    got = out[i] / out[j]
                    assert abs(got - want) <= 1e-12 * abs(want)


class TestGradientExactness:
    def test_analytic_gradients_match_central_differences(self):
        # scale network backward plus both testbed gradients, 100 random
        # configurations each, relative error <= 1e-6, under 30s
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst_net = 0.0
        for trial in range(100):
            # --- scale network ---
            sizes = rng.integers(1, 5, size=2)
            p = BlockPartition([("a", int(sizes[0])), ("b", int(sizes[1]))])
            params = pertnn.init(p, hidden=int(rng.integers(2, 6)),
                                 seed=NoiseSeed(trial))
            x = rng.normal(size=5)
            block = int(rng.integers(0, 2))
            upstream = float(rng.uniform(0.5, 2.0))
            _, cache = forward_block(params, x, block)
            grads = backward_block(params, cache, upstream, block)
            eps = 1e-6
            arrays = [(params.w1[block], grads.w1[block]),
                      (params.b1[block], grads.b1[block]),
                      (params.w2[block], grads.w2[block])]
            for arr, garr in arrays:
                for j in rng.integers(0, arr.size, size=2):
                    old = arr.flat[j]
                    arr.flat[j] = old + eps
                    up = forward_block(params, x, block)[0]
                    arr.flat[j] = old - eps
                    dn = forward_block(params, x, block)[0]
                    arr.flat[j] = old
                    fd = upstream * (up - dn) / (2 * eps)
                    denom = max(abs(fd), abs(garr.flat[j]), 1e-8)
                    worst_net = max(worst_net, abs(fd - garr.flat[j]) / denom)

            # --- quadratic testbed ---
            d = int(sizes.sum())
            task = QuadraticTask(p, eigs=rng.uniform(0.1, 3.0, d),
                                 theta_star=rng.normal(size=d),
                                 noise_tau=float(rng.uniform(0, 1)), seed=trial)
            theta = rng.normal(size=d)
            g = task.grad(theta, batch=trial)
            fd = self._fd(task.loss, theta, trial)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)

            # --- mlp testbed ---
            mlp = MLPTask(n_in=2, n_hidden=3, n_out=2, n_samples=20,
                          data_seed=trial)
            theta = mlp.init_theta(trial)
            batch = mlp.sample_batch(8, trial)
            g = mlp.grad(theta, batch)
            fd = self._fd(mlp.loss, theta, batch)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)
        assert worst_net <= 1e-6
        assert time.perf_counter() - start < 30.0

    @staticmethod
    def _fd(loss, theta, batch, eps=1e-6):
        g = np.empty_like(theta)
        for j in range(len(theta)):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            g[j] = (loss(up, batch) - loss(dn, batch)) / (2 * eps)
        return g


class TestMetaGradient:
    def test_matches_finite_differences_of_frozen_objective(self):
        # the meta-gradient treats the finite-difference coefficient as a
        # constant; the oracle differentiates exactly that frozen objective
        # (fixed z, fixed batch, fixed c) on 20 random instances, under 30s
        start = time.perf_counter()
        worst = 0.0
        for trial in range(20):
            p = BlockPartition([("a", 2), ("b", 3)])
            rng = np.random.default_rng(trial)
            task = QuadraticTask(p, eigs=rng.uniform(0.2, 2.0, 5),
                                 theta_star=rng.normal(size=5))
            theta = ParamVector(task.init_theta(trial), p)
            net = pertnn.init(p, hidden=3, seed=NoiseSeed(trial))
            state = OptState()
            normalize = trial % 2 == 0
            config = MetaConfig(eta1=0.05, eta2=0.0, steps=1, epsilon=1e-3,
                                seed=0, normalize=normalize)
            z = np.random.default_rng(trial).standard_normal(5)
            grads, ev = meta_grad(theta, net, task, state, 0, config, z)

            def frozen(candidate):
                l0 = float(task.loss(theta.values, 0))
                feats = step_features(theta, state, l0)
                raws, _ = pertnn.forward_all(candidate, feats)
                if normalize:
                    d = p.total
                    used = raws * np.sqrt(d / float(p.sizes @ raws**2))
                else:
                    used = raws
                u = np.repeat(used, p.sizes) * z
                return float(task.loss(theta.values - config.eta1 * ev.coeff * u, 0))

            eps = 1e-5
            pick = np.random.default_rng(trial + 1000)
            for i in range(net.n_blocks):
                for arr, garr in [(net.w1[i], grads.w1[i]),
                                  (net.b1[i], grads.b1[i]),
                                  (net.w2[i], grads.w2[i])]:
                    for j in pick.integers(0, arr.size, size=3):
                        old = arr.flat[j]
                        arr.flat[j] = old + eps
                        up = frozen(net)
                        arr.flat[j] = old - eps
                        dn = frozen(net)
                        arr.flat[j] = old
                        fd = (up - dn) / (2 * eps)
                        # floor absorbs central-difference roundoff on
                        # near-zero gradient entries
                        denom = max(abs(fd), abs(garr.flat[j]), 1e-4)
                        worst = max(worst, abs(fd - garr.flat[j]) / denom)
                old = net.b2[i]
                net.b2[i] = old + eps
                up = frozen(net)
                net.b2[i] = old - eps
                dn = frozen(net)
                net.b2[i] = old
                fd = (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(grads.b2[i]), 1e-4)
                worst = max(worst, abs(fd - grads.b2[i]) / denom)
        assert worst <= 1e-5
        assert time.perf_counter() - start < 30.0


class TestDecreaseBounds:
    def test_bound_campaign(self):
        # 15 (rank profile, step size) cells on deterministic block quadratics:
        # Monte Carlo decrease below the blockwise bound, optimal scales
        # strictly tighter than unit scales whenever per-block ranks differ,
        # blockwise never looser than the isotropic bound, closed form matches
        # Monte Carlo; under 2 minutes
        start = time.perf_counter()
        block_sizes = [8, 24]
        profiles = [[1.0, 24.0], [2.0, 16.0], [4.0, 8.0], [8.0, 24.0], [1.0, 4.0]]
        etas = [0.02, 0.03, 0.05]
        for ranks in profiles:
            task = make_rank_family(block_sizes, ranks, [1.0, 1.0], seed=0)
            theta = task.init_theta(0)
            # one Monte-Carlo draw per profile scores every step size
            reports = verify_bound(
                task, theta, PerturbScales.unit(task.partition), etas,
                n=100_000, seed=0,
            )
            assert [report.eta for report in reports] == etas
            for report in reports:
                slack = 4.0 * report.mc_stderr
                assert report.ok
                assert report.mc_mean <= report.blockwise_unit + slack
                # every profile has distinct per-block ranks
                assert report.blockwise_optimal < report.blockwise_unit
                assert report.blockwise_unit <= report.mezo_bound + 1e-12
                assert abs(report.closed_form - report.mc_mean) <= slack
        assert time.perf_counter() - start < 120.0


class TestConvergenceRace:
    def test_learned_scales_beat_isotropic_baseline(self):
        # 20 held-out tasks x 10 seeds; each method races at its best
        # learning rate from a 3-point grid; under 5 minutes
        start = time.perf_counter()
        family = race_family()
        net = train_race_net(family)
        grid = [0.02, 0.05, 0.125]
        held_out = family.make_tasks(20, start=100)

        wins = total = 0
        steps_m, steps_f = [], []
        models = [task for task in held_out for _ in grid]
        for seed in range(10):
            best = {}
            for method in ("mezo", "finetuner"):
                # one population per seed and method: every task x lr cell
                cells = run_cells(models, grid * len(held_out), method, seed, net)
                for k in range(len(held_out)):
                    runs = list(zip(cells[k * len(grid):(k + 1) * len(grid)], grid))
                    (final, stt, _), lr = min(runs, key=lambda r: (r[0][0], r[1]))
                    best[k, method] = stt
            for k in range(len(held_out)):
                total += 1
                wins += best[k, "finetuner"] < best[k, "mezo"]
                steps_m.append(best[k, "mezo"])
                steps_f.append(best[k, "finetuner"])

        assert wins >= 0.8 * total
        assert np.median(steps_f) <= 0.8 * np.median(steps_m)
        assert time.perf_counter() - start < 300.0


class TestLearningRateRobustness:
    def test_stable_across_two_orders_of_magnitude(self):
        # grid {lr0/10, lr0, 10*lr0}: the learned-scale method must not
        # diverge more often than the baseline and must win at its best lr;
        # under 3 minutes
        start = time.perf_counter()
        family = race_family()
        net = train_race_net(family)
        task = family.make_task(100)
        grid = [0.002, 0.02, 0.2]

        stats = {}
        for method in ("mezo", "finetuner"):
            diverged = 0
            fs = {lr: [] for lr in grid}
            for seed in range(5):
                cells = run_cells([task] * len(grid), grid, method, seed, net)
                for lr, (final, _, div) in zip(grid, cells):
                    diverged += div
                    fs[lr].append(final)
            finals = {lr: float(np.median(f)) for lr, f in fs.items()}
            stats[method] = (diverged, min(finals.values()))

        assert stats["finetuner"][0] <= stats["mezo"][0]
        assert stats["finetuner"][1] <= stats["mezo"][1]
        assert time.perf_counter() - start < 180.0


class TestAblations:
    def test_reset_and_normalization_cell_is_best(self):
        start = time.perf_counter()
        family = race_family()
        tasks = family.make_tasks(8)
        task = family.make_task(100)
        medians = {}
        for reset in (True, False):
            for norm in (True, False):
                cfg = MetaConfig(eta1=0.05, eta2=0.05, steps=500,
                                 reset_period=50 if reset else 501,
                                 seed=0, normalize=norm)
                net, _ = train(cfg, tasks,
                               pertnn.init(tasks[0].partition, 32, NoiseSeed(0)))
                fs = [run_cells([task], [0.05], "finetuner", seed, net,
                                normalize=norm)[0][0]
                      for seed in range(10)]
                medians[(reset, norm)] = float(np.median(fs))
        best = min(medians, key=medians.get)
        assert best == (True, True)
        assert time.perf_counter() - start < 240.0

    def test_block_partition_at_least_as_good_as_layer(self):
        start = time.perf_counter()
        medians = {}
        for granularity in ("block", "layer"):
            model = MLPTask(n_in=4, n_hidden=8, n_out=3, n_samples=120,
                            data_seed=0, granularity=granularity)
            cfg = MetaConfig(eta1=0.2, eta2=0.05, steps=300, reset_period=50,
                             batch_size=16, seed=1)
            net, _ = train(cfg, [model],
                           pertnn.init(model.partition, 32, NoiseSeed(1)))
            fs = [run_cells([model], [0.2], "finetuner", seed, net,
                            batch_size=16)[0][0]
                  for seed in range(10)]
            medians[granularity] = float(np.median(fs))
        assert medians["block"] <= medians["layer"]
        assert time.perf_counter() - start < 60.0


class TestSeededRegeneration:
    def test_noise_regenerates_bit_identically(self):
        p = BlockPartition([("a", 7), ("b", 13)])
        scales = PerturbScales(np.array([0.3, 2.5]), p)
        for stream in (0, 1, 999):
            seed = NoiseSeed(17, stream=stream)
            u1 = sample_block_noise(p, scales, seed)
            u2 = sample_block_noise(p, scales, seed)
            assert np.array_equal(u1, u2)

    def test_walk_restores_within_tolerance(self):
        p = BlockPartition([("a", 7), ("b", 13)])
        scales = PerturbScales(np.array([0.3, 2.5]), p)
        rng = np.random.default_rng(0)
        start = rng.normal(scale=10.0, size=p.total)
        theta = ParamVector(start.copy(), p)
        eps = 1e-3
        for stream in range(20):
            seed = NoiseSeed(0, stream=stream)
            perturb_in_place(theta, scales, seed, +eps)
            perturb_in_place(theta, scales, seed, -2 * eps)
            perturb_in_place(theta, scales, seed, +eps)
        assert np.allclose(theta.values, start, rtol=1e-12, atol=0)

    def test_full_run_allocates_no_parameter_sized_buffer(self, monkeypatch):
        # every noise walk of a finetuner run at d=1e6 allocates at most a
        # tenth of the parameter bytes, and a step regenerates the noise 3 times
        task = make_rank_family([750_000, 250_000], [100.0, 10.0], [1.0, 1.0], seed=0)
        net = pertnn.init(task.partition, 8, NoiseSeed(0))
        peaks = []

        def traced_walk(*args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            perturb_in_place(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

        monkeypatch.setattr(zo_optimizer, "perturb_in_place", traced_walk)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            run_population(
                [task], [1e-7], ZOConfig(steps=3, mode="finetuner", seed=0),
                net,
            )
        finally:
            if started:
                tracemalloc.stop()
        assert len(peaks) == 3 * 3
        assert max(peaks) <= 0.1 * 8 * task.dim


TASK_SECTION = """
[task]
kind = quadratic
block_sizes = 6, 4
ranks = 2.0, 4.0
opnorms = 1.0, 0.5
seed = 0
"""

TRAIN_SECTION = """
[train]
tasks = 2
steps = 20
eta1 = 0.05
eta2 = 0.05
reset_period = 10
batch_size = 4
hidden = 8
seed = 0
"""


NOISY_TASK_SECTION = TASK_SECTION.replace("seed = 0", "noise_tau = 0.5\nseed = 0")

MLP_TASK_SECTION = """
[task]
kind = mlp
n_in = 4
n_hidden = 6
n_out = 3
n_samples = 60
seed = 0
"""


# The largest block (40000) spans two noise chunks.
WIDE_TASK_SECTION = """
[task]
kind = quadratic
block_sizes = 40000, 24, 1
ranks = 400.0, 8.0, 1.0
opnorms = 1.0, 0.5, 1.0
seed = 0
"""


# Three rank profiles x three step sizes; 50001 samples leave a ragged last
# chunk in both blocks (4096 and 1365 rows per chunk).
BOUNDS_SECTION = """
[task]
block_sizes = 8, 24

[bounds]
rank_profiles = 1,24; 2,16; 4,8
etas = 0.02, 0.03, 0.05
samples = 50001
seed = 0
"""


# Five uneven blocks, so the budget normalization couples every block.
META_SECTION = """
[task]
kind = quadratic
block_sizes = 48, 16, 7, 1, 30
ranks = 24.0, 16.0, 3.0, 1.0, 5.0
opnorms = 1.0, 0.05, 0.5, 2.0, 0.2
shift_scale = 1.0
init_scale = 0.204, 1.58, 0.5, 1.0, 0.8
seed = 0

[train]
tasks = 3
steps = 40
eta1 = 0.05
eta2 = 0.05
reset_period = 15
batch_size = 4
hidden = 16
seed = 3
"""


class TestCLIDeterminism:
    # SHA-256 of trajectory.csv for WIDE_TASK_SECTION, recorded with the
    # unchunked four-walk optimizer step; any change to the noise stream or to
    # the update arithmetic shows up here
    RECORDED_DIGESTS = {
        "mezo": "2fed04118ec6ebdf9167893491ef16e8161368aa5e35ab934db06431129ed134",
        "finetuner": "2348819661fb44f93bd607f571e4c526dd0fd5feeace309187d7c36693e36ad5",
    }
    # SHA-256 of the train-finetuner outputs for META_SECTION, recorded with
    # the per-block scale network (one forward and one backward per block)
    RECORDED_META_DIGESTS = {
        "finetuner.ckpt": "2ba845c291613ca9fe9148fdf97e98431071a4f77ed008447e96312af45099ac",
        "meta_log.csv": "6a351f34e4e2164f0d69cf87d9a7e45c764c9650be5db6c8c10f7cb601cd900d",
    }
    # SHA-256 of bounds.csv for BOUNDS_SECTION, recorded with one unchunked
    # Monte-Carlo draw per (rank profile, step size) cell; and at step size 0.3,
    # where every profile's optimal scales have a negative budget multiplier,
    # recorded with the bisection that exact water-filling replaced
    RECORDED_BOUNDS_DIGESTS = {
        BOUNDS_SECTION: "acec03d26e9fa7794374024df1987c0927a37132a8de0520385938c88758c29c",
        BOUNDS_SECTION.replace("0.02, 0.03, 0.05", "0.3"):
            "e4e34d76f5c88c93eeb49d74a33e1908363efdd8283e8a575e45baf870283a52",
    }

    CONFIGS = {
        "train-finetuner": TASK_SECTION + TRAIN_SECTION,
        "finetune": TASK_SECTION + """
[finetune]
mode = mezo
seeds = 0, 1
lr = 0.05
steps = 30
batch_size = 1
""",
        "compare": TASK_SECTION + """
[compare]
methods = mezo
tasks = 2
seeds = 0, 1
lr_grid = 0.02, 0.05
steps = 30
batch_size = 1
""",
        "sweep-lr": TASK_SECTION + """
[sweep]
methods = mezo
seeds = 0, 1
lr_grid = 0.0005, 0.05, 5.0
steps = 30
batch_size = 1
""",
        "ablate": TASK_SECTION + TRAIN_SECTION + """
[ablate]
axes = reset, normalization
seeds = 0, 1
lr = 0.05
steps = 30
batch_size = 1
""",
        "verify-bounds": """
[task]
block_sizes = 4, 8

[bounds]
rank_profiles = 1,8; 2,4
etas = 0.02
samples = 20000
seed = 0
""",
    }

    @staticmethod
    def _dirs_identical(a: Path, b: Path) -> bool:
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        if names_a != names_b:
            return False
        return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names_a)

    def test_every_command_is_byte_identical_across_runs(self, tmp_path):
        # same config run three times must produce byte-identical output
        # files; under 1 minute for all commands
        start = time.perf_counter()
        for command, text in self.CONFIGS.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text, encoding="utf-8")
            outs = [tmp_path / f"{command}-{k}" for k in range(3)]
            for out in outs:
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
                assert code == 0, command
            assert self._dirs_identical(outs[0], outs[1]), command
            assert self._dirs_identical(outs[0], outs[2]), command
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize("mode", ["mezo", "finetuner"])
    def test_finetune_matches_recorded_digest(self, tmp_path, mode):
        cfg = tmp_path / "wide.ini"
        cfg.write_text(WIDE_TASK_SECTION + f"""
[finetune]
mode = {mode}
seeds = 0, 1
lr = 1e-5
steps = 20
batch_size = 1
""", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        partition = BlockPartition([("block0", 40000), ("block1", 24), ("block2", 1)])
        write_checkpoint(pertnn.init(partition, 8, NoiseSeed(0)), out / "finetuner.ckpt")
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == self.RECORDED_DIGESTS[mode]

    def test_train_finetuner_matches_recorded_digest(self, tmp_path):
        cfg = tmp_path / "meta.ini"
        cfg.write_text(META_SECTION, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 0
        for name, want in self.RECORDED_META_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name

    # SHA-256 of every output file of the commands that step populations, with
    # an initial (untrained) checkpoint: both methods side by side, rates that
    # diverge so that rows leave mid-run (down to one row in "sweep-one-row"),
    # a noisy family, the MLP's per-run oracle and the ablation cells.
    # Recorded with oracles that dropped rows in place and one cached MeZO
    # scale array per population shape.
    POPULATION_DIGESTS = {
        "compare-noisy": ("compare", NOISY_TASK_SECTION + """
[compare]
methods = mezo, finetuner
tasks = 2
seeds = 0, 1
lr_grid = 0.02, 0.05, 5.0
steps = 30
batch_size = 1
""", {
            "compare.csv": "2a749df22437357faebabc68d45cbccbb8d4208f5866858fa203943f6f01f461",
            "summary.txt": "0993c01451b928d715f0df9979be818534672dc178b2722cab42422093d13352",
        }),
        "sweep-one-row": ("sweep-lr", NOISY_TASK_SECTION + """
[sweep]
methods = finetuner
seeds = 2
lr_grid = 0.05, 1.0, 6.0
steps = 30
batch_size = 1
""", {
            "sweep_curves.csv": "c1214f339363716133a764c9cb1e78cb54810bbb8d86f104e92dbe73ab408024",
            "sweep_flags.csv": "2c3543c822ccb324f78961cc2757afac72ad4a8e574805b6cb880ee412cb74ef",
        }),
        "sweep": ("sweep-lr", TASK_SECTION + """
[sweep]
methods = mezo, finetuner
seeds = 0, 1
lr_grid = 0.0005, 0.05, 5.0
steps = 30
batch_size = 1
""", {
            "sweep_curves.csv": "f54cca0d8aae0253216a45e262909f1a62791aab0a0c055e452ddf7d21b2f5ba",
            "sweep_flags.csv": "44692db249afd5a5e2d9ed9aa0868fcf96859399c81af8e63da0ddd872f7e53b",
        }),
        "sweep-mlp": ("sweep-lr", MLP_TASK_SECTION + """
[sweep]
methods = mezo, finetuner
seeds = 0, 1
lr_grid = 0.005, 0.5, 500.0
steps = 30
batch_size = 4
""", {
            "sweep_curves.csv": "8da9c44e7d67f693e3b7fe4dca726b66f9f02acc5d683770ebc5ecf17da6ab98",
            "sweep_flags.csv": "c5ed68c6bfc28635286dc600b9310a0f609fa43f9670c84928b293dceadcb823",
        }),
        "ablate": ("ablate", NOISY_TASK_SECTION + TRAIN_SECTION + """
[ablate]
axes = reset, normalization
seeds = 0, 1
lr = 0.05
steps = 30
batch_size = 1
""", {
            "ablation.csv": "e4043f6e89949ee2107ac087f802da6b2b7ea809c7b19cca9eeb433bc6e004e8",
        }),
        "ablate-mlp": ("ablate", MLP_TASK_SECTION + TRAIN_SECTION + """
[ablate]
axes = partition
seeds = 0, 1
lr = 0.05
steps = 30
batch_size = 4
""", {
            "ablation.csv": "6441b090b9f2e7b0352932008ceec96c4009f981f9afb5ca36e43b2df3c580e5",
        }),
    }

    @pytest.mark.parametrize("name", list(POPULATION_DIGESTS))
    def test_population_commands_match_recorded_digests(self, tmp_path, name):
        command, text, want = self.POPULATION_DIGESTS[name]
        cfg = tmp_path / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        kind, source = build_task_source(ExperimentConfig.load(cfg))
        model = source.make_task(0) if kind == "quadratic" else source()
        write_checkpoint(pertnn.init(model.partition, 8, NoiseSeed(0)), out / "finetuner.ckpt")
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir()) if path.name != "finetuner.ckpt"}
        assert got == want

    def test_verify_bounds_matches_recorded_digest(self, tmp_path):
        for k, (text, want) in enumerate(self.RECORDED_BOUNDS_DIGESTS.items()):
            cfg = tmp_path / f"bounds-{k}.ini"
            cfg.write_text(text, encoding="utf-8")
            out = tmp_path / f"out-{k}"
            assert cli.main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 0
            digest = hashlib.sha256((out / "bounds.csv").read_bytes()).hexdigest()
            assert digest == want, text


# A noisy d = 50,123 quadratic, run alone and as a two-row population: every
# loss call reduces over more values than OpenBLAS runs on one thread.
BLAS_THREADS_SCRIPT = """
from zoft.testbeds import make_rank_family
from zoft.zo_optimizer import ZOConfig, run_population
model = make_rank_family([40000, 10000, 123], [4000.0, 1000.0, 12.0],
                         [1.0, 1.0, 1.0], noise_tau=0.5, seed=0)
config = ZOConfig(steps=20, seed=0)
bits = []
class Losses:
    # each step's losses, as the population hands them over
    def append(self, t, rows, losses, scales):
        bits.extend(float(x).hex() for x in losses)
    def result(self, r):
        return None
run_population([model], [1e-4], config, recorder=Losses())
run_population([model, model], [1e-4, 3e-5], config, recorder=Losses())
print(" ".join(bits))
"""


# The Monte-Carlo at blocks wider than one BLAS dot piece, both schemes and
# both laws, and a 2-meta-step train at d = 50,123: its loss, gradient and
# meta-gradient dots, and the checkpoint it writes.
BLAS_THREADS_MC_TRAIN_SCRIPT = """
import hashlib, io
import numpy as np
from zoft import pertnn
from zoft.bounds import expected_decrease
from zoft.meta_trainer import MetaConfig, train
from zoft.paramspace import NoiseSeed, PerturbScales
from zoft.testbeds import make_rank_family
bits = []
for sizes in ((8, 40000), (20000,)):
    model = make_rank_family(sizes, [s / 4 for s in sizes], [1.0] * len(sizes), seed=0)
    theta = model.init_theta(0)
    scales = PerturbScales(np.linspace(0.5, 1.5, len(sizes)), model.partition)
    for scheme in ("blockwise", "joint"):
        for law in ("gaussian", "sphere"):
            means, stderrs = expected_decrease(model, theta, scales, (0.02, 0.05),
                                               mode="monte_carlo", scheme=scheme,
                                               law=law, n=300)
            bits += [float(x).hex() for x in (*means, *stderrs)]
model = make_rank_family([40000, 10000, 123], [4000.0, 1000.0, 12.0],
                         [1.0, 1.0, 1.0], seed=0)
net, log = train(MetaConfig(eta1=0.05, eta2=0.05, steps=2, seed=0), [model],
                 pertnn.init(model.partition, 8, NoiseSeed(0)))
bits += [float(x).hex() for x in (*log.l_zo, *log.loss)]
ckpt = io.BytesIO()
pertnn.save(net, ckpt)
bits.append(hashlib.sha256(ckpt.getvalue()).hexdigest())
print(" ".join(bits))
"""


# Two finetuner steps on a block wider than a chunk: the features that
# step_features builds with block_stats, the scales the network makes of
# them, and the walk that moves theta.  The losses and the block means and
# variances are O(1), so the network's tanh layer does not saturate; a
# feature's last bit can still vanish in it, so the features are printed too.
BLAS_THREADS_STEP_SCRIPT = """
import hashlib
import numpy as np
from zoft import pertnn
from zoft.paramspace import NoiseSeed, ParamVector
from zoft.testbeds import make_rank_family
from zoft.zo_optimizer import OptState, ZOConfig, step, step_features
model = make_rank_family([70000, 10000, 123], [2.0, 2.0, 2.0], [0.1, 0.1, 0.1],
                         theta_star=np.full(80123, 1.0), noise_tau=0.5, seed=0)
net = pertnn.init(model.partition, 8, NoiseSeed(0))
theta = ParamVector(model.init_theta(0), model.partition)
state, config = OptState(), ZOConfig(steps=2, mode="finetuner", seed=0)
bits = []
for batch in (1, 2):
    features = step_features(theta, state, model.loss(theta.values, batch))
    loss = step(theta, state, batch, config, model.loss, 1e-4, net)
    bits += [float(x).hex() for x in (*features.ravel(), loss, *state.prev_scales)]
bits.append(hashlib.sha256(theta.values.tobytes()).hexdigest())
print(" ".join(bits))
"""


def outputs_under_each_thread_count(script: str, timeout: float) -> list:
    """The whitespace-split stdout of `script` run under OPENBLAS_NUM_THREADS=1
    and =2, each in its own interpreter."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(zoft.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    return outputs


class TestBlasThreadCount:
    def test_large_d_losses_do_not_depend_on_it(self):
        # the CSVs print 12 digits, which can hide a last-bit difference, so
        # the raw loss bits are compared
        losses = outputs_under_each_thread_count(BLAS_THREADS_SCRIPT, timeout=120)
        assert len(losses[0]) == 60
        assert losses[0] == losses[1]

    def test_wide_monte_carlo_and_meta_training_do_not_depend_on_it(self):
        # each run takes about 2 s on a 2-vCPU host.  A row's `u @ g` as one
        # BLAS product gave other bits under two threads in all 8 cases
        bits = outputs_under_each_thread_count(BLAS_THREADS_MC_TRAIN_SCRIPT, timeout=60)
        # 8 cases x 2 step sizes x (mean, stderr), 2 x (l_zo, loss), a digest
        assert len(bits[0]) == 32 + 4 + 1
        assert bits[0] == bits[1]

    def test_wide_finetuner_step_does_not_depend_on_it(self):
        # each run takes about 0.4 s on a 2-vCPU host
        bits = outputs_under_each_thread_count(BLAS_THREADS_STEP_SCRIPT, timeout=30)
        # 2 steps x (3 blocks x 5 features, loss, 3 scales), theta's digest
        assert len(bits[0]) == 2 * (15 + 1 + 3) + 1
        assert bits[0] == bits[1]
