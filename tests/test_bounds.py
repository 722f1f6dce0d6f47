import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zoft.bounds import (
    _MC_TAG,
    BoundInputs,
    _bound_coeffs,
    _report,
    _to_sphere,
    blockwise_bound,
    expected_decrease,
    mezo_bound,
    optimal_scales,
    rank_coefficient,
    verify_bound,
)
from zoft.errors import DegenerateBoundError
from zoft.paramspace import _CHUNK, BlockPartition, PerturbScales
from zoft.testbeds import QuadraticTask, make_rank_family


def identity_task(d):
    p = BlockPartition([("all", d)])
    return QuadraticTask(p, eigs=np.ones(d), theta_star=np.zeros(d))


def count_grads(monkeypatch, task) -> list:
    """Patch task.grad to record each call; returns the list of calls."""
    calls, grad = [], task.grad

    def counted(*args):
        calls.append(args)
        return grad(*args)

    monkeypatch.setattr(task, "grad", counted)
    return calls


def reference_monte_carlo(task, theta, scales, eta, n, seed, law="sphere"):
    """One step size from one unchunked (n, d_i) draw per block: the loop the
    shared, chunked draw replaced, kept as the reference it must reproduce.
    With law="gaussian" each block is drawn as s_i * z, the method's own
    sampling law, which the bounds are not stated for."""

    def draw(rng, count, dim):
        z = rng.standard_normal((count, dim))
        if law == "sphere":
            z *= np.sqrt(dim) / np.linalg.norm(z, axis=1, keepdims=True)
        return z

    g = task.grad(theta, 0)
    stds = scales.stds
    rng = np.random.default_rng([_MC_TAG, seed])
    delta = np.zeros(n)
    for i, sl in enumerate(task.partition.slices):
        u = stds[i] * draw(rng, n, len(g[sl]))
        c = u @ g[sl]
        quad = np.einsum("nk,k,nk->n", u, task.eigs[sl], u)
        delta += -eta * c**2 + 0.5 * eta**2 * c**2 * quad
    return float(delta.mean()), float(delta.std(ddof=1) / np.sqrt(n))


class TestRankCoefficient:
    def test_hand_values(self):
        # (d*r + d - 2)/(d + 2) + 1
        assert rank_coefficient(4, 1.0) == pytest.approx(2.0)
        assert rank_coefficient(2, 2.0) == pytest.approx(2.0)
        assert rank_coefficient(10, 5.0) == pytest.approx(58.0 / 12.0 + 1.0)

    @given(d=st.integers(1, 500), r=st.floats(1.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_equals_fourth_moment_form(self, d, r):
        # algebraic identity with d (r + 2) / (d + 2)
        assert rank_coefficient(d, r) == pytest.approx(d * (r + 2.0) / (d + 2.0),
                                                       rel=1e-12)

    def test_monotone_in_rank(self):
        assert rank_coefficient(16, 8.0) > rank_coefficient(16, 2.0)


class TestBoundInputs:
    def test_from_task_reads_structure(self):
        task = make_rank_family([3, 5], [1.0, 4.0], [2.0, 1.0], seed=0)
        theta = task.init_theta(0)
        inp = BoundInputs.from_task(task, theta)
        assert inp.dim == 8
        assert list(inp.block_sizes) == [3, 5]
        assert np.allclose(inp.ranks, [1.0, 4.0])
        assert inp.smoothness == 2.0
        g = task.grad(theta, 0)
        assert np.allclose(inp.grad_sqnorms, [np.sum(g[sl] ** 2) for sl in task.partition.slices])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoundInputs(smoothness=1.0, block_sizes=[2, 2],
                        ranks=[1.0], grad_sqnorms=[1.0, 1.0])

    def test_negative_rejected(self):
        # the step size is an argument of each bound, which checks it
        inp = BoundInputs(smoothness=1.0, block_sizes=[2], ranks=[1.0], grad_sqnorms=[1.0])
        for bound in (mezo_bound, blockwise_bound, optimal_scales):
            for eta in (-0.1, float("nan")):
                with pytest.raises(ValueError, match="step size must be nonnegative"):
                    bound(inp, eta)
        with pytest.raises(ValueError):
            BoundInputs(smoothness=1.0, block_sizes=[2],
                        ranks=[1.0], grad_sqnorms=[-1.0])


class TestBoundOrdering:
    ETA = 0.05

    def inputs(self, seed=0, tau=0.0):
        task = make_rank_family([4, 8, 6], [1.0, 5.0, 3.0], [1.5, 1.0, 0.7], seed=seed)
        theta = task.init_theta(seed)
        inp = BoundInputs.from_task(task, theta)
        inp.noise_trace = tau
        return inp

    def test_uniform_rank_reduces_to_mezo(self):
        # equal ranks, unit scales, no noise: the block sum telescopes
        task = make_rank_family([4, 6], [3.0, 3.0], [1.0, 1.0], seed=1)
        theta = task.init_theta(0)
        inp = BoundInputs.from_task(task, theta)
        assert blockwise_bound(inp, self.ETA) == pytest.approx(mezo_bound(inp, self.ETA),
                                                               rel=1e-12)

    def test_blockwise_never_above_mezo_at_unit_scales(self):
        for seed in range(5):
            inp = self.inputs(seed=seed)
            assert blockwise_bound(inp, self.ETA) <= mezo_bound(inp, self.ETA) + 1e-12

    def test_eta_zero_is_zero(self):
        inp = self.inputs()
        assert mezo_bound(inp, 0.0) == 0.0
        assert blockwise_bound(inp, 0.0) == 0.0

    def test_noise_inflates_quadratic_term(self):
        quiet = self.inputs(tau=0.0)
        noisy = self.inputs(tau=5.0)
        assert blockwise_bound(noisy, self.ETA) > blockwise_bound(quiet, self.ETA)


def kkt_residuals(inp, eta, stds):
    """Spread of the active blocks' multipliers mu_j = (a_j - 2 b_j v_j) / d_j,
    and how far an inactive block's breakpoint a_j / d_j rises above their mean,
    both over max(1, max_j a_j / d_j)."""
    a, b = _bound_coeffs(inp, eta)
    v, sizes = stds**2, inp.block_sizes
    active = v > 0
    mus = (a - 2.0 * b * v)[active] / sizes[active]
    above = a[~active] / sizes[~active] - mus.mean()
    scale = max(1.0, float(np.max(a / sizes)))
    return float(np.ptp(mus)) / scale, float(np.max(above, initial=0.0)) / scale


@st.composite
def bound_inputs(draw):
    """Inputs at one point and a step size drawn beside them."""
    n = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    ranks = [draw(st.floats(1.0, float(s))) for s in sizes]
    # about a third of the blocks have zero gradient
    grads = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
                          min_size=n, max_size=n))
    noise = draw(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)))
    if noise == 0.0 and not any(grads):
        grads[0] = 1.0  # some block must be curved
    eta = draw(st.floats(1e-4, 1.0))
    return BoundInputs(smoothness=draw(st.floats(0.1, 10.0)),
                       block_sizes=sizes, ranks=ranks, grad_sqnorms=grads,
                       noise_trace=noise), eta


class TestOptimalScales:
    def test_symmetric_blocks_give_unit_scales(self):
        inp = BoundInputs(smoothness=1.0, block_sizes=[3, 3],
                          ranks=[2.0, 2.0], grad_sqnorms=[1.0, 1.0])
        assert np.allclose(optimal_scales(inp, 0.1), 1.0, rtol=1e-10)

    def test_budget_pinned(self):
        task = make_rank_family([4, 8, 6], [1.0, 5.0, 3.0], [1.5, 1.0, 0.7], seed=2)
        inp = BoundInputs.from_task(task, task.init_theta(0))
        stds = optimal_scales(inp, 0.05)
        assert inp.block_sizes @ stds**2 == pytest.approx(inp.dim, rel=1e-12)

    def test_shifts_variance_toward_high_gradient_block(self):
        inp = BoundInputs(smoothness=1.0, block_sizes=[4, 4],
                          ranks=[2.0, 2.0], grad_sqnorms=[4.0, 0.5])
        stds = optimal_scales(inp, 0.05)
        assert stds[0] > 1.0 > stds[1]

    def test_beats_exhaustive_grid(self):
        # one free variance on two blocks; scan it and compare bound values
        eta = 0.08
        inp = BoundInputs(smoothness=1.3, block_sizes=[3, 5],
                          ranks=[1.0, 4.0], grad_sqnorms=[2.0, 0.7],
                          noise_trace=0.5)
        d = float(inp.dim)
        best = np.inf
        for v0 in np.linspace(1e-6, d / 3.0 - 1e-6, 20001):
            v1 = (d - 3.0 * v0) / 5.0
            val = blockwise_bound(inp, eta, np.sqrt([v0, v1]))
            best = min(best, val)
        achieved = blockwise_bound(inp, eta, optimal_scales(inp, eta))
        assert achieved <= best + 1e-10
        assert achieved == pytest.approx(best, rel=1e-6)

    def test_flat_block_takes_the_budget_the_curved_block_leaves(self):
        # block 1 has no gradient and no noise, so its bound term is 0 at any
        # variance; the curved block's own optimum spends 4 x 0.625 of the 8,
        # and the rest belongs on the flat block, not pinned back onto block 0
        eta = 0.5
        inp = BoundInputs(smoothness=1.0, block_sizes=[4, 4],
                          ranks=[2.0, 2.0], grad_sqnorms=[1.0, 0.0])
        stds = optimal_scales(inp, eta)
        assert np.allclose(stds**2, [0.625, 1.375], rtol=1e-12)
        grid = min(blockwise_bound(inp, eta, np.sqrt([v0, 2.0 - v0]))
                   for v0 in np.linspace(0.0, 2.0, 20001))
        achieved = blockwise_bound(inp, eta, stds)
        assert achieved <= grid + 1e-12
        assert achieved < blockwise_bound(inp, eta)

    def test_kkt_stationarity(self):
        inp = BoundInputs(smoothness=2.0, block_sizes=[4, 8, 6],
                          ranks=[1.0, 5.0, 3.0], grad_sqnorms=[3.0, 1.0, 0.2])
        spread, above = kkt_residuals(inp, 0.05, optimal_scales(inp, 0.05))
        assert spread <= 1e-12 and above <= 1e-12

    def test_budget_unmet_at_zero_multiplier(self):
        # at a large step the curved blocks' unconstrained optimum spends
        # less than d, so the shared multiplier is negative
        inp = BoundInputs(smoothness=1.0, block_sizes=[8, 24],
                          ranks=[1.0, 24.0], grad_sqnorms=[1.0, 2.0])
        a, b = _bound_coeffs(inp, 0.5)
        assert inp.block_sizes @ (a / (2.0 * b)) < inp.dim
        stds = optimal_scales(inp, 0.5)
        assert np.all(stds > 0)
        mus = (a - 2.0 * b * stds**2) / inp.block_sizes
        assert mus.max() < 0
        assert np.ptp(mus) <= 1e-12 * max(1.0, abs(mus.max()))
        assert inp.block_sizes @ stds**2 == pytest.approx(inp.dim, rel=1e-12)

    def test_zero_gradients_with_noise(self):
        # every a_j = 0, so v_j = -mu d_j / (2 b_j) with mu < 0: every block
        # is active and b_j v_j / d_j is the same on each
        inp = BoundInputs(smoothness=1.0, block_sizes=[4, 12],
                          ranks=[1.0, 6.0], grad_sqnorms=[0.0, 0.0], noise_trace=2.0)
        a, b = _bound_coeffs(inp, 0.1)
        stds = optimal_scales(inp, 0.1)
        assert inp.block_sizes @ stds**2 == pytest.approx(inp.dim, rel=1e-12)
        assert np.allclose(b * stds**2 / inp.block_sizes,
                           b[0] * stds[0] ** 2 / inp.block_sizes[0], rtol=1e-12)

    def test_zero_gradient_block_gets_zero_variance(self):
        inp = BoundInputs(smoothness=1.0, block_sizes=[4, 4],
                          ranks=[2.0, 2.0], grad_sqnorms=[1.0, 0.0])
        stds = optimal_scales(inp, 0.1)
        assert stds[1] == 0.0
        assert inp.block_sizes @ stds**2 == pytest.approx(8.0, rel=1e-12)

    def test_degenerate_inputs_rejected(self):
        inp = BoundInputs(smoothness=0.0, block_sizes=[4],
                          ranks=[2.0], grad_sqnorms=[1.0])
        with pytest.raises(DegenerateBoundError):
            optimal_scales(inp, 0.1)

    @given(case=bound_inputs())
    @settings(max_examples=200, deadline=None)
    def test_water_filling_meets_budget_and_kkt(self, case):
        inp, eta = case
        stds = optimal_scales(inp, eta)
        assert stds.shape == (len(inp.block_sizes),)
        assert np.all(np.isfinite(stds))
        assert inp.block_sizes @ stds**2 == pytest.approx(inp.dim, rel=1e-12)
        a, b = _bound_coeffs(inp, eta)
        if np.all(b > 0):
            spread, above = kkt_residuals(inp, eta, stds)
            assert spread <= 1e-12 and above <= 1e-12
        assert blockwise_bound(inp, eta, stds) <= blockwise_bound(inp, eta) + 1e-12 * (
            1.0 + abs(blockwise_bound(inp, eta)))


class TestExpectedDecrease:
    def test_closed_form_identity_hessian_gaussian(self):
        # H = I, |g|^2 = 1, unit scales: the gaussian law's decrease is
        # -eta + eta^2 (d + 2) / 2, a quadratic term (d + 2) / d times the
        # sphere law's (see the README's Bounds note)
        d = 6
        task = identity_task(d)
        theta = np.zeros(d)
        theta[0] = 1.0
        sc = PerturbScales.unit(task.partition)
        eta = 0.1
        mean, stderr = reference_monte_carlo(task, theta, sc, eta, 200_000, 0,
                                             law="gaussian")
        assert abs(mean - (-eta + 0.5 * eta**2 * (d + 2))) <= 4.0 * stderr
        assert mean > -eta + 0.5 * eta**2 * d + 4.0 * stderr

    def test_closed_form_identity_hessian_sphere(self):
        # the sphere law shrinks the quadratic term by d / (d + 2)
        d = 6
        task = identity_task(d)
        theta = np.zeros(d)
        theta[0] = 1.0
        sc = PerturbScales.unit(task.partition)
        for eta in (0.01, 0.1):
            (got,), se = expected_decrease(task, theta, sc, [eta])
            assert se is None
            assert got == pytest.approx(-eta + 0.5 * eta**2 * d, rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        task = make_rank_family([3, 5], [1.0, 4.0], [1.2, 0.8], seed=3)
        theta = task.init_theta(1)
        sc = PerturbScales(np.array([0.7, 1.2]), task.partition)
        budget = np.dot(task.partition.sizes, sc.stds**2)
        sc = PerturbScales(sc.stds * np.sqrt(task.partition.total / budget),
                           task.partition)
        (closed,), _ = expected_decrease(task, theta, sc, [0.05])
        (mc,), (se,) = expected_decrease(task, theta, sc, [0.05], mode="monte_carlo",
                                         n=60_000, seed=4)
        assert abs(mc - closed) <= 4.0 * se

    def test_small_eta_limit_is_linear_term(self):
        task = make_rank_family([4, 4], [2.0, 3.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        eta = 1e-8
        (got,), _ = expected_decrease(task, theta, sc, [eta])
        g = task.grad(theta)
        assert got == pytest.approx(-eta * float(g @ g), rel=1e-6)

    def test_rejects_stochastic_task(self):
        p = BlockPartition([("a", 3)])
        task = QuadraticTask(p, eigs=np.ones(3), theta_star=np.zeros(3),
                             noise_tau=1.0)
        with pytest.raises(ValueError):
            expected_decrease(task, np.ones(3), PerturbScales.unit(p), [0.1])

    def test_rejects_unknown_options(self):
        task = identity_task(3)
        sc = PerturbScales.unit(task.partition)
        with pytest.raises(ValueError):
            expected_decrease(task, np.ones(3), sc, [0.1], mode="quadrature")

    @pytest.mark.parametrize("mode", ["closed_form", "monte_carlo"])
    @pytest.mark.parametrize("eta", [-0.01, float("nan")])
    def test_bad_step_size_rejected_before_the_gradient(self, monkeypatch, mode, eta):
        task = identity_task(3)
        calls = count_grads(monkeypatch, task)
        with pytest.raises(ValueError, match="step size must be nonnegative"):
            expected_decrease(task, np.ones(3), PerturbScales.unit(task.partition),
                              [0.02, eta], mode=mode)
        assert calls == []


class TestVerifyBound:
    def test_passes_on_heterogeneous_ranks(self):
        task = make_rank_family([8, 24], [2.0, 16.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        [report] = verify_bound(task, theta, PerturbScales.unit(task.partition),
                                [0.03], n=60_000)
        assert report.ok, report.violations
        assert report.blockwise_optimal <= report.blockwise_unit + 1e-12
        assert report.blockwise_unit <= report.mezo_bound + 1e-12
        assert report.mc_mean <= report.blockwise_given + 4 * report.mc_stderr

    def test_gaussian_law_exceeds_bound_on_small_blocks(self):
        # the heavier gaussian fourth moment, (d_j + 2)/d_j times the
        # sphere's, breaks the sphere-law bound on 4-value blocks
        task = make_rank_family([4, 4], [1.0, 4.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        eta = 0.1
        bound = blockwise_bound(BoundInputs.from_task(task, theta), eta, sc.stds)
        mean, stderr = reference_monte_carlo(task, theta, sc, eta, 200_000, 0,
                                             law="gaussian")
        assert mean > bound + 4.0 * stderr
        [sphere] = verify_bound(task, theta, sc, [eta], n=200_000)
        assert sphere.blockwise_given == bound
        assert sphere.ok, sphere.violations

    def test_eta_zero_report(self):
        task = make_rank_family([3, 5], [1.0, 4.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        [report] = verify_bound(task, theta, PerturbScales.unit(task.partition),
                                [0.0], n=10_000)
        assert report.ok
        assert report.mezo_bound == 0.0
        assert np.all(report.optimal_stds == 1.0)

    def test_report_is_deterministic(self):
        task = make_rank_family([3, 5], [2.0, 3.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        [a] = verify_bound(task, theta, sc, [0.02], n=20_000, seed=9)
        [b] = verify_bound(task, theta, sc, [0.02], n=20_000, seed=9)
        assert a.mc_mean == b.mc_mean and a.mc_stderr == b.mc_stderr

    def test_sequence_of_etas_gives_one_report_each(self):
        task = make_rank_family([3, 5], [1.0, 4.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        etas = [0.0, 0.02, 0.05]
        reports = verify_bound(task, theta, sc, etas, n=20_000, seed=3)
        assert [r.eta for r in reports] == etas
        for eta, shared in zip(etas, reports):
            [alone] = verify_bound(task, theta, sc, [eta], n=20_000, seed=3)
            for name in ("mezo_bound", "blockwise_unit", "blockwise_given",
                         "blockwise_optimal", "mc_mean", "mc_stderr", "closed_form"):
                assert getattr(shared, name) == getattr(alone, name), name
            assert np.array_equal(shared.optimal_stds, alone.optimal_stds)
            assert shared.violations == alone.violations

    @pytest.mark.parametrize("sizes", [[1, 1], [1, 1, 1]])
    def test_one_value_blocks_agree_with_their_closed_form(self, sizes):
        # every sphere sample of a one-value block is +-s, so every sample
        # decreases the loss alike and the stderr is rounding noise (8.3e-19
        # for two blocks): 4 of it flagged a gap of 8.7e-18 as a disagreement
        task = make_rank_family(sizes, [1.0] * len(sizes), [1.0] * len(sizes), seed=0)
        [report] = verify_bound(task, task.init_theta(0), PerturbScales.unit(task.partition),
                                [0.02], n=100)
        assert report.mc_stderr < 1e-15 * abs(report.mc_mean)
        assert report.ok, report.violations

    def test_zero_stderr_still_flags_a_real_gap(self):
        task = make_rank_family([1, 1], [1.0, 1.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        inputs = BoundInputs.from_task(task, theta)
        stds = np.ones(2)
        bound = blockwise_bound(inputs, 0.02, stds)
        mean = bound * (1 - 1e-9)  # above the (negative) bound by 1e-9 of it
        report = _report(inputs, 0.02, stds, mean, 0.0, mean * (1 + 1e-9))
        assert [v.split(" ", 2)[:2] for v in report.violations] == [
            ["measured", "decrease"], ["closed", "form"]]

    def test_bad_step_sizes_and_sample_counts_rejected(self, monkeypatch):
        task = make_rank_family([3, 5], [1.0, 4.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        calls = count_grads(monkeypatch, task)
        with pytest.raises(ValueError):
            verify_bound(task, theta, sc, [], n=100)
        with pytest.raises(ValueError):
            verify_bound(task, theta, sc, [0.02, -0.01], n=100)
        with pytest.raises(ValueError):
            verify_bound(task, theta, sc, [0.02, float("nan")], n=100)
        # a bad step size fails before the task is read or the draw starts
        assert calls == []
        with pytest.raises(ValueError):
            verify_bound(task, theta, sc, [0.02], n=1)

    def test_task_is_read_once_for_every_step_size(self, monkeypatch):
        # one gradient per call, whatever the number of step sizes: the
        # inputs and both modes of expected_decrease share it
        task = make_rank_family([3, 5], [1.0, 4.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        counts = []
        for etas in ([0.02], [0.02, 0.03, 0.05]):
            calls = count_grads(monkeypatch, task)
            verify_bound(task, theta, sc, etas, n=100)
            counts.append(len(calls))
            monkeypatch.undo()
        assert counts == [1, 1]


class TestSharedChunkedDraw:
    """Monte Carlo draws each block once for every step size, in chunks of
    about 32768 values: 4096 rows of the 8-block and 1365 of the 24-block."""

    ETAS = [0.0, 0.02, 0.03, 0.05]

    def case(self, blocks, ranks):
        task = make_rank_family(blocks, ranks, [1.0] * len(blocks), seed=2)
        theta = task.init_theta(5)
        stds = np.linspace(0.6, 1.4, len(blocks))
        sc = PerturbScales(stds * np.sqrt(task.partition.total
                                          / float(task.partition.sizes @ stds**2)),
                           task.partition)
        return task, theta, sc

    # blocks 8+24 below every chunk, at one 8-block chunk, and at a multiple
    # of no chunk, where the sphere sums three eighths of a chunk at a time;
    # a one-value block, whose row sums are single squares, beside a block
    # of seven rows a chunk; a block of six rows a chunk beside one of three
    # values; and blocks whose scratch holds one row of squares, so the
    # sphere takes their chunks row by row.  Unit scales skip `u *= s`.  A
    # block wider than an eighth of a chunk is drawn as one chunk here, so
    # that BLAS's `u @ g` has the reference's shape (see the next test)
    @pytest.mark.parametrize("blocks, ranks, n, unit", [
        pytest.param([8, 24], [2.0, 16.0], 1000, False, id="1000"),
        pytest.param([8, 24], [2.0, 16.0], 4096, False, id="4096"),
        pytest.param([8, 24], [2.0, 16.0], 10_001, False, id="10001"),
        pytest.param([8, 24], [2.0, 16.0], 10_001, True, id="10001-unit"),
        pytest.param([1, 4097], [1.0, 16.0], 7, False, id="1+4097"),
        pytest.param([1, 4097], [1.0, 16.0], 7, True, id="1+4097-unit"),
        pytest.param([5000, 3], [16.0, 2.0], 6, False, id="5000+3"),
        pytest.param([5000, 3], [16.0, 2.0], 6, True, id="5000+3-unit"),
        pytest.param([4097, 5000], [3.0, 40.0], 6, False, id="4097+5000"),
    ])
    def test_equals_per_eta_unchunked_reference(self, blocks, ranks, n, unit):
        task, theta, sc = self.case(blocks, ranks)
        if unit:
            sc = PerturbScales.unit(task.partition)
        means, stderrs = expected_decrease(task, theta, sc, self.ETAS,
                                           mode="monte_carlo", n=n, seed=7)
        assert means.shape == stderrs.shape == (len(self.ETAS),)
        for k, eta in enumerate(self.ETAS):
            ref = reference_monte_carlo(task, theta, sc, eta, n, 7)
            assert (means[k], stderrs[k]) == ref
            # one step size alone runs the same chunked draw
            (mean,), (stderr,) = expected_decrease(task, theta, sc, [eta],
                                                   mode="monte_carlo", n=n, seed=7)
            assert (mean, stderr) == ref

    @pytest.mark.parametrize("count, dim, room", [
        (4096, 8, 3 * 4096), (1365, 24, 3 * 4096), (20, 1, 7), (7, 4097, 3 * 32768),
        (7, 4097, 5001), (3, 5000, 5000), (10, 3, 10)])
    def test_sphere_rows_have_the_bits_of_a_norm(self, count, dim, room):
        # rows summed as many at a time as `room` values of squares hold,
        # with a last group of fewer rows where count is no multiple of that
        z = np.random.default_rng(dim).standard_normal((count, dim))
        want = z * (np.sqrt(dim) / np.linalg.norm(z, axis=1, keepdims=True))
        sumsq = np.empty(count)
        _to_sphere(z, sumsq, np.empty(room))
        assert np.array_equal(z, want)

    def test_block_wider_than_a_chunk(self):
        # a 40000-value block is drawn one row per chunk.  The draw, the norms
        # and the einsum reproduce the reference row for row, but OpenBLAS's
        # matrix-vector product sums a one-row call with another kernel than
        # the rows of an (n, 40000) call, so c, and with it the mean, can
        # differ in the last bits here; the narrower blocks above are exact
        task, theta, sc = self.case([40000, 3], [100.0, 2.0])
        n = 6
        means, stderrs = expected_decrease(task, theta, sc, self.ETAS,
                                           mode="monte_carlo", n=n, seed=1)
        for k, eta in enumerate(self.ETAS):
            ref_mean, ref_stderr = reference_monte_carlo(task, theta, sc, eta, n, 1)
            assert means[k] == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
            assert stderrs[k] == pytest.approx(ref_stderr, rel=1e-12, abs=0.0)
            (mean,), (stderr,) = expected_decrease(task, theta, sc, [eta],
                                                   mode="monte_carlo", n=n, seed=1)
            assert (mean, stderr) == (means[k], stderrs[k])

    def test_more_samples_than_a_chunk(self):
        # n > 32768: the stderr's squared deviations are summed in halves,
        # as numpy's pairwise sum splits the reference's row.std(ddof=1)
        task, theta, sc = self.case([8, 24], [2.0, 16.0])
        n = 70_001
        means, stderrs = expected_decrease(task, theta, sc, self.ETAS,
                                           mode="monte_carlo", n=n, seed=3)
        for k, eta in enumerate(self.ETAS):
            assert (means[k], stderrs[k]) == reference_monte_carlo(
                task, theta, sc, eta, n, 3)

    def test_closed_form_takes_a_sequence(self):
        task, theta, sc = self.case([8, 24], [2.0, 16.0])
        values, stderr = expected_decrease(task, theta, sc, self.ETAS)
        assert stderr is None
        assert list(values) == [expected_decrease(task, theta, sc, [eta])[0][0]
                                for eta in self.ETAS]

    def test_peak_memory_of_one_profile(self):
        # three step sizes at 1e5 samples: the unchunked draw per step size
        # peaked at 48.8 MB; the shared draw holds one (3, n) delta array
        # (2.4 MB) and one chunk of samples
        task = make_rank_family([8, 24], [2.0, 16.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        tracemalloc.start()
        try:
            reports = verify_bound(task, theta, sc, [0.02, 0.03, 0.05],
                                   n=100_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(report.ok for report in reports)
        assert peak <= 8 * 2**20, peak

    def test_peak_memory_is_the_decreases_and_two_chunks(self):
        # the (n_etas, n) decreases, one chunk of draws and less than a chunk
        # of per-row scratch; the stderr forms no n-sized deviations
        task = make_rank_family([8, 24], [2.0, 16.0], [1.0, 1.0], seed=0)
        theta = task.init_theta(0)
        sc = PerturbScales.unit(task.partition)
        etas, n = [0.02, 0.03, 0.05], 100_000
        verify_bound(task, theta, sc, etas, n=1000, seed=0)
        tracemalloc.start()
        try:
            verify_bound(task, theta, sc, etas, n=n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= len(etas) * n * 8 + 2 * 8 * _CHUNK, peak
