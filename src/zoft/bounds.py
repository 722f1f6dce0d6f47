"""Expected one-step loss-change bounds for block-diagonal quadratics.

Implements the uniform-rank bound for the plain Sigma = I estimator, its
block-wise refinement with per-block perturbation variances sigma_j^2, the
exact minimizer of the block-wise bound under the variance budget
sum_j d_j sigma_j^2 = d (water-filling, solved in closed form on sorted
breakpoints), and Monte-Carlo / closed-form evaluations of the actual
expected decrease for cross-checking.

`BoundInputs` is the task at one point; every bound takes the step size as
an argument, and `verify_bound` scores a sequence of them from one draw.

The block-wise bound is stated for the block-by-block update scheme (each
block is perturbed and updated with its own two-point estimate) under the
norm-controlled sphere law, and that is the one setting simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBoundError, NumericOverflowError
from .paramspace import _CHUNK, _DOT_PIECE, PerturbScales, _squared_deviations, dot
from .testbeds import QuadraticTask

_MC_TAG = 0x0B0C4D


def rank_coefficient(d: int, r: float) -> float:
    """Dimension-dependent factor (d*r + d - 2)/(d + 2) + 1 in the quadratic term."""
    return (d * r + d - 2.0) / (d + 2.0) + 1.0


def _check_step(eta) -> float:
    """A step size as a Python float; a negative or nan one raises ValueError."""
    eta = float(eta)
    if not eta >= 0:
        raise ValueError(f"step size must be nonnegative, got {eta!r}")
    return eta


@dataclass
class BoundInputs:
    """What the bounds read of a task at one point, at any step size."""

    smoothness: float
    block_sizes: np.ndarray
    ranks: np.ndarray
    grad_sqnorms: np.ndarray
    noise_trace: float = 0.0

    def __post_init__(self):
        self.block_sizes = np.asarray(self.block_sizes, dtype=np.int64)
        self.ranks = np.asarray(self.ranks, dtype=np.float64)
        self.grad_sqnorms = np.asarray(self.grad_sqnorms, dtype=np.float64)
        n = len(self.block_sizes)
        if len(self.ranks) != n or len(self.grad_sqnorms) != n:
            raise ValueError("per-block arrays must have equal length")
        if self.smoothness < 0 or self.noise_trace < 0:
            raise ValueError("smoothness and noise trace must be nonnegative")
        if np.any(self.grad_sqnorms < 0):
            raise ValueError("gradient square norms must be nonnegative")

    @property
    def dim(self) -> int:
        return int(self.block_sizes.sum())

    @classmethod
    def from_task(cls, task: QuadraticTask, theta: np.ndarray, grad=None) -> "BoundInputs":
        """The task at theta; `grad` is task.grad(theta, 0), read here unless
        the caller has it."""
        g = task.grad(theta, 0) if grad is None else grad
        return cls(
            smoothness=task.smoothness,
            block_sizes=task.partition.sizes.copy(),
            ranks=task.effective_ranks(),
            grad_sqnorms=[float(np.sum(g[sl] ** 2)) for sl in task.partition.slices],
            noise_trace=task.noise_tau,
        )


def mezo_bound(inputs: BoundInputs, eta: float) -> float:
    """Uniform-rank upper bound on the expected decrease at `eta`, r = max_j r_j."""
    eta = _check_step(eta)
    if eta == 0:
        return 0.0
    g2 = float(inputs.grad_sqnorms.sum())
    r = float(inputs.ranks.max())
    coef = rank_coefficient(inputs.dim, r)
    return (-eta * g2
            + 0.5 * eta**2 * inputs.smoothness * coef * (g2 + inputs.noise_trace))


def _bound_coeffs(inputs: BoundInputs, eta: float):
    """Linear / quadratic coefficients a_j, b_j of -a_j v_j + b_j v_j^2."""
    a = eta * inputs.grad_sqnorms
    b = (0.5 * eta**2 * inputs.smoothness
         * rank_coefficient(inputs.dim, inputs.ranks)
         * (inputs.grad_sqnorms + inputs.noise_trace))
    return a, b


def blockwise_bound(inputs: BoundInputs, eta: float, stds=None) -> float:
    """Per-block bound at `eta` summed over blocks at per-block ``stds`` (None = unit)."""
    eta = _check_step(eta)
    if eta == 0:
        return 0.0
    v = 1.0 if stds is None else np.asarray(stds, dtype=np.float64) ** 2
    a, b = _bound_coeffs(inputs, eta)
    return float((-a * v + b * v**2).sum())


def optimal_scales(inputs: BoundInputs, eta: float) -> np.ndarray:
    """The (n_blocks,) stds that minimize the blockwise bound at `eta` under the budget.

    Minimizes sum_j -a_j v_j + b_j v_j^2 over v_j = sigma_j^2 >= 0 subject to
    sum_j d_j v_j = d by water-filling (Boyd and Vandenberghe, *Convex
    Optimization*, Example 5.2).  KKT stationarity gives a curved block
    (b_j > 0) v_j = d_j max(0, t_j - mu) / (2 b_j) at breakpoint t_j = a_j / d_j,
    so the budget spent is piecewise linear and decreasing in mu.  With the
    breakpoints sorted, the budget at each one is a running sum of
    nonnegative terms; the piece on which it meets d gives mu in one linear
    solve.  A flat block (b_j = 0: no gradient and no noise, so a_j = 0)
    adds nothing to the bound at any variance, which holds mu at 0 or above:
    the budget the curved blocks leave at mu = 0 goes to the flat blocks at
    equal per-coordinate variance.
    """
    a, b = _bound_coeffs(inputs, _check_step(eta))
    curved = b > 0
    if not curved.any():
        raise DegenerateBoundError("all quadratic bound coefficients are zero")
    d = float(inputs.dim)
    sizes = inputs.block_sizes.astype(np.float64)
    t = a / sizes
    # curved breakpoints, highest first: block order[i] is active while mu < ts[i]
    order = np.flatnonzero(curved)[np.argsort(-t[curved], kind="stable")]
    ts = t[order]
    slopes = np.cumsum(sizes[order] ** 2 / (2.0 * b[order]))
    # budget spent at each breakpoint, from the differences of the
    # breakpoints rather than of mu, so nothing cancels
    spent = np.concatenate(([0.0], np.cumsum(slopes[:-1] * (ts[:-1] - ts[1:]))))
    k = np.count_nonzero(spent < d) - 1  # the last active breakpoint
    shift = (d - spent[k]) / slopes[k]  # ts[k] - mu
    gaps = ts - ts[k] + shift  # t_j - mu
    flat = ~curved
    clamped = flat.any() and shift > ts[k]  # mu < 0
    if clamped:
        gaps = ts  # mu = 0
    v = np.zeros_like(a)
    v[order] = sizes[order] * np.maximum(gaps, 0.0) / (2.0 * b[order])
    if clamped:
        v[flat] = max(0.0, d - float(sizes @ v)) / sizes[flat].sum()
    v *= d / (sizes @ v)  # pin the budget exactly
    return np.sqrt(v)


# ---------------------------------------------------------------------------
# Actual expected decrease on quadratics


def _to_sphere(z: np.ndarray, sumsq: np.ndarray, squares: np.ndarray) -> None:
    """Scale each row of z in place to norm sqrt(dim), bit for bit as
    z *= sqrt(dim) / np.linalg.norm(z, axis=1, keepdims=True), with no copy
    of z.  Each row's sum of squares is numpy's pairwise sum of that row
    alone, so the squares of as many rows as the flat scratch `squares`
    holds (at least one) go there at a time and are summed into `sumsq`,
    which has one entry per row of z; the square root and the divide then
    run once for every row.  Each row's factor is then copied out along the
    row in `squares` and multiplied in elementwise: a broadcast multiply
    would take numpy's ufunc buffer (up to 64 KiB) on top."""
    dim = z.shape[1]
    rows = len(squares) // dim
    for lo in range(0, len(z), rows):
        part = z[lo:lo + rows]
        square = np.multiply(part, part, out=squares[:part.size].reshape(part.shape))
        np.add.reduce(square, axis=1, out=sumsq[lo:lo + rows])
    np.sqrt(sumsq, out=sumsq)
    np.divide(np.sqrt(dim), sumsq, out=sumsq)
    for lo in range(0, len(z), rows):
        part = z[lo:lo + rows]
        factor = squares[:part.size].reshape(part.shape)
        factor[...] = sumsq[lo:lo + rows, None]
        part *= factor


def expected_decrease(task: QuadraticTask, theta: np.ndarray, scales: PerturbScales,
                      etas, mode: str = "closed_form", n: int = 100_000, seed: int = 0,
                      grad=None):
    """E[L(theta_1) - L(theta_0)] for one ZO step on a deterministic quadratic.

    The step is the one the block-wise bound is stated for: each block in
    turn is perturbed by s_i * sqrt(d_i) * z/|z|, z standard normal (the
    norm-controlled sphere law, E[u u'] = s_i^2 I), and updated with its
    own two-point estimate.  For quadratics the central difference is
    exact, so the two-point coefficient is c = u' grad L at every epsilon;
    both modes use that identity, so neither takes an epsilon.

    ``etas`` is a sequence of step sizes.  In Monte Carlo every step size is
    scored from the same n samples, which are drawn once, block by block, in
    chunks of about 256 KiB (see the README's Bounds note).

    ``grad`` is task.grad(theta, 0), read here unless the caller has it.

    Returns ``(means, stderrs)``, arrays with one entry per step size;
    stderrs is None in closed form.
    """
    if task.noise_tau != 0.0:
        raise ValueError("expected_decrease requires a deterministic quadratic (tau=0)")
    if mode not in ("closed_form", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    etas = [_check_step(e) for e in etas]
    g = task.grad(theta, 0) if grad is None else grad
    slices = task.partition.slices
    stds = scales.stds

    if mode == "closed_form":
        # E[(u'g)^2 u'Hu] = v^2 * d/(d+2) * (|g|^2 tr H + 2 g'Hg) on the sphere
        terms = []
        for i, sl in enumerate(slices):
            gj, hj = g[sl], task.block_eigs(i)
            gamma = dot(gj, gj)
            quad = gamma * float(hj.sum()) + 2.0 * dot(gj, hj * gj)
            terms.append((stds[i] ** 2, gamma, len(gj) / (len(gj) + 2.0), quad))
        means = []
        for e in etas:
            total = 0.0
            for v, gamma, factor, quad in terms:
                total += -e * v * gamma + 0.5 * e**2 * v**2 * factor * quad
            means.append(total)
        return np.array(means), None

    if n < 2:
        raise ValueError(f"monte_carlo needs n >= 2 samples for a stderr, got {n}")
    sizes = task.partition.py_sizes
    rng = np.random.default_rng([_MC_TAG, seed])
    delta = np.zeros((len(etas), n))
    # one draw buffer for every block: a chunk of rows, or one row of a
    # block wider than a chunk; and four per-row scratch rows: c2, quad, a
    # step size's update and its second term.  The last three are idle
    # while a chunk goes to the sphere, and hold at least an eighth of its
    # values, or one row of a wider block, as one flat run
    buffer = np.empty(max(_CHUNK, max(sizes)))
    width = max(_CHUNK // min(sizes), -(-max(_CHUNK // 8, max(sizes)) // 3))
    scratch = np.empty((4, width))
    squares = scratch[1:].reshape(-1)
    for i, sl in enumerate(slices):
        gj, hj, s = g[sl], task.block_eigs(i), stds[i]
        dim = len(gj)
        rows = max(1, _CHUNK // dim)
        # standard_normal fills row after row, so drawing a block's n rows
        # chunk by chunk consumes the stream exactly as one (n, dim) draw, and
        # the norms and the einsum are row by row; only BLAS's `u @ gj` may
        # round a chunk's last rows differently from one (n, dim) product.
        # Above _DOT_PIECE values BLAS splits that product over its threads,
        # so each row's coefficient is a paramspace.dot there (a chunk holds
        # at most 3 such rows)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            u = buffer[:(hi - lo) * dim].reshape(hi - lo, dim)
            rng.standard_normal(out=u)
            c2, quad, update, second = scratch[:, :hi - lo]
            _to_sphere(u, c2, squares)
            if s != 1.0:  # u * 1.0 is u, bit for bit
                u *= s
            if dim > _DOT_PIECE:
                for j, row in enumerate(u):
                    c2[j] = dot(row, gj)
            else:
                np.matmul(u, gj, out=c2)
            np.square(c2, out=c2)
            np.einsum("nk,k,nk->n", u, hj, u, out=quad)
            for k, e in enumerate(etas):
                # (-e * c2) + ((0.5 * e**2) * c2) * quad, in that order
                np.multiply(c2, -e, out=update)
                np.multiply(c2, 0.5 * e**2, out=second)
                second *= quad
                update += second
                delta[k, lo:hi] += update
    # the draws and the scratch go before the stderr pass
    del buffer, u, scratch, squares, c2, quad, update, second
    means, stderrs = [], []
    for row in delta:
        # row.mean() and row.std(ddof=1), bit for bit, without std's
        # n-sized array of deviations
        mean = row.mean()
        means.append(float(mean))
        std = np.sqrt(_squared_deviations(row, mean) / (n - 1))
        stderrs.append(float(std / np.sqrt(n)))
    return np.array(means), np.array(stderrs)


@dataclass
class BoundReport:
    eta: float
    mezo_bound: float
    blockwise_unit: float
    blockwise_given: float
    blockwise_optimal: float
    optimal_stds: np.ndarray
    mc_mean: float
    mc_stderr: float
    closed_form: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bound(task: QuadraticTask, theta: np.ndarray, scales: PerturbScales,
                 etas, n: int = 100_000, seed: int = 0) -> list[BoundReport]:
    """Evaluate both bounds against the measured expected decrease.

    A bound or measurement that is not finite raises NumericOverflowError.
    Checks, each recorded as a violation string when it fails:
      * measured E[dL] <= blockwise bound at the given scales + 4 stderr,
      * blockwise(optimal) <= blockwise(unit) <= uniform-rank bound,
      * closed form and Monte-Carlo agree within 4 stderr.

    ``etas`` is a sequence of step sizes, giving one report per step size,
    all measured from one Monte-Carlo draw.
    """
    # every step size is checked before the draw
    etas = [_check_step(e) for e in etas]
    if not etas:
        raise ValueError("verify_bound needs at least one step size")
    # the gradient is read once, for the inputs and for both modes
    g = task.grad(theta, 0)
    inputs = BoundInputs.from_task(task, theta, grad=g)
    mc_means, mc_stderrs = expected_decrease(
        task, theta, scales, etas, mode="monte_carlo", n=n, seed=seed, grad=g
    )
    closed, _ = expected_decrease(task, theta, scales, etas, mode="closed_form", grad=g)
    return [
        _report(inputs, e, scales.stds, float(m), float(s), float(c))
        for e, m, s, c in zip(etas, mc_means, mc_stderrs, closed)
    ]


def _slack(stderr: float, a: float, b: float) -> float:
    """How far a Monte-Carlo mean may sit from `a` or `b`: 4 stderr, but no
    less than their rounding.  A draw whose every sample gives one decrease
    (one-value blocks on the sphere) has a stderr of rounding noise alone."""
    return max(4.0 * stderr, 1e-12 * (abs(a) + abs(b)))


def _report(inputs: BoundInputs, eta: float, stds: np.ndarray, mc_mean: float,
            mc_stderr: float, closed: float) -> BoundReport:
    """The bounds at step size `eta`, checked against its measured decrease."""
    mz = mezo_bound(inputs, eta)
    bw_unit = blockwise_bound(inputs, eta)
    bw_given = blockwise_bound(inputs, eta, stds)
    # a step size of 0 leaves nothing to optimize
    opt = optimal_scales(inputs, eta) if eta else np.ones(len(stds))
    bw_opt = blockwise_bound(inputs, eta, opt)
    # a nan makes every check below false and an infinite stderr makes its
    # slack infinite: either would pass every check
    if not all(map(math.isfinite, (mz, bw_unit, bw_given, bw_opt, mc_mean, mc_stderr, closed))):
        raise NumericOverflowError(f"non-finite bound or measured decrease at eta {eta:g}")

    violations = []
    slack = _slack(mc_stderr, mc_mean, bw_given)
    if mc_mean > bw_given + slack:
        violations.append(
            f"measured decrease {mc_mean:.6e} exceeds blockwise bound "
            f"{bw_given:.6e} by more than {slack:.2e}"
        )
    tol = 1e-12 * (abs(bw_unit) + abs(mz) + 1.0)
    if bw_opt > bw_unit + tol:
        violations.append(
            f"optimal-scale bound {bw_opt:.6e} above unit-scale bound {bw_unit:.6e}"
        )
    if bw_unit > mz + tol:
        violations.append(
            f"unit-scale blockwise bound {bw_unit:.6e} above uniform bound {mz:.6e}"
        )
    slack = _slack(mc_stderr, closed, mc_mean)
    if abs(closed - mc_mean) > slack:
        violations.append(
            f"closed form {closed:.6e} and Monte-Carlo {mc_mean:.6e} "
            f"disagree beyond {slack:.2e}"
        )
    return BoundReport(
        eta=eta, mezo_bound=mz, blockwise_unit=bw_unit, blockwise_given=bw_given,
        blockwise_optimal=bw_opt, optimal_stds=opt,
        mc_mean=mc_mean, mc_stderr=mc_stderr, closed_form=closed,
        violations=violations,
    )
