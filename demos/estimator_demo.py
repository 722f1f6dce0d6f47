"""Sanity-check the two-point gradient estimator on a quadratic.

The estimate ghat = (L(theta + eps*u) - L(theta - eps*u)) / (2 eps) * u is a
random vector whose mean (as eps -> 0) is diag(s_i^2) * grad L(theta): each
block's gradient shows up scaled by that block's perturbation variance.  We
verify this by Monte Carlo and print the worst deviation in standard errors.

Run: python demos/estimator_demo.py
"""

import numpy as np

from zoft.paramspace import NoiseSeed, ParamVector, PerturbScales, sample_block_noise
from zoft.testbeds import make_rank_family
from zoft.zo_optimizer import two_point


def main():
    task = make_rank_family([3, 5], [1.0, 3.0], [1.0, 0.5], seed=0)
    p = task.partition
    theta = ParamVector(task.theta_star + np.linspace(0.3, 1.1, p.total), p)
    scales = PerturbScales(np.array([2.0, 0.5]), p)
    eps = 1e-4
    losses = lambda: task.loss(theta.values, None)
    grad = task.grad(theta.values, None)

    n = 20_000
    acc = np.zeros(p.total)
    sq = np.zeros(p.total)
    for k in range(n):
        seed = NoiseSeed(0, stream=k)
        # learning rate 0: the walk's last move only restores theta
        _, coeff = two_point(theta, scales, seed, eps, losses, 0.0)
        ghat = coeff * sample_block_noise(p, scales, seed)
        acc += ghat
        sq += ghat * ghat
    mean = acc / n
    stderr = np.sqrt((sq / n - mean**2) / n)

    expected = np.repeat(scales.stds**2, p.sizes) * grad
    z = np.abs(mean - expected) / stderr

    print(f"{n} two-point estimates on a d={p.total} quadratic")
    print("per-block stds:", scales.stds)
    print("coordinate 0..3 of E[ghat]:", np.round(mean[:4], 4))
    print("expected diag(s^2) grad  :", np.round(expected[:4], 4))
    print(f"worst |deviation| = {z.max():.2f} standard errors (want < ~4)")


if __name__ == "__main__":
    main()
