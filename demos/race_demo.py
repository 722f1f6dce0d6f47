"""Meta-train a scale network, then race it against isotropic noise.

A small quadratic family is built so that one block is steep and near its
optimum while the other is flat and far away.  Isotropic perturbations waste
budget on the steep block; the learned per-block scales shift it to the flat
one.  After meta-training we fine-tune a held-out task with both methods and
compare steps to half the initial loss.

Takes roughly half a minute on one CPU.

Run: python demos/race_demo.py
"""

import numpy as np

from zoft.errors import DivergenceError
from zoft.meta_trainer import MetaConfig, train
from zoft.paramspace import NoiseSeed
from zoft.pertnn import init as pertnn_init
from zoft.testbeds import QuadraticFamily
from zoft.zo_optimizer import ZOConfig, run_population


def main():
    family = QuadraticFamily(
        block_sizes=(48, 16), ranks=(48.0, 16.0), opnorms=(1.0, 0.05),
        shift_scale=1.0, init_scale=(0.204, 1.58), seed=0,
    )
    tasks = family.make_tasks(8)
    meta_cfg = MetaConfig(eta1=0.05, eta2=0.05, steps=500, reset_period=50, seed=0)
    print("meta-training on 8 tasks for 500 steps ...")
    trained, log = train(meta_cfg, tasks,
                         pertnn_init(tasks[0].partition, 32, NoiseSeed(0)))
    print(f"meta objective: first {log.l_zo[0]:.4f}, "
          f"last {log.l_zo[-1]:.4f}")

    held_out = family.make_task(100)
    grid = [0.02, 0.05, 0.125]
    print(f"\nfine-tuning held-out task, best lr from {grid}, 5 seeds:")
    print(f"{'method':<12}{'best lr':>9}{'median steps to half loss':>28}"
          f"{'median final':>16}")
    for method, params in (("mezo", None), ("finetuner", trained)):
        steps = {lr: [] for lr in grid}
        finals = {lr: [] for lr in grid}
        for seed in range(5):
            # the runs of one seed share every noise draw: one population
            # steps the whole lr grid at once, each run keeping the step at
            # which it halves its loss and its last 40 losses (the default
            # race: threshold 0.5, final window 0.1)
            config = ZOConfig(steps=400, mode=method, seed=seed)
            outcomes = run_population([held_out] * len(grid), grid, config, params)
            for lr, record in zip(grid, outcomes):
                if isinstance(record, DivergenceError):
                    steps[lr].append(401)
                    finals[lr].append(float("inf"))
                    continue
                steps[lr].append(record.hit if record.hit is not None else 401)
                finals[lr].append(np.mean(record.tail))
        by_lr = {lr: (float(np.median(finals[lr])), float(np.median(steps[lr])))
                 for lr in grid}
        lr = min(grid, key=lambda v: by_lr[v])
        final, median_steps = by_lr[lr]
        print(f"{method:<12}{lr:>9g}{median_steps:>28g}{final:>16.4f}")


if __name__ == "__main__":
    main()
