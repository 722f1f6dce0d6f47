"""Watch the learning-to-learn loop shape the perturbation scales.

The scale network starts out emitting roughly equal per-block stds.  Each
meta-step differentiates the one-step-lookahead objective through the
reparameterized noise (holding the finite-difference coefficient fixed) and
nudges the network; every reset_period steps the task parameters snap back to
their start so training keeps seeing the early, high-signal regime.

We print the meta objective at each reset boundary and the per-block stds the
trained network emits on a fresh task, before and after training.

Run: python demos/meta_training_demo.py
"""

import numpy as np

from zoft.meta_trainer import MetaConfig, train
from zoft.paramspace import NoiseSeed, ParamVector
from zoft.pertnn import forward_all
from zoft.pertnn import init as pertnn_init
from zoft.testbeds import QuadraticFamily
from zoft.zo_optimizer import OptState, normalize_scales, step_features


def emitted_stds(params, task):
    theta = ParamVector(task.init_theta(0), task.partition)
    l0 = float(task.loss(theta.values, None))
    feats = step_features(theta, OptState(), l0)
    raw, _ = forward_all(params, feats)
    return normalize_scales(raw, task.partition)


def main():
    family = QuadraticFamily(
        block_sizes=(48, 16), ranks=(48.0, 16.0), opnorms=(1.0, 0.05),
        shift_scale=1.0, init_scale=(0.204, 1.58), seed=0,
    )
    tasks = family.make_tasks(8)
    init_params = pertnn_init(tasks[0].partition, 32, NoiseSeed(0))
    probe = family.make_task(100)

    print("stds before training:", np.round(emitted_stds(init_params, probe), 3))

    cfg = MetaConfig(eta1=0.05, eta2=0.05, steps=500, reset_period=50, seed=0)
    trained, log = train(cfg, tasks, init_params)

    print("\nmeta objective at reset boundaries:")
    for t in [1] + log.reset_steps:
        print(f"  step {t:>3}: mean l_zo over tasks = "
              f"{np.mean(log.l_zo[log.t == t]):.4f}")

    print("\nstds after training: ", np.round(emitted_stds(trained, probe), 3))
    print("(block 2 is flat and far from optimum; it should get the larger std)")


if __name__ == "__main__":
    main()
