"""Benchmark workloads: INI configs and checkpoints generated from a seed.

Each workload is a list of set-up commands (checkpoint preparation) and the
commands of one operation.  The program sees only the generated files; the
seed changes task optima, noise streams and spectra, never the sizes, so the
work per operation stays the same across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The acceptance race family (tests/test_acceptance.py::race_family and every
# demo config): two blocks with very different curvature.
RACE_TASK = {
    "kind": "quadratic",
    "block_sizes": "48, 16",
    "ranks": "48.0, 16.0",
    "opnorms": "1.0, 0.05",
    "shift_scale": "1.0",
    "init_scale": "0.204, 1.58",
}
# The acceptance race uses 0.125 as its top point; there the finetuner
# diverges late for some seeds and not for others, which would make the work
# of an operation depend on the seed.  At 0.08 mezo diverges early for every
# seed and the finetuner never does.
RACE_LR_GRID = (0.02, 0.05, 0.08)
CHECKPOINT = "finetuner.ckpt"


@dataclass(frozen=True)
class Command:
    """One `zoft` invocation.  Its work is counted as the data rows of
    `counts` in its out dir, times `per_row`."""

    name: str
    config: Path
    counts: str | None = None
    per_row: int = 1

    def units(self, out_dir: Path) -> int:
        if self.counts is None:
            return 0
        with open(out_dir / self.counts, encoding="utf-8") as f:
            return (sum(1 for _ in f) - 1) * self.per_row


@dataclass
class Workload:
    unit: str  # what one unit of work is, as counted from the outputs
    alias: str  # the workload-specific name of ops_per_s
    setup: list  # commands that write the checkpoint into ckpt/
    op: list  # commands of one operation, each with its own out dir
    model: dict  # QuadraticFamily / make_rank_family arguments of the model


def _ini(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def _write(path: Path, sections: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_ini(sections), encoding="utf-8")
    return path


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return ", ".join(str(int(v)) for v in values)


def _train_section(seed: int, tasks: int, steps: int) -> dict:
    return {"tasks": tasks, "steps": steps, "eta1": 0.05, "eta2": 0.05,
            "reset_period": 50, "hidden": 32, "seed": seed,
            "checkpoint": CHECKPOINT}


def _race_model(seed: int) -> dict:
    return {"kind": "family", "block_sizes": (48, 16), "ranks": (48.0, 16.0),
            "opnorms": (1.0, 0.05), "shift_scale": 1.0,
            "init_scale": (0.204, 1.58), "seed": seed, "task_index": 100,
            "theta_seed": seed}


def race_small(root: Path, seed: int, smoke: bool = False) -> Workload:
    task = dict(RACE_TASK, seed=seed)
    train = _write(root / "train.ini", {
        "task": task, "train": _train_section(seed, 8, 5 if smoke else 100)})
    compare = _write(root / "compare.ini", {"task": task, "compare": {
        "methods": "mezo, finetuner",
        # relative to the operation's out dir, which sits beside ckpt/
        "checkpoint": f"../../ckpt/{CHECKPOINT}",
        "tasks": 1 if smoke else 2,
        "task_start": 100,
        "seeds": seed,
        "lr_grid": _floats(RACE_LR_GRID),
        "steps": 20 if smoke else 400,
        "batch_size": 1,
        "threshold": 0.5,
    }})
    return Workload(
        unit="runs", alias="runs_per_s",
        setup=[Command("train-finetuner", train)],
        # one compare.csv row per (task, method, seed) cell, raced over the grid
        op=[Command("compare", compare, "compare.csv", len(RACE_LR_GRID))],
        model=_race_model(seed),
    )


def llm_block_sizes(smoke: bool = False) -> list:
    """~33 LLM-shaped blocks, d ~ 1.1e6: an embedding of ~29% of d, then per
    layer a norm, qkv matrix and bias, attention output, norm, MLP up matrix
    and bias, MLP down matrix."""
    h, vocab, layers = (16, 64, 2) if smoke else (128, 2500, 4)
    sizes = [vocab * h]
    for _ in range(layers):
        sizes += [h, h * 3 * h, 3 * h, h * h, h, h * 4 * h, 4 * h, 4 * h * h]
    return sizes


def finetune_wide(root: Path, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    sizes = llm_block_sizes(smoke)
    # effective rank between 5% and 20% of each block, one top eigenvalue of 1
    ranks = [max(1.0, round(s * rng.uniform(0.05, 0.2), 3)) for s in sizes]
    task = {"kind": "quadratic", "block_sizes": _ints(sizes),
            "ranks": _floats(ranks), "opnorms": _floats([1.0] * len(sizes)),
            "shift_scale": 1.0, "init_scale": 1.0, "seed": seed}
    # lr well below the 2 / tr(H) stability limit of the isotropic estimator
    lr = 0.5 / sum(ranks)
    train = _write(root / "init.ini", {
        "task": task, "train": _train_section(seed, 1, 0)})
    op = []
    for mode in ("mezo", "finetuner"):
        cfg = _write(root / f"finetune-{mode}.ini", {"task": task, "finetune": {
            "mode": mode,
            "checkpoint": f"../../ckpt/{CHECKPOINT}",
            "task_index": 0,
            "seeds": seed,
            "lr": repr(lr),
            "steps": 2 if smoke else 4,
            "batch_size": 1,
        }})
        op.append(Command("finetune", cfg, "trajectory.csv"))
    model = {"kind": "family", "block_sizes": tuple(sizes), "ranks": tuple(ranks),
             "opnorms": (1.0,) * len(sizes), "shift_scale": 1.0, "init_scale": 1.0,
             "seed": seed, "task_index": 0, "theta_seed": seed}
    return Workload(
        unit="steps", alias="steps_per_s",
        setup=[Command("train-finetuner", train)],
        op=op,
        model=model,
    )


def meta_train(root: Path, seed: int, smoke: bool = False) -> Workload:
    task = dict(RACE_TASK, seed=seed)
    cfg = _write(root / "train.ini", {
        "task": task, "train": _train_section(seed, 8, 5 if smoke else 100)})
    return Workload(
        unit="meta-steps", alias="meta_steps_per_s",
        setup=[],
        op=[Command("train-finetuner", cfg, "meta_log.csv")],
        model=_race_model(seed) | {"task_index": 0},
    )


BOUND_PROFILES = ((1, 24), (2, 16), (4, 8), (8, 24), (1, 4))
BOUND_ETAS = (0.02, 0.03, 0.05)


def bounds_mc(root: Path, seed: int, smoke: bool = False) -> Workload:
    profiles = BOUND_PROFILES[:2] if smoke else BOUND_PROFILES
    # one command per rank profile: the campaign is one operation of five
    # short commands, each timed on its own
    op = []
    for a, b in profiles:
        cfg = _write(root / f"bounds-{a}-{b}.ini", {
            "task": {"block_sizes": "8, 24", "shift_scale": 1.0},
            "bounds": {
                "rank_profiles": f"{a},{b}",
                "etas": _floats(BOUND_ETAS),
                "samples": 2000 if smoke else 100_000,
                "seed": seed,
            }})
        op.append(Command("verify-bounds", cfg, "bounds.csv"))
    return Workload(
        unit="cells", alias="cells_per_s",
        setup=[],
        op=op,
        model={"kind": "rank", "block_sizes": (8, 24), "ranks": profiles[0],
               "opnorms": (1.0, 1.0), "init_scale": 1.0, "seed": seed,
               "theta_seed": seed},
    )


# name -> (generator, why the workload is in the benchmark)
WORKLOADS = {
    "race-small": (race_small,
                   "compare on the acceptance race family (d=64, both methods, "
                   "3-point lr grid): ~100 us steps dominated by per-call "
                   "overhead in paramspace, zo_optimizer, pertnn and harness"),
    "finetune-wide": (finetune_wide,
                      "finetune at d~1.1e6 over 33 LLM-shaped blocks, both "
                      "modes: the paper's regime, where noise regeneration in "
                      "paramspace dominates and per-call overhead is under 5%"),
    "meta-train": (meta_train,
                   "train-finetuner on the race family: the only workload that "
                   "runs pertnn.backward, meta_grad and testbeds.grad, using "
                   "the scale network in the backward direction"),
    "bounds-mc": (bounds_mc,
                  "verify-bounds on the TestDecreaseBounds campaign (blocks "
                  "8+24, 5 rank profiles x 3 step sizes, 1e5 samples): the only "
                  "vectorised-numpy layer, run by no other workload"),
}
