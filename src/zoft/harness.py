"""Experiment runner backing the CLI: comparison protocol, sweeps, ablations,
bound campaigns, and CSV emission.

All commands are deterministic under a fixed config: the runs that share a
noise seed step together as one population, MeZO rows beside finetuner rows,
result rows are merged in a fixed sort order before writing, and wall-time
columns default to 0 so reruns are byte-identical (pass timing=True to record
real times at the cost of that guarantee).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import meta_trainer, pertnn as pertnn_mod
from .config import ExperimentConfig, _fmt, build_task_source
from .errors import (
    ConfigError,
    DegenerateBoundError,
    DimensionMismatchError,
    DivergenceError,
    NumericOverflowError,
)
from .paramspace import NoiseSeed, PerturbScales
from .testbeds import check_ranks, make_rank_family
from .zo_optimizer import Trajectory, ZOConfig, run_population

RUN_ROW_HEADER = "experiment,method,task,seed,lr,step,loss,wall_ms,scale_min,scale_med,scale_max"


def _run_settings(cfg: ExperimentConfig, section: str):
    """[section]'s seeds, steps, epsilon and batch_size."""
    return [cfg.get(section, key) for key in ("seeds", "steps", "epsilon", "batch_size")]


def _write_lines(path: Path, lines) -> None:
    """Write each line of the iterable `lines`, UTF-8 and ending in a newline,
    one at a time: a generator's text is never held whole.  The file is binary,
    so each encoded line goes straight into the file's buffer; a text file
    would keep every small write as a string object until its chunk fills."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        for line in lines:
            f.write(f"{line}\n".encode())


# ---------------------------------------------------------------------------
# Shared run machinery


@dataclass
class RunResult:
    method: str
    task: str
    seed: int
    lr: float
    outcome: Trajectory | DivergenceError  # the error that ended a diverged run
    wall_ms: float

    @property
    def diverged(self) -> bool:
        return isinstance(self.outcome, DivergenceError)

    @property
    def _loss(self) -> np.ndarray:
        return np.empty(0) if self.diverged else self.outcome.loss

    @property
    def initial_loss(self) -> float:
        return float(self._loss[0]) if len(self._loss) else float("nan")

    def final_window_mean(self, window: float = 0.1) -> float:
        if not len(self._loss):
            return float("inf")
        k = max(1, int(round(window * len(self._loss))))
        return float(np.mean(self._loss[-k:]))

    def steps_to_threshold(self, ratio: float = 0.5):
        if not len(self._loss):
            return None
        hits = np.flatnonzero(self._loss <= ratio * self._loss[0])
        return int(hits[0]) + 1 if len(hits) else None


def _run_cells(jobs, steps, epsilon, batch_size, pertnn, normalize=True,
               timing=False) -> list[RunResult]:
    """Run every (model, method, lr, seed) job; returns RunResults in job order.

    Jobs that share a seed draw the same noise at every step, so each seed's
    jobs run as one population (see run_population): a MeZO job is a row
    with unit scales beside the finetuner rows.  With timing, each run's wall
    time is its population's split evenly over all its rows.
    """
    groups: dict = {}
    for k, (_, _, _, seed) in enumerate(jobs):
        groups.setdefault(seed, []).append(k)
    results = [None] * len(jobs)
    for seed, ks in groups.items():
        learned = [jobs[k][1] == "finetuner" for k in ks]
        finetuner = any(learned)
        config = ZOConfig(steps=steps, epsilon=epsilon, batch_size=batch_size,
                          mode="finetuner" if finetuner else "mezo", seed=seed,
                          normalize=normalize)
        start = time.perf_counter()
        outcomes = run_population([jobs[k][0] for k in ks], [jobs[k][2] for k in ks],
                                  config, pertnn if finetuner else None, learned)
        wall = (time.perf_counter() - start) * 1e3 / len(ks) if timing else 0.0
        for k, outcome in zip(ks, outcomes):
            model, method, lr, _ = jobs[k]
            results[k] = RunResult(method, model.name, seed, lr, outcome, wall)
    return results


def _run_rows(experiment: str, result: RunResult) -> list[str]:
    if result.diverged:
        return []
    traj = result.outcome
    head = ",".join([experiment, result.method, result.task, str(result.seed),
                     _fmt(result.lr)])
    per_step_ms = _fmt(result.wall_ms / max(1, len(traj)))
    columns = (traj.loss, traj.scales.min(axis=1), np.median(traj.scales, axis=1),
               traj.scales.max(axis=1))
    return [f"{head},{t},{_fmt(loss)},{per_step_ms},{_fmt(smin)},{_fmt(smed)},{_fmt(smax)}"
            for t, (loss, smin, smed, smax)
            in enumerate(zip(*(c.tolist() for c in columns)), start=1)]


def _sorted_rows(rows: list[str]) -> list[str]:
    def key(row: str):
        exp, method, task, seed, lr, step, *_ = row.split(",")
        return (exp, method, task, int(seed), float(lr), int(step))
    return sorted(rows, key=key)


def _meta_train(cfg: ExperimentConfig, tasks, normalize=True, reset=True):
    """Meta-train a finetuner on `tasks` per [train]; returns (pertnn, MetaLog)."""
    steps = cfg.get("train", "steps")
    reset_period = cfg.get("train", "reset_period")
    seed = cfg.get("train", "seed")
    meta_cfg = meta_trainer.MetaConfig(
        eta1=cfg.get("train", "eta1"),
        eta2=cfg.get("train", "eta2"),
        steps=steps,
        epsilon=cfg.get("train", "epsilon"),
        reset_period=reset_period if reset else steps + 1,
        batch_size=cfg.get("train", "batch_size"),
        seed=seed,
        normalize=normalize,
    )
    init_params = pertnn_mod.init(tasks[0].partition, cfg.get("train", "hidden"),
                                  NoiseSeed(seed))
    return meta_trainer.train(meta_cfg, tasks, init_params)


def _load_checkpoint_if_needed(cfg: ExperimentConfig, section, methods, out_dir: Path,
                               partition):
    """Load the section's checkpoint when a method needs it, for `partition`."""
    if not any(m == "finetuner" for m in methods):
        return None
    name = cfg.get(section, "checkpoint")
    path = Path(name)
    if not path.is_absolute():
        path = out_dir / name
    params = pertnn_mod.load(path)
    if params.block_names != partition.names:
        raise DimensionMismatchError(
            f"{path}: checkpoint blocks {list(params.block_names)} do not match "
            f"the model's blocks {list(partition.names)}"
        )
    return params


def _model(cfg: ExperimentConfig, section: str, kind: str, source):
    """The one model a [section] runs: a family's task_index, or the MLP at
    its granularity."""
    if kind == "quadratic":
        return source.make_task(cfg.get(section, "task_index"))
    return source(cfg.get(section, "granularity"))


# ---------------------------------------------------------------------------
# Commands


def cmd_train_finetuner(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    if kind != "quadratic":
        raise ConfigError("train-finetuner currently expects a quadratic task family")
    tasks = source.make_tasks(cfg.get("train", "tasks"))
    trained, log = _meta_train(cfg, tasks, normalize=cfg.get("train", "normalize"))
    ckpt = out_dir / cfg.get("train", "checkpoint")
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    pertnn_mod.save(trained, ckpt)
    _write_lines(out_dir / "meta_log.csv", _meta_log_rows(log))
    return 0


def _meta_log_rows(log: meta_trainer.MetaLog):
    """meta_log.csv's lines, made one at a time from the log's columns."""
    yield "step,task,l_zo,loss,reset"
    for t, task, l_zo, loss, reset in zip(log.t, log.task, log.l_zo, log.loss, log.reset):
        yield f"{t},{log.task_names[task]},{_fmt(l_zo)},{_fmt(loss)},{int(reset)}"


def cmd_finetune(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    method = cfg.get("finetune", "mode")
    seeds, steps, epsilon, batch_size = _run_settings(cfg, "finetune")
    lr = cfg.get("finetune", "lr")
    model = _model(cfg, "finetune", kind, source)
    experiment = cfg.get("finetune", "experiment")
    params = _load_checkpoint_if_needed(cfg, "finetune", [method], out_dir,
                                        model.partition)

    results = _run_cells([(model, method, lr, seed) for seed in seeds],
                         steps, epsilon, batch_size, params, timing=timing)
    rows = []
    for result in results:
        if result.diverged:
            raise DivergenceError(
                f"{method} diverged on {model.name} seed {result.seed}: {result.outcome}"
            )
        rows.extend(_run_rows(experiment, result))
    _write_lines(out_dir / "trajectory.csv", [RUN_ROW_HEADER] + _sorted_rows(rows))
    return 0


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    if kind != "quadratic":
        raise ConfigError("compare expects a quadratic task family")
    methods = cfg.get("compare", "methods")
    seeds, steps, epsilon, batch_size = _run_settings(cfg, "compare")
    lr_grid = cfg.get("compare", "lr_grid")
    n_tasks, task_start = cfg.get("compare", "tasks"), cfg.get("compare", "task_start")
    threshold = cfg.get("compare", "threshold")
    window = cfg.get("compare", "final_window")
    tasks = source.make_tasks(n_tasks, start=task_start)
    params = _load_checkpoint_if_needed(cfg, "compare", methods, out_dir,
                                        tasks[0].partition)

    jobs = [(model, method, lr, seed)
            for model in tasks for method in methods
            for seed in seeds for lr in lr_grid]
    results = _run_cells(jobs, steps, epsilon, batch_size, params, timing=timing)
    by_cell: dict = {}
    for result in results:
        by_cell.setdefault((result.method, result.task, result.seed), []).append(result)

    lines = ["method,task,seed,best_lr,final_mean,steps_to_threshold"]
    best: dict = {}
    for (method, task, seed), runs in sorted(by_cell.items()):
        chosen = min(runs, key=lambda r: (r.final_window_mean(window), r.lr))
        stt = chosen.steps_to_threshold(threshold)
        best[(method, task, seed)] = (chosen, stt)
        lines.append(",".join([
            method, task, str(seed), _fmt(chosen.lr),
            _fmt(chosen.final_window_mean(window)),
            str(stt) if stt is not None else "",
        ]))
    _write_lines(out_dir / "compare.csv", lines)

    summary = _compare_summary(methods, tasks, seeds, best, steps, window)
    _write_lines(out_dir / "summary.txt", summary)
    return 0


def _compare_summary(methods, tasks, seeds, best, steps, window):
    """Aligned text table: per-method medians plus pairwise win tally."""
    col = max(len(m) for m in methods) + 2
    lines = [f"{'method':<{col}}{'median_final':>14}{'median_steps':>14}"]
    med_steps = {}
    for method in methods:
        finals, step_counts = [], []
        for task in tasks:
            for seed in seeds:
                chosen, stt = best[(method, task.name, seed)]
                finals.append(chosen.final_window_mean(window))
                step_counts.append(stt if stt is not None else steps + 1)
        med_steps[method] = statistics.median(step_counts)
        lines.append(
            f"{method:<{col}}{statistics.median(finals):>14.6g}"
            f"{med_steps[method]:>14.6g}"
        )
    if len(methods) == 2:
        a, b = methods
        wins = ties = 0
        total = 0
        for task in tasks:
            for seed in seeds:
                sa = best[(a, task.name, seed)][1]
                sb = best[(b, task.name, seed)][1]
                sa = sa if sa is not None else steps + 1
                sb = sb if sb is not None else steps + 1
                total += 1
                if sa < sb:
                    wins += 1
                elif sa == sb:
                    ties += 1
        lines.append("")
        lines.append(
            f"{a} beats {b} on steps-to-threshold in {wins}/{total} "
            f"task-seed pairs ({ties} ties)"
        )
        lines.append(
            f"median steps ratio ({a}/{b}): "
            f"{med_steps[a] / med_steps[b]:.4f}"
        )
    return lines


def cmd_sweep_lr(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    methods = cfg.get("sweep", "methods")
    seeds, steps, epsilon, batch_size = _run_settings(cfg, "sweep")
    lr_grid = sorted(cfg.get("sweep", "lr_grid"))
    # the span of the rates as printed: 100 * 0.07 is 7.000000000000001
    positive = [Decimal(_fmt(lr)) for lr in lr_grid if lr > 0.0]
    if len(lr_grid) < 3 or not positive or positive[-1] < 100 * positive[0]:
        raise ConfigError(
            "[sweep] lr_grid needs >= 3 values whose positive entries span "
            ">= 2 orders of magnitude"
        )
    plateau_ratio = cfg.get("sweep", "plateau_ratio")
    window = cfg.get("sweep", "final_window")
    model = _model(cfg, "sweep", kind, source)
    experiment = cfg.get("sweep", "experiment")
    params = _load_checkpoint_if_needed(cfg, "sweep", methods, out_dir,
                                        model.partition)

    jobs = [(model, method, lr, seed)
            for method in methods for lr in lr_grid for seed in seeds]
    results = _run_cells(jobs, steps, epsilon, batch_size, params, timing=timing)
    curve_rows, flag_lines = [], ["method,lr,seed,flag,final_mean"]
    for result in sorted(results, key=lambda r: (r.method, r.lr, r.seed)):
        curve_rows.extend(_run_rows(experiment, result))
        if result.diverged:
            flag = "diverged"
            final = float("inf")
        else:
            final = result.final_window_mean(window)
            flag = "plateaued" if final > plateau_ratio * result.initial_loss else "converged"
        flag_lines.append(
            f"{result.method},{_fmt(result.lr)},{result.seed},{flag},{_fmt(final)}"
        )
    _write_lines(out_dir / "sweep_curves.csv", [RUN_ROW_HEADER] + _sorted_rows(curve_rows))
    _write_lines(out_dir / "sweep_flags.csv", flag_lines)
    return 0


def cmd_ablate(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    axes = cfg.get("ablate", "axes")
    seeds, steps, epsilon, batch_size = _run_settings(cfg, "ablate")
    lr = cfg.get("ablate", "lr")
    window = cfg.get("ablate", "final_window")
    eval_task_index = cfg.get("ablate", "task_index")

    lines = ["cell,seed,final_loss"]

    if "partition" in axes:
        if kind != "mlp":
            raise ConfigError("[ablate] the partition axis needs an mlp task")
        cells = [("partition=block", "block"), ("partition=layer", "layer")]
        for cell_name, granularity in cells:
            model = source(granularity)
            trained, _ = _meta_train(cfg, [model])
            jobs = [(model, "finetuner", lr, seed) for seed in seeds]
            for result in _run_cells(jobs, steps, epsilon, batch_size, trained,
                                     timing=timing):
                lines.append(f"{cell_name},{result.seed},{_fmt(result.final_window_mean(window))}")
    else:
        if kind != "quadratic":
            raise ConfigError("[ablate] reset/normalization axes need a quadratic family")
        reset_values = [True, False] if "reset" in axes else [True]
        norm_values = [True, False] if "normalization" in axes else [True]
        tasks = source.make_tasks(cfg.get("train", "tasks"))
        for reset in reset_values:
            for norm in norm_values:
                cell_name = f"reset={'on' if reset else 'off'}+norm={'on' if norm else 'off'}"
                trained, _ = _meta_train(cfg, tasks, normalize=norm, reset=reset)
                model = source.make_task(eval_task_index)
                jobs = [(model, "finetuner", lr, seed) for seed in seeds]
                for result in _run_cells(jobs, steps, epsilon, batch_size, trained,
                                         normalize=norm, timing=timing):
                    final = result.final_window_mean(window) if not result.diverged else float("inf")
                    lines.append(f"{cell_name},{result.seed},{_fmt(final)}")
    _write_lines(out_dir / "ablation.csv", lines)
    return 0


def cmd_verify_bounds(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    block_sizes = cfg.get("task", "block_sizes")
    opnorms = cfg.get("task", "opnorms")
    profiles_raw = cfg.get("bounds", "rank_profiles")
    profiles = []
    for chunk in profiles_raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            ranks = [float(v) for v in chunk.split(",")]
        except ValueError as exc:
            raise ConfigError(f"[bounds] malformed rank profile {chunk!r}") from exc
        # every profile is checked before the first Monte-Carlo draw
        check_ranks(f"{cfg.path}: [bounds] rank_profiles profile {chunk!r}", block_sizes, ranks)
        profiles.append(ranks)
    if not profiles:
        raise ConfigError("[bounds] rank_profiles must be non-empty")
    etas = cfg.get("bounds", "etas")
    samples = cfg.get("bounds", "samples")
    seed = cfg.get("bounds", "seed")
    shift_scale = cfg.get("task", "shift_scale")

    lines = ["ranks,eta,mezo_bound,blockwise_unit,blockwise_optimal,"
             "mc_mean,mc_stderr,closed_form,ok"]
    any_violation = False
    for ranks in profiles:
        task = make_rank_family(block_sizes, ranks, opnorms, init_scale=shift_scale,
                                seed=seed)
        rank_str = "|".join(_fmt(r) for r in ranks)
        # one Monte-Carlo draw per profile scores every step size
        try:
            reports = bounds_mod.verify_bound(
                task, task.init_theta(seed), PerturbScales.unit(task.partition), etas,
                n=samples, seed=seed,
            )
        except (DegenerateBoundError, NumericOverflowError, OverflowError) as exc:
            # an eta whose square overflows, an eta or shift so large that a
            # bound or the measured decrease is not finite, or an eta or
            # shift so small that every quadratic coefficient is 0
            raise ConfigError(
                f"{cfg.path}: rank profile {rank_str} has no finite bound with a non-zero "
                f"quadratic term at [bounds] etas = {', '.join(map(_fmt, etas))} and "
                f"[task] shift_scale = {_fmt(shift_scale)}") from exc
        for eta, report in zip(etas, reports):
            lines.append(",".join([
                rank_str, _fmt(eta), _fmt(report.mezo_bound),
                _fmt(report.blockwise_unit), _fmt(report.blockwise_optimal),
                _fmt(report.mc_mean), _fmt(report.mc_stderr),
                _fmt(report.closed_form), str(int(report.ok)),
            ]))
            any_violation |= not report.ok
    _write_lines(out_dir / "bounds.csv", lines)
    return 4 if any_violation else 0
