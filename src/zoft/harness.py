"""Experiment runner backing the CLI: comparison protocol, sweeps, ablations,
bound campaigns, and CSV emission.

All commands are deterministic under a fixed config: the runs that share a
noise seed step together as one population, MeZO rows beside finetuner rows,
each file lists its runs in a fixed order, and wall-time columns default to
0 so reruns are byte-identical (pass timing=True to record real times at the
cost of that guarantee).
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import meta_trainer, pertnn as pertnn_mod
from .config import ExperimentConfig, _fmt, build_task_source
from .errors import ConfigError, DegenerateBoundError, DivergenceError, NumericOverflowError
from .paramspace import NoiseSeed, PerturbScales
from .testbeds import check_ranks, make_rank_family
from .zo_optimizer import RaceRecorder, RunRecord, ZOConfig, run_population

RUN_ROW_HEADER = "experiment,method,task,seed,lr,step,loss,wall_ms,scale_min,scale_med,scale_max"


def _run_settings(cfg: ExperimentConfig, section: str):
    """[section]'s seeds, steps, epsilon and batch_size."""
    return [cfg.get(section, key) for key in ("seeds", "steps", "epsilon", "batch_size")]


def _write_lines(path: Path, lines, *more) -> None:
    """Write `lines` to `path`, and each further (path, lines) pair, one UTF-8
    line at a time (a generator's text is never held whole) through
    _written_on_success: no file replaces an earlier one before all are whole."""
    with contextlib.ExitStack() as stack:
        for p, text in [(path, lines), *more]:
            f = stack.enter_context(_written_on_success(p))
            for line in text:
                f.write(f"{line}\n".encode())


# ---------------------------------------------------------------------------
# Shared run machinery


@dataclass
class RunResult:
    method: str
    task: str
    seed: int
    lr: float
    # what the run kept (see run_population), or the error that ended it
    outcome: RunRecord | DivergenceError
    wall_ms: float

    @property
    def diverged(self) -> bool:
        return isinstance(self.outcome, DivergenceError)

    @property
    def initial_loss(self) -> float:
        return float("nan") if self.diverged else self.outcome.first

    @property
    def final_mean(self) -> float:
        """The mean of the run's final window; inf for a run that diverged or
        has no steps."""
        tail = () if self.diverged else self.outcome.tail
        return float(np.mean(tail)) if len(tail) else float("inf")

    @property
    def steps_to_threshold(self) -> int | None:
        return None if self.diverged else self.outcome.hit


def _run_cells(jobs, steps, epsilon, batch_size, pertnn, normalize=True,
               timing=False, recorder=RaceRecorder) -> list[RunResult]:
    """Run every (model, method, lr, seed) job; returns RunResults in job order.

    Jobs that share a seed draw the same noise at every step, so each seed's
    jobs run as one population (see run_population): a MeZO job is a row
    with unit scales beside the finetuner rows.  With timing, each run's wall
    time is its population's split evenly over all its rows.  A run's
    outcome is what recorder(n_rows, steps) keeps of it (see _run_rows).
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
                                  config, pertnn if finetuner else None, learned,
                                  recorder(len(ks), steps))
        wall = (time.perf_counter() - start) * 1e3 / len(ks) if timing else 0.0
        for k, outcome in zip(ks, outcomes):
            model, method, lr, _ = jobs[k]
            results[k] = RunResult(method, model.name, seed, lr, outcome, wall)
    return results


@dataclass
class _Trajectory(RunRecord):
    steps: np.ndarray  # (T, 4): each step's loss and its scales' min, median and max


class _Trajectories(RaceRecorder):
    """Each run's _Trajectory, for a command that writes every step.  Scales
    wait in a buffer of at most 8192 values (or one step's) and are reduced a
    block of steps at a time: np.median's bits at a fraction of a call a step."""

    def __init__(self, n_rows: int, steps: int, **race):
        super().__init__(n_rows, steps, **race)
        self.steps = np.empty((n_rows, steps, 4))
        self.held = None  # the scales of the steps not yet reduced

    def append(self, t, rows, losses, scales) -> None:
        super().append(t, rows, losses, scales)
        self.steps[rows, t - 1, 0] = losses
        if self.held is None:  # every row steps at t = 1; a row that leaves holds ones
            block = min(self.steps.shape[1], max(1, 8192 // scales.size))
            self.held = np.ones((block,) + scales.shape)
        j = (t - 1) % len(self.held)  # step t's place in its block
        self.held[j, rows] = scales
        if j == len(self.held) - 1 or t == self.steps.shape[1]:
            for k, reduce in enumerate((np.min, np.median, np.max), start=1):
                self.steps[:, t - 1 - j:t, k] = reduce(self.held[:j + 1], axis=-1).T

    def result(self, r: int) -> _Trajectory:
        return _Trajectory(**vars(super().result(r)), steps=self.steps[r])


def _run_rows(experiment: str, results):
    """The header, then each run's rows in step order, one at a time: runs
    in (method, task, seed, lr) order, and none for a diverged run."""
    yield RUN_ROW_HEADER
    for result in sorted(results, key=lambda r: (r.method, r.task, r.seed, r.lr)):
        if result.diverged:
            continue
        steps = result.outcome.steps
        head = ",".join([experiment, result.method, result.task, str(result.seed),
                         _fmt(result.lr)])
        per_step_ms = _fmt(result.wall_ms / max(1, len(steps)))
        for lo in range(0, len(steps), 64):  # as floats 64 steps at a time, not all
            for t, (loss, *scale) in enumerate(steps[lo:lo + 64].tolist(), lo + 1):
                yield f"{head},{t},{_fmt(loss)},{per_step_ms},{','.join(map(_fmt, scale))}"


def _meta_train(cfg: ExperimentConfig, tasks, log, normalize=True, reset=True):
    """Meta-train a finetuner on `tasks` per [train], each inner step handed
    to `log` (see meta_trainer.train); returns the trained network."""
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
    trained, _ = meta_trainer.train(meta_cfg, tasks, init_params, log)
    return trained


def _load_checkpoint_if_needed(cfg: ExperimentConfig, section, methods, out_dir: Path,
                               partition):
    """Load the section's checkpoint (a relative name is in `out_dir`) when a
    method needs it, for `partition`."""
    if "finetuner" not in methods:
        return None
    return pertnn_mod.load(out_dir / cfg.get(section, "checkpoint"), partition.names)


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
    log_path = out_dir / "meta_log.csv"
    name = cfg.get("train", "checkpoint")
    ckpt = out_dir / name
    if ckpt.resolve() in (log_path.resolve(), _part(log_path).resolve()):
        raise ConfigError(f"[train] checkpoint = {name!r} is where the run writes "
                          f"{log_path.name}")
    with _written_on_success(log_path) as log:
        trained = _meta_train(cfg, tasks, _MetaLogWriter(log, [task.name for task in tasks]))
        with _written_on_success(ckpt) as f:
            pertnn_mod.save(trained, f)
    return 0


def _part(path: Path) -> Path:
    """Where _written_on_success writes `path` until its block succeeds."""
    return path.with_name(f"{path.name}.part")


@contextlib.contextmanager
def _written_on_success(path: Path):
    """A binary file, open for the block, that becomes `path` when the block
    succeeds.  It is written as _part(path), so a block that fails leaves
    `path` as it was, and removes the directories made for it."""
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    part = _part(path)
    try:
        with open(part, "wb") as f:
            yield f
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):  # not empty: something else is in it
                d.rmdir()
        raise


class _MetaLogWriter:
    """meta_trainer.train's recorder for meta_log.csv: the header, then each
    inner step's line, written into the open binary file as the step ends."""

    def __init__(self, f, task_names):
        self.f, self.task_names, self.n = f, task_names, 0
        f.write(b"step,task,l_zo,loss,reset\n")

    def append(self, task: int, l_zo: float, loss: float, reset: bool) -> None:
        t = self.n // len(self.task_names) + 1
        self.n += 1
        self.f.write(f"{t},{self.task_names[task]},{_fmt(l_zo)},{_fmt(loss)},"
                     f"{int(reset)}\n".encode())


class _Discard:
    """meta_trainer.train's recorder for a command that writes no log: it
    keeps nothing of an inner step."""

    def append(self, task: int, l_zo: float, loss: float, reset: bool) -> None:
        pass


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
                         steps, epsilon, batch_size, params, timing=timing,
                         recorder=_Trajectories)
    for result in results:
        if result.diverged:
            raise DivergenceError(
                f"{method} diverged on {model.name} seed {result.seed}: {result.outcome}"
            )
    _write_lines(out_dir / "trajectory.csv", _run_rows(experiment, results))
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
    results = _run_cells(jobs, steps, epsilon, batch_size, params, timing=timing,
                         recorder=partial(RaceRecorder, threshold=threshold, window=window))
    by_cell: dict = {}
    for result in results:
        by_cell.setdefault((result.method, result.task, result.seed), []).append(result)
    # one (final_mean, best_lr, steps_to_threshold) record per cell, at its
    # best rate; a cell's rates differ, so no tie reaches the run itself
    records = {}
    for cell, runs in sorted(by_cell.items()):
        final, lr, best = min((run.final_mean, run.lr, run) for run in runs)
        records[cell] = (final, lr, best.steps_to_threshold)

    lines = ["method,task,seed,best_lr,final_mean,steps_to_threshold"]
    for (method, task, seed), (final, lr, stt) in records.items():
        lines.append(f"{method},{task},{seed},{_fmt(lr)},{_fmt(final)},"
                     f"{'' if stt is None else stt}")
    _write_lines(out_dir / "compare.csv", lines, (out_dir / "summary.txt", _compare_summary(
        methods, tasks, seeds, records, steps)))
    return 0


def _compare_summary(methods, tasks, seeds, records, steps):
    """Aligned text table: per-method medians plus pairwise win tally.  A
    cell that never reaches the threshold counts one step past the last."""
    counted = {cell: steps + 1 if stt is None else stt
               for cell, (_, _, stt) in records.items()}
    col = max(len(m) for m in methods) + 2
    lines = [f"{'method':<{col}}{'median_final':>14}{'median_steps':>14}"]
    med_steps = {}
    for method in methods:
        cells = [(method, task.name, seed) for task in tasks for seed in seeds]
        med_steps[method] = statistics.median(counted[cell] for cell in cells)
        lines.append(
            f"{method:<{col}}{statistics.median(records[cell][0] for cell in cells):>14.6g}"
            f"{med_steps[method]:>14.6g}"
        )
    if len(methods) == 2:
        a, b = methods
        pairs = [(counted[(a, task.name, seed)], counted[(b, task.name, seed)])
                 for task in tasks for seed in seeds]
        wins = sum(sa < sb for sa, sb in pairs)
        ties = sum(sa == sb for sa, sb in pairs)
        lines.append("")
        lines.append(
            f"{a} beats {b} on steps-to-threshold in {wins}/{len(pairs)} "
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
    results = _run_cells(jobs, steps, epsilon, batch_size, params, timing=timing,
                         recorder=partial(_Trajectories, window=window))
    flag_lines = ["method,lr,seed,flag,final_mean"]
    for result in sorted(results, key=lambda r: (r.method, r.lr, r.seed)):
        final = result.final_mean
        if result.diverged:
            flag = "diverged"
        else:
            flag = "plateaued" if final > plateau_ratio * result.initial_loss else "converged"
        flag_lines.append(
            f"{result.method},{_fmt(result.lr)},{result.seed},{flag},{_fmt(final)}"
        )
    _write_lines(out_dir / "sweep_curves.csv", _run_rows(experiment, results),
                 (out_dir / "sweep_flags.csv", flag_lines))
    return 0


def cmd_ablate(cfg: ExperimentConfig, out_dir: Path, timing: bool = False) -> int:
    kind, source = build_task_source(cfg)
    axes = cfg.get("ablate", "axes")
    seeds, steps, epsilon, batch_size = _run_settings(cfg, "ablate")
    lr = cfg.get("ablate", "lr")
    window = cfg.get("ablate", "final_window")
    eval_task_index = cfg.get("ablate", "task_index")

    # each cell's (name, model, meta-training tasks, normalize, reset)
    if "partition" in axes:
        if len(axes) > 1:
            raise ConfigError(f"[ablate] axes = {', '.join(axes)}: partition must be the "
                              "only axis, since reset and normalization need a quadratic "
                              "family")
        if kind != "mlp":
            raise ConfigError("[ablate] the partition axis needs an mlp task")
        models = [source(granularity) for granularity in ("block", "layer")]
        cells = [(f"partition={m.granularity}", m, [m], True, True) for m in models]
    else:
        if kind != "quadratic":
            raise ConfigError("[ablate] reset/normalization axes need a quadratic family")
        tasks = source.make_tasks(cfg.get("train", "tasks"))
        model = source.make_task(eval_task_index)
        cells = [(f"reset={'on' if reset else 'off'}+norm={'on' if norm else 'off'}",
                  model, tasks, norm, reset)
                 for reset in ((True, False) if "reset" in axes else (True,))
                 for norm in ((True, False) if "normalization" in axes else (True,))]
    lines = ["cell,seed,final_loss"]
    for cell_name, model, train_tasks, norm, reset in cells:
        trained = _meta_train(cfg, train_tasks, _Discard(), normalize=norm, reset=reset)
        jobs = [(model, "finetuner", lr, seed) for seed in seeds]
        for result in _run_cells(jobs, steps, epsilon, batch_size, trained, normalize=norm,
                                 timing=timing, recorder=partial(RaceRecorder, window=window)):
            lines.append(f"{cell_name},{result.seed},{_fmt(result.final_mean)}")
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
