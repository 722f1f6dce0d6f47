"""Deployed fine-tuning loop: two-point zeroth-order updates with learned scales.

Each step generates per-block standard deviations (from the scale network, or
all ones in the plain-MeZO baseline), renormalizes them to the fixed variance
budget sum_i d_i s_i^2 = d, and forms the central-difference gradient estimate
by walking theta in place to theta + eps*u and then to theta - eps*u.  A third
regeneration of the same noise from its seed moves theta back by +eps and
applies the update -lr*c*u in one fused walk, so a step regenerates u three
times and never stores it.  `two_point` is that walk, and the only copy of it.

Every fine-tuning run steps as rows: `run_population` holds R runs as (R, d)
rows, and a single run is its one-row case.  A (d,) vector passed to `step`
or `two_point` walks through the same statements as one row.  A MeZO row is
a row whose scales are exactly 1.0, so MeZO and finetuner rows that share a
seed step together as one population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pertnn as pertnn_mod
from .errors import (
    DivergenceError,
    InvalidScaleError,
    NumericOverflowError,
    PartitionMismatchError,
)
from .paramspace import (
    NoiseSeed,
    ParamVector,
    PerturbScales,
    block_stats,
    perturb_in_place,
)
from .testbeds import QuadraticRows, QuadraticTask

DIVERGENCE_FACTOR = 1e6


@dataclass
class ZOConfig:
    steps: int
    epsilon: float = 1e-3
    batch_size: int = 1
    mode: str = "mezo"  # "mezo" or "finetuner"
    seed: int = 0
    normalize: bool = True  # ablation switch; leave on outside ablations

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.mode not in ("mezo", "finetuner"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class LossPair:
    """The two perturbed losses of a step: one entry per row, or what the
    loss oracle returns for a (d,) vector.  Checking them is the step's job."""

    plus: float | np.ndarray
    minus: float | np.ndarray


@dataclass
class Trajectory:
    """One run's steps as columns: entry k holds step k + 1."""

    loss: np.ndarray  # (T,) pre-update, unperturbed
    scales: np.ndarray  # (T, n_blocks) per-block stds actually used for sampling

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, len(self.loss) + 1)

    def __len__(self) -> int:
        return len(self.loss)


@dataclass
class OptState:
    """Carries the previous step's perturbed losses and scales between steps,
    of a fine-tuning run or of a meta-training task."""

    prev_losses: LossPair | None = None
    prev_scales: np.ndarray | None = None
    t: int = 0
    # in finetuner mode, one bool per row: True where the row samples with the
    # scale network's stds, False where it samples with unit scales (a MeZO
    # row).  None: every row does.
    learned: np.ndarray | None = None


def _budget_factor(stds: np.ndarray, partition):
    """The variance budget sum_i d_i s_i^2 of stds and the factor sqrt(d / budget).

    0-d for one set of scales; (R,) arrays for (R, n_blocks) rows.
    """
    # vecdot runs one BLAS dot per row, as np.dot does for one vector; a
    # matrix product may sum in another order, and every trajectory depends
    # on these bits
    budget = np.vecdot(stds**2, partition.sizes)
    return budget, np.sqrt(partition.total / budget)


def normalize_scales(stds: np.ndarray, partition, norm=None) -> np.ndarray:
    """Rescale so that sum_i d_i s_i^2 = d, preserving pairwise ratios (per row
    for rows of scales).  `norm` is _budget_factor(stds, partition), computed
    here unless the caller has it.  Checks nothing: see _used_scales."""
    _, factor = _budget_factor(stds, partition) if norm is None else norm
    return stds * factor[..., None]


def normalize_scales_vjp(stds: np.ndarray, partition, upstream: np.ndarray,
                         norm) -> np.ndarray:
    """Pull a gradient w.r.t. normalize_scales(stds) back to stds, given
    norm = _budget_factor(stds, partition) from the forward pass.

    With s' = factor * s:  d s'_i / d s_k = factor * delta_ik - s'_i d_k s_k / budget,
    which couples every block through the shared budget.
    """
    budget, factor = norm
    inner = float(upstream @ (stds * factor))
    return factor * upstream - (partition.sizes * stds / budget) * inner


def step_features(theta: ParamVector, state: OptState, current_loss=None,
                  failures=None) -> np.ndarray:
    """(n_blocks, 5) feature matrix: l+, l-, previous scale, block mean, block var.

    For (R, d) rows it is (R, n_blocks, 5).  The losses and scales are the
    previous step's, carried in `state`.  Before a run's or a task's first
    step (no losses carried yet) the pair is `current_loss` twice, each
    learned row (see OptState.learned) whose loss is not finite is flagged
    through _flag, and the previous scales read as ones.
    """
    prev_losses = state.prev_losses
    if prev_losses is None:
        bad = ~np.isfinite(current_loss)
        if state.learned is not None:
            bad &= state.learned
        _flag(failures, bad, lambda r: NumericOverflowError(
            f"non-finite loss {np.atleast_1d(current_loss)[r]}"))
        prev_losses = LossPair(current_loss, current_loss)
    n = theta.partition.n_blocks
    features = np.empty(theta.values.shape[:-1] + (n, pertnn_mod.N_FEATURES))
    features[..., 0] = np.asarray(prev_losses.plus)[..., None]
    features[..., 1] = np.asarray(prev_losses.minus)[..., None]
    features[..., 2] = 1.0 if state.prev_scales is None else state.prev_scales
    features[..., 3], features[..., 4] = block_stats(theta)
    return features


def _flag(failures, bad, error) -> None:
    """Record `error(r)`, an error built from row r alone, for every row r
    where `bad` holds and that has none yet; raise the first row's error when
    the caller keeps no failure record.  A (d,) vector is row 0."""
    if not np.count_nonzero(bad):
        return
    rows = np.flatnonzero(bad).tolist()
    if failures is None:
        raise error(rows[0])
    for r in rows:
        if r not in failures:
            failures[r] = error(r)


def _used_scales(pertnn, features, partition, normalize, failures=None, learned=None):
    """(raw, used, cache, norm): the scale network's stds for `features`, the
    stds a step samples with (raw, or normalized to the budget), the forward
    cache and the normalization's (budget, factor) (None without it).

    `learned` (one bool per row; None: every row) marks the rows that sample
    with the network's stds; the others sample with scales of exactly 1.0.
    Each learned row is checked once, through _flag: a non-finite network
    output is NumericOverflowError, a non-finite or non-positive used scale (a
    softplus that underflows to 0, a budget that under- or overflows)
    InvalidScaleError.  A flagged row samples with unit scales until the step
    ends.  A row that is not learned is never flagged.
    """
    raw, cache = pertnn_mod.forward_all(pertnn, features)
    used, norm = raw, None
    if normalize:
        norm = _budget_factor(raw, partition)
        used = normalize_scales(raw, partition, norm)
    valid = (used > 0) & (used < np.inf)
    if learned is None:
        if np.count_nonzero(valid) == valid.size:
            return raw, used, cache, norm
        learned = True
    # a non-finite raw std makes its row's used stds non-finite
    bad = ~valid.all(axis=-1) & learned
    if np.count_nonzero(bad):
        finite, rows = np.isfinite(np.atleast_2d(raw)), np.atleast_2d(used)
        names = np.array(pertnn.block_names)
        _flag(failures, ~finite.all(axis=-1) & bad, lambda r: NumericOverflowError(
            f"non-finite activation in blocks {', '.join(names[~finite[r]])}"))
        _flag(failures, bad, lambda r: InvalidScaleError(
            f"scales must be finite and strictly positive, got {rows[r]}"))
    return (raw, np.where((bad | np.logical_not(learned))[..., None], 1.0, used), cache,
            norm)


def _scales_for_step(theta, state, config, pertnn, current_loss, failures=None):
    partition = theta.partition
    if config.mode == "mezo":
        return PerturbScales(np.ones(theta.values.shape[:-1] + (partition.n_blocks,)),
                             partition)
    if pertnn is None:
        raise ValueError("finetuner mode requires scale-network parameters")
    features = step_features(theta, state, current_loss, failures)
    _, used, _, _ = _used_scales(pertnn, features, partition, config.normalize,
                                 failures, state.learned)
    return PerturbScales(used, partition)


def two_point(theta: ParamVector, scales: PerturbScales, seed: NoiseSeed,
              epsilon: float, losses, learning_rate, failures=None):
    """The in-place two-point walk and update; returns (LossPair, coeff).

    theta walks to theta + eps*u and to theta - eps*u, where ``losses()``
    evaluates it, and then one fused walk moves it back by +eps and applies
    theta <- theta - lr * c * u with c = (l+ - l-) / (2 eps): three
    regenerations of u from `seed`, and no copy of theta or u.  A learning
    rate of 0 makes the last walk a plain restore.

    For (R, d) rows, ``losses()`` returns R losses, `learning_rate` holds
    one rate per row, and the pair and coeff one entry per row.  Non-finite
    losses raise before the restore; given a `failures` dict, rows record
    them there instead (see step).
    """
    perturb_in_place(theta, scales, seed, +epsilon)
    plus = losses()
    perturb_in_place(theta, scales, seed, -2.0 * epsilon)
    minus = losses()
    _flag(failures, ~(np.isfinite(plus) & np.isfinite(minus)),
          lambda r: NumericOverflowError("non-finite perturbed losses"))
    coeff = (plus - minus) / (2.0 * epsilon)
    # the restore and the update share one regeneration of u, and when no
    # run moves it is the plain restore.  A zero update in a row that stays
    # while others move adds z * (+-0) = +-0, which changes no entry a walk
    # can leave behind: only -0 + +0 differs, and a walk never leaves a -0.
    update = -learning_rate * coeff
    moves = (update,) if np.count_nonzero(update) else ()
    perturb_in_place(theta, scales, seed, +epsilon, *moves)
    return LossPair(plus, minus), coeff


def step(theta: ParamVector, state: OptState, batch, config: ZOConfig,
         loss_of, learning_rate, pertnn=None, failures=None) -> float | np.ndarray:
    """One optimizer step at `learning_rate`; mutates theta and state, and
    returns the pre-update, unperturbed loss.  The state then carries the
    step's perturbed losses and the scales it sampled with.

    ``loss_of(values, batch)`` is the batch loss oracle; both perturbed
    evaluations use the same batch.

    theta holds (R, d) rows: a population of runs that share config, and so
    every noise draw, and differ in their losses (loss_of maps the rows to R
    losses) and in `learning_rate`, one rate per row.  The loss and the
    state hold one entry per row.  A (d,) vector steps through the same
    statements as one row, with loss_of's value and a scalar rate.  A
    failure (a non-finite loss or parameter, or invalid scales) raises; given
    a `failures` dict, each failing row is recorded there as row -> error
    instead, and the other rows step on unchanged.
    """
    t = state.t + 1

    def losses():
        return loss_of(theta.values, batch)

    current_loss = losses()
    scales = _scales_for_step(theta, state, config, pertnn, current_loss, failures)
    pair, _ = two_point(theta, scales, NoiseSeed(config.seed, stream=t),
                        config.epsilon, losses, learning_rate, failures)
    # once per step: an inf/nan entry makes its row's sum non-finite, and no
    # later move of the step makes it finite again
    _flag(failures, ~np.isfinite(np.add.reduce(theta.values, axis=-1)),
          lambda r: NumericOverflowError("perturbation produced non-finite parameters"))
    # every step builds its scales anew, so the state keeps them uncopied
    state.prev_losses = pair
    state.prev_scales = scales.stds
    state.t = t
    return current_loss


def _initial_rows(models, seed: int) -> np.ndarray:
    """(R, d) starting rows; consecutive rows of one model share one
    init_theta call.  A single row is a view of its start vector, never a
    second d-sized copy."""
    if len(models) == 1:
        return models[0].init_theta(seed)[None]
    values = np.empty((len(models), models[0].partition.total))
    for r, model in enumerate(models):
        if r == 0 or model is not models[r - 1]:
            start = model.init_theta(seed)
        values[r] = start
    return values


def _divergence(t: int, error: Exception) -> DivergenceError:
    what = "invalid scales" if isinstance(error, InvalidScaleError) else "non-finite value"
    out = DivergenceError(f"{what} at step {t}: {error}")
    out.__cause__ = error
    return out


def _loss_oracle(models):
    """The loss of the population's rows: their model's own loss when every
    row shares one model, one stacked call for rows of several quadratic
    tasks."""
    if all(model is models[0] for model in models):
        return models[0].loss
    if all(type(model) is QuadraticTask for model in models):
        return QuadraticRows(models)
    raise ValueError("rows of several models must all be quadratic tasks")


def run_population(models, learning_rates, config: ZOConfig, pertnn=None,
                   learned=None) -> list:
    """Run one seeded two-point fine-tuning run per row, all in one batched pass.

    Row r runs models[r] from models[r].init_theta(config.seed) at
    learning_rates[r].  The rows share config, so every noise draw serves all
    of them, and each row's trajectory equals its single run bit for bit.
    The models must share one partition, and every step evaluates all rows
    in one loss call: the model's own loss when the rows share one model,
    QuadraticRows for rows of several quadratic tasks.  Rows of several
    models that are not all quadratic tasks raise ValueError.

    `learned` holds one bool per row: True for a finetuner row, which samples
    with the scale network's stds, False for a MeZO row, which samples with
    scales of exactly 1.0 (default: every row as config.mode says).  A
    population with finetuner rows runs in finetuner mode, and each of its
    MeZO rows equals its single run in mezo mode.

    Returns one entry per row: its Trajectory, or the DivergenceError that
    ended it.  A row diverges once its loss exceeds 1e6 x its initial loss,
    or once a loss, a parameter or a scale becomes non-finite or invalid; it
    then leaves the population and the others go on unchanged.  One row is
    the same population: run_finetune is that case.
    """
    models = list(models)
    lrs = np.array(learning_rates, dtype=np.float64)
    if not models or lrs.shape != (len(models),):
        raise ValueError("need one learning rate per model, and at least one model")
    if np.any(lrs < 0):
        raise ValueError("learning rate must be nonnegative")
    finetuner = config.mode == "finetuner"
    learned = np.full(len(models), finetuner) if learned is None else np.array(learned, bool)
    if learned.shape != lrs.shape:
        raise ValueError("need one learned flag per model")
    if np.any(learned) and not finetuner:
        raise ValueError("finetuner rows need finetuner mode")
    partition = models[0].partition
    if any(model.partition != partition for model in models):
        raise PartitionMismatchError("population models must share one partition")
    loss_of = _loss_oracle(models)
    theta = ParamVector(_initial_rows(models, config.seed), partition)
    state = OptState(learned=None if learned.all() else learned)
    # the columns of every row's trajectory, filled step by step
    n_rows, n_steps = len(models), config.steps
    loss = np.empty((n_rows, n_steps))
    scales = np.empty((n_rows, n_steps, partition.n_blocks))
    live = np.arange(n_rows)  # the caller's row of each population row
    at = slice(None)  # where live rows write their columns: all, until one leaves
    outcomes = [None] * n_rows
    limit = None  # each row's divergence threshold, 1e6 x its initial loss
    for t in range(1, n_steps + 1):
        batch = models[0].sample_batch(config.batch_size, config.seed * 1000003 + t)
        failures = {}
        now = step(theta, state, batch, config, loss_of, lrs, pertnn,
                   failures=failures)
        loss[at, t - 1] = now
        scales[at, t - 1] = state.prev_scales
        if limit is None:
            limit = DIVERGENCE_FACTOR * (np.abs(now) + 1e-300)
        blown = np.abs(now) > limit
        if not (failures or np.count_nonzero(blown)):
            continue
        failed = np.zeros(len(live), dtype=bool)
        failed[list(failures)] = True
        blown &= ~failed
        for k in np.flatnonzero(failed | blown).tolist():
            if failed[k]:
                outcomes[live[k]] = _divergence(t, failures[k])
            else:
                outcomes[live[k]] = DivergenceError(
                    f"loss {now[k]:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x "
                    f"initial loss at step {t}")
        keep = np.flatnonzero(~(failed | blown))
        live = at = live[keep]
        if not len(live):
            break
        _keep_rows(theta, state, keep)
        loss_of = _loss_oracle([models[r] for r in live.tolist()])
        lrs, limit = lrs[keep], limit[keep]
    for r in live.tolist():
        outcomes[r] = Trajectory(loss[r], scales[r])
    return outcomes


def _keep_rows(theta: ParamVector, state: OptState, keep) -> None:
    """Drop every population row not in `keep` (ascending), in place."""
    values = theta.values
    for new, old in enumerate(keep):
        if new != old:
            values[new] = values[old]
    theta.values = values[:len(keep)]
    state.prev_losses = LossPair(state.prev_losses.plus[keep],
                                 state.prev_losses.minus[keep])
    state.prev_scales = state.prev_scales[keep]
    if state.learned is not None:
        state.learned = state.learned[keep]


def run_finetune(model, learning_rate: float, config: ZOConfig, pertnn=None) -> Trajectory:
    """Run T steps of seeded two-point fine-tuning on a testbed model.

    The model provides init_theta / sample_batch / loss.  A fresh batch is
    sampled every step.  Aborts with DivergenceError once the loss exceeds
    1e6 x the initial loss, or once a loss, a parameter or a scale becomes
    non-finite or invalid.  This is the one-row case of run_population.
    """
    [outcome] = run_population([model], [learning_rate], config, pertnn)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome
