"""Deployed fine-tuning loop: two-point zeroth-order updates with learned scales.

Each step generates per-block standard deviations (from the scale network, or
all ones in the plain-MeZO baseline), renormalizes them to the fixed variance
budget sum_i d_i s_i^2 = d, and forms the central-difference gradient estimate
by walking theta in place to theta + eps*u and then to theta - eps*u.  A third
regeneration of the same noise from its seed moves theta back by +eps and
applies the update -lr*c*u in one fused walk, so a step regenerates u three
times and never stores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pertnn as pertnn_mod
from .errors import DivergenceError, InvalidScaleError, NumericOverflowError
from .paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    block_stats,
    perturb_in_place,
)

DIVERGENCE_FACTOR = 1e6


@dataclass
class ZOConfig:
    learning_rate: float
    steps: int
    epsilon: float = 1e-3
    batch_size: int = 1
    mode: str = "mezo"  # "mezo" or "finetuner"
    seed: int = 0
    normalize: bool = True  # ablation switch; leave on outside ablations

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.mode not in ("mezo", "finetuner"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class LossPair:
    plus: float
    minus: float

    def __post_init__(self):
        if not (math.isfinite(self.plus) and math.isfinite(self.minus)):
            raise NumericOverflowError(f"non-finite perturbed losses ({self.plus}, {self.minus})")


@dataclass
class GradEstimate:
    """A descent direction c * u, stored as (c, seed, scales) for regeneration."""

    coeff: float
    seed: NoiseSeed
    scales: PerturbScales


@dataclass
class StepRecord:
    t: int
    loss: float  # pre-update, unperturbed
    losses: LossPair
    scales: np.ndarray  # per-block stds actually used for sampling
    coeff: float


@dataclass
class OptState:
    """Carries the previous step's perturbed losses and scales between steps."""

    prev_losses: LossPair | None = None
    prev_scales: np.ndarray | None = None
    t: int = 0


def _budget_factor(raw: PerturbScales) -> tuple[float, float]:
    """The variance budget sum_i d_i s_i^2 of raw and the factor sqrt(d / budget)."""
    if np.any(raw.stds <= 0):
        raise InvalidScaleError(f"cannot normalize non-positive scales {raw.stds}")
    budget = raw.budget()
    if budget <= 0 or not np.isfinite(budget):
        raise InvalidScaleError(f"invalid variance budget {budget}")
    return budget, np.sqrt(raw.partition.total / budget)


def normalize_scales(raw: PerturbScales) -> PerturbScales:
    """Rescale so that sum_i d_i s_i^2 = d, preserving pairwise ratios."""
    _, factor = _budget_factor(raw)
    return PerturbScales(raw.stds * factor, raw.partition)


def normalize_scales_vjp(raw: PerturbScales, upstream: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. normalize_scales(raw).stds back to raw.stds.

    With s' = factor * s:  d s'_i / d s_k = factor * delta_ik - s'_i d_k s_k / budget,
    which couples every block through the shared budget.
    """
    budget, factor = _budget_factor(raw)
    inner = float(upstream @ (raw.stds * factor))
    return factor * upstream - (raw.partition.sizes * raw.stds / budget) * inner


def _two_point(theta: ParamVector, scales: PerturbScales, seed: NoiseSeed,
               epsilon: float, loss_fn):
    """Two-point estimate that leaves theta at theta - eps*u.

    The caller moves theta back with a +eps walk of the same seed, alone or
    fused with the update.  Non-finite losses raise before that move.
    """
    perturb_in_place(theta, scales, seed, +epsilon)
    loss_plus = float(loss_fn(theta.values))
    perturb_in_place(theta, scales, seed, -2.0 * epsilon)
    loss_minus = float(loss_fn(theta.values))
    pair = LossPair(loss_plus, loss_minus)
    coeff = (loss_plus - loss_minus) / (2.0 * epsilon)
    return GradEstimate(coeff, seed, scales), pair


def spsa_estimate(theta: ParamVector, scales: PerturbScales, seed: NoiseSeed,
                  epsilon: float, loss_fn):
    """Two-point estimate via the in-place walk; returns (GradEstimate, LossPair).

    theta is temporarily perturbed to theta + eps*u and theta - eps*u and
    restored by the final +eps move; no copy of theta is made.
    """
    estimate, pair = _two_point(theta, scales, seed, epsilon, loss_fn)
    perturb_in_place(theta, scales, seed, +epsilon)
    return estimate, pair


def apply_estimate(theta: ParamVector, estimate: GradEstimate, learning_rate: float) -> None:
    """theta <- theta - lr * c * u, regenerating u from the stored seed."""
    if estimate.coeff != 0.0 and learning_rate != 0.0:
        perturb_in_place(theta, estimate.scales, estimate.seed,
                         -learning_rate * estimate.coeff)


def step_features(theta: ParamVector, prev_losses: LossPair,
                  prev_scales: np.ndarray) -> np.ndarray:
    """(n_blocks, 5) feature matrix: l+, l-, previous scale, block mean, block var."""
    n = theta.partition.n_blocks
    features = np.empty((n, pertnn_mod.N_FEATURES))
    for i in range(n):
        mean, var = block_stats(theta, i)
        features[i] = (prev_losses.plus, prev_losses.minus, prev_scales[i], mean, var)
    return features


def _scales_for_step(theta, state, config, pertnn, current_loss):
    partition = theta.partition
    if config.mode == "mezo":
        return PerturbScales.unit(partition)
    if pertnn is None:
        raise ValueError("finetuner mode requires scale-network parameters")
    prev_losses = state.prev_losses or LossPair(current_loss, current_loss)
    prev_scales = (state.prev_scales if state.prev_scales is not None
                   else np.ones(partition.n_blocks))
    features = step_features(theta, prev_losses, prev_scales)
    raws, _ = pertnn_mod.forward_all(pertnn, features)
    raw_scales = PerturbScales(raws, partition)
    return normalize_scales(raw_scales) if config.normalize else raw_scales


def step(theta: ParamVector, state: OptState, batch, config: ZOConfig,
         loss_of, pertnn=None) -> StepRecord:
    """One optimizer step; mutates theta and state.

    ``loss_of(values, batch)`` is the batch loss oracle; both perturbed
    evaluations use the same batch.
    """
    t = state.t + 1
    loss_fn = lambda values: loss_of(values, batch)
    current_loss = float(loss_fn(theta.values))
    scales = _scales_for_step(theta, state, config, pertnn, current_loss)
    seed = NoiseSeed(config.seed, stream=t)
    estimate, pair = _two_point(theta, scales, seed, config.epsilon, loss_fn)
    # the restore and the update share one regeneration of u; the update is
    # skipped exactly when apply_estimate would skip it
    moves = (+config.epsilon,)
    if estimate.coeff != 0.0 and config.learning_rate != 0.0:
        moves += (-config.learning_rate * estimate.coeff,)
    perturb_in_place(theta, scales, seed, *moves)
    state.prev_losses = pair
    state.prev_scales = scales.stds.copy()
    state.t = t
    return StepRecord(t=t, loss=current_loss, losses=pair,
                      scales=scales.stds.copy(), coeff=estimate.coeff)


def run_finetune(model, config: ZOConfig, pertnn=None) -> list[StepRecord]:
    """Run T steps of seeded two-point fine-tuning on a testbed model.

    The model provides init_theta / sample_batch / loss.  A fresh batch is
    sampled every step.  Aborts with DivergenceError once the loss exceeds
    1e6 x the initial loss, or once a loss or a parameter becomes non-finite.
    """
    theta = ParamVector(model.init_theta(config.seed), model.partition)
    state = OptState()
    records: list[StepRecord] = []
    initial_loss = None
    for t in range(1, config.steps + 1):
        batch = model.sample_batch(config.batch_size, config.seed * 1000003 + t)
        try:
            record = step(theta, state, batch, config, model.loss, pertnn)
        except NumericOverflowError as exc:
            raise DivergenceError(f"non-finite value at step {t}: {exc}") from exc
        records.append(record)
        if initial_loss is None:
            initial_loss = abs(record.loss) + 1e-300
        if abs(record.loss) > DIVERGENCE_FACTOR * initial_loss:
            raise DivergenceError(
                f"loss {record.loss:.3e} exceeded {DIVERGENCE_FACTOR:.0e} x "
                f"initial loss at step {t}"
            )
    return records
