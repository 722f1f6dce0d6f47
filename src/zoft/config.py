"""INI-style experiment configuration: sections of key=value lines.

Lists are comma-separated, '#' starts a comment.  Every accessor raises
ConfigError naming the offending section and key.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import ConfigError
from .testbeds import MLPTask, QuadraticFamily


class ExperimentConfig:
    def __init__(self, parser: configparser.ConfigParser, path: str):
        self._parser = parser
        self.path = path

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(
            comment_prefixes=("#",), inline_comment_prefixes=("#",),
            interpolation=None,
        )
        text = Path(path).read_text(encoding="utf-8")
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls(parser, str(path))

    def set(self, section: str, key: str, value: str) -> None:
        """Set (or override) one key; the section must exist."""
        self.require_section(section)
        self._parser.set(section, key, value)

    def has_section(self, section: str) -> bool:
        return self._parser.has_section(section)

    def require_section(self, section: str) -> None:
        if not self._parser.has_section(section):
            raise ConfigError(f"{self.path}: missing required section [{section}]")

    def _raw(self, section: str, key: str, default=None):
        self.require_section(section)
        if not self._parser.has_option(section, key):
            if default is not None:
                return None
            raise ConfigError(f"{self.path}: [{section}] is missing key '{key}'")
        return self._parser.get(section, key)

    def get_str(self, section, key, default=None) -> str:
        raw = self._raw(section, key, default)
        return default if raw is None else raw.strip()

    def get_int(self, section, key, default=None) -> int:
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {key}={raw!r} is not an integer") from exc

    def get_float(self, section, key, default=None) -> float:
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {key}={raw!r} is not a number") from exc

    def get_bool(self, section, key, default=None) -> bool:
        raw = self._raw(section, key, default)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"{self.path}: [{section}] {key}={raw!r} is not a boolean")

    def _split(self, section, key, default):
        raw = self._raw(section, key, default)
        if raw is None:
            return list(default)
        return [item.strip() for item in raw.split(",") if item.strip()]

    def get_str_list(self, section, key, default=None) -> list[str]:
        return self._split(section, key, default)

    def get_int_list(self, section, key, default=None) -> list[int]:
        items = self._split(section, key, default)
        try:
            return [int(v) for v in items]
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {key} must be a list of integers") from exc

    def get_float_list(self, section, key, default=None) -> list[float]:
        items = self._split(section, key, default)
        try:
            return [float(v) for v in items]
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [{section}] {key} must be a list of numbers") from exc


def check_range(section: str, key: str, values, low: float = -math.inf,
                strict: bool = False):
    """The number or list of numbers read from [section] `key`, checked.

    A list must be non-empty, and every value must be finite and >= low
    (> low when strict), so that a bad value is a config error (exit 2)
    before any run or meta-training starts.
    """
    items = values if isinstance(values, list) else [values]
    if not items:
        raise ConfigError(f"[{section}] {key} must be non-empty")
    bad = [v for v in items
           if not (-math.inf < v < math.inf and (v > low if strict else v >= low))]
    if bad:
        bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
        raise ConfigError(
            f"[{section}] {key} must be finite{bound}, got {', '.join(map(str, bad))}"
        )
    return values


def _init_scale(cfg: ExperimentConfig, n_blocks: int):
    """[task] init_scale: a single number, or one per block."""
    values = check_range("task", "init_scale", cfg.get_float_list("task", "init_scale", [1.0]))
    if len(values) == 1:
        return values[0]
    if len(values) != n_blocks:
        raise ConfigError(
            f"{cfg.path}: [task] init_scale needs 1 or {n_blocks} values, "
            f"got {len(values)}"
        )
    return tuple(values)


def task_opnorms(cfg: ExperimentConfig, n_blocks: int) -> list:
    """[task] opnorms, each finite and > 0 (default: 1 per block)."""
    return check_range("task", "opnorms", cfg.get_float_list("task", "opnorms", [1.0] * n_blocks),
                       0.0, strict=True)


def task_block_sizes(cfg: ExperimentConfig) -> list:
    """[task] block_sizes, each >= 1."""
    return check_range("task", "block_sizes", cfg.get_int_list("task", "block_sizes"), 1)


def build_task_source(cfg: ExperimentConfig):
    """Construct the testbed described by [task].

    Returns (kind, source): for kind "quadratic" the source is a
    QuadraticFamily (tasks indexed by integer); for kind "mlp" a factory
    taking a granularity and returning an MLPTask.
    """
    cfg.require_section("task")
    kind = cfg.get_str("task", "kind")
    seed = check_range("task", "seed", cfg.get_int("task", "seed", 0), 0)
    if kind == "quadratic":
        block_sizes = task_block_sizes(cfg)
        family = QuadraticFamily(
            block_sizes=tuple(block_sizes),
            ranks=tuple(cfg.get_float_list("task", "ranks", [1.0] * len(block_sizes))),
            opnorms=tuple(task_opnorms(cfg, len(block_sizes))),
            opnorm_jitter=cfg.get_float("task", "opnorm_jitter", 0.0),
            shift_scale=cfg.get_float("task", "shift_scale", 1.0),
            init_scale=_init_scale(cfg, len(block_sizes)),
            noise_tau=check_range("task", "noise_tau", cfg.get_float("task", "noise_tau", 0.0),
                                  0.0),
            seed=seed,
        )
        return kind, family
    if kind == "mlp":
        def factory(granularity="block", data_seed=seed):
            return MLPTask(
                n_in=cfg.get_int("task", "n_in", 4),
                n_hidden=cfg.get_int("task", "n_hidden", 8),
                n_out=cfg.get_int("task", "n_out", 3),
                n_samples=cfg.get_int("task", "n_samples", 120),
                data_seed=data_seed,
                granularity=granularity,
            )
        return kind, factory
    raise ConfigError(f"{cfg.path}: [task] kind={kind!r} is not 'quadratic' or 'mlp'")
