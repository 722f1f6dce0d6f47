"""INI-style experiment configuration: sections of key=value lines.

Lists are comma-separated, '#' starts a comment.  KEYS declares every section
and key a config may hold, with its type, default and bound; loading rejects
anything it does not declare, and `ExperimentConfig.get` returns only values
that pass their declared check.  Each error is a ConfigError that names the
offending section and key, so a command that reads its keys first fails
before any run or meta-training starts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .testbeds import MLPTask, QuadraticFamily, check_ranks

REQUIRED = None  # the default of a key that a config must set


def _fmt(x: float) -> str:
    """A number as every output file prints it: 12 significant digits, and a
    zero as 0 (+ 0.0 turns -0.0 into 0.0)."""
    return format(float(x) + 0.0, ".12g")


@dataclass(frozen=True)
class Key:
    """One config key: `type` is str, int or float, and a `many` key is
    a non-empty comma-separated list of them, with no value twice when
    `distinct` (nor two numbers that print alike, see _fmt).  `default` is
    REQUIRED, a value, or a function of the config that works it out.  A
    number must be finite and >= `low` (> `low` when `strict`); a value must
    be non-empty and, when `choices` are given, one of them.  No text value
    holds a NUL byte, which no file path can hold.  A `cell` value is printed
    as a CSV cell, so it holds no ',', '"' or line break.
    """

    type: type
    default: object = REQUIRED
    many: bool = False
    low: float = -math.inf
    strict: bool = False
    choices: tuple = ()
    distinct: bool = False
    cell: bool = False


def _one_per_block(cfg: "ExperimentConfig") -> list:
    return [1.0] * len(cfg.get("task", "block_sizes"))


_METHOD_NAMES = ("mezo", "finetuner")
# a repeated method, seed or rate would run its jobs twice
_METHODS = Key(str, _METHOD_NAMES, many=True, choices=_METHOD_NAMES, distinct=True)
_LR_GRID = Key(float, many=True, low=0, distinct=True)
_SEED = Key(int, 0, low=0)
# a race, sweep or ablation of 0 steps has no final loss to rank
_SOME_STEPS = Key(int, low=1)
# keys that the run sections and [train] share; each picks the ones it reads
_RUN = {
    "seeds": Key(int, many=True, low=0, distinct=True),
    "steps": Key(int, low=0),
    "epsilon": Key(float, 1e-3, low=0, strict=True),
    "batch_size": Key(int, 16, low=1),
    "checkpoint": Key(str, "finetuner.ckpt"),
    "task_index": Key(int, 0, low=0),
    "granularity": Key(str, "block", choices=("block", "layer")),
    "final_window": Key(float, 0.1, low=0, strict=True),
}


def _run(shared: str, **own: Key) -> dict:
    return {key: _RUN[key] for key in shared.split()} | own


KEYS = {
    "task": {
        "kind": Key(str, choices=("quadratic", "mlp")),
        "seed": _SEED,
        "block_sizes": Key(int, many=True, low=1),
        "ranks": Key(float, _one_per_block, many=True, low=1),
        "opnorms": Key(float, _one_per_block, many=True, low=0, strict=True),
        "opnorm_jitter": Key(float, 0.0, low=0),
        "shift_scale": Key(float, 1.0),
        "init_scale": Key(float, (1.0,), many=True),  # one, or one per block
        "noise_tau": Key(float, 0.0, low=0),
        "n_in": Key(int, 4, low=1), "n_hidden": Key(int, 8, low=1),
        "n_out": Key(int, 3, low=1), "n_samples": Key(int, 120, low=1),
    },
    "train": _run("steps epsilon batch_size checkpoint", seed=_SEED,
                  tasks=Key(int, 1, low=1), hidden=Key(int, 64, low=1),
                  eta1=Key(float, low=0, strict=True), eta2=Key(float, low=0),
                  reset_period=Key(int, 50, low=1)),
    "finetune": _run("seeds steps epsilon batch_size checkpoint task_index granularity",
                     mode=Key(str, "mezo", choices=_METHOD_NAMES),
                     lr=Key(float, low=0), experiment=Key(str, "finetune", cell=True)),
    "compare": _run("seeds epsilon batch_size checkpoint final_window",
                    steps=_SOME_STEPS, methods=_METHODS, lr_grid=_LR_GRID,
                    tasks=Key(int, 1, low=1), task_start=Key(int, 0, low=0),
                    threshold=Key(float, 0.5, low=0, strict=True)),
    "sweep": _run("seeds epsilon batch_size checkpoint task_index granularity "
                  "final_window", steps=_SOME_STEPS, methods=_METHODS,
                  lr_grid=_LR_GRID,  # spanning >= 100x
                  plateau_ratio=Key(float, 0.9, low=0, strict=True),
                  experiment=Key(str, "sweep", cell=True)),
    "ablate": _run("seeds epsilon batch_size task_index final_window", steps=_SOME_STEPS,
                   axes=Key(str, many=True, choices=("reset", "normalization", "partition"),
                            distinct=True),
                   lr=Key(float, low=0)),
    "bounds": {
        "rank_profiles": Key(str),  # per-block ranks, profiles split by ';'
        "etas": Key(float, many=True, low=0),
        "samples": Key(int, 100_000, low=2),
        "seed": _SEED,
    },
}

_NAMES = {int: "an integer", float: "a number"}


def _parse(spec: Key, text: str, where: str):
    """One item of a key, converted to its type and checked."""
    try:
        value = spec.type(text)
    except ValueError as exc:
        raise ConfigError(f"{where}={text!r} is not {_NAMES[spec.type]}") from exc
    if spec.type is str and "\0" in value:
        raise ConfigError(f"{where}={text!r} must hold no NUL byte")
    if spec.cell and ("," in value or '"' in value or value.splitlines() != [value]):
        raise ConfigError(f"{where}={text!r} must hold no ',', '\"' or line break")
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"{where}={text!r} must be one of {', '.join(spec.choices)}")
    if spec.type in (int, float) and not (
            math.isfinite(value) and (value > spec.low if spec.strict else value >= spec.low)):
        bound = "" if spec.low == -math.inf else f" and {'>' if spec.strict else '>='} {spec.low:g}"
        raise ConfigError(f"{where}={text!r} must be finite{bound}")
    return value


def _parse_error(exc: configparser.Error, text: str) -> str:
    """What configparser could not read in `text`, on one line that names
    the line."""
    # read_string splits lines at "\n" alone, as str.split does
    if isinstance(exc, configparser.MissingSectionHeaderError):
        line = text.split("\n")[exc.lineno - 1]
        return f"line {exc.lineno}: {line!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        lineno = exc.errors[0][0]  # the first line it could not read
        line = text.split("\n")[lineno - 1]
        return f"line {lineno}: {line!r} is neither a [section] header nor a key = value line"
    # a repeated section or key: configparser's message is one line naming it
    return " ".join(str(exc).split())


class ExperimentConfig:
    def __init__(self, parser: configparser.ConfigParser, path: str):
        self._parser = parser
        self.path = path
        for section in parser.sections():
            for key in parser[section]:
                self._spec(section, key)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser(
            comment_prefixes=("#",), inline_comment_prefixes=("#",),
            interpolation=None,
        )
        try:
            # one decode of the whole file, so the error's start is its offset;
            # a byte-order mark is dropped after the decode, which keeps that
            text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {_parse_error(exc, text)}") from exc
        return cls(parser, str(path))

    def _spec(self, section: str, key: str) -> Key:
        if section not in KEYS:
            raise ConfigError(f"{self.path}: unknown section [{section}]; "
                              f"choose from {', '.join(KEYS)}")
        if key not in KEYS[section]:
            raise ConfigError(f"{self.path}: [{section}] has no key '{key}'")
        return KEYS[section][key]

    def set(self, section: str, key: str, value: str) -> None:
        """Set (or override) one declared key; the section must exist."""
        self._spec(section, key)
        self.require_section(section)
        self._parser.set(section, key, value)

    def has_section(self, section: str) -> bool:
        return self._parser.has_section(section)

    def require_section(self, section: str) -> None:
        if not self._parser.has_section(section):
            raise ConfigError(f"{self.path}: missing required section [{section}]")

    def get(self, section: str, key: str):
        """[section] `key` as KEYS declares it: parsed, checked, or its default."""
        spec = self._spec(section, key)
        self.require_section(section)
        if not self._parser.has_option(section, key):
            if spec.default is REQUIRED:
                raise ConfigError(f"{self.path}: [{section}] is missing key '{key}'")
            if callable(spec.default):
                return spec.default(self)
            return list(spec.default) if spec.many else spec.default
        where = f"{self.path}: [{section}] {key}"
        raw = self._parser.get(section, key).strip()
        items = [item.strip() for item in raw.split(",") if item.strip()] if spec.many else [raw]
        if not items or not items[0]:
            raise ConfigError(f"{where} must be non-empty")
        values = [_parse(spec, item, where) for item in items]
        if spec.distinct:
            seen = [_fmt(v) if spec.type is float else v for v in values]
            for k, item in enumerate(items):
                if seen[k] in seen[:k]:
                    raise ConfigError(f"{where}={item!r} repeats an earlier value")
        return values if spec.many else values[0]


def build_task_source(cfg: ExperimentConfig):
    """Construct the testbed described by [task].

    Returns (kind, source): for kind "quadratic" the source is a
    QuadraticFamily (tasks indexed by integer); for kind "mlp" a factory
    taking a granularity and returning an MLPTask.
    """
    kind = cfg.get("task", "kind")
    seed = cfg.get("task", "seed")
    if kind == "mlp":
        sizes = {key: cfg.get("task", key) for key in ("n_in", "n_hidden", "n_out", "n_samples")}

        def factory(granularity="block"):
            return MLPTask(**sizes, data_seed=seed, granularity=granularity)
        return kind, factory
    block_sizes = cfg.get("task", "block_sizes")
    init_scale = cfg.get("task", "init_scale")
    if len(init_scale) not in (1, len(block_sizes)):
        raise ConfigError(
            f"{cfg.path}: [task] init_scale needs 1 or {len(block_sizes)} values, "
            f"got {len(init_scale)}"
        )
    ranks = cfg.get("task", "ranks")
    check_ranks(f"{cfg.path}: [task] ranks", block_sizes, ranks)
    family = QuadraticFamily(
        block_sizes=tuple(block_sizes),
        ranks=tuple(ranks),
        opnorms=tuple(cfg.get("task", "opnorms")),
        opnorm_jitter=cfg.get("task", "opnorm_jitter"),
        shift_scale=cfg.get("task", "shift_scale"),
        init_scale=init_scale[0] if len(init_scale) == 1 else tuple(init_scale),
        noise_tau=cfg.get("task", "noise_tau"),
        seed=seed,
    )
    return kind, family
