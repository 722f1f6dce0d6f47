"""Command line entry point.

Exit codes: 0 success, 2 config error (including a run too large for
memory), 3 numeric divergence (including invalid perturbation scales), 4
bound violation.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import harness
from .config import ExperimentConfig
from .errors import CheckpointError, ConfigError, DivergenceError

_COMMANDS = {
    "train-finetuner": harness.cmd_train_finetuner,
    "finetune": harness.cmd_finetune,
    "compare": harness.cmd_compare,
    "sweep-lr": harness.cmd_sweep_lr,
    "ablate": harness.cmd_ablate,
    "verify-bounds": harness.cmd_verify_bounds,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoft",
        description="Learned per-block perturbation scales for zeroth-order fine-tuning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI experiment config")
        cmd.add_argument("--out", default="zoft_out", help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config's [task] seed "
                              "([bounds] seed for verify-bounds)")
        cmd.add_argument("--timing", action="store_true",
                         help="record real wall times (output no longer byte-stable)")
    return parser


def _parse_args(argv):
    """The command line, read by a parser that is freed before the command runs.

    argparse's parser is a web of reference cycles (about 35 KB of them), so
    only the collector frees it.  Left to the automatic collector it lives
    until the command's first collection, whose timing depends on everything
    the process allocated before, and so does the command's peak.  Built and
    read with the collector paused, all of it is still in the youngest
    generation, and collecting that one generation frees it at once.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_parser().parse_args(argv)
    finally:
        if enabled:
            gc.enable()
        gc.collect(0)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        section = "bounds" if args.command == "verify-bounds" else "task"
        if args.seed is not None and cfg.has_section(section):
            cfg.set(section, "seed", str(args.seed))
        # every value the package produces is checked where it is used, so a
        # numpy warning would only print ahead of the documented error line
        with np.errstate(all="ignore"):
            code = _COMMANDS[args.command](cfg, Path(args.out), timing=args.timing)
    except (ConfigError, CheckpointError, OSError) as exc:
        print(f"zoft: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # sizes that pass every check can still ask for more than there is
        print(f"zoft: config error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"zoft: divergence: {exc}", file=sys.stderr)
        return 3
    if code == 4:
        print("zoft: bound violation (see bounds.csv)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
