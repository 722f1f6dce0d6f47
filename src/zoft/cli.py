"""Command line entry point.

Exit codes: 0 success, 2 config error (including a run too large for
memory), 3 numeric divergence (including invalid perturbation scales), 4
bound violation.
"""

from __future__ import annotations

import argparse
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


# Every command takes the same options, so one flat parser, built once per
# process, reads them all, before or after the command.  `choices` is the
# dispatch table itself, so its names are read at parse time.
_PARSER = argparse.ArgumentParser(
    prog="zoft",
    description="Learned per-block perturbation scales for zeroth-order fine-tuning",
)
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, help="INI experiment config")
_PARSER.add_argument("--out", default="zoft_out", help="output directory")
_PARSER.add_argument("--seed", type=int, default=None,
                     help="override the config's [task] seed "
                          "([bounds] seed for verify-bounds)")
_PARSER.add_argument("--timing", action="store_true",
                     help="record real wall times (output no longer byte-stable)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
