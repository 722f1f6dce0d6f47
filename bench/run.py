"""zoft benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload race-small --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                   # every workload, one process each
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json
    python3 bench/run.py --record-digests  # regenerate bench/digests.json
    python3 bench/run.py --self-test       # smoke-size self-test

One workload runs in one process.  The benchmark generates INI configs and
checkpoints from the seed and drives them through `zoft.cli.main`; the
source under src/ is imported as it is, never changed.  With `--trace 0` it
reports the end-to-end metrics of an unwrapped pass plus a tracemalloc pass;
with `--trace 1` it reports per-layer metrics from a pass with spans
wrapped around each layer's functions.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibration
import spec
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_TIMEOUT_S = 600
SETUP_TIMEOUT_S = 120
# set-up runs this many times, each in a fresh process; setup_s is the median
SETUP_REPEATS = 5


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="measured time of the timed (or traced) pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="shrink every workload (digests are then not recorded)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--write-spec", action="store_true",
                      help="write BENCHMARK.json from bench/spec.py")
    mode.add_argument("--record-digests", action="store_true",
                      help="record the default-seed output digests")
    mode.add_argument("--self-test", action="store_true",
                      help="check the benchmark itself at smoke size")
    mode.add_argument("--setup-only", action="store_true",
                      help="time one set-up of --workload (imports, inputs, "
                           "checkpoints) in this process")
    return p


def use_source() -> bool:
    """Import zoft from the checkout's src/, as the program under test."""
    if not (SRC / "zoft" / "cli.py").is_file():
        print(f"bench: no zoft source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ.pop("ZOFT_THREADS", None)  # the default thread path
    return True


def _child(workload: str, seed: int, smoke: bool, *flags) -> list:
    """Command line that runs this script on one workload in a new process."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *flags] + (["--smoke"] if smoke else [])


def timed_setups(run, repeats: int = SETUP_REPEATS) -> list:
    """Calibrated seconds of `repeats` set-ups, each in a fresh process; every
    child's checkpoint digests are checked like any other output."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(_child(run.name, run.seed, run.smoke, "--setup-only"),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {run.name} failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if child["digests"] is not None:
            run.checker.check("setup", 0, 0, child["digests"])
        times.append(child["setup_s"])
    return times


def setup_only(args) -> int:
    loop = calibration.loop_seconds()
    start = time.perf_counter()
    if not use_source():
        return 2
    import passes
    work = WORK / f"setup-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run = passes.Run(args.workload, args.seed, work, smoke=args.smoke)
    try:
        digests = run.setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = calibration.calibrated(time.perf_counter() - start, loop,
                                     calibration.loop_seconds())
    for problem in run.checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"setup_s": elapsed,
                      "digests": digests if run.workload.setup else None}))
    return 1 if run.checker.failed else 0


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False):
    """Run one workload; returns (result dict, human lines, pass checks)."""
    import passes

    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = passes.Run(workload, seed, work, smoke=smoke)
    checks = {}
    try:
        if trace:
            spans = WORK / "spans" / f"{workload}.csv"  # the latest traced run
            values, checks, ceiling = passes.traced_metrics(run, seconds, spans)
            units = dict(spec.PER_LAYER)
        else:
            values, checks = passes.timed_metrics(run, seconds, timed_setups(run))
            ceiling = passes.rng_ceiling_gbps()
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = run.checker
    wl = run.workload
    lines = [f"workload {workload} seed {seed} trace {trace}"
             f"{' smoke' if smoke else ''}",
             "machine " + json.dumps(passes.machine_record(ceiling), sort_keys=True)]
    if not trace:
        lines.append(f"{wl.alias} = ops_per_s = {values['ops_per_s']:.6g} 1/s "
                     f"({wl.unit} per calibrated second, median of {checks['ops']} "
                     f"operations; uncalibrated {checks['raw_ops_per_s']:.6g})")
    for name, value in values.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"failed_ratio = {checker.failed / max(1, checker.attempted):.6g} "
                 f"({checker.failed} of {checker.attempted} commands)")
    lines += [f"problem: {p}" for p in checker.problems]
    correct = (checker.failed == 0 and checker.attempted > 0
               and not checks.get("unrestored") and not checks.get("leftover_wrappers"))
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, lines, checks


def run_one(args) -> int:
    if not use_source():
        return 2
    result, lines, _ = measure(args.workload, args.seed, args.seconds, args.trace,
                               smoke=args.smoke)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOADS:
        cmd = _child(name, args.seed, args.smoke, "--seconds", str(args.seconds),
                     "--trace", str(args.trace))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}\n")
    return 0 if ok else 1


def record_digests() -> int:
    """Write the default-seed output digests of every workload."""
    if not use_source():
        return 2
    import passes
    recorded = {}
    for name in WORKLOADS:
        work = WORK / f"record-{name}-pid{os.getpid()}"
        run = passes.Run(name, passes.DEFAULT_SEED, work)
        run.checker = passes.Checker()
        try:
            run.setup()
            run.op()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run.checker.failed:
            print(f"bench: {name}: {run.checker.problems}", file=sys.stderr)
            return 1
        recorded[name] = run.checker.expected
    passes.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.write_spec:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if args.record_digests:
        return record_digests()
    if args.self_test:
        if not use_source():
            return 2
        import selftest
        return selftest.main(measure)
    if args.workload is None:
        if args.setup_only:
            _parser().error("--setup-only needs --workload")
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
