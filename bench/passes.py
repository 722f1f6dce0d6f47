"""Set-up, timed, traced and memory passes of one workload, in one process.

Every pass runs the same generated commands through `zoft.cli.main` and
checks each command's exit code and output digests against the first
(reference) operation and, for the default seed, against `digests.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import tracing
import zoft
import zoft.cli
from workloads import WORKLOADS, llm_block_sizes

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
MIN_OPS = 3


def clear_lazy_caches() -> None:
    """Empty zoft's functools caches, so every operation fills them the way a
    fresh `zoft` process does."""
    for mod in tracing.zoft_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", None) == mod.__name__:
                value.cache_clear()


def call(command, out_dir: Path) -> int:
    argv = [command.name, "--config", str(command.config), "--out", str(out_dir)]
    try:
        # looked up on every call, so the traced pass sees its wrapper
        return zoft.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crash
        traceback.print_exc()
        return -1


def digest_dir(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def recorded_digests(workload: str):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


@dataclass
class Checker:
    """Counts operations and failures; compares outputs with a reference."""

    # {"setup": {"0": digests}, "op": {"<command index>": digests}}, where
    # digests maps each output file name to its SHA-256
    expected: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, what: str, key, code: int, digests: dict) -> None:
        self.attempted += 1
        if self.expected is None:
            self.expected = {}
        ref = self.expected.setdefault(what, {}).setdefault(str(key), digests)
        if code != 0 or digests != ref:
            self.failed += 1
            self.problems.append(f"{what}[{key}]: exit {code}, "
                                 f"{'digests match' if digests == ref else 'digest mismatch'}")


class Run:
    """One workload at one seed, with its working directory."""

    def __init__(self, name: str, seed: int, work: Path, smoke: bool = False):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.make = WORKLOADS[name][0]
        self.work = work
        recorded = None if smoke or seed != DEFAULT_SEED else recorded_digests(name)
        self.checker = Checker(expected=recorded)
        self.prep = None
        self.workload = None
        self.ops_done = 0
        self.raw_seconds = []  # per operation, each command's wall time

    # -- set-up -------------------------------------------------------------

    def setup(self) -> dict:
        """Generate inputs and prepare checkpoints; returns the ckpt digests."""
        self.prep = self.work / "prep"
        self.workload = self.make(self.prep / "inputs", self.seed, self.smoke)
        ckpt = self.prep / "ckpt"
        ckpt.mkdir(parents=True, exist_ok=True)
        codes = [call(cmd, ckpt) for cmd in self.workload.setup]
        digests = digest_dir(ckpt)
        if codes:
            self.checker.check("setup", 0, next((c for c in codes if c), 0), digests)
        return digests

    # -- operations -----------------------------------------------------------

    def op(self, before=None, after=None, calibrate=False):
        """Run one operation; returns (seconds of each command, units of work).

        `before`/`after` run just outside each command's timed region.  With
        `calibrate`, each command's seconds are calibrated seconds (see
        calibration.py).
        """
        n = self.ops_done
        self.ops_done += 1
        seconds, units, raw = [], 0, []
        for i, cmd in enumerate(self.workload.op):
            out = self.prep / "ops" / f"{n}-{i}"
            out.mkdir(parents=True)
            clear_lazy_caches()
            if before is not None:
                before()
            loop = calibration.loop_seconds() if calibrate else None
            start = time.perf_counter()
            code = call(cmd, out)
            elapsed = time.perf_counter() - start
            raw.append(elapsed)
            if calibrate:
                elapsed = calibration.calibrated(elapsed, loop, calibration.loop_seconds())
            seconds.append(elapsed)
            if after is not None:
                after()
            self.checker.check("op", i, code, digest_dir(out))
            if code == 0:
                units += cmd.units(out)
            shutil.rmtree(out)
        self.raw_seconds.append(raw)
        return seconds, units

    def ops_for(self, seconds: float, at_least: int = MIN_OPS, **hooks):
        deadline = time.perf_counter() + seconds
        results = []
        while len(results) < at_least or time.perf_counter() < deadline:
            results.append(self.op(**hooks))
        return results


# ---------------------------------------------------------------------------
# Memory


def build_model(model: dict):
    if model["kind"] == "family":
        family = zoft.QuadraticFamily(
            block_sizes=tuple(model["block_sizes"]), ranks=tuple(model["ranks"]),
            opnorms=tuple(model["opnorms"]), shift_scale=model["shift_scale"],
            init_scale=model["init_scale"], seed=model["seed"])
        return family.make_task(model["task_index"])
    return zoft.make_rank_family(model["block_sizes"], model["ranks"],
                                 model["opnorms"], init_scale=model["init_scale"],
                                 seed=model["seed"])


def inference_peak(model: dict) -> int:
    """Peak bytes of building the model and evaluating its loss once."""
    tracemalloc.start()
    try:
        task = build_model(model)
        theta = task.init_theta(model["theta_seed"])
        task.loss(theta, task.sample_batch(1, 0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def param_bytes(model: dict) -> int:
    return 8 * int(sum(model["block_sizes"]))


def command_peak(run: Run, probe=None) -> int:
    """Largest tracemalloc peak of any command of one operation, in bytes.

    With a PeakProbe installed, probed calls reset the peak; the probe keeps
    what they would have hidden.
    """
    starts, peaks = [], []

    def before():
        if probe is not None:
            probe.outer_peak = 0
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])

    def after():
        peak = tracemalloc.get_traced_memory()[1]
        if probe is not None:
            peak = max(peak, probe.outer_peak)
        peaks.append(peak - starts[-1])

    tracemalloc.start()
    try:
        run.op(before=before, after=after)
    finally:
        tracemalloc.stop()
    return max(peaks)


# ---------------------------------------------------------------------------
# Machine record


def llc_bytes():
    """Size of the highest-level CPU cache, read-only from sysfs (None if absent)."""
    best = None
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(root.glob("index*")):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            value = int(size.rstrip("KM")) * scale
            if best is None or level > best[0]:
                best = (level, value)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def rng_ceiling_gbps(n: int = 1 << 20, repeats: int = 9) -> float:
    """Raw Generator.standard_normal(out=) speed, GB/s of float64 written."""
    gen = np.random.Generator(np.random.PCG64(12345))
    buf = np.empty(n)
    gen.standard_normal(out=buf)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        gen.standard_normal(out=buf)
        times.append(time.perf_counter() - start)
    return 8 * n / statistics.median(times) / 1e9


def machine_record(ceiling: float) -> dict:
    llc = llc_bytes()
    wide = 8 * sum(llm_block_sizes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc,
        "rng_ceiling_gbps": ceiling,
        "finetune_wide_param_bytes": wide,
        # when True, finetune-wide's noise numbers are RNG-bound, not
        # DRAM-bound, and their bytes are computed, not measured traffic
        "finetune_wide_params_fit_llc": llc is not None and wide <= llc,
    }


# ---------------------------------------------------------------------------
# Passes


def require_no_wrappers() -> None:
    found = tracing.installed_wrappers()
    if found:
        raise RuntimeError(f"untraced pass found benchmark wrappers: {found}")


def _median_op_seconds(results) -> float:
    return statistics.median(sum(seconds) for seconds, _ in results)


def timed_metrics(run: Run, seconds: float, setup_seconds: list) -> dict:
    """End-to-end metrics: set-up, throughput, memory.  No wrappers."""
    run.setup()
    run.op()  # reference operation: fixes the digests every later op must match
    require_no_wrappers()
    first = len(run.raw_seconds)
    results = run.ops_for(seconds, calibrate=True)
    raw = [sum(secs) for secs in run.raw_seconds[first:]]
    require_no_wrappers()
    units = statistics.median(units for _, units in results)
    peak = command_peak(run)
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": units / _median_op_seconds(results),
        "peak_mem_mb": peak / 1e6,
        "mem_over_inference": peak / inference_peak(run.workload.model),
    }, {"raw_ops_per_s": units / statistics.median(raw), "ops": len(results)}


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class SpanStats:
    """Per span name: durations, self times, tags and errors."""

    def __init__(self, spans):
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[0], []).append(s)

    def _spans(self, prefix):
        if prefix.endswith("."):
            return [s for name, group in self.by_name.items()
                    if name.startswith(prefix) for s in group]
        return self.by_name.get(prefix, [])

    def calls(self, name) -> int:
        return len(self._spans(name))

    def self_s(self, name) -> float:
        return sum(s[2] - s[1] - s[5] for s in self._spans(name)) / 1e9

    def durations_ns(self, name, tag=None) -> list:
        return [s[2] - s[1] for s in self._spans(name) if tag is None or s[6] == tag]

    def total_s(self, name) -> float:
        return sum(self.durations_ns(name)) / 1e9

    def tags(self, name) -> list:
        return [s[6] for s in self._spans(name)]

    def errors(self, name, error) -> int:
        return sum(1 for s in self._spans(name) if s[7] == error)


def layer_metrics(stats: SpanStats, n_ops: int, peaks: dict, params: int,
                  ceiling: float) -> dict:
    """Per-layer metrics; counts and self times are per operation."""
    m = {}

    def per_op(x):
        return x / n_ops

    perturb = "paramspace.perturb_in_place"
    m[f"{perturb}.calls"] = per_op(stats.calls(perturb))
    m[f"{perturb}.self_s"] = per_op(stats.self_s(perturb))
    durations = stats.durations_ns(perturb)
    m[f"{perturb}.us_p50"] = _percentile(durations, 50) / 1e3
    m[f"{perturb}.us_p90"] = _percentile(durations, 90) / 1e3
    steps = stats.calls("zo_optimizer.step")
    m[f"{perturb}.walks_per_step"] = stats.calls(perturb) / steps if steps else 0.0
    m[f"{perturb}.peak_over_params"] = peaks.get(perturb, 0) / params
    m["paramspace.block_stats.calls"] = per_op(stats.calls("paramspace.block_stats"))
    m["paramspace.block_stats.self_s"] = per_op(stats.self_s("paramspace.block_stats"))
    # computed bytes: every call regenerates one float64 draw per parameter
    noise_bytes = 8 * sum(stats.tags(perturb))
    busy = stats.total_s(perturb)
    m["paramspace.noise_gbps"] = noise_bytes / busy / 1e9 if busy else 0.0
    m["paramspace.rng_ceiling_gbps"] = ceiling
    m["paramspace.noise_efficiency"] = m["paramspace.noise_gbps"] / ceiling
    m["paramspace.param_bytes"] = params

    step = "zo_optimizer.step"
    m[f"{step}.calls"] = per_op(steps)
    m[f"{step}.self_s"] = per_op(stats.self_s(step))
    durations = stats.durations_ns(step)
    m[f"{step}.us_p50"] = _percentile(durations, 50) / 1e3
    m[f"{step}.us_p90"] = _percentile(durations, 90) / 1e3
    mezo = stats.durations_ns(step, "mezo")
    finetuner = stats.durations_ns(step, "finetuner")
    m[f"{step}.finetuner_over_mezo"] = (
        _percentile(finetuner, 50) / _percentile(mezo, 50) if mezo and finetuner else 0.0)
    for name in ("zo_optimizer.step_features", "zo_optimizer.normalize_scales"):
        m[f"{name}.self_s"] = per_op(stats.self_s(name))
    run = "zo_optimizer.run_finetune"
    m[f"{run}.calls"] = per_op(stats.calls(run))
    m[f"{run}.self_s"] = per_op(stats.self_s(run))
    durations = stats.durations_ns(run)
    m[f"{run}.ms_p50"] = _percentile(durations, 50) / 1e6
    m[f"{run}.ms_p90"] = _percentile(durations, 90) / 1e6
    m[f"{run}.diverged"] = per_op(stats.errors(run, "DivergenceError"))

    for name in ("pertnn.forward_all", "pertnn.backward"):
        m[f"{name}.calls"] = per_op(stats.calls(name))
        m[f"{name}.self_s"] = per_op(stats.self_s(name))
    for name in ("pertnn.PertNNParams.zeros_like", "pertnn.PertNNParams.add_scaled",
                 "pertnn.checkpoint_io", "meta_trainer.train",
                 "meta_trainer.meta_loss", "meta_trainer.meta_grad"):
        m[f"{name}.self_s"] = per_op(stats.self_s(name))
    meta = "meta_trainer.meta_step"
    m[f"{meta}.calls"] = per_op(stats.calls(meta))
    durations = stats.durations_ns(meta)
    m[f"{meta}.us_p50"] = _percentile(durations, 50) / 1e3
    m[f"{meta}.us_p90"] = _percentile(durations, 90) / 1e3

    m["testbeds.loss.calls"] = per_op(stats.calls("testbeds.loss"))
    m["testbeds.loss.self_s"] = per_op(stats.self_s("testbeds.loss"))
    m["testbeds.loss.peak_over_params"] = peaks.get("testbeds.loss", 0) / params
    m["testbeds.grad.calls"] = per_op(stats.calls("testbeds.grad"))
    m["testbeds.grad.self_s"] = per_op(stats.self_s("testbeds.grad"))
    m["testbeds.build.self_s"] = per_op(stats.self_s("testbeds.build"))

    verify = "bounds.verify_bound"
    m[f"{verify}.calls"] = per_op(stats.calls(verify))
    m[f"{verify}.self_s"] = per_op(stats.self_s(verify))
    m[f"{verify}.ms_p50"] = _percentile(stats.durations_ns(verify), 50) / 1e6
    m["bounds.expected_decrease.self_s"] = per_op(stats.self_s("bounds.expected_decrease"))
    m["bounds.optimal_scales.calls"] = per_op(stats.calls("bounds.optimal_scales"))
    m["bounds.optimal_scales.self_s"] = per_op(stats.self_s("bounds.optimal_scales"))

    # harness: cmd_* time not covered by child spans; cli and config are set-up
    m["harness.self_s"] = per_op(stats.self_s("harness."))
    m["cli.self_s"] = per_op(stats.self_s("cli."))
    m["config.self_s"] = per_op(stats.self_s("config."))
    return m


def traced_metrics(run: Run, seconds: float, spans_path: Path) -> tuple:
    """Per-layer metrics from a traced pass, plus the pass's own checks.

    Untraced and traced operations alternate, all timed in calibrated
    seconds, so the overhead ratio compares like with like.
    """
    run.setup()
    run.op()  # reference operation
    tracer = tracing.Tracer()
    plain, traced, walls, unrestored = [], [], [], []

    def next_run():
        tracer.run_id += 1

    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        require_no_wrappers()
        plain.append(run.op(calibrate=True))
        patches = tracing.Patches()
        patches.install(tracer.wrapper)
        try:
            traced.append(run.op(before=next_run, calibrate=True))
        finally:
            unrestored += patches.restore()
        walls += run.raw_seconds[-1]
    tracer.write(spans_path)
    # closure: the self times of a command's spans add up to its wall time
    self_by_run = tracer.self_ns_by_run()
    closure = max(abs(self_by_run.get(k + 1, 0) / 1e9 - wall) / wall
                  for k, wall in enumerate(walls))

    probe = tracing.PeakProbe()
    probe_patches = tracing.Patches()
    probe_patches.install(probe.wrapper, names=tracing.PROBED)
    try:
        command_peak(run, probe)
    finally:
        unrestored += probe_patches.restore()
    leftover = tracing.installed_wrappers()

    ceiling = rng_ceiling_gbps()
    metrics = layer_metrics(SpanStats(tracer.spans), len(traced), probe.extra,
                            param_bytes(run.workload.model), ceiling)
    metrics["trace.overhead_ratio"] = _median_op_seconds(traced) / _median_op_seconds(plain)
    metrics["trace.closure_error"] = closure
    checks = {"unrestored": unrestored, "leftover_wrappers": leftover,
              "closure_error": closure, "spans": len(tracer.spans)}
    return metrics, checks, ceiling
