"""What the benchmark reports: metric names, units, directions and bounds.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 bench/run.py --write-spec`), so the file and the code that emits the
metrics cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS

RUN_SECONDS = 15

# (name, unit, better, bound).  Every workload reports every metric.  The
# throughput counts the workload's own unit of work: fine-tuning runs on
# race-small (runs_per_s), ZO steps on finetune-wide (steps_per_s),
# meta-steps on meta-train (meta_steps_per_s), bound cells on bounds-mc
# (cells_per_s).  Both times are calibrated seconds (calibration.py); the
# throughput bound is wide because calibrated runs still spread up to 7%.
# failed_ratio is reported through `failed`/`attempted`, because a metric
# that is 0 on every healthy run has no relative bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_mem_mb", "MB", "lower", 0.05),
    ("mem_over_inference", "ratio", "lower", 0.05),
)

# (name, unit).  Counts and times are per operation of the traced pass;
# percentiles are over every call in it.
PER_LAYER = (
    ("paramspace.perturb_in_place.calls", "count"),
    ("paramspace.perturb_in_place.self_s", "s"),
    ("paramspace.perturb_in_place.us_p50", "us"),
    ("paramspace.perturb_in_place.us_p90", "us"),
    ("paramspace.perturb_in_place.walks_per_step", "count/step"),
    ("paramspace.perturb_in_place.peak_over_params", "ratio"),
    ("paramspace.block_stats.calls", "count"),
    ("paramspace.block_stats.self_s", "s"),
    ("paramspace.noise_gbps", "GB/s"),
    ("paramspace.rng_ceiling_gbps", "GB/s"),
    ("paramspace.noise_efficiency", "ratio"),
    ("paramspace.param_bytes", "bytes"),
    ("zo_optimizer.step.calls", "count"),
    ("zo_optimizer.step.self_s", "s"),
    ("zo_optimizer.step.us_p50", "us"),
    ("zo_optimizer.step.us_p90", "us"),
    ("zo_optimizer.step.finetuner_over_mezo", "ratio"),
    ("zo_optimizer.step_features.self_s", "s"),
    ("zo_optimizer.normalize_scales.self_s", "s"),
    ("zo_optimizer.run_finetune.calls", "count"),
    ("zo_optimizer.run_finetune.self_s", "s"),
    ("zo_optimizer.run_finetune.ms_p50", "ms"),
    ("zo_optimizer.run_finetune.ms_p90", "ms"),
    ("zo_optimizer.run_finetune.diverged", "count"),
    ("pertnn.forward_all.calls", "count"),
    ("pertnn.forward_all.self_s", "s"),
    ("pertnn.backward.calls", "count"),
    ("pertnn.backward.self_s", "s"),
    ("pertnn.PertNNParams.zeros_like.self_s", "s"),
    ("pertnn.PertNNParams.add_scaled.self_s", "s"),
    ("pertnn.checkpoint_io.self_s", "s"),
    ("meta_trainer.train.self_s", "s"),
    ("meta_trainer.meta_step.calls", "count"),
    ("meta_trainer.meta_step.us_p50", "us"),
    ("meta_trainer.meta_step.us_p90", "us"),
    ("meta_trainer.meta_loss.self_s", "s"),
    ("meta_trainer.meta_grad.self_s", "s"),
    ("testbeds.loss.calls", "count"),
    ("testbeds.loss.self_s", "s"),
    ("testbeds.loss.peak_over_params", "ratio"),
    ("testbeds.grad.calls", "count"),
    ("testbeds.grad.self_s", "s"),
    ("testbeds.build.self_s", "s"),
    ("bounds.verify_bound.calls", "count"),
    ("bounds.verify_bound.self_s", "s"),
    ("bounds.verify_bound.ms_p50", "ms"),
    ("bounds.expected_decrease.self_s", "s"),
    ("bounds.optimal_scales.calls", "count"),
    ("bounds.optimal_scales.self_s", "s"),
    ("harness.self_s", "s"),
    ("cli.self_s", "s"),
    ("config.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.closure_error", "ratio"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)}
                      for n, u in PER_LAYER],
    }


def _better(name: str) -> str:
    return "higher" if name.endswith(("gbps", "noise_efficiency")) else "lower"


def write(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
