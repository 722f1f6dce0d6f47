"""Self-test of the benchmark at smoke size: `python3 bench/run.py --self-test`.

Checks, on every workload:
  * every metric in spec.py is emitted with its unit, in both trace modes;
  * the untraced passes run with no wrapper installed;
  * after the traced pass every patched attribute holds its original object;
  * span self times add up to each command's traced wall time;
  * each workload's traced pass reaches the layers it exists to measure;
  * the recorded default-seed digests match what the `zoft` CLI writes when
    it runs as a process of its own on the full-size generated inputs;
and that BENCHMARK.json matches spec.py and the limits of its format.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import passes
import spec
import tracing
from workloads import WORKLOADS

SMOKE_SECONDS = 0.3
CLOSURE_TOLERANCE = 0.03

# per workload, per-layer metrics that must be non-zero in its traced pass
REACHES = {
    "race-small": ("paramspace.perturb_in_place.calls", "pertnn.forward_all.calls",
                   "zo_optimizer.step.finetuner_over_mezo", "harness.self_s"),
    "finetune-wide": ("paramspace.noise_gbps", "testbeds.loss.peak_over_params",
                      "paramspace.perturb_in_place.peak_over_params"),
    "meta-train": ("pertnn.backward.calls", "testbeds.grad.calls",
                   "meta_trainer.meta_step.calls"),
    "bounds-mc": ("bounds.verify_bound.calls", "bounds.optimal_scales.calls"),
}


def _site_objects() -> dict:
    """Every object currently bound at a target's lookup sites."""
    objects = {}
    for _, module, path in tracing.TARGETS:
        for owner, key in tracing.lookup_sites(module, path):
            objects[(id(owner), key)] = tracing.bound_at(owner, key)
    return objects


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def format_problems(doc: dict) -> list:
    """Where BENCHMARK.json breaks the limits of its format."""
    problems = []
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    for m in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction: {m}")
    for m in doc["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound out of range: {m}")
    for w in doc["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why too long: {w['name']}")
    if not (2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16
            and 1 <= len(doc["per_layer"]) <= 128 and 1 <= doc["run_seconds"] <= 60):
        problems.append("too few or too many entries")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in doc["end_to_end"]):
        problems.append("setup_s missing")
    if len(json.dumps(doc, indent=2)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems


def cli_digests(name: str) -> dict:
    """Default-seed digests of the `zoft` CLI run as its own process."""
    work = passes.BENCH_DIR.parent / ".bench_work" / f"selftest-cli-{name}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name][0](work / "inputs", passes.DEFAULT_SEED)
    env = {k: v for k, v in os.environ.items() if k != "ZOFT_THREADS"}
    env["PYTHONPATH"] = str(passes.BENCH_DIR.parent / "src")

    def zoft(command, out):
        out.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-m", "zoft.cli", command.name,
                        "--config", str(command.config), "--out", str(out)],
                       env=env, check=True, timeout=300)
        return passes.digest_dir(out)

    got = {}
    try:
        for command in workload.setup:
            got["setup"] = {"0": zoft(command, work / "ckpt")}
        got["op"] = {str(i): zoft(command, work / "ops" / f"0-{i}")
                     for i, command in enumerate(workload.op)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return got


def main(measure) -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    on_disk = json.loads((passes.BENCH_DIR.parent / "BENCHMARK.json")
                         .read_text(encoding="utf-8"))
    expect(on_disk == spec.benchmark_json(), "BENCHMARK.json matches spec.py")
    problems = format_problems(on_disk)
    expect(not problems, f"BENCHMARK.json within its format's limits {problems or ''}")
    for name in WORKLOADS:
        expect(cli_digests(name) == passes.recorded_digests(name),
               f"{name}: recorded digests match the zoft CLI's own output")

    originals = _site_objects()
    for name in WORKLOADS:
        result, _, checks = measure(name, 0, SMOKE_SECONDS, 0, smoke=True)
        metrics = result["metrics"]
        expect(result["correct"] and result["failed"] == 0,
               f"{name}: untraced pass correct, no failed commands")
        expect({k: v["unit"] for k, v in metrics.items()}
               == {n: u for n, u, _, _ in spec.END_TO_END},
               f"{name}: every end-to-end metric with its unit")
        expect(all(v["value"] > 0 for v in metrics.values()),
               f"{name}: end-to-end metrics are positive")

        # an untraced operation, checking for wrappers just before each command
        run = passes.Run(name, 0, passes.BENCH_DIR.parent / ".bench_work"
                         / f"selftest-{name}", smoke=True)
        seen = []
        try:
            run.setup()
            run.op(before=lambda: seen.extend(tracing.installed_wrappers()))
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
        expect(not seen, f"{name}: untraced pass installs no wrappers")

        result, _, checks = measure(name, 0, SMOKE_SECONDS, 1, smoke=True)
        metrics = result["metrics"]
        expect(result["correct"], f"{name}: traced pass correct")
        expect({k: v["unit"] for k, v in metrics.items()} == dict(spec.PER_LAYER),
               f"{name}: every per-layer metric with its unit")
        expect(checks["spans"] > 0, f"{name}: traced pass recorded spans")
        expect(not checks["unrestored"] and not checks["leftover_wrappers"]
               and _site_objects() == originals,
               f"{name}: every patched attribute is its original object again")
        expect(checks["closure_error"] <= CLOSURE_TOLERANCE,
               f"{name}: span self times sum to wall time "
               f"(error {checks['closure_error']:.4f})")
        missing = [m for m in REACHES[name] if not metrics[m]["value"] > 0]
        expect(not missing, f"{name}: traced pass reaches its layers {missing or ''}")

    print(f"{len(failures)} failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit("run it as: python3 bench/run.py --self-test")
