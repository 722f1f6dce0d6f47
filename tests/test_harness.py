import errno
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zoft
from zoft import cli, harness, pertnn
from zoft.config import ExperimentConfig, build_task_source
from zoft.errors import ConfigError, DivergenceError
from zoft.harness import (
    RUN_ROW_HEADER,
    RunResult,
    cmd_ablate,
    cmd_sweep_lr,
)
from zoft.paramspace import BlockPartition, NoiseSeed
from zoft.zo_optimizer import RaceRecorder, RunRecord, ZOConfig, run_population

from test_cli_fuzz import COMMANDS, clamped, write_ini
from test_pertnn import write_checkpoint
from test_population import EveryStep, leave_step, run_every_step

TASK = """
[task]
kind = quadratic
block_sizes = 4, 4
ranks = 2.0, 3.0
opnorms = 1.0, 1.0
seed = 0
"""

TRAIN = """
[train]
tasks = 2
steps = 10
eta1 = 0.05
eta2 = 0.05
reset_period = 5
batch_size = 4
hidden = 8
seed = 0
"""


FINETUNE = """
[finetune]
mode = mezo
seeds = 0
lr = 0.05
steps = 3
"""

MLP = """
[task]
kind = mlp
"""

SWEEP = """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.001, 0.01, 0.1
steps = 3
"""

COMPARE = """
[compare]
methods = mezo
seeds = 0
lr_grid = 0.01
steps = 3
"""

ABLATE = """
[ablate]
axes = reset
seeds = 0
lr = 0.05
steps = 3
"""

BOUNDS = """
[task]
block_sizes = 4, 8

[bounds]
rank_profiles = 1, 4
etas = 0.02
samples = 100
seed = 0
"""


def run_module(*args, cwd=None) -> subprocess.CompletedProcess:
    """`python -m zoft.cli *args` in a process of its own, its warnings
    left at their defaults."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(zoft.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "zoft.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_config(tmp_path, text):
    return ExperimentConfig.load(write_config(tmp_path, text))


class FullDisk:
    """open() on a disk with room for `room` more writes, over every file it
    opens: each write after those fails with ENOSPC."""

    def __init__(self, room: int):
        self.room = room

    def __call__(self, path, mode="r"):
        return _Filling(open(path, mode), self)


class _Filling:
    def __init__(self, f, disk):
        self.f, self.disk = f, disk

    def write(self, data):
        if not self.disk.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.disk.room -= 1
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class Scripted:
    """A model whose loss at step t is losses[t - 1] for every parameter
    vector: both perturbed losses equal it, so a run never moves."""

    name = "quad0"
    partition = BlockPartition([("w", 2)])

    def __init__(self, losses):
        self.losses = losses

    def init_theta(self, seed):
        return np.zeros(2)

    def sample_batch(self, batch_size, seed):
        return seed  # step t of seed 0 samples batch t

    def loss(self, values, batch):
        return np.full(len(values), self.losses[batch - 1])


def fake_result(losses):
    """The RunResult of a seed-0 run whose steps have `losses`, kept for the
    default race."""
    [record] = run_population([Scripted(losses)], [0.0], ZOConfig(len(losses)))
    return RunResult("mezo", "quad0", 0, 0.0, record, 0.0)


class TestRunResult:
    def test_final_window_mean(self):
        r = fake_result([10.0] * 18 + [4.0, 2.0])
        assert r.final_mean == pytest.approx(3.0)
        assert r.initial_loss == 10.0

    def test_final_window_mean_diverged(self):
        r = RunResult("mezo", "quad0", 0, 0.1, DivergenceError("loss exceeded"), 0.0)
        assert r.final_mean == float("inf")
        assert r.steps_to_threshold is None
        assert np.isnan(r.initial_loss)

    def test_steps_to_threshold(self):
        r = fake_result([8.0, 6.0, 3.9, 1.0])
        assert r.steps_to_threshold == 3

    def test_steps_to_threshold_never(self):
        r = fake_result([8.0, 7.0, 6.0])
        assert r.steps_to_threshold is None

    def test_a_run_without_columns_reads_alike(self):
        losses = [10.0] * 18 + [4.0, 2.0]
        r = fake_result(losses)
        assert type(r.outcome) is RunRecord
        assert (r.initial_loss, r.final_mean, r.steps_to_threshold) == (10.0, 3.0, 19)
        [kept] = run_every_step([Scripted(losses)], [0.0], ZOConfig(len(losses)))
        assert r.outcome.tail.tobytes() == kept.loss[-2:].tobytes() == kept.tail.tobytes()

    def test_a_run_of_no_steps(self):
        r = fake_result([])
        assert r.final_mean == float("inf")
        assert r.steps_to_threshold is None
        assert np.isnan(r.initial_loss)

    def test_race_summary_answers_for_its_own_race(self):
        record = RunRecord(8.0, 3, np.array([4.0, 2.0]))
        r = RunResult("mezo", "quad0", 0, 0.1, record, 0.0)
        assert r.initial_loss == 8.0
        assert r.final_mean == 3.0
        assert r.steps_to_threshold == 3


RACE_TASK = """
[task]
kind = quadratic
block_sizes = 48, 16
ranks = 48.0, 16.0
opnorms = 1.0, 0.05
shift_scale = 1.0
init_scale = 0.204, 1.58
seed = 0
"""


class TestRaceSummary:
    """compare and ablate write the bytes that every step's loss column gives.

    The column path runs the same populations with a recorder that keeps
    every step's loss, for the same race."""

    @staticmethod
    def outputs(monkeypatch, command, cfg, out, keep_columns):
        """The command's output files, and what each of its runs kept."""
        kept = []

        def population(models, lrs, config, pertnn, learned, recorder):
            if keep_columns:
                recorder = EveryStep(len(models), config.steps,
                                     threshold=recorder.threshold, window=recorder.window)
            outcomes = run_population(models, lrs, config, pertnn, learned, recorder)
            kept.extend(outcomes)
            return outcomes

        monkeypatch.setattr(harness, "run_population", population)
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = ("compare.csv", "summary.txt") if command == "compare" else ("ablation.csv",)
        return {name: (out / name).read_bytes() for name in names}, kept

    @pytest.mark.parametrize("steps, race, k, case", [
        # k = max(1, round(0.5)) = 1; no run halves its loss in 5 steps
        (5, "", 1, "never"),
        # k = round(1.5) = 2, and every run reaches 1 x its first loss at step 1
        (15, "threshold = 1.0", 2, "first"),
        # a final window of 2.0 keeps every step; the 0.125 runs leave
        # mid-run, and only some runs reach 0.8 x their first loss
        (60, "final_window = 2.0\nthreshold = 0.8", 60, "diverged"),
    ])
    def test_compare_writes_what_the_loss_columns_give(self, tmp_path, monkeypatch,
                                                       steps, race, k, case):
        cfg = write_config(tmp_path, RACE_TASK + TRAIN + f"""
[compare]
methods = mezo, finetuner
checkpoint = {tmp_path / "finetuner.ckpt"}
seeds = 0, 1
lr_grid = 0.02, 0.05, 0.125
steps = {steps}
tasks = 2
task_start = 100
batch_size = 1
{race}
""")
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        got, summaries = self.outputs(monkeypatch, "compare", cfg, tmp_path / "summary",
                                      False)
        want, columns = self.outputs(monkeypatch, "compare", cfg, tmp_path / "column", True)
        assert got == want
        summaries = [s for s in summaries if not isinstance(s, DivergenceError)]
        assert all(type(s) is RunRecord for s in summaries)
        for c in columns:
            if not isinstance(c, DivergenceError):
                assert c.tail.tobytes() == c.loss[len(c.loss) - k:].tobytes()
        hits = [s.hit for s in summaries]
        if case == "never":
            assert hits and set(hits) == {None}
            assert b",\n" in got["compare.csv"]
        elif case == "first":
            assert hits and set(hits) == {1}
        else:
            left = [leave_step(c) for c in columns if isinstance(c, DivergenceError)]
            assert left and all(1 < t < steps for t in left)
            assert {None} < set(hits)  # some runs reach it and some do not
        assert all(len(s.tail) == k for s in summaries)

    @pytest.mark.parametrize("command, section", [("compare", COMPARE), ("sweep-lr", SWEEP)])
    def test_a_window_past_every_step_covers_every_step(self, tmp_path, command, section):
        # 1e308 x 400 steps is inf, which round() cannot make an int: the
        # command ended in an OverflowError traceback
        section = section.replace("steps = 3", "steps = 400")
        written = []
        for window in ("1", "1e308"):
            out = tmp_path / window
            cfg = write_config(tmp_path, TASK + section + f"final_window = {window}\n")
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1]

    @pytest.mark.parametrize("steps, window", [(5, 0.1), (15, 0.1), (15, 2.0)])
    def test_ablate_writes_what_the_loss_columns_give(self, tmp_path, monkeypatch,
                                                      steps, window):
        cfg = write_config(tmp_path, RACE_TASK + TRAIN + f"""
[ablate]
axes = reset, normalization
seeds = 0, 1
lr = 0.05
steps = {steps}
task_index = 100
final_window = {window}
""")
        got, _ = self.outputs(monkeypatch, "ablate", cfg, tmp_path / "summary", False)
        want, _ = self.outputs(monkeypatch, "ablate", cfg, tmp_path / "column", True)
        assert got == want


class TestRunRowOrder:
    # seeds and rates listed out of order, with seed 10 and step 10 before
    # 2 and 9 as text; 8 of the 30 runs diverge and write no rows
    SWEEP = TASK + """
[sweep]
methods = mezo, finetuner
seeds = 10, 2, 7
lr_grid = 5.0, 0.0, 0.07, 0.7, 0.02
steps = 30
batch_size = 1
"""
    # SHA-256 of sweep_curves.csv, recorded when every printed row was
    # parsed back to sort the file
    DIGEST = "c555d5f841c06fe7105f8c03bf7fe12ddee8e5c068881d67d01f0a98d60f5816"

    def test_sweep_curves_in_numeric_order(self, tmp_path):
        cfg = write_config(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        out.mkdir()
        _, family = build_task_source(ExperimentConfig.load(cfg))
        partition = family.make_task(0).partition
        write_checkpoint(pertnn.init(partition, 8, NoiseSeed(0)), out / "finetuner.ckpt")
        assert cli.main(["sweep-lr", "--config", str(cfg), "--out", str(out)]) == 0
        data = (out / "sweep_curves.csv").read_bytes()
        lines = data.decode().splitlines()
        assert lines[0] == RUN_ROW_HEADER
        keys = [(method, int(seed), float(lr), int(step))
                for _, method, _, seed, lr, step, *_ in (line.split(",") for line in lines[1:])]
        assert keys == sorted(keys)
        assert len({key[:3] for key in keys}) == 22 and len(keys) == 22 * 30
        assert hashlib.sha256(data).hexdigest() == self.DIGEST


class TestCliCommands:
    def run(self, args):
        return cli.main([str(a) for a in args])

    def test_finetune_writes_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds = 0, 1
lr = 0.05
steps = 30
batch_size = 4
""")
        out = tmp_path / "out"
        assert self.run(["finetune", "--config", cfg, "--out", out]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == RUN_ROW_HEADER
        assert len(lines) == 1 + 30 * 2
        wall = {line.split(",")[7] for line in lines[1:]}
        assert wall == {"0"}  # byte-stable by default

    def test_options_may_come_before_the_command(self, tmp_path):
        cfg = write_config(tmp_path, TASK + COMPARE)
        after, before = tmp_path / "after", tmp_path / "before"
        assert self.run(["compare", "--config", cfg, "--out", after]) == 0
        assert self.run(["--config", cfg, "--out", before, "compare"]) == 0
        names = sorted(os.listdir(after))
        assert names == ["compare.csv", "summary.txt"] == sorted(os.listdir(before))
        for name in names:
            assert (after / name).read_bytes() == (before / name).read_bytes()

    def test_timing_fills_wall_ms_and_nothing_else(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds = 0, 1
lr = 0.05
steps = 5
batch_size = 4
""")
        rows = {}
        for flags in ([], ["--timing"]):
            out = tmp_path / ("timed" if flags else "plain")
            assert self.run(["finetune", "--config", cfg, "--out", out, *flags]) == 0
            lines = (out / "trajectory.csv").read_text().splitlines()
            assert lines[0] == RUN_ROW_HEADER
            rows[bool(flags)] = [line.split(",") for line in lines[1:]]
        k = RUN_ROW_HEADER.split(",").index("wall_ms")
        assert {row[k] for row in rows[False]} == {"0"}
        assert all(float(row[k]) > 0 for row in rows[True])
        assert ([row[:k] + row[k + 1:] for row in rows[True]]
                == [row[:k] + row[k + 1:] for row in rows[False]])
        assert len(rows[True]) == 2 * 5

    def test_train_then_finetune_with_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, TASK + TRAIN + """
[finetune]
mode = finetuner
seeds = 0
lr = 0.05
steps = 20
batch_size = 4
""")
        out = tmp_path / "out"
        assert self.run(["train-finetuner", "--config", cfg, "--out", out]) == 0
        assert (out / "finetuner.ckpt").exists()
        meta = (out / "meta_log.csv").read_text().splitlines()
        assert meta[0] == "step,task,l_zo,loss,reset"
        assert len(meta) == 1 + 10 * 2
        assert self.run(["finetune", "--config", cfg, "--out", out]) == 0
        assert (out / "trajectory.csv").exists()

    def test_compare_outputs_are_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[compare]
methods = mezo
seeds = 0, 1
lr_grid = 0.02, 0.05
steps = 30
tasks = 2
task_start = 10
batch_size = 4
""")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run(["compare", "--config", cfg, "--out", out1]) == 0
        assert self.run(["compare", "--config", cfg, "--out", out2]) == 0
        for name in ("compare.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = (out1 / "compare.csv").read_text().splitlines()[0]
        assert header == "method,task,seed,best_lr,final_mean,steps_to_threshold"

    def test_compare_summary_win_tally(self, tmp_path):
        cfg = write_config(tmp_path, TASK + TRAIN + """
[compare]
methods = mezo, finetuner
seeds = 0
lr_grid = 0.02, 0.05
steps = 25
tasks = 1
task_start = 10
batch_size = 4
""")
        out = tmp_path / "out"
        assert self.run(["train-finetuner", "--config", cfg, "--out", out]) == 0
        assert self.run(["compare", "--config", cfg, "--out", out]) == 0
        summary = (out / "summary.txt").read_text()
        assert "task-seed pairs" in summary
        assert "median steps ratio" in summary

    def test_compare_steps_each_seed_as_one_population(self, tmp_path, monkeypatch):
        # both methods' runs share each seed's noise, so one population per
        # seed steps them all: 2 calls, not one per (seed, method)
        cfg = write_config(tmp_path, TASK + TRAIN + """
[compare]
methods = mezo, finetuner
seeds = 0, 1
lr_grid = 0.02, 0.05
steps = 5
tasks = 2
task_start = 10
batch_size = 4
""")
        out = tmp_path / "out"
        assert self.run(["train-finetuner", "--config", cfg, "--out", out]) == 0
        calls = []

        def counted(models, lrs, config, pertnn=None, learned=None, recorder=None):
            calls.append((config.seed, list(learned), type(recorder), recorder.threshold,
                          recorder.window))
            return run_population(models, lrs, config, pertnn, learned, recorder)

        monkeypatch.setattr(harness, "run_population", counted)
        assert self.run(["compare", "--config", cfg, "--out", out]) == 0
        # compare writes no per-step loss or scale, so its runs keep only
        # their records for the default threshold and window
        assert calls == [(seed, ([False] * 2 + [True] * 2) * 2, RaceRecorder, 0.5, 0.1)
                         for seed in (0, 1)]

    def test_summary_uses_the_configured_final_window(self, tmp_path):
        # the summary's median_final read the 0.1 default, not final_window
        cfg = write_config(tmp_path, TASK + COMPARE.replace("steps = 3", "steps = 30")
                           + "final_window = 0.9\n")
        out = tmp_path / "out"
        assert self.run(["compare", "--config", cfg, "--out", out]) == 0
        final_mean = (out / "compare.csv").read_text().splitlines()[1].split(",")[4]
        summary = (out / "summary.txt").read_text().splitlines()[1].split()
        assert float(summary[1]) == pytest.approx(float(final_mean), rel=1e-5)

    def test_seed_override_changes_tasks(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds = 0
lr = 0.05
steps = 10
batch_size = 4
""")
        o1, o2, o3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert self.run(["finetune", "--config", cfg, "--out", o1]) == 0
        assert self.run(["finetune", "--config", cfg, "--out", o2, "--seed", 5]) == 0
        assert self.run(["finetune", "--config", cfg, "--out", o3, "--seed", 5]) == 0
        t1 = (o1 / "trajectory.csv").read_bytes()
        t2 = (o2 / "trajectory.csv").read_bytes()
        assert t1 != t2
        assert t2 == (o3 / "trajectory.csv").read_bytes()

    def test_seed_flag_sets_the_bounds_seed(self, tmp_path):
        # verify-bounds seeds from [bounds], so --seed must override that
        cfg = write_config(tmp_path, BOUNDS)
        seeded = write_config(tmp_path, BOUNDS.replace("seed = 0", "seed = 5"), "s5.ini")
        o1, o2, o3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert self.run(["verify-bounds", "--config", cfg, "--out", o1]) == 0
        assert self.run(["verify-bounds", "--config", cfg, "--out", o2, "--seed", 5]) == 0
        assert self.run(["verify-bounds", "--config", seeded, "--out", o3]) == 0
        flagged = (o2 / "bounds.csv").read_bytes()
        assert flagged != (o1 / "bounds.csv").read_bytes()
        assert flagged == (o3 / "bounds.csv").read_bytes()

    def test_verify_bounds_campaign(self, tmp_path):
        cfg = write_config(tmp_path, """
[task]
kind = quadratic
block_sizes = 4, 8

[bounds]
rank_profiles = 1, 4 ; 2, 8
etas = 0.02
samples = 20000
seed = 0
""")
        out = tmp_path / "out"
        assert self.run(["verify-bounds", "--config", cfg, "--out", out]) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert all(line.endswith(",1") for line in lines[1:])  # all ok


class TestCliExitCodes:
    @pytest.mark.parametrize("via", ["main", "module"])
    @pytest.mark.parametrize("args, message", [
        ([], "the following arguments are required: command"),
        (["train", "--config", "exp.ini", "--out", "o"], "argument command: invalid choice: 'train'"),
        (["finetune", "--out", "o"], "the following arguments are required: --config"),
        (["finetune", "--config", "exp.ini", "--out", "o", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["finetune", "--config", "exp.ini", "--out", "o", "--steps", "3"],
         "unrecognized arguments: --steps 3"),
    ], ids=["no-arguments", "unknown-command", "missing-config", "seed-x", "unknown-flag"])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, via, args, message):
        # argparse's usage and error line, exit 2, and nothing written: not
        # --out, not the default zoft_out
        write_config(tmp_path, TASK + FINETUNE)
        monkeypatch.chdir(tmp_path)
        if via == "main":
            with pytest.raises(SystemExit) as exc:
                cli.main(args)
            code, err = exc.value.code, capsys.readouterr().err
        else:
            proc = run_module(*args, cwd=tmp_path)
            code, err = proc.returncode, proc.stderr
        assert code == 2
        last = err.splitlines()[-1]
        assert last.startswith("zoft") and f"error: {message}" in last, err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["exp.ini"]

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["finetune", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, TASK + "[finetune]\nmode = adam\n")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    def test_config_that_is_not_utf8_names_the_byte(self, tmp_path, capsys):
        # a Latin-1 e-acute in a comment ended in a UnicodeDecodeError traceback
        data = (TASK + FINETUNE).replace("[finetune]", "# caf\xe9\n[finetune]").encode("latin-1")
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(data)
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zoft: config error: ") and err.count("\n") == 1, err
        bad = data.find(b"\xe9")
        assert f"not UTF-8 text: invalid continuation byte at byte {bad}" in err
        assert not (tmp_path / "o").exists()

    def test_empty_seeds_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds =
lr = 0.05
steps = 5
""")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("value", ["1", "3"])
    def test_removed_threads_flag_is_rejected(self, tmp_path, capsys, value):
        # --threads is gone: even a formerly valid count is an unknown argument
        cfg = write_config(tmp_path, TASK + FINETUNE)
        with pytest.raises(SystemExit) as exc:
            cli.main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "o"),
                      "--threads", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_threads_variable_is_ignored(self, tmp_path, monkeypatch):
        # ZOFT_THREADS=abc used to exit 2; now it changes nothing
        cfg = write_config(tmp_path, TASK + FINETUNE)
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("ZOFT_THREADS", "abc")
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    def test_missing_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = finetuner
seeds = 0
lr = 0.05
steps = 5
""")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_checkpoint(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "finetuner.ckpt").write_text("NOT A CHECKPOINT\n")
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = finetuner
seeds = 0
lr = 0.05
steps = 5
""")
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 2

    def test_divergence(self, tmp_path):
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds = 0
lr = 10.0
steps = 500
batch_size = 4
""")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_loss_is_divergence(self, tmp_path):
        # lr=1e155 overflows the loss to inf after one update
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = mezo
seeds = 0
lr = 1e155
steps = 20
batch_size = 4

[sweep]
methods = mezo
seeds = 0
lr_grid = 0.001, 0.01, 1e155
steps = 20
batch_size = 4
""")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "f")]) == 3
        assert cli.main(["sweep-lr", "--config", str(cfg),
                         "--out", str(tmp_path / "s")]) == 0
        flags = (tmp_path / "s" / "sweep_flags.csv").read_text().splitlines()[1:]
        assert [line.split(",")[3] for line in flags][-1] == "diverged"

    def test_checkpoint_for_other_partition_rejected(self, tmp_path, capsys):
        # a checkpoint trained on blocks block0/block1 must not drive the
        # MLP's layer1/layer2 partition, although both have two blocks
        out = tmp_path / "o"
        train = write_config(tmp_path, TASK + TRAIN, name="train.ini")
        assert cli.main(["train-finetuner", "--config", str(train),
                         "--out", str(out)]) == 0
        finetune = write_config(tmp_path, """
[task]
kind = mlp

[finetune]
mode = finetuner
granularity = layer
seeds = 0
lr = 0.05
steps = 5
""", name="finetune.ini")
        assert cli.main(["finetune", "--config", str(finetune),
                         "--out", str(out)]) == 2
        assert "do not match" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_invalid_scales_are_divergence(self, tmp_path, capsys):
        # b2 = -800 makes one block's softplus underflow to a scale of 0
        out = tmp_path / "o"
        train = write_config(tmp_path, TASK + TRAIN, name="train.ini")
        assert cli.main(["train-finetuner", "--config", str(train),
                         "--out", str(out)]) == 0
        ckpt = out / "finetuner.ckpt"
        lines = ckpt.read_text(encoding="utf-8").splitlines()
        hidden = 8
        lines[2 + 1 + hidden + 2] = "-800"  # block0's b2 line
        ckpt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, TASK + """
[finetune]
mode = finetuner
seeds = 0
lr = 0.05
steps = 5

[sweep]
methods = mezo, finetuner
seeds = 0
lr_grid = 0.001, 0.01, 0.1
steps = 5
""", name="run.ini")
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 3
        assert "zoft: divergence" in capsys.readouterr().err
        assert cli.main(["sweep-lr", "--config", str(cfg), "--out", str(out)]) == 0
        flags = [line.split(",")
                 for line in (out / "sweep_flags.csv").read_text().splitlines()[1:]]
        assert {f[3] for f in flags if f[0] == "finetuner"} == {"diverged"}
        assert "diverged" not in {f[3] for f in flags if f[0] == "mezo"}

    def test_meta_training_overflow_is_divergence(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TASK + TRAIN.replace("eta1 = 0.05", "eta1 = 1e200"))
        code = cli.main(["train-finetuner", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "zoft: divergence" in capsys.readouterr().err
        # no meta_log.csv, no checkpoint, not even the out dir
        assert not (tmp_path / "o").exists()

    def test_non_finite_start_loss_is_named_in_meta_training(self, tmp_path, capsys):
        # the start loss overflows to inf before any perturbed loss exists
        sections = clamped("train")
        sections["task"]["init_scale"] = "1e200"
        cfg = write_ini(tmp_path / "train.ini", sections)
        assert cli.main(["train-finetuner", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "zoft: divergence: non-finite value at step 1: non-finite loss inf\n")

    def test_meta_training_diverged_mid_log_leaves_no_log_or_checkpoint(self, tmp_path,
                                                                         capsys):
        # eta1 = 2.5 diverges at outer step 10, after 18 lines of
        # meta_log.csv were written
        sections = clamped("train")
        sections["train"].update(eta1="2.5", steps="40")
        cfg = write_ini(tmp_path / "train.ini", sections)
        out = tmp_path / "sub" / "o"
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 3
        assert "diverged at step 10" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    def test_diverged_meta_training_keeps_an_earlier_run(self, tmp_path):
        # the log is streamed under another name until the run succeeds
        sections = clamped("train")
        out = tmp_path / "o"
        cfg = write_ini(tmp_path / "train.ini", sections)
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        sections["train"].update(eta1="2.5", steps="40")
        cfg = write_ini(tmp_path / "train.ini", sections)
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_checkpoint_write_keeps_an_earlier_run(self, tmp_path, capsys,
                                                          monkeypatch):
        # the checkpoint was written under its own name, so a disk that
        # filled after 5 lines left a 5-line checkpoint in place of the
        # earlier one
        cfg = write_ini(tmp_path / "train.ini", clamped("train"))
        out = tmp_path / "o"
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        lines = pertnn._checkpoint_lines

        def disk_full(params):
            yield from itertools.islice(lines(params), 5)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pertnn, "_checkpoint_lines", disk_full)
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "zoft: config error: [Errno 28] No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("name, files", [
        ("finetune", ["trajectory.csv"]),
        ("compare", ["compare.csv", "summary.txt"]),
        ("sweep", ["sweep_curves.csv", "sweep_flags.csv"]),
        ("ablate", ["ablation.csv"]),
        ("bounds", ["bounds.csv"]),
    ])
    def test_failed_write_keeps_an_earlier_run(self, tmp_path, capsys, monkeypatch, name,
                                               files):
        # each command wrote its files under their own names, so a disk that
        # filled mid-file left a cut file in place of the earlier one; and
        # compare and sweep-lr, whose first file was whole by then, left
        # the new run's first file beside the earlier run's second
        out = tmp_path / "o"
        if name != "bounds":
            train = write_ini(tmp_path / "train.ini", clamped("train"))
            assert cli.main(["train-finetuner", "--config", str(train), "--out", str(out)]) == 0
        cfg = write_ini(tmp_path / f"{name}.ini", clamped(name))
        args = [COMMANDS[name], "--config", str(cfg), "--out", str(out)]
        assert cli.main(args) in (0, 4)
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(files) <= set(before)
        # the disk fills within the last file: after every line of the first
        # of two, and the header of either's last
        room = len(before[files[0]].splitlines()) + 1 if len(files) == 2 else 1
        monkeypatch.setattr(harness, "open", FullDisk(room), raising=False)
        # another seed, so that a file the run completes differs from the earlier one
        assert cli.main(args + ["--seed", "7"]) == 2
        assert capsys.readouterr().err == "zoft: config error: [Errno 28] No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("section, key, value", [
        ("train", "hidden", "0"),  # refused as [train] is read, after the log is opened
        ("task", "init_scale", "1e308"),  # refused at train's start vector
    ])
    def test_meta_training_config_error_makes_no_out_dir(self, tmp_path, capsys,
                                                         section, key, value):
        sections = clamped("train")
        sections[section][key] = value
        cfg = write_ini(tmp_path / "train.ini", sections)
        out = tmp_path / "sub" / "o"
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("zoft: config error: ")
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("name", ["meta_log.csv", "sub/../meta_log.csv",
                                      "./meta_log.csv", "meta_log.csv.part"])
    def test_checkpoint_named_as_the_log_is_refused(self, tmp_path, capsys, name):
        # meta_log.csv overwrote such a checkpoint, and the run exited 0
        sections = clamped("train")
        sections["train"]["checkpoint"] = name
        cfg = write_ini(tmp_path / "train.ini", sections)
        out = tmp_path / "o"
        assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"[train] checkpoint = {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_divergence_keeps_its_reason(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["train-finetuner", "--config",
                         str(write_ini(tmp_path / "train.ini", clamped("train"))),
                         "--out", str(out)]) == 0
        sections = clamped("finetune")
        sections["task"]["init_scale"] = "1e200"
        cfg = write_ini(tmp_path / "finetune.ini", sections)
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "zoft: divergence: finetuner diverged on quad100 seed 0: "
            "non-finite value at step 1: non-finite loss inf\n")

    @pytest.mark.parametrize("task, bounds, names", [
        ("", "rank_profiles = 1,4\netas = 0.02\nsamples = 1\n", "[bounds] samples"),
        ("", "rank_profiles = 1,4\netas = 0.02, -0.01\nsamples = 100\n", "[bounds] etas"),
        ("", "rank_profiles = 1,4\netas =\nsamples = 100\n", "[bounds] etas"),
        ("", "rank_profiles =\netas = 0.02\nsamples = 100\n", "[bounds] rank_profiles"),
        ("", "rank_profiles = 1,4\netas = 1e300\nsamples = 100\n", "[bounds] etas"),
        ("", "rank_profiles = 1,4\netas = 1e-300\nsamples = 100\n", "[bounds] etas"),
        ("shift_scale = 0\n", "rank_profiles = 1,4\netas = 0.02\nsamples = 100\n",
         "[task] shift_scale"),
        ("shift_scale = 1e-300\n", "rank_profiles = 1,4\netas = 0.02\nsamples = 100\n",
         "[task] shift_scale"),
        ("shift_scale = 1e160\n", "rank_profiles = 1,4\netas = 0.02\nsamples = 100\n",
         "[task] shift_scale"),
        ("shift_scale = 1e150\n", "rank_profiles = 1,4\netas = 0.02\nsamples = 100\n",
         "[task] shift_scale"),
    ], ids=["one-sample", "negative-eta", "no-etas", "no-profiles", "huge-eta", "tiny-eta",
            "zero-shift", "tiny-shift", "nan-bounds", "inf-stderr"])
    def test_bad_verify_bounds_input(self, tmp_path, capsys, task, bounds, names):
        # one sample has no stderr, so every check passed vacuously; a
        # negative eta was a traceback; no etas or profiles wrote a
        # header-only bounds.csv; a step size whose square overflows
        # (OverflowError), or a bound whose quadratic term is 0 everywhere
        # (DegenerateBoundError) was a traceback; a shift so large that the
        # bounds are nan, or that the Monte-Carlo stderr is infinite, passed
        # every check and exited 0
        cfg = write_config(tmp_path, "[task]\nblock_sizes = 4, 8\n" + task + "\n[bounds]\n"
                           "seed = 0\n" + bounds)
        out = tmp_path / "o"
        assert cli.main(["verify-bounds", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zoft: config error" in err and names in err
        if "e300" in bounds or task:
            assert "rank profile 1|4" in err
        assert "Traceback" not in err
        assert not (out / "bounds.csv").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("section, key, value", [
        ("train", "eta1", "1e3"), ("train", "eta2", "1e300"),
        ("task", "init_scale", "1e3"), ("task", "noise_tau", "1e300"),
    ])
    def test_invalid_scales_in_meta_training_are_divergence(self, tmp_path, capsys,
                                                            command, section, key, value):
        # each drives the network to a scale of 0 or an overflowing budget at
        # meta-step 1, which was an InvalidScaleError traceback
        sections = clamped(command)
        sections[section][key] = value
        cfg = write_ini(tmp_path / "exp.ini", sections)
        code = cli.main([COMMANDS[command], "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert "zoft: divergence: invalid scales at step 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, section, key, value, code, line", [
        ("train", "train", "eta2", "1e300", 3, "zoft: divergence: invalid scales at step 1"),
        ("bounds", "bounds", "etas", "1e100", 2, "zoft: config error: "),
    ], ids=["eta2-1e300", "etas-1e100"])
    def test_stderr_holds_only_the_error_line(self, tmp_path, command, section, key, value,
                                              code, line):
        # numpy RuntimeWarnings printed ahead of the error line; pytest
        # captures warnings in process, so the command runs in its own
        sections = clamped(command)
        sections[section][key] = value
        cfg = write_ini(tmp_path / "exp.ini", sections)
        proc = run_module(COMMANDS[command], "--config", cfg, "--out", tmp_path / "o")
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(line), proc.stderr

    def test_checkpoint_that_is_a_directory(self, tmp_path, capsys):
        # reading it was an IsADirectoryError traceback
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        cfg = write_config(tmp_path, TASK + FINETUNE.replace("mode = mezo", "mode = finetuner")
                           + "checkpoint = sub\n")
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zoft: config error" in err and "Is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, section", [
        ("finetune", "[finetune]\nmode = mezo\nseeds = 0\nlr = -0.05\nsteps = 3\n"),
        ("compare", "[compare]\nmethods = mezo\nseeds = 0\nlr_grid = 0.01, -0.05\n"
                    "steps = 3\n"),
        ("compare", "[compare]\nmethods = mezo\nseeds = 0\nlr_grid =\nsteps = 3\n"),
        ("sweep-lr", "[sweep]\nmethods = mezo\nseeds = 0\nlr_grid = 0.001, 0.01, -0.1\n"
                     "steps = 3\n"),
        ("sweep-lr", "[sweep]\nmethods = mezo\nseeds = 0\nlr_grid = 0.001, 0.01, nan\n"
                     "steps = 3\n"),
        ("ablate", TRAIN + "[ablate]\naxes = reset\nseeds = 0\nlr = -0.05\nsteps = 3\n"),
    ], ids=["finetune", "compare", "compare-empty", "sweep-lr", "sweep-lr-nan", "ablate"])
    def test_bad_learning_rate(self, tmp_path, capsys, monkeypatch, command, section):
        # a config error before any meta-training or fine-tuning starts
        def never(*args, **kwargs):
            raise AssertionError("ran before the learning rates were checked")

        monkeypatch.setattr(harness, "_meta_train", never)
        monkeypatch.setattr(harness, "run_population", never)
        cfg = write_config(tmp_path, TASK + section)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "zoft: config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, flags", [
        ("verify-bounds", BOUNDS.replace("seed = 0", "seed = -1"), []),
        ("finetune", TASK.replace("seed = 0", "seed = -1") + FINETUNE, []),
        ("train-finetuner", TASK + TRAIN.replace("seed = 0", "seed = -1"), []),
        ("finetune", TASK + FINETUNE.replace("seeds = 0", "seeds = 0, -2"), []),
        ("compare", TASK + "[compare]\nmethods = mezo\nseeds = -1\nlr_grid = 0.01\n"
                    "steps = 3\n", []),
        ("sweep-lr", TASK + "[sweep]\nmethods = mezo\nseeds = -1\n"
                     "lr_grid = 0.001, 0.01, 0.1\nsteps = 3\n", []),
        ("ablate", TASK + TRAIN + "[ablate]\naxes = reset\nseeds = -1\nlr = 0.05\n"
                   "steps = 3\n", []),
        ("finetune", TASK + FINETUNE, ["--seed", "-4"]),
    ], ids=["bounds-seed", "task-seed", "train-seed", "finetune-seeds", "compare-seeds",
            "sweep-seeds", "ablate-seeds", "seed-flag"])
    def test_negative_seed(self, tmp_path, capsys, command, text, flags):
        # numpy's seeding rejected these with a ValueError traceback
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert "zoft: config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, names", [
        ("finetune", TASK.replace("opnorms = 1.0, 1.0", "opnorms = 1.0, inf") + FINETUNE,
         "[task] opnorms"),
        ("verify-bounds", BOUNDS.replace("block_sizes = 4, 8",
                                         "block_sizes = 4, 8\nopnorms = 1, inf"),
         "[task] opnorms"),
        ("finetune", TASK + "init_scale = nan\n" + FINETUNE, "[task] init_scale"),
        ("finetune", TASK + "noise_tau = -1\n" + FINETUNE, "[task] noise_tau"),
        ("finetune", TASK + FINETUNE.replace("steps = 3", "steps = -3"), "[finetune] steps"),
        ("finetune", TASK + FINETUNE + "epsilon = 0\n", "[finetune] epsilon"),
        ("finetune", TASK + FINETUNE + "batch_size = 0\n", "[finetune] batch_size"),
        ("finetune", TASK.replace("block_sizes = 4, 4", "block_sizes = 0, 16") + FINETUNE,
         "[task] block_sizes"),
        ("verify-bounds", BOUNDS.replace("block_sizes = 4, 8", "block_sizes = 0, 16"),
         "[task] block_sizes"),
        ("train-finetuner", TASK + TRAIN.replace("hidden = 8", "hidden = 0"), "[train] hidden"),
        ("train-finetuner", TASK + TRAIN.replace("tasks = 2", "tasks = 0"), "[train] tasks"),
        ("compare", TASK + "[compare]\nmethods = mezo\nseeds = 0\nlr_grid = 0.01\n"
                    "steps = 3\ntasks = 0\n", "[compare] tasks"),
        ("compare", TASK + "[compare]\nmethods = mezo\nseeds = 0\nlr_grid = 0.01\n"
                    "steps = 3\ntask_start = -5\n", "[compare] task_start"),
        ("finetune", TASK + FINETUNE + "task_index = -1\n", "[finetune] task_index"),
        ("sweep-lr", TASK + SWEEP + "task_index = -1\n", "[sweep] task_index"),
        ("ablate", TASK + TRAIN + ABLATE + "task_index = -1\n", "[ablate] task_index"),
        ("compare", TASK + COMPARE.replace("methods = mezo", "methods = foo, mezo"),
         "[compare] methods"),
        ("compare", TASK + COMPARE.replace("methods = mezo", "methods ="),
         "[compare] methods"),
        ("sweep-lr", TASK + SWEEP.replace("methods = mezo", "methods = foo, mezo"),
         "[sweep] methods"),
        ("sweep-lr", TASK + SWEEP.replace("methods = mezo", "methods ="), "[sweep] methods"),
        ("finetune", MLP + "n_in = 0\n" + FINETUNE, "[task] n_in"),
        ("finetune", MLP + "n_hidden = 0\n" + FINETUNE, "[task] n_hidden"),
        ("finetune", MLP + "n_out = 0\n" + FINETUNE, "[task] n_out"),
        ("finetune", MLP + "n_samples = 0\n" + FINETUNE, "[task] n_samples"),
        ("train-finetuner", TASK + "shift_scale = nan\n" + TRAIN, "[task] shift_scale"),
        ("verify-bounds", BOUNDS.replace("block_sizes = 4, 8",
                                         "block_sizes = 4, 8\nshift_scale = nan"),
         "[task] shift_scale"),
        ("train-finetuner", TASK + TRAIN.replace("batch_size = 4", "batch_size = 0"),
         "[train] batch_size"),
        ("compare", TASK + COMPARE + "threshold = nan\n", "[compare] threshold"),
        ("sweep-lr", TASK + SWEEP + "plateau_ratio = nan\n", "[sweep] plateau_ratio"),
        ("compare", TASK + COMPARE + "final_window = 0\n", "[compare] final_window"),
        ("finetune", TASK.replace("ranks = 2.0, 3.0", "ranks = 2.0, 9.0") + FINETUNE,
         "[task] ranks: rank 9 of block 1"),
        ("verify-bounds", BOUNDS.replace("rank_profiles = 1, 4", "rank_profiles = 1, 4; 9, 4"),
         "[bounds] rank_profiles profile '9, 4': rank 9 of block 0"),
    ], ids=["opnorms-inf", "bounds-opnorms-inf", "init-scale-nan", "negative-noise-tau",
            "negative-steps", "zero-epsilon", "zero-batch-size", "zero-block-size",
            "bounds-zero-block-size", "zero-hidden", "zero-train-tasks", "zero-compare-tasks",
            "negative-task-start", "finetune-negative-task-index",
            "sweep-negative-task-index", "ablate-negative-task-index",
            "compare-unknown-method", "compare-no-methods", "sweep-unknown-method",
            "sweep-no-methods", "mlp-zero-n-in", "mlp-zero-n-hidden", "mlp-zero-n-out",
            "mlp-zero-n-samples", "train-shift-scale-nan", "bounds-shift-scale-nan",
            "train-zero-batch-size", "threshold-nan", "plateau-ratio-nan",
            "zero-final-window", "infeasible-rank", "infeasible-rank-profile"])
    def test_bad_task_or_run_number(self, tmp_path, capsys, monkeypatch, command, text,
                                    names):
        # unchecked, these diverge (exit 3), write nan bounds (exit 0), run
        # silently (exit 0) or raise a traceback (exit 1); each must be a
        # config error naming its section and key before any run
        def never(*args, **kwargs):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr(harness, "run_population", never)
        monkeypatch.setattr(harness.bounds_mod, "verify_bound", never)
        monkeypatch.setattr(harness.meta_trainer, "train", never)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "zoft: config error" in err and names in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, section", [
        ("compare", "compare"), ("sweep", "sweep"), ("ablate", "ablate"),
    ])
    def test_zero_steps_is_refused_where_final_losses_are_ranked(
            self, tmp_path, capsys, monkeypatch, name, section):
        # with 0 steps every final loss was inf and the command exited 0:
        # sweep-lr flagged each run converged, compare printed median_final
        # inf, ablate wrote inf in every cell
        def never(*args, **kwargs):
            raise AssertionError("ran before the config was checked")

        monkeypatch.setattr(harness, "run_population", never)
        monkeypatch.setattr(harness.meta_trainer, "train", never)
        sections = clamped(name)
        sections[section]["steps"] = "0"
        cfg = write_ini(tmp_path / "exp.ini", sections)
        out = tmp_path / "o"
        assert cli.main([COMMANDS[name], "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] steps='0' must be finite and >= 1" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["train", "finetune"])
    def test_zero_steps_still_runs_where_nothing_is_ranked(self, tmp_path, name):
        # an untrained network's checkpoint is a 0-step train
        sections = clamped(name)
        sections[name]["steps"] = "0"
        if name == "finetune":
            sections[name]["mode"] = "mezo"  # reads no checkpoint
        cfg = write_ini(tmp_path / "exp.ini", sections)
        assert cli.main([COMMANDS[name], "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 0

    def test_undeclared_key_is_rejected(self, tmp_path, capsys):
        # a typo used to run silently with the default epsilon of 1e-3, and a
        # network trained unnormalized was deployed normalized
        for command, text, message in [
            ("finetune", TASK + FINETUNE + "epsilion = 0.01\n",
             "[finetune] has no key 'epsilion'"),
            ("train-finetuner", TASK + TRAIN + "normalize = no\n",
             "[train] has no key 'normalize'"),
        ]:
            cfg = write_config(tmp_path, text)
            out = tmp_path / "o"
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("zoft:") and message in line, line
            assert not out.exists()

    def test_bound_violation_return_code(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "[task]\nkind = quadratic\nblock_sizes = 4\n")
        monkeypatch.setitem(cli._COMMANDS, "verify-bounds",
                            lambda *a, **k: 4)
        assert cli.main(["verify-bounds", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 4


class TestSweep:
    def test_grid_validation(self, tmp_path):
        cfg = load_config(tmp_path, TASK + """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.01, 0.05
steps = 5
""")
        with pytest.raises(ConfigError, match="lr_grid"):
            cmd_sweep_lr(cfg, tmp_path / "o")
        cfg2 = load_config(tmp_path, TASK + """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.01, 0.05, 0.2
steps = 5
""")
        with pytest.raises(ConfigError, match="lr_grid"):
            cmd_sweep_lr(cfg2, tmp_path / "o")

    def test_span_counts_positive_rates_only(self, tmp_path):
        # 0.0 would make any grid span "two orders of magnitude"
        cfg = load_config(tmp_path, TASK + """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.0, 0.001, 0.002
steps = 5
""")
        with pytest.raises(ConfigError, match="lr_grid"):
            cmd_sweep_lr(cfg, tmp_path / "o")
        cfg2 = load_config(tmp_path, TASK + """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.0, 0.001, 0.1
steps = 5
""")
        assert cmd_sweep_lr(cfg2, tmp_path / "o") == 0
        flags = (tmp_path / "o" / "sweep_flags.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in flags[1:]] == ["0", "0.001", "0.1"]

    def test_negative_zero_rate_prints_as_zero(self, tmp_path):
        # -0 is the rate-0 run, so both grids write the same bytes
        outputs = []
        for zero in ("-0", "0"):
            cfg = write_config(tmp_path, TASK + f"""
[sweep]
methods = mezo, finetuner
seeds = 0
lr_grid = {zero}, 0.002, 0.2
steps = 5
""" + TRAIN, name=f"sweep{zero}.ini")
            out = tmp_path / f"out{zero}"
            assert cli.main(["train-finetuner", "--config", str(cfg), "--out", str(out)]) == 0
            assert cli.main(["sweep-lr", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep_flags.csv", "sweep_curves.csv")])
        assert outputs[0] == outputs[1]
        assert b"mezo,0,0," in outputs[0][0] and b"-0" not in outputs[0][0]

    def test_flags_cover_regimes(self, tmp_path):
        cfg = load_config(tmp_path, TASK + """
[sweep]
methods = mezo
seeds = 0
lr_grid = 0.0001, 0.05, 10.0
steps = 60
batch_size = 4
""")
        out = tmp_path / "out"
        assert cmd_sweep_lr(cfg, out) == 0
        lines = (out / "sweep_flags.csv").read_text().splitlines()
        assert lines[0] == "method,lr,seed,flag,final_mean"
        flags = {line.split(",")[3] for line in lines[1:]}
        assert flags == {"plateaued", "converged", "diverged"}
        curves = (out / "sweep_curves.csv").read_text().splitlines()
        assert curves[0] == RUN_ROW_HEADER
        # the diverged run contributes no trajectory rows
        assert len(curves) == 1 + 60 * 2


class TestAblate:
    def test_unknown_axis(self, tmp_path):
        cfg = load_config(tmp_path, TASK + TRAIN + """
[ablate]
axes = reset, dropout
seeds = 0
steps = 5
lr = 0.05
""")
        with pytest.raises(ConfigError, match="dropout"):
            cmd_ablate(cfg, tmp_path / "o")

    def test_partition_axis_needs_mlp(self, tmp_path):
        cfg = load_config(tmp_path, TASK + TRAIN + """
[ablate]
axes = partition
seeds = 0
steps = 5
lr = 0.05
""")
        with pytest.raises(ConfigError, match="mlp"):
            cmd_ablate(cfg, tmp_path / "o")

    def test_partition_axis_stands_alone(self, tmp_path, capsys):
        # with reset and normalization beside it, an mlp ablation ran the
        # two partition cells only and exited 0
        cfg = write_config(tmp_path, MLP + TRAIN + ABLATE.replace(
            "axes = reset", "axes = partition, reset, normalization"))
        out = tmp_path / "o"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "zoft: config error: [ablate] axes = partition, reset, normalization: partition "
            "must be the only axis, since reset and normalization need a quadratic family\n")
        assert not out.exists()

    @pytest.mark.parametrize("task, axes", [(TASK, "reset, normalization"),
                                            (MLP, "partition")],
                             ids=["reset-normalization", "partition"])
    def test_runs_record_no_scales(self, tmp_path, monkeypatch, task, axes):
        # ablation.csv prints each run's final loss, never a step's loss or
        # scale
        cfg = load_config(tmp_path, task + TRAIN + ABLATE.replace("axes = reset",
                                                                  f"axes = {axes}")
                          + "final_window = 0.4\n")
        kept = []

        def recorded(*args):
            recorder = args[-1]
            kept.append((type(recorder), recorder.threshold, recorder.window))
            return run_population(*args)

        monkeypatch.setattr(harness, "run_population", recorded)
        assert cmd_ablate(cfg, tmp_path / "out") == 0
        assert kept == [(RaceRecorder, 0.5, 0.4)] * (2 if axes == "partition" else 4)

    def test_reset_normalization_grid(self, tmp_path):
        cfg = load_config(tmp_path, TASK + TRAIN + """
[ablate]
axes = reset, normalization
seeds = 0
steps = 15
lr = 0.05
batch_size = 4
""")
        out = tmp_path / "out"
        assert cmd_ablate(cfg, out) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "cell,seed,final_loss"
        cells = [line.split(",")[0] for line in lines[1:]]
        assert cells == [
            "reset=on+norm=on", "reset=on+norm=off",
            "reset=off+norm=on", "reset=off+norm=off",
        ]
