import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zoft
from zoft import cli, harness
from zoft.config import ExperimentConfig
from zoft.errors import ConfigError, DivergenceError
from zoft.harness import (
    RUN_ROW_HEADER,
    RunResult,
    _sorted_rows,
    cmd_ablate,
    cmd_sweep_lr,
)
from zoft.zo_optimizer import Trajectory, run_population

from test_cli_fuzz import COMMANDS, clamped, write_ini

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


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_config(tmp_path, text):
    return ExperimentConfig.load(write_config(tmp_path, text))


def fake_result(losses, lr=0.1, diverged=False):
    n = len(losses)
    traj = Trajectory(np.array(losses, dtype=float), np.ones((n, 2)))
    outcome = DivergenceError("loss exceeded") if diverged else traj
    return RunResult("mezo", "quad0", 0, lr, outcome, 0.0)


class TestRunResult:
    def test_final_window_mean(self):
        r = fake_result([10.0] * 18 + [4.0, 2.0])
        assert r.final_window_mean(0.1) == pytest.approx(3.0)

    def test_final_window_mean_diverged(self):
        assert fake_result([1.0], diverged=True).final_window_mean() == float("inf")

    def test_steps_to_threshold(self):
        r = fake_result([8.0, 6.0, 3.9, 1.0])
        assert r.steps_to_threshold(0.5) == 3

    def test_steps_to_threshold_never(self):
        r = fake_result([8.0, 7.0, 6.0])
        assert r.steps_to_threshold(0.5) is None


class TestRowSorting:
    def test_sorted_numerically_not_lexically(self):
        rows = [
            "e,mezo,quad0,10,0.1,2,1,0,1,1,1",
            "e,mezo,quad0,2,0.1,1,1,0,1,1,1",
            "e,mezo,quad0,2,0.02,10,1,0,1,1,1",
            "e,mezo,quad0,2,0.02,9,1,0,1,1,1",
        ]
        out = _sorted_rows(rows)
        assert out[0].split(",")[4] == "0.02" and out[0].split(",")[5] == "9"
        assert out[-1].split(",")[3] == "10"


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

        def counted(models, lrs, config, pertnn=None, learned=None):
            calls.append((config.seed, list(learned)))
            return run_population(models, lrs, config, pertnn, learned)

        monkeypatch.setattr(harness, "run_population", counted)
        assert self.run(["compare", "--config", cfg, "--out", out]) == 0
        assert calls == [(seed, ([False] * 2 + [True] * 2) * 2) for seed in (0, 1)]

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
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["finetune", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, TASK + "[finetune]\nmode = adam\n")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

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

    def test_non_finite_start_loss_is_named_in_meta_training(self, tmp_path, capsys):
        # the start loss overflows to inf before any perturbed loss exists
        sections = clamped("train")
        sections["task"]["init_scale"] = "1e200"
        cfg = write_ini(tmp_path / "train.ini", sections)
        assert cli.main(["train-finetuner", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "zoft: divergence: non-finite value at step 1: non-finite loss inf\n")

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
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(zoft.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "zoft.cli", COMMANDS[command], "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120)
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

    def test_undeclared_key_is_rejected(self, tmp_path, capsys):
        # a typo used to run silently with the default epsilon of 1e-3
        cfg = write_config(tmp_path, TASK + FINETUNE + "epsilion = 0.01\n")
        out = tmp_path / "o"
        assert cli.main(["finetune", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[finetune] has no key 'epsilion'" in capsys.readouterr().err
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
