"""Memory that does not grow with the step count.

A run keeps its parameters, its output columns (a race's runs: their final
windows) and O(chunk) scratch.  Each test measures the tracemalloc peak of a
short and a long run and bounds the difference by the bytes of what the
longer run keeps, plus a small slack for allocator noise.  At large d, a
loss call keeps a few pieces of scratch above the parameters, never a
d-sized temporary, a step no more than a loss call, and a meta-step keeps
four parameter vectors.  A command builds no command-line parser, and its
peak does not depend on when the collector runs.
"""

import argparse
import gc
import hashlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zoft import cli, pertnn
from zoft.errors import CheckpointError
from zoft.harness import _write_lines
from zoft.meta_trainer import MetaConfig, train
from zoft.paramspace import _CHUNK, BlockPartition, NoiseSeed, ParamVector
from zoft.testbeds import QuadraticFamily, make_rank_family
from zoft.zo_optimizer import (
    OptState,
    RunRecord,
    ZOConfig,
    final_window,
    run_population,
    step,
)

from test_cli_fuzz import clamped, write_ini
from test_pertnn import assert_round_trip, write_checkpoint

SLACK = 8 * 1024
CONFIGS = Path(__file__).parents[1] / "demos" / "configs"


def race_family():
    return QuadraticFamily(
        block_sizes=(48, 16), ranks=(48.0, 16.0), opnorms=(1.0, 0.05),
        shift_scale=1.0, init_scale=(0.204, 1.58), seed=0,
    )


def clear_package_caches() -> None:
    """Empty every functools cache of the zoft modules, so a run fills them
    the way it would in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name != "zoft" and not name.startswith("zoft."):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", None) == name:
                value.cache_clear()


def traced_peak(fn) -> int:
    """The tracemalloc peak of fn() over the memory traced when it starts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def peak_growth(run, short: int, long: int) -> int:
    """traced_peak of run(long) minus that of run(short).  run(short) runs
    once first, so lazy state that any run fills is in place before either
    measurement."""
    clear_package_caches()
    run(short)
    short_peak = traced_peak(lambda: run(short))
    return traced_peak(lambda: run(long)) - short_peak


class TestMemoryGrowth:
    def test_population_grows_by_its_final_windows(self):
        # 2 tasks x 3 learning rates in finetuner mode, as compare runs them:
        # each row keeps its last final_window losses.  Keeping every step's
        # loss and scales grew by 6 x 3 x 8 B a step
        family = race_family()
        tasks = family.make_tasks(2)
        net = pertnn.init(tasks[0].partition, 8, NoiseSeed(0))
        models = [task for task in tasks for _ in range(3)]
        lrs = [0.02, 0.05, 0.08] * 2

        def run(steps):
            return run_population(
                models, lrs, ZOConfig(steps=steps, mode="finetuner", seed=11), net)

        short, long = 100, 800
        windows = len(models) * (final_window(0.1, long) - final_window(0.1, short)) * 8
        assert peak_growth(run, short, long) <= windows + SLACK

    def test_mixed_population_grows_by_its_final_windows(self):
        # 2 tasks x {mezo, finetuner} x 3 learning rates, as compare runs
        # them.  Keeping every step's loss, and the scales of the learned
        # rows, grew by (12 + 6 x 2) x 8 B a step
        family = race_family()
        tasks = family.make_tasks(2)
        net = pertnn.init(tasks[0].partition, 8, NoiseSeed(0))
        models = [task for task in tasks for _ in range(6)]
        learned = ([False] * 3 + [True] * 3) * 2
        lrs = [0.02, 0.05, 0.08] * 4

        def run(steps):
            return run_population(models, lrs, ZOConfig(steps=steps, mode="finetuner",
                                                         seed=11), net, learned)

        short, long = 100, 800
        windows = len(models) * (final_window(0.1, long) - final_window(0.1, short)) * 8
        assert peak_growth(run, short, long) <= windows + SLACK
        for outcome in run(20):
            assert type(outcome) is RunRecord and outcome.tail.shape == (2,)

    def test_finetune_grows_by_four_numbers_a_step(self, tmp_path):
        # one finetuner row on 256 blocks: trajectory.csv prints each step's
        # loss and its scales' min, median and max, and the run keeps those
        # four numbers a step.  Keeping every step's scales until the file
        # was written grew by about 4.1 KB a step
        sizes = [4, 16] * 128
        sections = clamped("finetune")
        sections["task"] = {"kind": "quadratic", "seed": "0",
                            "block_sizes": ", ".join(map(str, sizes)),
                            "ranks": ", ".join(["1.0"] * len(sizes)),
                            "opnorms": ", ".join(["1.0"] * len(sizes))}
        sections["finetune"].update(seeds="0", lr="0.001")
        task = QuadraticFamily(block_sizes=tuple(sizes), ranks=(1.0,) * len(sizes),
                               opnorms=(1.0,) * len(sizes)).make_task(0)
        write_checkpoint(pertnn.init(task.partition, 4, NoiseSeed(0)),
                         tmp_path / sections["finetune"]["checkpoint"])

        def run(steps):
            sections["finetune"]["steps"] = str(steps)
            path = write_ini(tmp_path / "finetune.ini", sections)
            assert cli.main(["finetune", "--config", str(path), "--out", str(tmp_path)]) == 0

        short, long = 50, 300
        assert peak_growth(run, short, long) <= (long - short) * 40 + SLACK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + long and len(set(lines[1:])) == long

    def test_compare_grows_by_its_final_windows(self, tmp_path):
        # race-small's compare in one population: 2 tasks x {mezo,
        # finetuner} x 3 learning rates.  Each run keeps its last
        # final_window x steps losses; a (T,) loss column per run grew by
        # 12 x 8 B a step
        train = clamped("train")
        assert cli.main(["train-finetuner", "--config",
                         str(write_ini(tmp_path / "train.ini", train)), "--out",
                         str(tmp_path)]) == 0
        race = clamped("compare")
        race["compare"].update(tasks="2", seeds="0")

        def run(steps):
            race["compare"]["steps"] = str(steps)
            path = write_ini(tmp_path / "compare.ini", race)
            assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 0

        short, long = 100, 1600
        windows = 12 * (final_window(0.1, long) - final_window(0.1, short)) * 8
        assert peak_growth(run, short, long) <= windows + SLACK

    def test_compare_writes_what_it_wrote_with_scales_recorded(self, tmp_path):
        # demos/configs/compare.ini after train.ini, as recorded when every
        # run kept its per-step scales
        for command, name in (("train-finetuner", "train.ini"), ("compare", "compare.ini")):
            args = [command, "--config", str(CONFIGS / name), "--out", str(tmp_path)]
            assert cli.main(args) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("compare.csv", "summary.txt")}
        assert digests == {
            "compare.csv": "4d0d13004a4511d73d01d083134340b2abc80e67a9ee08ab0c080a7f70c27263",
            "summary.txt": "757e948258c7fe06b7a3498028d77161863765ba1dd215ea2845c4bb71da358b",
        }

    def test_meta_training_grows_by_its_log_columns(self):
        tasks = race_family().make_tasks(2)
        net = pertnn.init(tasks[0].partition, 8, NoiseSeed(0))

        def run(steps):
            config = MetaConfig(eta1=0.05, eta2=0.05, steps=steps, reset_period=50,
                                seed=0)
            return train(config, tasks, net)

        short, long = 50, 400
        _, log = run(1)
        # the outer step is the entry's position, not a column
        per_entry = sum(column.itemsize
                        for column in (log.task, log.l_zo, log.loss, log.reset))
        columns = len(tasks) * (long - short) * per_entry
        assert peak_growth(run, short, long) <= columns + SLACK

    def test_train_finetuner_is_flat_in_its_steps(self, tmp_path):
        # demos/configs/train.ini's 8 tasks: meta_log.csv's lines go to the
        # file as each inner step ends.  Keeping the log's columns and
        # writing them at the end grew by 41 B an inner step
        sections = clamped("train")
        sections["train"]["tasks"] = "8"

        def run(steps):
            sections["train"]["steps"] = str(steps)
            path = write_ini(tmp_path / "train.ini", sections)
            assert cli.main(["train-finetuner", "--config", str(path), "--out",
                             str(tmp_path)]) == 0

        assert peak_growth(run, 50, 400) <= SLACK

    def test_ablate_is_flat_in_its_train_steps(self, tmp_path):
        # each cell's meta-training writes no log, so it keeps none: a log
        # of every inner step grew by about 50 B an inner step
        sections = clamped("ablate")
        sections["train"]["tasks"] = "8"
        sections["ablate"]["axes"] = "reset"

        def run(steps):
            sections["train"]["steps"] = str(steps)
            path = write_ini(tmp_path / "ablate.ini", sections)
            assert cli.main(["ablate", "--config", str(path), "--out",
                             str(tmp_path)]) == 0

        assert peak_growth(run, 50, 400) <= SLACK

    def test_write_lines_streams_a_generator(self, tmp_path):
        def lines(n):
            for k in range(n):
                yield f"{k},task_{k % 7},{k * 0.1234567:.12g},{k / 3:.12g},{k % 2}"

        path = tmp_path / "lines.csv"
        _write_lines(path, lines(10))
        peak = traced_peak(lambda: _write_lines(path, lines(20_000)))
        assert path.read_bytes() == "".join(f"{line}\n" for line in lines(20_000)).encode()
        # a few KB of file buffer, against the text's 757 KB
        assert peak <= 16 * 1024

    def test_checkpoint_is_written_a_line_at_a_time(self, tmp_path):
        # 64 blocks of hidden width 64: 596 KB of text
        partition = BlockPartition([(f"block{i}", 10) for i in range(64)])
        net = pertnn.init(partition, 64, NoiseSeed(0))
        path = tmp_path / "finetuner.ckpt"
        assert_round_trip(net, path)
        peak = traced_peak(lambda: write_checkpoint(net, path))
        # a few KB of file buffer, against the text's 596 KB; building the
        # text whole peaked at 3.4x the file
        assert peak <= 2 * SLACK

    def test_checkpoint_is_read_a_line_at_a_time(self, tmp_path):
        # 64 blocks of hidden width 64: 596 KB of text, 230 KB of weights
        partition = BlockPartition([(f"block{i}", 10) for i in range(64)])
        net = pertnn.init(partition, 64, NoiseSeed(0))
        path = tmp_path / "finetuner.ckpt"
        write_checkpoint(net, path)
        pertnn.load(path, net.block_names)
        peak = traced_peak(lambda: pertnn.load(path, net.block_names))
        weights = sum(array.nbytes for array in net.arrays)
        # the weights, one line and a file buffer; reading the text whole
        # and stacking per-block lists peaked at 6.3x the weights
        assert peak <= 1.5 * weights

    def test_checkpoint_header_cannot_ask_for_more_than_the_file_holds(self, tmp_path):
        # 2 blocks of hidden width 2 in 674 bytes, whose header declares
        # 100,000 blocks: allocating them from the header peaked at 13.6 MB
        net = pertnn.init(BlockPartition([("block0", 3), ("block1", 5)]), 2, NoiseSeed(0))
        path = tmp_path / "finetuner.ckpt"
        write_checkpoint(net, path)
        path.write_bytes(path.read_bytes().replace(b"blocks=2 ", b"blocks=100000 ", 1))
        size = path.stat().st_size
        errors = []

        def load():
            with pytest.raises(CheckpointError) as info:
                pertnn.load(path, net.block_names)
            errors.append(str(info.value))

        assert traced_peak(load) < 64 * 1024
        assert errors == [f"{path}: header declares 100000 blocks of width 2, more weights "
                          f"than a file of {size} bytes holds"]


class TestLargeDimension:
    def test_loss_and_step_keep_chunks_not_parameter_copies(self):
        # d = 200,000: one block of several chunks and one of several dot
        # pieces; a d-sized temporary is 6.1 chunks
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 seed=0)
        net = pertnn.init(model.partition, 8, NoiseSeed(0))
        theta = ParamVector(model.init_theta(0), model.partition)
        config = ZOConfig(steps=2, mode="finetuner", seed=0)
        state = OptState()
        step(theta, state, 1, config, model.loss, 1e-5, net)
        chunk = 8 * _CHUNK
        # two dot pieces of scratch
        assert traced_peak(lambda: model.loss(theta.values, 2)) <= chunk
        # the walk's piece of noise and piece of moves, block_stats' piece
        # of deviations freed before the walk (see the test below)
        assert traced_peak(lambda: step(theta, state, 2, config, model.loss, 1e-5,
                                        net)) <= 3 * chunk

    @pytest.mark.parametrize("rows", [0, 3], ids=["vector", "three-rows"])
    def test_a_step_peaks_at_one_loss_call(self, rows):
        # above one chunk the walk draws a piece of z and forms a piece of
        # moves per row, and block_stats forms a piece of deviations per
        # row, so no stage of a step holds more scratch than a loss call's
        # two pieces per row.  A walk that drew a chunk of z and formed a
        # chunk of moves per row peaked at 4x (vector) and 2.7x (three rows)
        # a loss call
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 seed=0)
        net = pertnn.init(model.partition, 8, NoiseSeed(0))
        start = model.init_theta(0)
        theta = ParamVector(np.stack([start] * rows) if rows else start, model.partition)
        lrs = np.full(rows, 1e-5) if rows else 1e-5
        config = ZOConfig(steps=2, mode="finetuner", seed=0)
        state = OptState()
        step(theta, state, 1, config, model.loss, lrs, net)
        loss_peak = traced_peak(lambda: model.loss(theta.values, 2))
        assert traced_peak(lambda: step(theta, state, 2, config, model.loss, lrs,
                                        net)) <= loss_peak + SLACK

    def test_meta_training_keeps_four_parameter_vectors(self):
        # theta, the step's draw z, u and one argument buffer; then theta,
        # z, the buffer at theta1 and its gradient.  Forming u, epsilon * u
        # and theta1 as temporaries and keeping a copy of the start for the
        # reset peaked at 6.01x; this peaks at 4.09x, the rest being the
        # pieced loss's scratch
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 seed=0)
        net = pertnn.init(model.partition, 8, NoiseSeed(0))
        # a reset after the second meta-step
        config = MetaConfig(eta1=1e-3, eta2=1e-3, steps=3, reset_period=2, seed=0)

        def run():
            return train(config, [model], net)

        run()
        assert traced_peak(run) <= 4.1 * 8 * model.partition.total

    def test_a_task_holds_its_spectrum_and_optimum_only(self):
        # d = 1e6 over blocks of one per-block init sigma each: a per-coordinate
        # sigma was a third d-sized array
        sizes = [600_000, 300_000, 99_990, 10]
        held = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held.append(make_rank_family(sizes, [100.0, 50.0, 20.0, 2.0], [1.0] * 4,
                                         init_scale=(0.5, 1.0, 2.0, 4.0), seed=0))
            held.append(make_rank_family(sizes, [100.0, 50.0, 20.0, 2.0], [1.0] * 4,
                                         init_scale=1.0, seed=0))
            held_bytes = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # small objects: the partition, whose plan of 31 noise spans is
        # about 10 KB, and the task's own fields
        assert held_bytes <= len(held) * (2 * 8 * sum(sizes) + 2 * SLACK)

    def test_a_wide_rank_task_holds_one_parameter_vector(self):
        # d = 1e6: the optimum, and the spectrum as two numbers per block.  A
        # (d,) spectrum was a second parameter-sized vector
        sizes = [600_000, 300_000, 99_990, 10]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = make_rank_family(sizes, [100.0, 50.0, 20.0, 2.0], [1.0] * 4, seed=0)
            held_bytes = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # small objects: the partition, whose plan of 31 noise spans is
        # about 10 KB, and the task's own fields
        assert held_bytes <= 8 * model.dim + 2 * SLACK

    @pytest.mark.parametrize("noise_tau", [0.0, 0.5], ids=["noise-free", "noisy"])
    def test_a_wide_rank_gradient_is_one_parameter_vector(self, noise_tau):
        # the gradient is its delta vector, scaled block by block in place:
        # no d-sized spectrum is formed for it, and the batch noise is added
        # in place (g = g + xi peaked at 2.00x)
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 noise_tau=noise_tau, seed=0)
        theta = model.init_theta(0)
        model.grad(theta, 0)  # draws the batch's noise, which the task keeps
        assert traced_peak(lambda: model.grad(theta, 0)) <= 8 * model.dim + SLACK

    def test_a_wide_rank_smoothness_forms_no_block(self):
        # the largest of each block's top and tail: forming every block's
        # eigenvalues peaked at 0.75x the parameter bytes
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 seed=0)
        assert traced_peak(lambda: model.smoothness) <= SLACK

    def test_building_a_task_holds_two_parameter_vectors_at_peak(self):
        # d = 1e6: the family's optimum shift and the spectrum.  A block-sized
        # spectrum copy, a zero optimum drawn while the shift was passed and a
        # mask of negative eigenvalues peaked at 3.0x
        family = QuadraticFamily(block_sizes=(600_000, 300_000, 99_990, 10),
                                 ranks=(100.0, 50.0, 20.0, 2.0), opnorms=(1.0,) * 4,
                                 seed=0)
        family.make_task(0)
        peak = traced_peak(lambda: family.make_task(1))
        assert peak <= 2 * 8 * 1_000_000 + 4 * SLACK

    def test_rows_of_one_task_share_its_optimum_and_spectrum(self):
        # 3 mezo rows of one d = 200,000 task keep the rows, init_theta's
        # start vector and chunks of scratch.  Stacking the task's optimum
        # and spectrum once per row peaked at 15.46 MB, 3.2x the rows' bytes
        model = make_rank_family([150_000, 40_000, 9_990, 10],
                                 [7500.0, 2000.0, 500.0, 2.0], [1.0, 0.5, 1.0, 2.0],
                                 seed=0)
        config = ZOConfig(steps=2, mode="mezo", seed=0)

        def run():
            return run_population([model] * 3, [1e-5] * 3, config)

        run()
        assert traced_peak(run) <= 1.5 * 3 * 8 * model.partition.total


def test_a_command_builds_no_parser(tmp_path, monkeypatch):
    # one parser per process reads every command line: a parser per
    # command built seven on every call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    path = write_ini(tmp_path / "train.ini", clamped("train"))
    assert cli.main(["train-finetuner", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert built == []


@pytest.mark.parametrize("command, name", [("train-finetuner", "train"),
                                           ("compare", "compare")])
def test_peak_does_not_depend_on_the_collector(tmp_path, command, name):
    # the same peak with the automatic collector off and collecting every
    # few allocations: cyclic garbage, such as the per-command parsers'
    # reference cycles once were, lives until a collection runs
    train = write_ini(tmp_path / "train.ini", clamped("train"))
    assert cli.main(["train-finetuner", "--config", str(train), "--out", str(tmp_path)]) == 0
    path = write_ini(tmp_path / f"{name}.ini", clamped(name))

    def run():
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0

    run()
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    try:
        gc.disable()
        off = traced_peak(run)
        gc.set_threshold(50, 1, 1)
        gc.enable()
        often = traced_peak(run)
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()
    assert abs(off - often) <= 1024, (off, often)
