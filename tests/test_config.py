import pytest

from zoft.config import ExperimentConfig, build_task_source
from zoft.errors import ConfigError
from zoft.testbeds import MLPTask, QuadraticFamily


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return ExperimentConfig.load(path)


BASIC = """
[task]
kind = quadratic
block_sizes = 4, 8
ranks = 1.0, 4.0
seed = 7

[run]
steps = 100        # trailing comment
lr = 0.05
verbose = yes
methods = mezo, finetuner
"""


class TestAccessors:
    def test_typed_reads(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        assert cfg.get_int("run", "steps") == 100
        assert cfg.get_float("run", "lr") == 0.05
        assert cfg.get_bool("run", "verbose") is True
        assert cfg.get_str_list("run", "methods") == ["mezo", "finetuner"]
        assert cfg.get_int_list("task", "block_sizes") == [4, 8]
        assert cfg.get_float_list("task", "ranks") == [1.0, 4.0]

    def test_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        assert cfg.get_int("run", "batch_size", 16) == 16
        assert cfg.get_str("run", "mode", "mezo") == "mezo"

    def test_missing_section_names_it(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match=r"\[compare\]"):
            cfg.get_int("compare", "steps")

    def test_missing_key_names_it(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match=r"\[run\].*'epsilon'"):
            cfg.get_float("run", "epsilon")

    @pytest.mark.parametrize("getter,key", [
        ("get_int", "lr"), ("get_bool", "steps"),
    ])
    def test_type_errors_name_key(self, tmp_path, getter, key):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match=key):
            getattr(cfg, getter)("run", key)

    def test_bad_float_list(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match="methods"):
            cfg.get_float_list("run", "methods")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("key_without_section = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)


class TestBuildTaskSource:
    def test_quadratic_family(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        kind, source = build_task_source(cfg)
        assert kind == "quadratic"
        assert isinstance(source, QuadraticFamily)
        task = source.make_task(0)
        assert list(task.partition.sizes) == [4, 8]
        assert task.effective_ranks() == pytest.approx([1.0, 4.0])

    def test_per_block_init_scale(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC + "\n[DEFAULT]\n")
        cfg.set("task", "init_scale", "0.5, 2.0")
        _, source = build_task_source(cfg)
        assert source.init_scale == (0.5, 2.0)

    def test_init_scale_wrong_length(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        cfg.set("task", "init_scale", "0.5, 2.0, 3.0")
        with pytest.raises(ConfigError, match="init_scale"):
            build_task_source(cfg)

    def test_mlp_factory(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[task]
kind = mlp
n_in = 3
n_hidden = 5
n_out = 2
n_samples = 40
seed = 1
""")
        kind, factory = build_task_source(cfg)
        assert kind == "mlp"
        task = factory("layer")
        assert isinstance(task, MLPTask)
        assert task.partition.names == ("layer1", "layer2")
        assert task.n_in == 3 and task.n_hidden == 5

    def test_unknown_kind(self, tmp_path):
        cfg = write_cfg(tmp_path, "[task]\nkind = transformer\n")
        with pytest.raises(ConfigError, match="kind"):
            build_task_source(cfg)

    def test_missing_task_section(self, tmp_path):
        cfg = write_cfg(tmp_path, "[run]\nsteps = 1\n")
        with pytest.raises(ConfigError, match=r"\[task\]"):
            build_task_source(cfg)
