import re
from pathlib import Path

import pytest

from zoft.config import KEYS, ExperimentConfig, build_task_source
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

[finetune]
steps = 100        # trailing comment
lr = 0.05

[compare]
methods = mezo, finetuner
"""


class TestAccessors:
    def test_typed_reads(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        assert cfg.get("finetune", "steps") == 100
        assert cfg.get("finetune", "lr") == 0.05
        assert cfg.get("compare", "methods") == ["mezo", "finetuner"]
        assert cfg.get("task", "block_sizes") == [4, 8]
        assert cfg.get("task", "ranks") == [1.0, 4.0]

    def test_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        assert cfg.get("finetune", "batch_size") == 16
        assert cfg.get("finetune", "mode") == "mezo"
        # worked out by the reader: one per block
        assert cfg.get("task", "opnorms") == [1.0, 1.0]

    def test_missing_section_names_it(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match=r"\[sweep\]"):
            cfg.get("sweep", "steps")

    def test_missing_key_names_it(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match=r"\[compare\].*'lr_grid'"):
            cfg.get("compare", "lr_grid")

    @pytest.mark.parametrize("section, key, text", [
        ("finetune", "steps", "0.05"),
    ], ids=["int-steps"])
    def test_type_errors_name_key(self, tmp_path, section, key, text):
        cfg = write_cfg(tmp_path, BASIC)
        cfg.set(section, key, text)
        with pytest.raises(ConfigError, match=key):
            cfg.get(section, key)

    def test_bad_float_list(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        cfg.set("compare", "lr_grid", "mezo, finetuner")
        with pytest.raises(ConfigError, match="lr_grid"):
            cfg.get("compare", "lr_grid")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("key_without_section = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)


class TestDeclaredKeys:
    def test_undeclared_key_names_it(self, tmp_path):
        # a typo used to run silently with the default epsilon
        with pytest.raises(ConfigError, match=r"\[finetune\].*'epsilion'"):
            write_cfg(tmp_path, BASIC.replace("lr = 0.05", "lr = 0.05\nepsilion = 0.01"))

    def test_undeclared_section_names_it(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[run\]"):
            write_cfg(tmp_path, BASIC + "\n[run]\nsteps = 1\n")

    def test_set_rejects_undeclared_key(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC)
        with pytest.raises(ConfigError, match="'verbose'"):
            cfg.set("train", "verbose", "yes")

    @pytest.mark.parametrize("section, key, text, message", [
        ("finetune", "lr", "nan", "finite and >= 0"),
        ("finetune", "epsilon", "0", "finite and > 0"),
        ("task", "shift_scale", "inf", "must be finite"),
        ("finetune", "mode", "adam", "one of mezo, finetuner"),
        ("compare", "methods", "mezo, foo", "one of mezo, finetuner"),
        ("compare", "methods", " , ", "non-empty"),
        ("finetune", "experiment", "", "non-empty"),
        # Path.resolve and open raised on a NUL, ending in a traceback
        ("finetune", "checkpoint", "a\x00b", "must hold no NUL byte"),
    ])
    def test_checked_values_name_section_and_key(self, tmp_path, section, key, text,
                                                 message):
        cfg = write_cfg(tmp_path, BASIC)
        cfg.set(section, key, text)
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}.*{message}"):
            cfg.get(section, key)

    @pytest.mark.parametrize("section", ["finetune", "sweep"])
    @pytest.mark.parametrize("value", ['run,one "q"', "a,b", 'say "hi"',
                                       "a\n  b", "a\n\tb"])
    def test_experiment_is_one_csv_cell(self, tmp_path, section, value):
        # a comma or a quote wrote rows of 12 fields under the 11-field
        # header, and an indented continuation line split every row in two
        line = f"experiment = {value}"
        cfg = write_cfg(tmp_path, BASIC + f"\n[sweep]\n{line}\n" if section == "sweep"
                        else BASIC.replace("lr = 0.05", f"lr = 0.05\n{line}"))
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] experiment=.* must hold no ',', "
                                 r"'\"' or line break"):
            cfg.get(section, "experiment")

    def test_experiment_may_hold_spaces_and_symbols(self, tmp_path):
        cfg = write_cfg(tmp_path, BASIC.replace("lr = 0.05",
                                                "lr = 0.05\nexperiment = run one; 'q' | v2"))
        assert cfg.get("finetune", "experiment") == "run one; 'q' | v2"

    def test_readme_lists_every_declared_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, flags=re.M)
        assert sorted(rows) == sorted((s, k) for s, keys in KEYS.items() for k in keys)


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
        cfg = write_cfg(tmp_path, "[train]\nsteps = 1\n")
        with pytest.raises(ConfigError, match=r"\[task\]"):
            build_task_source(cfg)
