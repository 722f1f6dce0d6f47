"""CLI fuzz: one declared key of a demo config set to a bad or edge value.

Every case must end in a documented exit code (0, 2, 3 or 4), never in an
uncaught exception.  Steps, tasks, seeds and samples are clamped first, and
the pool's one large number, 1e300, is no int: every count rejects it, so no
case runs long.
"""

import configparser
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zoft import cli
from zoft.config import KEYS

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
COMMANDS = {"train": "train-finetuner", "finetune": "finetune", "compare": "compare",
            "sweep": "sweep-lr", "ablate": "ablate", "bounds": "verify-bounds"}
SMALL = {"steps": "3", "tasks": "2", "seeds": "0", "samples": "200"}
# negative, zero, non-finite, empty, non-numeric, an unknown choice, and
# floats whose squares overflow or underflow
POOL = ["-1", "0", "nan", "inf", "", "x1", "dropout", "1e300", "1e-300"]


def clamped(name: str) -> dict:
    """The demo config `name` as {section: {key: value}}, run sizes clamped."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(CONFIGS / f"{name}.ini", encoding="utf-8")
    return {section: {key: SMALL.get(key, value) for key, value in parser[section].items()}
            for section in parser.sections()}


def write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, keys in sections.items():
        lines += [f"[{section}]"] + [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_one_bad_key_never_raises(tmp_path):
    ckpt = tmp_path / "finetuner.ckpt"
    assert cli.main(["train-finetuner", "--config",
                     str(write_ini(tmp_path / "train.ini", clamped("train"))),
                     "--out", str(tmp_path)]) == 0
    codes = []

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def case(data):
        name = data.draw(st.sampled_from(sorted(COMMANDS)))
        sections = clamped(name)
        section = data.draw(st.sampled_from(sorted(sections)))
        key = data.draw(st.sampled_from(sorted(KEYS[section])))
        value = data.draw(st.sampled_from(POOL))
        sections[section][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            shutil.copy(ckpt, out)
            path = write_ini(out / f"{name}.ini", sections)
            code = cli.main([COMMANDS[name], "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4), (name, section, key, value, code)
        codes.append(code)

    start = time.perf_counter()
    case()
    assert time.perf_counter() - start < 10.0
    assert {0, 2} <= set(codes)


@pytest.mark.parametrize("name, key, value", [
    ("compare", "methods", "mezo, mezo"),
    ("compare", "seeds", "0, 0"),
    ("compare", "lr_grid", "0.02, 0.05, 0.020"),
    ("sweep", "methods", "finetuner, mezo, finetuner"),
    ("sweep", "seeds", "1, 0, 1"),
    ("sweep", "lr_grid", "0.002, 0.2, 0.2"),
    # rates that print alike (12 significant digits) write identical rows
    ("compare", "lr_grid", "0.02, 0.05, 0.02000000000001"),
    ("sweep", "lr_grid", "0.0002, 0.02, 0.02000000000001"),
    # -0 is the rate 0, though it prints apart from it
    ("compare", "lr_grid", "0, -0, 0.05"),
    ("sweep", "lr_grid", "0.002, 0, 0.2, -0"),
    ("finetune", "seeds", "2, 2"),
    ("ablate", "seeds", "0, 1, 0"),
])
def test_repeated_list_value_is_rejected(tmp_path, capsys, name, key, value):
    # a repeated method, seed or rate ran its jobs twice and exited 0,
    # counting them twice in summary.txt or writing duplicate rows
    sections = clamped(name)
    sections[name][key] = value
    path = write_ini(tmp_path / f"{name}.ini", sections)
    assert cli.main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"[{name}] {key}=" in err and "repeats an earlier value" in err, err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("grid, code", [("0.07, 0.7, 7.0", 0), ("0.07, 0.7, 6.99", 2)])
def test_sweep_span_compares_rates_as_printed(tmp_path, grid, code):
    # 100.0 * 0.07 is 7.000000000000001, yet the rates print as 0.07 and 7
    sections = clamped("sweep")
    sections["sweep"].update(methods="mezo", lr_grid=grid)
    path = write_ini(tmp_path / "sweep.ini", sections)
    assert cli.main(["sweep-lr", "--config", str(path), "--out", str(tmp_path)]) == code
