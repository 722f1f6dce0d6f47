"""CLI fuzz: each declared key of a demo config set to each bad or edge
value in turn, and a checkpoint corrupted in one way.

Every case must end in a documented exit code (0, 2, 3 or 4), never in an
uncaught exception.  Steps, tasks, seeds and samples are clamped first, and
the pool's one large number, 1e300, is no int: every count rejects it, so no
case runs long.
"""

import configparser
import itertools
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from zoft import cli
from zoft.config import KEYS
from zoft.testbeds import QuadraticTask

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
COMMANDS = {"train": "train-finetuner", "finetune": "finetune", "compare": "compare",
            "sweep": "sweep-lr", "ablate": "ablate", "bounds": "verify-bounds"}
SMALL = {"steps": "3", "tasks": "2", "seeds": "0", "samples": "200"}
# negative, zero, non-finite, empty, non-numeric, an unknown choice, floats
# whose squares overflow or underflow, and text that no path can hold
POOL = ["-1", "0", "nan", "inf", "", "x1", "dropout", "1e300", "1e-300", "a\x00b"]


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


def test_one_bad_key_never_raises(tmp_path, capsys):
    # every (command, section, key, value) cell: each declared key of each
    # section of each demo config, set to each pool value in turn
    ckpt = tmp_path / "finetuner.ckpt"
    assert cli.main(["train-finetuner", "--config",
                     str(write_ini(tmp_path / "train.ini", clamped("train"))),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    codes = []
    start = time.perf_counter()
    for name in sorted(COMMANDS):
        for section in sorted(clamped(name)):
            for key, value in itertools.product(sorted(KEYS[section]), POOL):
                sections = clamped(name)
                sections[section][key] = value
                with tempfile.TemporaryDirectory() as tmp:
                    out = Path(tmp)
                    shutil.copy(ckpt, out)
                    path = write_ini(out / f"{name}.ini", sections)
                    code = cli.main([COMMANDS[name], "--config", str(path), "--out", str(out)])
                err = capsys.readouterr().err
                cell = (name, section, key, value, code, err)
                assert code in (0, 2, 3, 4), cell
                if code:
                    # one line that names the failure
                    assert err.startswith("zoft: ") and err.count("\n") == 1 \
                        and err.endswith("\n"), cell
                else:
                    assert err == "", cell
                codes.append(code)
    assert time.perf_counter() - start < 30.0
    assert len(codes) == 1430 and {0, 2} <= set(codes)


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
    ("ablate", "axes", "reset, normalization, reset"),
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


# train-finetuner raised from Path.resolve, and finetune (mode = finetuner)
# from open, each ending in a traceback with exit 1
@pytest.mark.parametrize("name", ["train", "finetune"])
def test_nul_in_a_checkpoint_name_is_a_config_error(tmp_path, capsys, name):
    sections = clamped(name)
    sections[name]["checkpoint"] = "a\x00b"
    path = write_ini(tmp_path / f"{name}.ini", sections)
    assert cli.main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (f"zoft: config error: {path}: [{name}] checkpoint='a\\x00b' "
                   "must hold no NUL byte\n"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid, code", [("0.07, 0.7, 7.0", 0), ("0.07, 0.7, 6.99", 2)])
def test_sweep_span_compares_rates_as_printed(tmp_path, grid, code):
    # 100.0 * 0.07 is 7.000000000000001, yet the rates print as 0.07 and 7
    sections = clamped("sweep")
    sections["sweep"].update(methods="mezo", lr_grid=grid)
    path = write_ini(tmp_path / "sweep.ini", sections)
    assert cli.main(["sweep-lr", "--config", str(path), "--out", str(tmp_path)]) == code


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    """The lines of a checkpoint trained by the clamped train config: two
    blocks of 1 + 32 + 3 lines each after the magic and the header."""
    out = tmp_path_factory.mktemp("trained")
    path = write_ini(out / "train.ini", clamped("train"))
    assert cli.main(["train-finetuner", "--config", str(path), "--out", str(out)]) == 0
    return (out / "finetuner.ckpt").read_text(encoding="utf-8").splitlines()


def with_field(lines, k: int, value: str) -> list:
    """The lines with the first field of line k set to `value`."""
    fields = lines[k].split()
    return lines[:k] + [" ".join([value] + fields[1:])] + lines[k + 1:]


def first_line_past(lines, offset: int) -> int:
    """The index of the first line that starts past byte `offset`."""
    start = 0
    for k, line in enumerate(lines):
        if start > offset:
            return k
        start += len(line.encode()) + 1
    raise ValueError(f"the lines end before byte {offset}")


# each corruption, and what the error names ({bad}: the offset of the byte
# that is not UTF-8)
CORRUPTIONS = {
    "truncated": (lambda lines: lines[:-5], "ends inside block 1"),
    # too short for the weights that the header declares: refused before
    # any weight is read
    "cut-in-w1": (lambda lines: lines[:10], "header declares 2 blocks of width 32, more "
                  "weights than a file of 765 bytes holds"),
    "b2-missing": (lambda lines: lines[:-1], "declares 2 blocks but ends inside block 1"),
    "header-only": (lambda lines: lines[:2], "header declares 2 blocks of width 32, more "
                    "weights than a file of 45 bytes holds"),
    "trailing-lines": (lambda lines: lines + ["garbage"] + lines[2:],
                       "a line follows the 2 blocks that the header declares"),
    "blocks-reordered": (lambda lines: lines[:2] + lines[38:] + lines[2:38],
                         "checkpoint blocks ['block1', 'block0'] do not match"),
    "non-numeric": (lambda lines: with_field(lines, 3, "x1"), "block 0 W1 row 0"),
    "nan-weight": (lambda lines: with_field(lines, 71, "nan"), "block block1: non-finite b1"),
    # float() reads 1e999 as inf
    "huge-weight": (lambda lines: with_field(lines, 36, "1e999"),
                    "block block0: non-finite W2"),
    "header-without-value": (lambda lines: with_field(lines, 1, "blocks"),
                             "malformed header 'blocks hidden=32 features=5'"),
    "not-utf8": (lambda lines: with_field(lines, 2, "\udcff"), "not UTF-8 text"),
    # past the first 8 KiB (one file buffer): the offset counts every line before it
    "not-utf8-late": (lambda lines: with_field(lines, first_line_past(lines, 8192), "\udcff"),
                      "not UTF-8 text: invalid start byte at byte {bad}"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("name", ["finetune", "compare", "sweep"])
def test_corrupted_checkpoint_is_a_config_error(tmp_path, capsys, checkpoint_lines,
                                                name, corruption):
    corrupt, names = CORRUPTIONS[corruption]
    text = "\n".join(corrupt(checkpoint_lines)) + "\n"
    # a lone surrogate escape writes the one byte that no UTF-8 text holds
    data = text.encode("utf-8", "surrogateescape")
    (tmp_path / "finetuner.ckpt").write_bytes(data)
    names = names.format(bad=data.find(b"\xff"))
    path = write_ini(tmp_path / f"{name}.ini", clamped(name))
    assert cli.main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"zoft: config error: {tmp_path / 'finetuner.ckpt'}: ") \
        and names in err, err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("name", ["finetune", "compare"])
def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch, checkpoint_lines,
                                         name):
    # sizes that pass every check, such as block_sizes = 100000000000, 16,
    # can still ask numpy for more memory than there is; a start vector that
    # cannot be allocated stands in for them
    def no_memory(self, seed):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(QuadraticTask, "init_theta", no_memory)
    (tmp_path / "finetuner.ckpt").write_text("\n".join(checkpoint_lines) + "\n")
    path = write_ini(tmp_path / f"{name}.ini", clamped(name))
    assert cli.main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "zoft: config error: out of memory: Unable to allocate 745. GiB for an array\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key", ["init_scale", "shift_scale"])
@pytest.mark.parametrize("name", ["train", "finetune", "compare"])
def test_start_vector_that_overflows_is_a_config_error(tmp_path, capsys, checkpoint_lines,
                                                       name, key):
    # 1e308 x a normal draw past 1.8 is inf, so the start vector is not finite
    sections = clamped(name)
    sections["task"][key] = "1e308"
    (tmp_path / "finetuner.ckpt").write_text("\n".join(checkpoint_lines) + "\n")
    path = write_ini(tmp_path / f"{name}.ini", sections)
    assert cli.main([COMMANDS[name], "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("zoft: config error: the start vector is not finite: lower "
                   "[task] init_scale or shift_scale\n")
    assert not list(tmp_path.glob("*.csv"))


def test_byte_order_mark_is_read_as_utf8(tmp_path, capsys):
    # a UTF-8 byte-order mark ahead of the first section read as part of a
    # line before any section header: exit 2, with a three-line message
    codes, errs, outputs = [], [], []
    for mark in ("", "\ufeff"):
        out = tmp_path / f"out{len(mark)}"
        path = write_ini(tmp_path / f"bounds{len(mark)}.ini", clamped("bounds"))
        path.write_text(mark + path.read_text(encoding="utf-8"), encoding="utf-8")
        codes.append(cli.main(["verify-bounds", "--config", str(path), "--out", str(out)]))
        errs.append(capsys.readouterr().err)
        outputs.append((out / "bounds.csv").read_bytes())
    assert codes[0] == codes[1] == 0 and errs == ["", ""]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text, line", [
    ("x = 1\n", "line 1: 'x = 1' comes before any [section] header"),
    # an indented line with no key before it, then a key without "="
    ("[bounds]\n  stray\nsamples\n",
     "line 2: '  stray' is neither a [section] header nor a key = value line"),
    ("[bounds]\nsamples = 200\nsamples\n",
     "line 3: 'samples' is neither a [section] header nor a key = value line"),
])
def test_unreadable_config_is_one_line(tmp_path, capsys, text, line):
    # configparser's own messages spanned two or three lines
    path = tmp_path / "bounds.ini"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["verify-bounds", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"zoft: config error: {path}: {line}\n", err
