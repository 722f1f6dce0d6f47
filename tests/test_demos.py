"""Each demo script runs to completion and prints what it printed when recorded,
every Python block of the README runs, and the six demos/configs commands
write what they wrote when recorded.

The demos print trajectories, meta-objectives and bound checks that depend on
every bit of the optimizer, so a SHA-256 of their stdout pins the library's
end-to-end outputs as a user sees them.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zoft
from zoft import cli

DEMOS = Path(__file__).parents[1] / "demos"
CONFIGS = DEMOS / "configs"
README = Path(__file__).parents[1] / "README.md"
ENV = dict(os.environ, PYTHONPATH=str(Path(zoft.__file__).parents[1]))

# SHA-256 of each demo's stdout
RECORDED_STDOUT = {
    "bounds_demo.py": "b244e357264510f4b87dd8fe7bd1c427aba358ba5751eab1a8fbbfc8c531beb0",
    "estimator_demo.py": "7809c05b823fb396cec6c9bbc990b420def3d912fa9e18965e40ed281da19adf",
    "meta_training_demo.py": "2ae7b6477a1b544787fa2fdbaa31f6d412f0405098eba15a4f77e217f428f700",
    "race_demo.py": "1b63a6aa783adad31a7254649eaa579b03f598d7f178defacf152ac679a5866f",
}


def test_every_demo_has_a_recorded_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(RECORDED_STDOUT)


@pytest.mark.parametrize("name", sorted(RECORDED_STDOUT))
def test_demo_prints_its_recorded_output(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED_STDOUT[name], \
        proc.stdout.decode()


def test_readme_python_blocks_run(tmp_path):
    # a public-API change must not leave the README's examples broken
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                              env=ENV, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b"", proc.stderr.decode()


def test_readme_command_table_lists_the_commands():
    rows = re.findall(r"^\| `([a-z-]+)` \|", README.read_text(encoding="utf-8"), flags=re.M)
    assert rows == list(cli._COMMANDS)


EMPTY = hashlib.sha256(b"").hexdigest()

# The demos/configs commands in the order their usage lines give, into one
# out dir: (config, command, exit code, SHA-256 of stdout and of stderr, and
# of each file the command writes).  A later command reads what an earlier
# one wrote (finetune the checkpoint that train-finetuner saved).
CONFIG_RUNS = [
    ("train", "train-finetuner", 0, EMPTY, EMPTY, {
        "finetuner.ckpt": "7192357c1544d0ab511f3aa8610c425b7468a14bde001dfba1b12f3a1336a28b",
        "meta_log.csv": "311bc48a346d4191c10144829393913e05cc4112b6e62888a79076e7ec9aade7",
    }),
    ("finetune", "finetune", 0, EMPTY, EMPTY, {
        "trajectory.csv": "bad810dc5b6827ec687008e69c63f0425142127960192fb7cb7788cb7d4606a4",
    }),
    ("compare", "compare", 0, EMPTY, EMPTY, {
        "compare.csv": "4d0d13004a4511d73d01d083134340b2abc80e67a9ee08ab0c080a7f70c27263",
        "summary.txt": "757e948258c7fe06b7a3498028d77161863765ba1dd215ea2845c4bb71da358b",
    }),
    ("sweep", "sweep-lr", 0, EMPTY, EMPTY, {
        "sweep_curves.csv": "b92788d5dbdb1f1ddcf84b236a3ad2c18b5cb93e8ecf10780cb407a0002b548d",
        "sweep_flags.csv": "f28deb6a6570aa360f5ef26f3f2fa234eea6c8335dcd06ae67f2dac468cc31b7",
    }),
    ("ablate", "ablate", 0, EMPTY, EMPTY, {
        "ablation.csv": "b6d7b427b20bfdfdab2d0384b99bb5d43771f4a9de30e576c193a5b93ba14957",
    }),
    ("bounds", "verify-bounds", 0, EMPTY, EMPTY, {
        "bounds.csv": "a17e3c42b9dbd3c6e2c6b516b04056d523f765f581b1888cec881f18d99f30ef",
    }),
]


def test_every_config_has_a_recorded_run():
    assert sorted(p.stem for p in CONFIGS.glob("*.ini")) == sorted(r[0] for r in CONFIG_RUNS)


def test_config_commands_write_their_recorded_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    want = {}  # every file in the out dir, each as its last writer left it
    for name, command, code, stdout, stderr, written in CONFIG_RUNS:
        got = cli.main([command, "--config", str(CONFIGS / f"{name}.ini"), "--out", str(out)])
        printed = capsys.readouterr()
        assert got == code, (name, printed.err)
        assert hashlib.sha256(printed.out.encode()).hexdigest() == stdout, name
        assert hashlib.sha256(printed.err.encode()).hexdigest() == stderr, name
        want.update(written)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert files == want, name
