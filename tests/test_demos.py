"""Each demo script runs to completion and prints what it printed when recorded,
and every Python block of the README runs.

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

DEMOS = Path(__file__).parents[1] / "demos"
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
