"""Each script under demos/ runs to the end, with nothing on stderr; demos 01
and 02 print their pinned stdout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ditto
from ditto import load_dataset

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))

# The whole stdout of demo 02, which is scalar arithmetic, and of demo 01 but
# for its two finite-difference errors, which depend on BLAS rounding: each
# {err} stands for one such figure, which must lie below 1e-6.
STDOUT = {
    "01_gradient_check": (
        "loss value            0.980121\n"
        "dL/dW1 norm           0.185705\n"
        "dL/db2                [[ 0.0337 -0.053   0.0193]]\n"
        "worst relative error  {err}  (central differences, h=1e-5)\n"
        "matmul op check       {err}\n"
        "reversal forward      identity (True)\n"
        "reversal gradient     -0.7  (sum's gradient is +1, scaled by -0.7)\n"),
    "02_sharpness_aware_basins": (
        "plain AdamW     rho=0.0  ->  +1.0000   sharp (center 1)\n"
        "                 w[0]=+0.920  w[50]=+0.995  w[100]=+1.000  w[200]=+1.000"
        "  w[399]=+1.000\n"
        "sharpness-aware  rho=0.3  ->  +0.7000   flat (center 0)\n"
        "                 w[0]=+0.880  w[50]=+0.692  w[100]=+0.699  w[200]=+0.700"
        "  w[399]=+0.700\n"),
}


def test_the_five_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    src = str(Path(ditto.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    if demo.stem in STDOUT:
        pattern = re.escape(STDOUT[demo.stem]).replace(re.escape("{err}"), r"(\d\.\d{3}e-\d\d)")
        pinned = re.fullmatch(pattern, done.stdout)
        assert pinned, done.stdout
        assert all(float(err) < 1e-6 for err in pinned.groups())
    if demo.name.startswith("03_"):  # the ladder it writes through save_dataset loads
        assert load_dataset(tmp_path / "demo_output" / "ladder").target_ids() == [
            "rot15", "rot30", "rot45", "rot60"]
