"""Each script under demos/ runs to the end, with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ditto
from ditto import load_dataset

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


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
    if demo.name.startswith("03_"):  # the ladder it writes through save_dataset loads
        assert load_dataset(tmp_path / "demo_output" / "ladder").target_ids() == [
            "rot15", "rot30", "rot45", "rot60"]
