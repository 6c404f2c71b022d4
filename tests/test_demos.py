import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import permshape

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo, args", [
    ("01_profiles_and_curves.py", []),
    ("02_limit_shape_convergence.py", ["--trials", "2", "--ladder", "100,200"]),
    ("03_fluctuations_and_laws.py", ["--trials", "5", "--n", "200"]),
])
def test_demo_runs_at_a_tiny_size(tmp_path, demo, args):
    # run from a copy, as demo 01 writes its CSVs next to the script
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    env = dict(os.environ, PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
