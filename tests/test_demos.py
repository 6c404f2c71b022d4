import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import permshape
from permshape.experiments import load_pilot_manifest

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


def test_pilot_manifest_generator_writes_the_committed_keys(tmp_path):
    # the demo writes ../src/permshape/data/pilot_manifest.json from its own
    # directory; a copy keeps the committed manifest untouched
    demos = tmp_path / "demos"
    demos.mkdir()
    script = demos / "04_calibrate_pilot_manifest.py"
    shutil.copy(DEMOS / script.name, script)
    env = dict(os.environ, PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script), "--trials", "2"], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    written = json.loads((tmp_path / "src/permshape/data/pilot_manifest.json").read_text())
    committed = load_pilot_manifest()
    assert written.keys() == committed.keys()
    assert written["regimes"].keys() == committed["regimes"].keys()
    for name, regime in committed["regimes"].items():
        assert written["regimes"][name].keys() == regime.keys(), name
