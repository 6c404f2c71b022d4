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


def test_pilot_manifest_generator_reproduces_the_committed_manifest(tmp_path):
    # the demo writes ../src/permshape/data/pilot_manifest.json from its own
    # directory; a copy keeps the committed manifest untouched. Floats are
    # compared to a tolerance, not bytes: arcsin's last bits can differ
    # between CPUs, and a threshold is rounded to 6 decimals.
    demos = tmp_path / "demos"
    demos.mkdir()
    script = demos / "04_calibrate_pilot_manifest.py"
    shutil.copy(DEMOS / script.name, script)
    env = dict(os.environ, PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    written = json.loads((tmp_path / "src/permshape/data/pilot_manifest.json").read_text())
    committed = load_pilot_manifest()
    written_regimes, committed_regimes = written.pop("regimes"), committed.pop("regimes")
    assert written == committed
    assert written_regimes.keys() == committed_regimes.keys()
    for name, calib in committed_regimes.items():
        got = written_regimes[name]
        assert got.keys() == calib.keys(), name
        for key in ("mean_D", "p95_D"):
            assert got[key] == pytest.approx(calib[key], rel=1e-12, abs=0), (name, key)
        for key in ("threshold_mean_top", "threshold_p95_top"):
            assert got[key] == pytest.approx(calib[key], rel=0, abs=1e-6), (name, key)
