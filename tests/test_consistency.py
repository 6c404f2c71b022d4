"""Names that one module lists and others read must agree: the regime tables
and the config keys, the CLI's regime flags, the verify suites and their
size flags, the record fields and the records.csv columns, the measurement
table and the record columns, the rescalings and the measurements, the pilot
regimes and the pilot manifest, and the benchmark tracer's targets. One
module writes JSON, none imports scipy, and the test settings let a failing
property test fail alone."""

import dataclasses
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permshape import cli, verify
from permshape.experiments import (
    CSV_HEADER,
    MEASUREMENTS,
    PILOT_LADDER,
    PILOT_REGIMES,
    RECORD_FIELDS,
    RESCALINGS,
    TrialRecord,
    load_pilot_manifest,
)
from permshape.samplers import REGIME_CHOICES, REGIME_KEYS, RegimeSpec

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_table_parameters_are_regime_keys_and_spec_fields():
    fields = {f.name for f in dataclasses.fields(RegimeSpec)}
    assert set(REGIME_KEYS) == fields
    assert set(REGIME_CHOICES) <= set(REGIME_KEYS)
    # RegimeSpec walks REGIME_KEYS in order, so a key an entry reads comes
    # after the choice key that names the entry
    order = list(REGIME_KEYS)
    for choice, table in REGIME_CHOICES.items():
        for name, (reads, *_) in table.items():
            assert set(reads) <= set(REGIME_KEYS), name
            assert all(order.index(choice) < order.index(key) for key in reads), name


def test_regime_fields_after_ensemble_are_the_regime_keys_and_default_to_none():
    # a default would stand in for a key a regime reads but a config left out
    ensemble, *rest = dataclasses.fields(RegimeSpec)
    assert ensemble.name == "ensemble"
    assert [f.name for f in rest] == [key for key in REGIME_KEYS if key != "ensemble"]
    for field in rest:
        assert field.default is None, field.name


def test_sample_help_lists_one_flag_per_regime_key(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sample", "--help"])
    flags = re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    for key in REGIME_KEYS:
        assert flags.count("--" + key.replace("_", "-")) == 1, key


def test_suites_take_their_seed_and_the_size_flag_the_cli_passes(capsys):
    # a suite parameter the CLI cannot set would be a knob only tests turn
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    flags = set(re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
    for suite, (function, size_keyword) in verify.SUITES.items():
        params = set(inspect.signature(getattr(verify, function)).parameters)
        assert params == {"seed"} | ({size_keyword} if size_keyword else set()), suite
        if size_keyword:
            assert f"--{size_keyword}" in flags, suite


def test_every_record_field_is_a_records_csv_column():
    # a field outside records.csv would hold something no output shows
    columns = CSV_HEADER.split(",")
    assert columns[0] == "schema_version"
    assert [f.name for f in dataclasses.fields(TrialRecord)] == columns[1:]


def test_measurements_are_the_record_columns_after_the_cycle_statistics():
    cycle_end = RECORD_FIELDS.index("fixed_points_of_square") + 1
    assert MEASUREMENTS == RECORD_FIELDS[cycle_end:]


def test_rescalings_read_measurements():
    for mode, (field, *_) in RESCALINGS.items():
        assert field in MEASUREMENTS, mode


def test_pilot_regimes_and_ladder_are_the_manifests():
    manifest = load_pilot_manifest()
    assert PILOT_REGIMES.keys() == manifest["regimes"].keys()
    assert PILOT_LADDER == tuple(manifest["n_ladder"])


def test_json_is_formatted_only_by_json_text():
    # experiments.json_text is the one JSON format of the package and demos
    scripts = [*(ROOT / "src" / "permshape").rglob("*.py"), *(ROOT / "demos").rglob("*.py")]
    assert len(scripts) > 10
    dumping = [path.name for path in scripts
               if path.name != "experiments.py" and "json.dumps(" in path.read_text()]
    assert dumping == []


def test_scipy_is_imported_nowhere():
    # scipy.special alone cost a process about 0.3 s and 20 MB: log-gamma
    # and chi-square quantiles are computed here, and scipy is a test-only
    # reference
    scripts = [*(ROOT / "src" / "permshape").rglob("*.py"), *(ROOT / "demos").rglob("*.py")]
    assert len(scripts) > 10
    statement = re.compile(r"^\s*(import|from) scipy\b", re.MULTILINE)
    importing = [path.name for path in scripts if statement.search(path.read_text())]
    assert importing == []


def test_tracer_targets_are_package_functions():
    # a target the package no longer has would break a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.TARGETS:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"permshape.{module}"), function, None)), name


def test_a_failing_property_test_fails_alone(tmp_path):
    # with warnings as errors, hypothesis' failure report must not end the
    # session; its patch files and database land in tmp_path
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_two.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
