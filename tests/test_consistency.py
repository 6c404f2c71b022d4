"""Names that one module lists and others read must agree: the regime tables
and the config keys, the CLI's regime flags, and the benchmark tracer's
targets."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from permshape import cli
from permshape.samplers import ENSEMBLES, FIX_RULES, REGIME_CHOICES, REGIME_KEYS, RegimeSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_table_parameters_are_regime_keys_and_spec_fields():
    fields = {f.name for f in dataclasses.fields(RegimeSpec)}
    assert set(REGIME_KEYS) == fields
    assert set(REGIME_CHOICES) <= set(REGIME_KEYS)
    for table in (ENSEMBLES, FIX_RULES):
        for name, (reads, _) in table.items():
            assert set(reads) <= set(REGIME_KEYS), name


def test_sample_help_lists_one_flag_per_regime_key(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sample", "--help"])
    flags = re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    for key in REGIME_KEYS:
        assert flags.count("--" + key.replace("_", "-")) == 1, key


def test_tracer_targets_are_package_functions():
    # a target the package no longer has would break a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.TARGETS:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"permshape.{module}"), function, None)), name
