"""Tests of the benchmark's own references, tracer and BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench

The references are checked against the brute-force Greene oracle on every
permutation of size 6 or less, and against counts known in closed form.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import workloads
from tracer import layer_metrics

from permshape.diagram import YoungDiagram
from permshape.oracles import greene_report
from permshape.perm import Permutation, cycle_stats
from permshape.shape_geom import height_profile, omega, scaled_sup_distance

HERE = Path(__file__).resolve().parent
SMALL = [list(w) for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]


def partial_sums(parts, n):
    return list(itertools.accumulate(parts + [0] * (n - len(parts))))[:n]


@pytest.mark.parametrize("n", range(1, 7))
def test_rows_lis_lds_match_greene(n):
    for word in (w for w in SMALL if len(w) == n):
        report = greene_report(Permutation(word))
        shape = ref.schensted_rows(word)
        assert partial_sums(shape, n) == list(report.increasing_invariants), word
        assert partial_sums(ref.conjugate(shape), n) == list(report.decreasing_invariants), word
        assert ref.lis(word) == report.increasing_invariants[0] == shape[0]
        assert ref.lds(word) == report.decreasing_invariants[0] == len(shape)
        assert ref.schensted_rows(word, max_rows=2) == shape[:2]


def test_profile_counted_by_cells_matches_greene_shape():
    for word in SMALL:
        n = len(word)
        inc = greene_report(Permutation(word)).increasing_invariants
        parts = [b - a for a, b in zip((0,) + inc, inc) if b > a]
        heights = ref.height_profile(parts, -n - 1, n + 1)
        ts = np.arange(-n - 1, n + 2)
        assert heights == height_profile(YoungDiagram(tuple(parts)), ts).tolist(), word
        assert sum(h - abs(t) for h, t in zip(heights, ts.tolist())) == 2 * n
        assert heights[0] == n + 1 and heights[-1] == n + 1


def test_scaled_distance_matches_program_definition():
    for word in SMALL[::7]:
        n = len(word)
        parts = ref.schensted_rows(word)
        for m in range(n + 1):
            expect = scaled_sup_distance(YoungDiagram(tuple(parts)), n, m)
            assert math.isclose(ref.scaled_sup_distance(parts, n, m), expect, rel_tol=1e-12, abs_tol=1e-15)


def test_vkls_curve():
    assert ref.vkls(0.0) == pytest.approx(2 / math.pi)
    for s in np.linspace(-1.5, 1.5, 61):
        assert ref.vkls(s) == pytest.approx(float(omega(s)), abs=1e-15)
        assert ref.vkls(s) >= abs(s) and ref.vkls(s) == ref.vkls(-s)
    assert ref.limit_curve(0.3, 1.0) == 0.3
    assert ref.limit_curve(0.0, 0.75) == pytest.approx(0.5 * 2 / math.pi)


def test_cycle_counter():
    six = [w for w in SMALL if len(w) == 6]
    for word in six:
        cs = cycle_stats(Permutation(word))
        assert ref.cycle_counts(word) == (cs.num_cycles, cs.fixed_points, cs.two_cycles)
    by_cycles = [sum(ref.cycle_counts(w)[0] == k for w in six) for k in range(1, 7)]
    assert by_cycles == [120, 274, 225, 85, 15, 1]  # Stirling numbers of the first kind
    by_fixed = [sum(ref.cycle_counts(w)[1] == k for w in six) for k in range(7)]
    assert by_fixed == [265, 264, 135, 40, 15, 0, 1]  # rencontres numbers
    assert sum(map(ref.is_involution, six)) == 76
    assert all(ref.is_permutation(w) for w in six) and not ref.is_permutation([1, 1, 3])


def test_benchmark_json_names_every_metric_and_workload():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in doc["workloads"]) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_metrics()
    assert len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and n[0].isalnum() for n in names)


def test_tracer_nests_spans_inside_the_package():
    code = (
        "import permshape.cli as cli, tracer, numpy as np\n"
        "from permshape.samplers import RegimeSpec\n"
        "t = tracer.Tracer(); t.install(); c0 = t.mark()\n"
        "cli.main(['distance', '--diagram', '2,1', '--n', '3', '--m', '1'])\n"
        "from permshape import experiments\n"
        "experiments.run_trial(RegimeSpec(ensemble='uniform'), 50, 0, 1, ('lambda2',))\n"
        "s = t.stats([c0, t.mark()])['metrics']\n"
        "assert s['permshape.cli.main.calls'] == 1\n"
        "assert s['permshape.shape_geom.scaled_sup_distance.calls'] == 1\n"
        "assert s['permshape.rsk.schensted_shape.calls'] == 1\n"
        "assert s['permshape._kernels.insertion_shape.calls'] == 1\n"
        "assert s['permshape.experiments.run_trial.self_s'] < s['permshape.experiments.run_trial.busy_s']\n"
        "names = [t.names[i] for i in t.name_id]\n"
        "parent = names[t.parent[names.index('_kernels.insertion_shape')]]\n"
        "assert parent == 'rsk.schensted_shape', parent\n"
    )
    env = dict(os.environ, PYTHONPATH=f"{HERE}{os.pathsep}{HERE.parent / 'src'}",
               XDG_CACHE_HOME=str(HERE.parent / ".bench_build" / "cache"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
