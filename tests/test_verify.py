import math

import numpy as np
import pytest

from permshape import samplers, shape_geom, verify
from permshape.diagram import YoungDiagram
from permshape.oracles import CheckResult, GreeneReport
from permshape.verify import (
    run_suite,
    suite_convention,
    suite_fixpoint,
    suite_greene,
    suite_profile_bound,
    suite_samplers,
)


class TestSuites:
    def test_greene_small(self):
        report = suite_greene(seed=1)
        assert report["ok"] and report["failures"] == []
        # 1! + ... + 6! = 873, and 200 random draws each at n = 7 and 8
        assert report["checked"] == 873 + 400

    def test_fixpoint_small(self):
        report = suite_fixpoint(draws=200, seed=1)
        assert report["ok"], report["failures"]

    def test_profile_bound_small(self):
        report = suite_profile_bound(pairs=150, seed=1)
        assert report["ok"]
        assert report["min_slack"] >= 0.0

    def test_convention_small(self):
        report = suite_convention(seed=1)
        assert report["ok"]
        assert report["worst_gap"] <= report["tol"]

    def test_samplers_small(self):
        report = suite_samplers(draws=4000, seed=1)
        assert report["ok"], report["families"]
        assert len(report["families"]) == 6

    def test_samplers_critical_values_are_chi2_ppf(self):
        from scipy.stats import chi2

        # degrees of freedom: the support size of each family's law, less one
        dof = {"uniform": 23, "uniform_involution": 9, "fpf_involution": 2, "n_cycle": 5,
               "uniform_in_cycle_type": 2, "composite": 5}
        families = suite_samplers(draws=10, seed=2)["families"]
        assert [f["family"] for f in families] == list(dof)
        for family in families:
            expected = float(chi2.ppf(1.0 - verify.SAMPLERS_ALPHA, dof[family["family"]]))
            assert math.isclose(family["crit"], expected, rel_tol=1e-12), family

    def test_run_suite_dispatch(self):
        assert run_suite("convention", seed=3)["suite"] == "convention"
        with pytest.raises(ValueError):
            run_suite("nonsense")

    @pytest.mark.parametrize("suite, size", [("fixpoint", "draws"), ("samplers", "draws"),
                                             ("profile-bound", "pairs")])
    def test_run_suite_rejects_an_empty_run(self, suite, size):
        with pytest.raises(ValueError, match=f"{size} must be at least 1"):
            run_suite(suite, **{size: 0})


def test_convention_catches_a_wrong_diagonal(monkeypatch):
    # two cells too many on diagonal -1 in the integer profile: the unit-cell
    # route reads the cells themselves, so the two routes part
    height_profile = shape_geom.height_profile
    monkeypatch.setattr(shape_geom, "height_profile",
                        lambda d, ts: height_profile(d, ts) + 2 * (np.asarray(ts) == -1))
    report = suite_convention(seed=3)
    assert report["ok"] is False
    assert report["worst_gap"] > 0.1


def test_convention_catches_a_profile_read_one_kink_off(monkeypatch):
    # F read at t + 1 in place of t, only where the suite reads the kinks:
    # the distance a record holds is made from the same values
    scaled_kinks = shape_geom.scaled_kinks

    def one_kink_off(d, n, m):
        s, _, phi = scaled_kinks(d, n, m)
        c = 2.0 * math.sqrt(n)
        return s, shape_geom.height_profile(d, np.rint(s * c).astype(np.int64) + 1) / c, phi

    monkeypatch.setattr(verify, "scaled_kinks", one_kink_off)
    report = suite_convention(seed=3)
    assert report["ok"] is False
    assert report["worst_gap"] > 0.01


def test_greene_names_the_decreasing_family(monkeypatch):
    greene_report = verify.greene_report

    def one_too_many_decreasing(p):
        report = greene_report(p)
        return GreeneReport(report.increasing_invariants,
                            tuple(x + 1 for x in report.decreasing_invariants))

    monkeypatch.setattr(verify, "greene_report", one_too_many_decreasing)
    report = suite_greene()
    assert report["ok"] is False
    assert report["failures"][0] == {"sigma": "1", "family": "decreasing"}
    assert {w["family"] for w in report["failures"]} == {"decreasing"}


def test_samplers_flag_a_draw_outside_the_support(monkeypatch):
    # an n-cycle sampler that leaks a fixed point draws outside its law's support
    monkeypatch.setitem(samplers.ENSEMBLES, "n_cycle", (
        (), lambda spec, n, rng: samplers.sample_in_cycle_type((n - 1, 1), rng)))
    report = suite_samplers(draws=4000, seed=1)
    assert report["ok"] is False
    assert len(report["families"]) == 6
    bad = [f for f in report["families"] if not f["ok"]]
    assert [(f["family"], f["stat"]) for f in bad] == [("n_cycle", math.inf)]


def test_suites_stop_at_the_fifth_failure_and_count_what_they_checked(monkeypatch):
    monkeypatch.setattr(verify, "check_profile_distance_bound",
                        lambda a, b: CheckResult(False, {"a": a.to_text(), "b": b.to_text()}))
    monkeypatch.setattr(verify, "check_fixed_point_bounds",
                        lambda p: CheckResult(False, {"sigma": p.to_text()}))
    # a first row longer than the permutation breaks every Greene partial sum
    monkeypatch.setattr(verify, "schensted_shape", lambda p: YoungDiagram((p.n + 1,)))
    for report in (suite_profile_bound(pairs=50), suite_greene(), suite_fixpoint(draws=50)):
        assert report["checked"] == 5 and len(report["failures"]) == 5, report["suite"]
        assert report["ok"] is False
