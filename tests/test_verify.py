import math

import pytest

from permshape import verify
from permshape.diagram import YoungDiagram
from permshape.oracles import CheckResult
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
