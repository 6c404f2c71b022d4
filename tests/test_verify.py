import json
import math
from collections import Counter

import numpy as np
import pytest

from permshape import _kernels, oracles, samplers, shape_geom, verify
from permshape.experiments import json_text
from permshape.oracles import BatchCheck, ProfileBoundCheck
from permshape.perm import Permutation
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

    def test_chi_square_quantile_is_chi2_ppf(self):
        from scipy.stats import chi2

        # past x = 1490, e^(-x/2) is 0 in double precision; 5039 is the
        # uniform law's degrees of freedom at n = 7
        dofs = np.array([*range(1, 720), 1329, 1331, 2000, 5039])
        expected = chi2.ppf(1.0 - verify.SAMPLERS_ALPHA, dofs)
        for dof, want in zip(dofs.tolist(), expected.tolist()):
            got = verify.chi_square_quantile(dof, verify.SAMPLERS_ALPHA)
            assert math.isclose(got, want, rel_tol=1e-13), dof

    @pytest.mark.parametrize("dof", [1, 2, 5, 9, 23, 100, 5039])
    @pytest.mark.parametrize("alpha", [0.5, 1e-3, 1e-12])
    def test_chi_square_quantile_is_the_least_double_past_alpha(self, dof, alpha):
        x = verify.chi_square_quantile(dof, alpha)
        tail = verify._chi_square_tail
        assert tail(x, dof) <= alpha < tail(math.nextafter(x, 0.0), dof)

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
    greene_invariants_batch = verify.greene_invariants_batch

    def one_too_many_decreasing(letters, offsets):
        invariants = greene_invariants_batch(letters, offsets)
        invariants[:, 1] += 1
        return invariants

    monkeypatch.setattr(verify, "greene_invariants_batch", one_too_many_decreasing)
    report = suite_greene()
    assert report["ok"] is False
    assert report["failures"][0] == {"sigma": "1", "family": "decreasing"}
    assert {w["family"] for w in report["failures"]} == {"decreasing"}


def test_samplers_flag_a_draw_outside_the_support(monkeypatch):
    # an n-cycle sampler that leaks a fixed point draws outside its law's
    # support, which the row still states
    keys, _, draws_type = samplers.ENSEMBLES["n_cycle"]
    monkeypatch.setitem(samplers.ENSEMBLES, "n_cycle", (
        keys, lambda spec, n, rng: samplers.sample_in_cycle_type((n - 1, 1), rng), draws_type))
    report = suite_samplers(draws=4000, seed=1)
    assert report["ok"] is False
    assert len(report["families"]) == 6
    bad = [f for f in report["families"] if not f["ok"]]
    assert [(f["family"], f["stat"]) for f in bad] == [("n_cycle", math.inf)]


@pytest.mark.parametrize("spec, n", [
    # theta n / log n >= n at n = 5, so the core is left no point
    (samplers.RegimeSpec("composite", core="n_cycle", fix_rule="theta_log", theta=2.5), 5),
    (samplers.RegimeSpec("uniform_in_cycle_type", cycle_type=(1, 1, 1)), 3),
])
def test_a_support_of_one_permutation_passes_exactly_when_every_draw_is_it(monkeypatch, spec, n):
    # no degree of freedom: the critical value is 0, not NaN
    report = verify.regime_chi_square(spec, n, 50, samplers.derive_rng(0))
    assert report == {"family": spec.ensemble, "n": n, "ok": True, "stat": 0.0, "crit": 0.0}
    json.loads(json_text(report), parse_constant=_refuse_constant)
    # one draw of a transposition among identities fails it
    draws = iter([Permutation.from_zero_based(np.r_[1, 0, 2:n])])
    monkeypatch.setattr(verify, "sample_regime",
                        lambda spec, n, rng: next(draws, Permutation.identity(n)))
    report = verify.regime_chi_square(spec, n, 50, samplers.derive_rng(0))
    assert (report["ok"], report["stat"], report["crit"]) == (False, math.inf, 0.0)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_suites_stop_at_the_fifth_failure_and_count_what_they_checked(monkeypatch):
    def every_pair_fails(a_parts, b_parts):
        return ProfileBoundCheck(np.zeros(len(a_parts), dtype=bool), lambda k: {
            "a": ",".join(map(str, a_parts[k][a_parts[k] > 0])),
            "b": ",".join(map(str, b_parts[k][b_parts[k] > 0]))}, np.zeros(len(a_parts)))

    def every_draw_fails(letters, offsets):
        return BatchCheck(np.zeros(len(offsets) - 1, dtype=bool), lambda k: {
            "sigma": " ".join(map(str, letters[offsets[k]:offsets[k + 1]] + 1))})

    monkeypatch.setattr(verify, "check_profile_distance_bound_batch", every_pair_fails)
    monkeypatch.setattr(verify, "check_fixed_point_bounds_batch", every_draw_fails)
    # a first row longer than the permutation breaks every Greene partial sum
    monkeypatch.setattr(verify, "insertion_shape_batch",
                        lambda letters, offsets: np.diff(offsets)[:, None] + 1)
    for report in (suite_profile_bound(pairs=50), suite_greene(), suite_fixpoint(draws=50)):
        assert report["checked"] == 5 and len(report["failures"]) == 5, report["suite"]
        assert report["ok"] is False
        # the report parses as strict JSON: no pair passed, so no slack is a
        # minimum, and min_slack is null, not Infinity
        parsed = json.loads(json_text(report), parse_constant=_refuse_constant)
        assert parsed.get("min_slack", None) is None


class CountingLibrary:
    """The compiled kernels, counting the calls made to each."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        kernel = getattr(self._lib, name)
        if not name.startswith("ps_"):
            return kernel

        def counted(*args):
            self.calls[name] += 1
            return kernel(*args)

        return counted


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="compiled kernels unavailable")
@pytest.mark.parametrize("suite, sizes, calls", [
    ("greene", [{"seed": 0}, {"seed": 1}], {"ps_shape_batch": 1, "ps_greene_batch": 1}),
    ("fixpoint", [{"draws": 20}, {"draws": 200}], {"ps_shape_batch": 2}),
    ("profile-bound", [{"pairs": 20}, {"pairs": 200}], {"ps_shape_batch": 1}),
    # one walk of all of S_n a case, whatever the draws
    ("samplers", [{"draws": 10}, {"draws": 100}], {"ps_cycle_scan": 6}),
])
def test_exact_suites_make_the_same_kernel_calls_at_any_size(monkeypatch, suite, sizes, calls):
    # each suite peels and scans its words as one batch, so a kernel call
    # made per word shows as a count that grows with the size (the greene
    # suite has no size; its seed picks its draws). The draws themselves are
    # not counted: a cycle-type draw lays its cycles out in one kernel call.
    lib = CountingLibrary(_kernels._library())
    monkeypatch.setattr(_kernels, "_library", lambda: lib)
    for size in sizes:
        lib.calls.clear()
        assert run_suite(suite, **size)["ok"]
        checks = {name: count for name, count in lib.calls.items()
                  if name not in ("ps_cycle_layout", "ps_pcg64_peek")}
        assert checks == calls, size


@pytest.mark.parametrize("pairs, passes", [(20, 1), (200, 1), (verify.BATCH + 1, 2)])
def test_profile_bound_makes_one_pair_pass_a_batch(monkeypatch, pairs, passes):
    # the distance, the bound, the verdict and a witness all come off one
    # profile_pairs_batch call a batch, so a pass made per pair, or twice a
    # batch, shows as a count that grows
    calls = []

    def counted(a_parts, b_parts):
        calls.append(len(a_parts))
        return shape_geom.profile_pairs_batch(a_parts, b_parts)

    monkeypatch.setattr(oracles, "profile_pairs_batch", counted)
    assert run_suite("profile-bound", pairs=pairs)["ok"]
    assert len(calls) == passes and sum(calls) == pairs
