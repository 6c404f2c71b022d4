import itertools
import json
import math
import random

import numpy as np
import pytest

from permshape.experiments import (
    CSV_HEADER,
    MEASUREMENTS,
    ExperimentConfig,
    TrialRecord,
    ks_two_sample,
    lambda2_window,
    read_records_csv,
    rescale_statistic,
    run_experiment,
    run_trial,
    summarize,
    write_outputs,
)
from permshape.rsk import schensted_shape
from permshape.samplers import RegimeSpec, derive_rng, parse_key_values, sample_regime


def make_record(n=100, m=0, ell=None, lambda1=None, lambda2=None):
    return TrialRecord(
        n=n,
        trial_index=0,
        fix_count=m,
        num_cycles=m + 1,
        fixed_points_of_square=m,
        shape_distance=None,
        ell=ell,
        lambda1=lambda1,
        lambda2=lambda2,
    )


def written_bytes(records, summary, out_dir) -> tuple[bytes, bytes]:
    """The bytes of the records.csv and summary.json that write_outputs writes."""
    return tuple(path.read_bytes() for path in write_outputs(records, summary, out_dir))


class TestRescaleStatistic:
    def test_tw2_centered_at_zero(self):
        n, m = 169, 0
        rec = make_record(n=n, m=m, ell=2 * int(math.sqrt(n)))  # ell = 26 = 2 sqrt(169)
        assert rescale_statistic(rec, "tw2") == pytest.approx(0.0)

    def test_lln_plugin(self):
        rec = make_record(n=10_000, m=0, ell=200)
        assert rescale_statistic(rec, "lln") == pytest.approx(2.0)

    def test_tw1_tw4(self):
        rec = make_record(n=64, m=0, ell=20, lambda1=24)
        assert rescale_statistic(rec, "tw1") == pytest.approx((20 - 16.0) / 2.0)
        assert rescale_statistic(rec, "tw4") == pytest.approx((24 - 16.0) / 2.0)

    def test_theta_log_lower_bound(self):
        # fixed points force lambda1 >= m, so the statistic is at least
        # m log(n) / (theta n); frozen at the n=1e5 working point
        n = 100_000
        m = math.floor(n / math.log(n))
        assert m == 8685
        floor_value = m * math.log(n) / n
        assert floor_value == pytest.approx(0.9998975766326644, abs=1e-12)
        rec = make_record(n=n, m=m, lambda1=m)
        assert rescale_statistic(rec, "theta_log_l1", theta=1.0) >= floor_value - 1e-15

    def test_degenerate_all_fixed(self):
        rec = make_record(n=10, m=10, ell=1)
        with pytest.raises(ZeroDivisionError):
            rescale_statistic(rec, "tw2")
        with pytest.raises(ZeroDivisionError):
            rescale_statistic(rec, "lln")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            rescale_statistic(make_record(ell=5), "tw3")

    # float.hex of each mode's value, pinned before the modes became a table;
    # theta_log_l1 is taken at theta = 2.5
    @pytest.mark.parametrize("m, ell, lambda1, pinned", [
        (0, 87, 89, {"tw2": "-0x1.605917324a4d5p-1", "tw1": "-0x1.605917324a4d5p-1",
                     "tw4": "-0x1.fee091b8b2c58p-4", "lln": "0x1.f2045e0a71f75p+0",
                     "theta_log_l1": "0x1.15161a49b2239p-3"}),
        (44, 85, 91, {"tw2": "-0x1.f3fadadf580e7p-1", "tw1": "-0x1.406b0e16bf20fp+0",
                      "tw4": "0x1.c141e5883b37dp-2", "lln": "0x1.ec02b727ce38ep+0",
                      "theta_log_l1": "0x1.1b5020a1a4e23p-3"}),
    ])
    def test_values_are_pinned_bit_for_bit(self, m, ell, lambda1, pinned):
        rec = make_record(n=2000, m=m, ell=ell, lambda1=lambda1)
        values = {mode: rescale_statistic(rec, mode, theta=2.5).hex() for mode in pinned}
        assert values == pinned

    @pytest.mark.parametrize("mode, field", [("tw2", "ell"), ("tw1", "ell"), ("tw4", "lambda1"),
                                             ("lln", "ell"), ("theta_log_l1", "lambda1")])
    def test_missing_field_is_named(self, mode, field):
        with pytest.raises(ValueError, match=f"no {field} measurement"):
            rescale_statistic(make_record(n=2000, m=3), mode)


class TestKsTwoSample:
    def test_identical(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_interleaved_half(self):
        assert ks_two_sample([1.0, 2.0], [1.5, 2.5]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @pytest.mark.parametrize("x", [[math.nan], [1.0, math.nan], [[1.0, 2.0], [3.0, 4.0]], 1.0])
    def test_nan_and_non_flat_samples_rejected(self, x):
        with pytest.raises(ValueError):
            ks_two_sample(x, [1.0])
        with pytest.raises(ValueError):
            ks_two_sample([1.0], x)

    def test_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(3)
        x = rng.normal(size=173)
        y = rng.normal(0.3, 1.1, size=211)
        assert ks_two_sample(x, y) == pytest.approx(ks_2samp(x, y).statistic)


class TestLambda2Window:
    def test_centered_records_pass(self):
        recs = [make_record(n=400, lambda2=int(3 * 20))]  # 3 sqrt(n)
        assert lambda2_window(recs) == 1.0

    def test_zero_lambda2_excluded(self):
        recs = [make_record(n=400, lambda2=0)]
        assert lambda2_window(recs) == 0.0

    def test_no_measurements(self):
        with pytest.raises(ValueError):
            lambda2_window([make_record()])


class TestConfig:
    def test_from_text(self):
        text = """
        # theta-log ladder
        ensemble = composite
        core = n_cycle
        fix_rule = theta_log
        theta = 1.0
        n_ladder = 100,200
        trials = 3
        seed = 7
        measurements = ell,lambda1
        """
        cfg = ExperimentConfig.from_text(text)
        assert cfg.regime.core == "n_cycle"
        assert cfg.n_ladder == (100, 200)
        assert cfg.trials == 3 and cfg.seed == 7
        assert cfg.measurements == ("ell", "lambda1")

    def test_overrides(self):
        kv = parse_key_values("ensemble = uniform\nn_ladder = 10\nseed = 1")
        cfg = ExperimentConfig.from_mapping({**kv, "seed": "99", "trials": "2"})
        assert cfg.seed == 99 and cfg.trials == 2

    def test_defaults(self):
        cfg = ExperimentConfig.from_text("n_ladder = 10\nseed = 3")
        assert cfg.regime == RegimeSpec(ensemble="uniform")
        assert cfg.trials == 1 and cfg.measurements == MEASUREMENTS and cfg.out is None

    @pytest.mark.parametrize("text", [
        "n_ladder = 10\nseed = 1\ntrails = 50",
        "seed = 1",
        "n_ladder = 10",
        "n_ladder = 10\nseed = 1\nmeasurements = ell,cycle_stats",
        "n_ladder = 10\nseed = 1\nmeasurements = ell,",
        "n_ladder = 10\nseed = 1\ntrials = 2.5",
        "n_ladder = 10\nseed = -1",
        "n_ladder = 10\nseed = 1\nensemble = n_cycle\ncore = n_cycle",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text(text)

    def test_validation(self):
        reg = RegimeSpec(ensemble="uniform")
        with pytest.raises(ValueError):
            ExperimentConfig(regime=reg, n_ladder=(100, 50), trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(regime=reg, n_ladder=(), trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(regime=reg, n_ladder=(10,), trials=0, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(regime=reg, n_ladder=(10,), trials=1, seed=0, measurements=("nope",))
        with pytest.raises(ValueError, match="ladder sizes must be at least 1"):
            ExperimentConfig(regime=reg, n_ladder=(0, 10), trials=1, seed=0)


SWEEP = {
    "uniform": RegimeSpec(ensemble="uniform"),
    "n_cycle": RegimeSpec(ensemble="n_cycle"),
    "theta_log": RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="theta_log", theta=1.0),
    "fpf_involution": RegimeSpec(ensemble="fpf_involution"),
    "uniform_involution": RegimeSpec(ensemble="uniform_involution"),
}
SWEEP_CASES = [(name, n) for name in SWEEP for n in (1, 2, 3, 50, 2000)
               if not (name == "fpf_involution" and n % 2)]  # a matching needs even n


class TestRunTrial:
    def test_fast_path_matches_full_shape(self):
        reg = RegimeSpec(ensemble="uniform")
        fast = run_trial(reg, 200, 0, seed=11, measurements=("ell", "lambda1"))
        full = run_trial(reg, 200, 0, seed=11, measurements=("ell", "lambda1", "lambda2"))
        assert fast.ell == full.ell and fast.lambda1 == full.lambda1
        assert fast.lambda2 is None and full.lambda2 is not None

    @pytest.mark.parametrize("name, n", SWEEP_CASES)
    def test_leading_rows_match_full_shape(self, name, n):
        # ell, lambda1 and lambda2 come from two row passes and the LDS; they
        # must equal what the whole shape of the same permutation says, with
        # lambda2 = 0 on a one-row shape (always so at n = 1)
        regime = SWEEP[name]
        for trial in range(3):
            rec = run_trial(regime, n, trial, 23, ("ell", "lambda1", "lambda2"))
            shape = schensted_shape(sample_regime(regime, n, derive_rng(23, n, trial)))
            assert (rec.ell, rec.lambda1, rec.lambda2) == (shape.num_rows, shape.part(1),
                                                           shape.part(2))
            assert isinstance(rec.lambda2, int)

    @pytest.mark.parametrize("name, n", SWEEP_CASES)
    def test_every_subset_measures_what_all_measurements_do(self, name, n):
        # each subset peels only as deep as it reads, yet gives the values of
        # the all-measurement trial, and leaves the rest unmeasured
        regime = SWEEP[name]
        full = run_trial(regime, n, 1, 23, MEASUREMENTS)
        for size in range(1, len(MEASUREMENTS) + 1):
            for subset in itertools.combinations(MEASUREMENTS, size):
                rec = run_trial(regime, n, 1, 23, subset)
                for m in MEASUREMENTS:
                    assert getattr(rec, m) == (getattr(full, m) if m in subset else None), subset

    def test_involution_hypothesis_ratio(self):
        reg = RegimeSpec(ensemble="uniform_involution")
        rec = run_trial(reg, 500, 0, seed=13, measurements=("ell",))
        assert rec.n - rec.fixed_points_of_square == 0

    def test_ncycle_hypothesis_ratio(self):
        reg = RegimeSpec(ensemble="n_cycle")
        rec = run_trial(reg, 500, 3, seed=13, measurements=("ell",))
        assert rec.num_cycles - rec.fix_count == 1


class TestRunExperiment:
    def cfg(self, **kw):
        base = dict(
            regime=RegimeSpec(ensemble="uniform"),
            n_ladder=(30, 60),
            trials=4,
            seed=42,
            measurements=("ell", "lambda1", "lambda2", "shape_distance"),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.cfg()
        first = written_bytes(*run_experiment(cfg), tmp_path / "first")
        assert written_bytes(*run_experiment(cfg), tmp_path / "second") == first

    def test_rerun_gives_equal_records(self):
        # a record holds no field that differs between runs of one config
        cfg = self.cfg()
        assert run_experiment(cfg)[0] == run_experiment(cfg)[0]

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(self.cfg(), workers=0)

    def test_worker_count_invariance(self, tmp_path):
        cfg = self.cfg()
        # pool.map yields in submission order, so even the row order agrees
        one = written_bytes(*run_experiment(cfg, workers=1), tmp_path / "one")
        assert written_bytes(*run_experiment(cfg, workers=2), tmp_path / "two") == one

    def test_csv_write_and_read_back(self, tmp_path):
        records, summary = run_experiment(self.cfg())
        csv_path, json_path = write_outputs(records, summary, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER == (
            "schema_version,n,trial_index,fix_count,num_cycles,"
            "fixed_points_of_square,shape_distance,ell,lambda1,lambda2"
        )
        assert len(lines) == 1 + len(records)
        back = read_records_csv(csv_path)
        assert written_bytes(back, summary, tmp_path / "back")[0] == csv_path.read_bytes()
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == 1
        for bad_row in ("1,30,0,0", "2" + lines[1][1:]):
            csv_path.write_text(lines[0] + "\n" + bad_row + "\n")
            with pytest.raises(ValueError):
                read_records_csv(csv_path)
        csv_path.write_text(lines[0].replace("ell", "ell_") + "\n" + lines[1] + "\n")
        with pytest.raises(ValueError, match="unrecognized records CSV header"):
            read_records_csv(csv_path)

    def test_summary_order_independent(self):
        cfg = self.cfg()
        records, summary = run_experiment(cfg)
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        assert summarize(shuffled).to_json() == summary.to_json()

    def test_summary_contents(self):
        cfg = self.cfg(n_ladder=(30,), trials=8)
        records, summary = run_experiment(cfg)
        e = summary.get(30, "ell")
        assert e.count == 8
        vals = sorted(r.ell for r in records)
        assert e.mean == pytest.approx(np.mean(vals))
        assert e.q05 <= e.q25 <= e.q50 <= e.q75 <= e.q95
        with pytest.raises(KeyError):
            summary.get(31, "ell")

    def test_trial_invariants(self):
        cfg = self.cfg(n_ladder=(50,), trials=10)
        records, _ = run_experiment(cfg)
        for r in records:
            assert r.ell >= 1 and r.lambda1 >= (r.lambda2 or 0) >= 0
            assert r.lambda1 * r.ell >= r.n  # shape fits its bounding rectangle
