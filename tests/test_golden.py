"""Golden draws: seeded sampler output and the integer columns of records.csv,
pinned by sha256 so that a refactor of the regime layer cannot change a
single draw unnoticed.

Every ensemble and every core x fix-rule pair is covered, at sizes that
include the ones where the target fixed-point count is moved by one to
suit the core. A size the regime rejects is pinned as a rejection. Float
columns are left out: the limit curve's arcsin may differ in its last bits
between CPUs.
"""

import csv
import hashlib

import pytest

from permshape.experiments import ExperimentConfig, run_experiment, write_outputs
from permshape.samplers import RegimeSpec, derive_rng, sample_regime

SIZES = (*range(13), 17, 40, 101)
TRIALS = 3
FIX_RULE_PARAMS = {
    "constant": ({"c": 1.0}, {"c": 3.0}),
    "theta_log": ({"theta": 1.0}, {"theta": 2.5}),
    "power": ({"beta": 0.5, "c": 1.5}, {"beta": 0.75, "c": 1.0}),
    "linear": ({"p": 0.5}, {"p": 0.9}),
}


def _cases() -> dict[str, tuple[RegimeSpec, tuple[int, ...]]]:
    cases = {name: (RegimeSpec(ensemble=name), SIZES)
             for name in ("uniform", "uniform_involution", "fpf_involution", "n_cycle")}
    for t in ((3, 2, 2, 1), (5, 5, 1)):
        cases[f"uniform_in_cycle_type {t}"] = (
            RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=t), (sum(t),))
    for core in ("n_cycle", "fpf_involution", "uniform_derangement"):
        for rule, param_sets in FIX_RULE_PARAMS.items():
            for params in param_sets:
                spec = RegimeSpec(ensemble="composite", core=core, fix_rule=rule, **params)
                cases[f"{core} {rule} {params}"] = (spec, SIZES)
    return cases


CASES = _cases()


def draws_digest(spec: RegimeSpec, sizes: tuple[int, ...]) -> str:
    h = hashlib.sha256()
    for n in sizes:
        for trial in range(TRIALS):
            h.update(f"{n}:{trial}:".encode())
            try:
                h.update(sample_regime(spec, n, derive_rng(7, n, trial)).word.tobytes())
            except ValueError:
                h.update(b"rejected")
    return h.hexdigest()[:16]


def records_digest(spec: RegimeSpec, sizes: tuple[int, ...], out_dir) -> str:
    ladder = [n for n in sizes if n >= 1 and (spec.ensemble != "fpf_involution" or n % 2 == 0)]
    cfg = ExperimentConfig.from_text(
        f"{spec.to_text()}\nn_ladder = {','.join(map(str, ladder[-4:]))}\ntrials = {TRIALS}\n"
        "seed = 3\n")
    records, summary = run_experiment(cfg)
    csv_path, _ = write_outputs(records, summary, out_dir)
    with csv_path.open() as fh:
        rows = [{k: v for k, v in row.items() if k != "shape_distance"}
                for row in csv.DictReader(fh)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# recorded before the regime tables replaced the if-chains
GOLDEN_DRAWS: dict[str, str] = {
    'uniform': 'bf721b48c6cc3a94',
    'uniform_involution': 'c114e69b7a71abf1',
    'fpf_involution': 'e88e96885e3f8597',
    'n_cycle': '2afb8da75a6203b8',
    'uniform_in_cycle_type (3, 2, 2, 1)': 'ac3521e5716c3160',
    'uniform_in_cycle_type (5, 5, 1)': '3f6d545e889b67d8',
    "n_cycle constant {'c': 1.0}": 'b7a530163b345437',
    "n_cycle constant {'c': 3.0}": '638f2d6468571b7e',
    "n_cycle theta_log {'theta': 1.0}": '60345cda674903f3',
    "n_cycle theta_log {'theta': 2.5}": 'ae5bc3b1abfd5dd3',
    "n_cycle power {'beta': 0.5, 'c': 1.5}": 'e3e65a5d9cc2b5e2',
    "n_cycle power {'beta': 0.75, 'c': 1.0}": 'c8e459e17afd0566',
    "n_cycle linear {'p': 0.5}": '0956884dfd8bee4d',
    "n_cycle linear {'p': 0.9}": '95daaf62e6c83822',
    "fpf_involution constant {'c': 1.0}": 'f16498699bf58ade',
    "fpf_involution constant {'c': 3.0}": 'f02f7170718278c6',
    "fpf_involution theta_log {'theta': 1.0}": 'f03d2086846824d2',
    "fpf_involution theta_log {'theta': 2.5}": '4d44bc73e3f57b35',
    "fpf_involution power {'beta': 0.5, 'c': 1.5}": 'b9380e4302577762',
    "fpf_involution power {'beta': 0.75, 'c': 1.0}": '8eca5cfae6103328',
    "fpf_involution linear {'p': 0.5}": '3effcf65bb76c30b',
    "fpf_involution linear {'p': 0.9}": 'ec699784e3e23f25',
    "uniform_derangement constant {'c': 1.0}": '46387d6b0be7fb49',
    "uniform_derangement constant {'c': 3.0}": 'fd1d6bea44728ffa',
    "uniform_derangement theta_log {'theta': 1.0}": 'af0ca3fdcd2b545f',
    "uniform_derangement theta_log {'theta': 2.5}": '99a4b46726d9b1ac',
    "uniform_derangement power {'beta': 0.5, 'c': 1.5}": '2bb0e2ec278a2702',
    "uniform_derangement power {'beta': 0.75, 'c': 1.0}": 'bbd5c6446b2c9f0f',
    "uniform_derangement linear {'p': 0.5}": 'aaada5559638b8bc',
    "uniform_derangement linear {'p': 0.9}": '3d9c5fd5b9579867',
}
GOLDEN_RECORDS: dict[str, str] = {
    'uniform': '2951b495dae6a25f',
    'uniform_involution': '78a3ebfd36d32b56',
    'fpf_involution': 'a97b69e6237f4f6b',
    'n_cycle': '1fd4a36f8ac48703',
    'uniform_in_cycle_type (3, 2, 2, 1)': '60f1ac918553506a',
    'uniform_in_cycle_type (5, 5, 1)': 'c8a80d9fd44e1d5f',
    "n_cycle constant {'c': 1.0}": 'c3f4c87ef5bddd75',
    "n_cycle constant {'c': 3.0}": '1f63ef04d8fd8512',
    "n_cycle theta_log {'theta': 1.0}": '6e3672667e9fbfda',
    "n_cycle theta_log {'theta': 2.5}": '017536c5276e707a',
    "n_cycle power {'beta': 0.5, 'c': 1.5}": 'cbd680e08fe165ab',
    "n_cycle power {'beta': 0.75, 'c': 1.0}": 'd44ef9c2498e5757',
    "n_cycle linear {'p': 0.5}": '5a8add00a2fc9d07',
    "n_cycle linear {'p': 0.9}": '67bb33a754c43b46',
    "fpf_involution constant {'c': 1.0}": '2646481b4c707b8b',
    "fpf_involution constant {'c': 3.0}": '295cbc34362d5b92',
    "fpf_involution theta_log {'theta': 1.0}": '8989d86c4920c7f3',
    "fpf_involution theta_log {'theta': 2.5}": 'a0badfbf89f80594',
    "fpf_involution power {'beta': 0.5, 'c': 1.5}": '5fcfec61284db6a7',
    "fpf_involution power {'beta': 0.75, 'c': 1.0}": '71a0a9a77b2640fd',
    "fpf_involution linear {'p': 0.5}": 'e5c5a244039dbebd',
    "fpf_involution linear {'p': 0.9}": 'df43f45cd35cb707',
    "uniform_derangement constant {'c': 1.0}": 'cd9a3c0335aa9488',
    "uniform_derangement constant {'c': 3.0}": '99c527a42e56bca0',
    "uniform_derangement theta_log {'theta': 1.0}": '97ee4e646c61067e',
    "uniform_derangement theta_log {'theta': 2.5}": 'e4de0b421e2f34bf',
    "uniform_derangement power {'beta': 0.5, 'c': 1.5}": 'ffd72088850b92a9',
    "uniform_derangement power {'beta': 0.75, 'c': 1.0}": '66ea5378dbe07fa9',
    "uniform_derangement linear {'p': 0.5}": '69db40af13f77577',
    "uniform_derangement linear {'p': 0.9}": 'de55ad7aa669f7c0',
}


@pytest.mark.parametrize("label", CASES)
def test_draws_match_golden(label):
    assert draws_digest(*CASES[label]) == GOLDEN_DRAWS[label]


@pytest.mark.parametrize("label", CASES)
def test_record_integers_match_golden(label, tmp_path):
    assert records_digest(*CASES[label], tmp_path) == GOLDEN_RECORDS[label]
