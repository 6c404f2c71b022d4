"""Every regime against the law its regime-table row states, and the
structure of its draws at a size no exact check reaches.

The law test runs ``verify.regime_chi_square`` on every ``ENSEMBLES`` entry
and every ``CORES`` x ``FIX_RULES`` pair, with the parameter sets of the
golden draws, at n = 5 (n = 6 for matchings, and the classes (3, 2) and
(2, 2, 1) for the class regime): 30 cases of 2000 draws, each at
alpha = 1e-3. A healthy build fails a seed with probability
1 - (1 - 1e-3)^30, about 3%; the seeds here are fixed.

The structure test takes 50 draws of every golden regime at n = 1000 and
checks each by a walk of its word: its cycle type is one its row says it
draws, and the type it states, when it states runs, is the walked one.

The law test's support, every word of S_n whose cycle type the row says
it draws, comes from one walk of all of S_n; it is checked against the
support built word by word at every n up to 6 where the regime draws.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from test_golden import CASES, FIX_RULE_PARAMS

from permshape import verify
from permshape.perm import Permutation, cycle_type
from permshape.samplers import CORES, ENSEMBLES, RegimeSpec, derive_rng, sample_regime
from permshape.verify import regime_chi_square

LAW_DRAWS = 2000
STRUCTURE_N = 1000
STRUCTURE_DRAWS = 50


def _cases(classes: tuple[tuple[int, ...], ...],
           size: int | None = None) -> dict[str, tuple[RegimeSpec, int]]:
    """The golden regimes, each at ``size`` or else at n = 5 (6 for
    matchings), with the class regimes replaced by ``classes`` at theirs."""
    cases = {}
    for label, (spec, _) in CASES.items():
        if spec.ensemble != "uniform_in_cycle_type":
            cases[label] = (spec, size or (6 if spec.ensemble == "fpf_involution" else 5))
    for parts in classes:
        runs = " ".join(f"{length}^{count}" for length, count in Counter(parts).items())
        cases[f"uniform_in_cycle_type {runs}"] = (
            RegimeSpec("uniform_in_cycle_type", cycle_type=parts), sum(parts))
    return cases


LAW_CASES = _cases(((3, 2), (2, 2, 1)))
# the golden classes (3, 2, 2, 1) and (5, 5, 1), grown to 1000 points: the
# first repeated 125 times, the second scaled and topped up with 10 points
STRUCTURE_CASES = _cases((tuple(sorted((3, 2, 2, 1) * 125, reverse=True)),
                          (450, 450, 90, 10)), STRUCTURE_N)


def law_report(label: str) -> dict:
    """``regime_chi_square`` of the law case at its fixed seed."""
    spec, n = LAW_CASES[label]
    return regime_chi_square(spec, n, LAW_DRAWS, derive_rng(41, list(LAW_CASES).index(label)))


def structure_failures(label: str) -> list[str]:
    """What is wrong with each of the structure case's draws at its fixed seed."""
    spec, n = STRUCTURE_CASES[label]
    rng = derive_rng(43, list(STRUCTURE_CASES).index(label))
    failures = []
    for k in range(STRUCTURE_DRAWS):
        p = sample_regime(spec, n, rng)
        walked = cycle_type(Permutation.from_zero_based(p.zero_based))
        if not ENSEMBLES[spec.ensemble][2](spec, n, walked):
            failures.append(f"draw {k}: cycle type {walked} is not drawn")
        if p._runs is not None and cycle_type(p) != walked:
            failures.append(f"draw {k}: states {cycle_type(p)}, walks {walked}")
    return failures


def test_the_cases_cover_every_regime():
    for cases in (LAW_CASES, STRUCTURE_CASES):
        specs = [spec for spec, _ in cases.values()]
        assert {spec.ensemble for spec in specs} == set(ENSEMBLES)
        assert ({(spec.core, spec.fix_rule) for spec in specs if spec.core}
                == {(core, rule) for core in CORES for rule in FIX_RULE_PARAMS})


@pytest.mark.parametrize("label", LAW_CASES)
def test_every_regime_draws_its_law(label):
    report = law_report(label)
    assert report["ok"], report


@pytest.mark.parametrize("label", STRUCTURE_CASES)
def test_every_regime_draws_its_structure_at_scale(label):
    assert structure_failures(label) == []


@pytest.mark.parametrize("label", LAW_CASES)
def test_the_one_walk_support_is_the_word_by_word_one(label):
    spec, _ = LAW_CASES[label]
    row_test = ENSEMBLES[spec.ensemble][2]
    for n in range(7):
        try:
            sample_regime(spec, n, derive_rng(47, n))
        except ValueError:  # the regime does not draw at n
            continue
        words = [np.array(w, dtype=np.int64) for w in itertools.permutations(range(n))]
        want = [w.tolist() for w in words
                if row_test(spec, n, cycle_type(Permutation.from_zero_based(w)))]
        assert verify._support(spec, n).tolist() == want, n
