"""Each sampler defect of ``mutants`` fails the law-level checks it must.

A check is run only on the regimes the mutant touches and stops at the
first case that fails, so the four mutants cost well under a second.
Comparisons of two routes and the pin of numpy's shuffle bits do not
count here: a defect that keeps the bits would pass them.
"""

import mutants
import pytest
from test_regime_laws import LAW_CASES, STRUCTURE_CASES, law_report, structure_failures

from permshape.verify import suite_samplers

# mutant -> (whether it touches a regime, the checks it fails)
MUTANTS = {
    "leaky_matching_core": (lambda spec: spec.core == "fpf_involution",
                            ("laws", "structure", "samplers suite")),
    "matchings_open_a_pair": (lambda spec: spec.ensemble == "fpf_involution",
                              ("laws", "structure", "samplers suite")),
    "split_n_cycles": (lambda spec: spec.ensemble == "n_cycle",
                       ("laws", "structure", "samplers suite")),
    # at n = 5 two more fixed points leave most cores fewer than two points,
    # so 4 of the 24 law cases see the defect; all 24 structure cases do
    "plant_two_more": (lambda spec: spec.ensemble == "composite", ("laws", "structure")),
}
# check -> whether it fails on the regimes a mutant touches
CHECKS = {
    "laws": lambda touches: any(not law_report(label)["ok"]
                                for label, (spec, _) in LAW_CASES.items() if touches(spec)),
    "structure": lambda touches: any(structure_failures(label)
                                     for label, (spec, _) in STRUCTURE_CASES.items()
                                     if touches(spec)),
    # the size and seed of test_verify's healthy run
    "samplers suite": lambda touches: not suite_samplers(draws=4000, seed=1)["ok"],
}


@pytest.mark.parametrize("mutant, check", [(mutant, check) for mutant, (_, checks)
                                           in MUTANTS.items() for check in checks])
def test_each_mutant_fails_the_law_level_checks(mutant, check):
    touches, _ = MUTANTS[mutant]
    with getattr(mutants, mutant)():
        assert CHECKS[check](touches)

