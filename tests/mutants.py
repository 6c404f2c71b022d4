"""Sampler defects that the law-level checks must catch.

Each mutant is a context manager that patches one regime-table row of
``permshape.samplers`` for as long as it is entered; the row's other
fields, its support test among them, stay. A defect acts at every size
where it can, on a share of the draws, with a coin drawn from the draw's
own stream. ``tests/test_mutants.py`` runs the checks each one must fail.
"""

from contextlib import AbstractContextManager
from unittest import mock

import numpy as np

from permshape import samplers
from permshape.perm import Permutation, plant_fixed_points


def _open_a_pair(p: Permutation, rng: np.random.Generator) -> np.ndarray:
    """The word of p with the 2-cycle through a uniform point made two fixed
    points; p must have no fixed point."""
    word = p.zero_based.copy()
    a = int(rng.integers(p.n))
    b = word[a]
    word[[a, b]] = [a, b]
    return word


def _patch_row(table: dict, key: str, sampler) -> AbstractContextManager:
    row = table[key]
    return mock.patch.dict(table, {key: (row[0], sampler, *row[2:])})


def leaky_matching_core(rate: float = 0.02) -> AbstractContextManager:
    """The matching core opens one pair in ``rate`` of its draws, stating
    the true counts of what it drew."""
    sample = samplers.CORES["fpf_involution"][1]

    def leaky(k, rng):
        p = sample(k, rng)
        if k == 0 or rng.random() >= rate:
            return p
        cycles, _, two = p._counts
        return Permutation.from_zero_based(_open_a_pair(p, rng), (cycles + 1, 2, two - 1))

    return _patch_row(samplers.CORES, "fpf_involution", leaky)


def matchings_open_a_pair(rate: float = 0.02) -> AbstractContextManager:
    """The matching ensemble opens one pair in ``rate`` of its draws, stating
    the counts of the matching it opened."""
    sample = samplers.ENSEMBLES["fpf_involution"][1]

    def opened(spec, n, rng):
        p = sample(spec, n, rng)
        if n == 0 or rng.random() >= rate:
            return p
        return Permutation.from_zero_based(_open_a_pair(p, rng), p._counts)

    return _patch_row(samplers.ENSEMBLES, "fpf_involution", opened)


def split_n_cycles(rate: float = 0.05) -> AbstractContextManager:
    """The n-cycle ensemble draws an (n - n // 2, n // 2) class in ``rate``
    of its draws at n >= 2, stating the counts of one n-cycle."""
    sample = samplers.ENSEMBLES["n_cycle"][1]

    def split(spec, n, rng):
        if n < 2 or rng.random() >= rate:
            return sample(spec, n, rng)
        p = samplers.sample_in_cycle_type((n - n // 2, n // 2), rng)
        return Permutation.from_zero_based(p.zero_based, (1, 0, int(n == 2)))

    return _patch_row(samplers.ENSEMBLES, "n_cycle", split)


def plant_two_more() -> AbstractContextManager:
    """Composites plant ``fix_count(n) + 2`` fixed points wherever that
    leaves the core at least two points."""

    def planted(spec, n, rng):
        m = spec.fix_count(n)
        m += 2 if n - m >= 4 else 0
        fixed = rng.choice(n, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
        return plant_fixed_points(fixed, samplers.CORES[spec.core][1](n - m, rng))

    return _patch_row(samplers.ENSEMBLES, "composite", planted)
