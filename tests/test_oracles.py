import itertools

import pytest

from permshape.diagram import YoungDiagram
from permshape.oracles import (
    check_fixed_point_bounds,
    check_profile_distance_bound,
    greene_bruteforce,
    greene_report,
    max_union_of_increasing,
)
from permshape.perm import Permutation
from permshape.rsk import schensted_shape
from permshape.samplers import derive_rng, sample_uniform
from permshape.verify import _five_sampler_draws


class TestGreeneBruteforce:
    def test_worked_example(self):
        p = Permutation([5, 3, 2, 1, 4, 6])
        assert greene_bruteforce(p, 1) == 3
        assert greene_bruteforce(p, 2) == 4  # lambda1 + lambda2 of (3,1,1,1)

    def test_identity(self):
        p = Permutation.identity(5)
        for i in range(1, 6):
            assert greene_bruteforce(p, i) == 5

    def test_decreasing_family(self):
        p = Permutation([5, 3, 2, 1, 4, 6])
        # conjugate of (3,1,1,1) is (4,1,1)
        assert greene_bruteforce(p, 1, decreasing=True) == 4
        assert greene_bruteforce(p, 2, decreasing=True) == 5

    def test_guards(self):
        with pytest.raises(ValueError):
            greene_bruteforce(Permutation.identity(17), 1)
        with pytest.raises(ValueError):
            greene_bruteforce(Permutation.identity(3), 0)

    def test_exhaustive_small_against_shape(self):
        for n in range(0, 6):
            for word in itertools.permutations(range(1, n + 1)):
                p = Permutation(word)
                shape = schensted_shape(p)
                conj = shape.conjugate()
                report = greene_report(p)
                acc = 0
                for i in range(1, n + 1):
                    acc += shape.part(i)
                    assert report.increasing_invariants[i - 1] == acc
                acc = 0
                for i in range(1, n + 1):
                    acc += conj.part(i)
                    assert report.decreasing_invariants[i - 1] == acc

    def test_increments_form_a_partition(self):
        rng = derive_rng(31)
        for _ in range(40):
            p = sample_uniform(int(rng.integers(1, 9)), rng)
            inv = greene_report(p).increasing_invariants
            increments = [b - a for a, b in zip((0,) + inv, inv)]
            assert all(x >= y for x, y in zip(increments, increments[1:]))

    def test_dilworth_step_against_union_enumeration(self):
        # the oracle's one mathematical step, cross-checked by explicitly
        # building unions of <= i increasing subsequences; the decreasing
        # subsequences of p are the increasing ones of its reversed word
        rng = derive_rng(37)
        words = [Permutation(w) for n in range(6) for w in itertools.permutations(range(1, n + 1))]
        words += [sample_uniform(n, rng) for n in (7, 8) for _ in range(15)]
        for p in words:
            report = greene_report(p)
            reverse = Permutation(p.word[::-1])
            for i in range(1, p.n + 1):
                assert report.increasing_invariants[i - 1] == max_union_of_increasing(p, i)
                assert report.decreasing_invariants[i - 1] == max_union_of_increasing(reverse, i)


class TestFixedPointBounds:
    def test_identity(self):
        assert check_fixed_point_bounds(Permutation.identity(6)).ok

    def test_worked_example(self):
        # shape (3,1,1,1) vs reduced shape (2,1,1,1): 1 <= 3 <= 1 + 2
        assert check_fixed_point_bounds(Permutation([5, 3, 2, 1, 4, 6])).ok

    def test_empty(self):
        assert check_fixed_point_bounds(Permutation([])).ok

    def test_across_all_samplers(self):
        for p in _five_sampler_draws(400, seed=41):
            res = check_fixed_point_bounds(p)
            assert res.ok, res.witness


class TestProfileDistanceBoundCheck:
    def test_identical(self):
        d = YoungDiagram((3, 2, 2))
        res = check_profile_distance_bound(d, d)
        assert res.ok and res.witness["slack"] == pytest.approx(0.0)

    def test_one_box_vs_empty(self):
        res = check_profile_distance_bound(YoungDiagram((1,)), YoungDiagram(()))
        assert res.ok
        assert res.witness["slack"] == pytest.approx(0.0, abs=1e-12)

    def test_random_fuzz(self):
        rng = derive_rng(43)
        for _ in range(300):
            a = schensted_shape(sample_uniform(int(rng.integers(0, 80)), rng))
            b = schensted_shape(sample_uniform(int(rng.integers(0, 80)), rng))
            assert check_profile_distance_bound(a, b).ok
