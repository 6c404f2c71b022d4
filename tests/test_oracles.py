import itertools

import numpy as np
import pytest

from permshape import oracles, shape_geom
from permshape._kernels import ALL_ROWS, concat_words, insertion_shape_batch
from permshape.diagram import YoungDiagram
from permshape.oracles import (
    check_fixed_point_bounds,
    check_fixed_point_bounds_batch,
    check_profile_distance_bound,
    greene_report,
    max_union_of_increasing,
)
from permshape.perm import Permutation, remove_fixed_points
from permshape.rsk import schensted_shape
from permshape.samplers import derive_rng, sample_uniform
from permshape.verify import _five_sampler_draws


class TestGreeneReport:
    def test_worked_example(self):
        inc = greene_report(Permutation([5, 3, 2, 1, 4, 6])).increasing_invariants
        assert inc[0] == 3
        assert inc[1] == 4  # lambda1 + lambda2 of (3,1,1,1)

    def test_identity(self):
        assert greene_report(Permutation.identity(5)).increasing_invariants == (5,) * 5

    def test_decreasing_family(self):
        dec = greene_report(Permutation([5, 3, 2, 1, 4, 6])).decreasing_invariants
        # conjugate of (3,1,1,1) is (4,1,1)
        assert dec[0] == 4
        assert dec[1] == 5

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


def drop_last_rows(letters, offsets, max_rows=ALL_ROWS):
    """The batch shape peel with each shape's last row lost."""
    shapes = insertion_shape_batch(letters, offsets, max_rows)
    rows = np.count_nonzero(shapes, axis=1)
    shapes[np.flatnonzero(rows), rows[rows > 0] - 1] = 0
    return shapes


def _partitions(size: int, largest: int | None = None):
    """Every partition of size with parts at most largest, as a tuple."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _partitions(size - first, first):
            yield (first, *rest)


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

    def test_interlacing_implies_the_tail_sum_and_row_count_bounds(self):
        # the check tests only the interlacing m + B_{i-1} <= A_i <= m + B_i
        # (A, B the partial sums of a, b), since these two bounds follow from it
        shapes = [YoungDiagram(parts) for size in range(8) for parts in _partitions(size)]
        interlacing = 0
        for a, b in itertools.product(shapes, repeat=2):
            rows = range(1, max(a.num_rows, b.num_rows) + 2)
            sums_a = list(itertools.accumulate(a.part(i) for i in rows))
            sums_b = [0, *itertools.accumulate(b.part(i) for i in rows)]
            tails = list(itertools.accumulate(a.part(k) - b.part(k) for k in rows[1:]))
            for m in range(5):
                if all(m + sums_b[i - 1] <= sums_a[i - 1] <= m + sums_b[i] for i in rows):
                    interlacing += 1
                    assert max(map(abs, tails), default=0) <= b.part(1), (a, b, m)
                    assert b.num_rows <= a.num_rows <= b.num_rows + 1, (a, b, m)
        # 45 shapes, so 384 of the 10,125 triples interlace
        assert len(shapes) == 45 and interlacing == 384

    @pytest.mark.parametrize("word, witness", [
        ("1", {"inequality": "first_row_bounds", "shape_sigma": "", "shape_reduced": "",
               "fixed_points": 1, "lambda1": 0}),
        ("2 1 5 4 3", {"inequality": "partial_sum_bounds", "shape_sigma": "2,2",
                       "shape_reduced": "2", "fixed_points": 1, "index": 2}),
    ])
    def test_a_lost_row_is_named(self, monkeypatch, word, witness):
        # a shape routine that drops each shape's last row breaks the bounds
        monkeypatch.setattr(oracles, "insertion_shape_batch", drop_last_rows)
        res = check_fixed_point_bounds(Permutation.from_text(word))
        assert not res.ok
        assert res.witness == {"sigma": word, **witness}


    @pytest.mark.parametrize("shapes", [insertion_shape_batch, drop_last_rows],
                             ids=["peel", "lost-row"])
    def test_batch_finds_the_first_failing_index_of_the_loop(self, monkeypatch, shapes):
        # the interlacing checked one i at a time, as a loop over the
        # diagrams of the same peel, is the reference for the array pass
        monkeypatch.setattr(oracles, "insertion_shape_batch", shapes)
        perms = list(_five_sampler_draws(400, seed=47))
        check = check_fixed_point_bounds_batch(*concat_words([p.zero_based for p in perms]))
        failures = 0
        for k, p in enumerate(perms):
            fixed, reduced = remove_fixed_points(p)
            a, b = (YoungDiagram.from_parts(row[row > 0]) for row in
                    (shapes(q.zero_based, np.array([0, q.n]))[0] for q in (p, reduced)))
            m, sum_a, sum_b, first = fixed.shape[0], 0, 0, None
            for i in range(1, max(a.num_rows, b.num_rows) + 2):
                sum_a += a.part(i)
                if not m + sum_b <= sum_a <= m + sum_b + b.part(i):
                    first = {"lambda1": sum_a} if i == 1 else {"index": i}
                    break
                sum_b += b.part(i)
            witness = check.witness(k)
            assert check.ok[k] == (first is None) == (witness is None), p
            if first is not None:
                failures += 1
                assert witness == {**witness, **first, "shape_sigma": a.to_text(),
                                   "shape_reduced": b.to_text(), "fixed_points": m}, p
        # a lost row breaks the interlacing of 18 of these draws
        assert failures == (18 if shapes is drop_last_rows else 0)


def every_verdict_fails(a_parts, b_parts):
    """``profile_pairs_batch`` with every verdict False; distance and bound kept."""
    distance, bound, dominates = shape_geom.profile_pairs_batch(a_parts, b_parts)
    return distance, bound, np.zeros_like(dominates)


class TestProfileDistanceBoundCheck:
    def test_identical(self):
        d = YoungDiagram((3, 2, 2))
        res = check_profile_distance_bound(d, d)
        assert res.ok and res.witness["slack"] == pytest.approx(0.0)

    def test_one_box_vs_empty(self):
        res = check_profile_distance_bound(YoungDiagram((1,)), YoungDiagram(()))
        assert res.ok
        assert res.witness["slack"] == pytest.approx(0.0, abs=1e-12)

    def test_failure_reports_both_sides(self, monkeypatch):
        monkeypatch.setattr(oracles, "profile_pairs_batch", every_verdict_fails)
        a, b = YoungDiagram((3, 1)), YoungDiagram((2, 2))
        res = check_profile_distance_bound(a, b)
        assert not res.ok
        assert res.witness == {"a": "3,1", "b": "2,2",
                               "distance": shape_geom.sup_profile_distance(a, b),
                               "bound": shape_geom.profile_distance_bound(a, b)}

    def test_a_failing_pair_of_a_batch_reports_its_own_values(self, monkeypatch):
        # the two tables have their own widths and the pairs their own row
        # counts; each witness holds its pair's one-pair values, bit for bit
        monkeypatch.setattr(oracles, "profile_pairs_batch", every_verdict_fails)
        rng = derive_rng(44)
        tables = [insertion_shape_batch(*concat_words(
            [sample_uniform(int(rng.integers(0, 301)), rng).zero_based for _ in range(1000)]))
            for _ in range(2)]
        assert tables[0].shape[1] != tables[1].shape[1]
        check = oracles.check_profile_distance_bound_batch(*tables)
        assert not check.ok.any()
        for k in range(1000):
            a, b = (YoungDiagram.from_parts(table[k][table[k] > 0]) for table in tables)
            assert check.witness(k) == {"a": a.to_text(), "b": b.to_text(),
                                        "distance": shape_geom.sup_profile_distance(a, b),
                                        "bound": shape_geom.profile_distance_bound(a, b)}, k

    def test_random_fuzz(self):
        rng = derive_rng(43)
        for _ in range(300):
            a = schensted_shape(sample_uniform(int(rng.integers(0, 80)), rng))
            b = schensted_shape(sample_uniform(int(rng.integers(0, 80)), rng))
            assert check_profile_distance_bound(a, b).ok
