import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from permshape.diagram import YoungDiagram
from permshape.rsk import schensted_shape
from permshape.samplers import derive_rng, sample_uniform
from permshape.shape_geom import (
    SQRT2,
    bound_dominates_distance,
    bound_dominates_distance_batch,
    height_profile,
    height_unit_cells,
    limit_curve,
    omega,
    profile_distance_bound,
    profile_distance_bound_batch,
    profile_rows,
    scaled_height_unit,
    scaled_kinks,
    scaled_sup_distance,
    sup_profile_distance,
    sup_profile_distance_batch,
)

partitions = st.lists(st.integers(1, 15), max_size=12).map(
    lambda xs: YoungDiagram(tuple(sorted(xs, reverse=True)))
)


def corner_profile(d: YoungDiagram, xs):
    """Independent profile oracle from the boundary staircase.

    The diagram boundary visits (row index i, part length v) corners; rotating
    (u, v) -> (t, h) = (v - u, v + u) turns the staircase into the profile
    polyline, extended along h = |t| far away. Linear interpolation between
    the rotated corners evaluates L anywhere.
    """
    xs = np.asarray(xs, dtype=np.float64)
    pad = int(np.ceil(np.abs(xs).max())) + d.n + 2 if xs.size else d.n + 2
    pts = [(0.0, d.part(1) + pad)]
    for i in range(1, d.num_rows + 1):
        pts.append((float(i - 1), float(d.part(i))))
        pts.append((float(i), float(d.part(i))))
    pts.append((float(d.num_rows), 0.0))
    pts.append((float(d.num_rows) + pad, 0.0))
    ts = np.array([v - u for u, v in pts])[::-1]
    hs = np.array([v + u for u, v in pts])[::-1]
    return np.interp(xs, ts, hs)


class TestHeightProfile:
    def test_durfee_square_example(self):
        d = YoungDiagram((7, 5, 2, 1, 1))
        assert height_profile(d, [0]).tolist() == [4]

    def test_tails_are_absolute_value(self):
        d = YoungDiagram((7, 5, 2, 1, 1))
        assert height_profile(d, [7, -5, 100]).tolist() == [7, 5, 100]

    def test_empty_diagram(self):
        assert height_profile(YoungDiagram(()), [3, -4]).tolist() == [3, 4]

    @given(partitions)
    def test_matches_corner_construction(self, d):
        ts = np.arange(-(d.num_rows + 3), d.part(1) + 4)
        expected = corner_profile(d, ts)
        got = height_profile(d, ts)
        assert np.array_equal(got.astype(float), expected)

    @given(partitions)
    def test_parity_positivity_area(self, d):
        lo, hi = -(d.num_rows + 2), d.part(1) + 2
        ts = np.arange(lo, hi + 1)
        L = height_profile(d, ts)
        excess = L - np.abs(ts)
        assert (excess >= 0).all()
        assert ((L - ts) % 2 == 0).all()
        assert int(excess.sum()) == 2 * d.n  # every cell once per diagonal
        assert (np.abs(np.diff(L)) == 1).all()

    @given(partitions, st.integers(-20, 20))
    def test_unit_cell_parity(self, d, i):
        # (sqrt2/2) L_cell((sqrt2/2) i) +- i/2 are nonnegative integers
        val = (SQRT2 / 2.0) * height_unit_cells(d, (SQRT2 / 2.0) * i)
        for signed in (val + i / 2.0, val - i / 2.0):
            assert signed >= -1e-9
            assert abs(signed - round(signed)) < 1e-9

    def test_profile_rows_window(self):
        rows = dict(profile_rows(YoungDiagram((7, 5, 2, 1, 1))))
        assert rows[0] == 4
        assert rows[7] == 7 and rows[8] == 8
        assert rows[-5] == 5 and rows[-6] == 6


class TestOmega:
    def test_fixed_values(self):
        assert omega(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert omega(1.0) == 1.0 and omega(-1.0) == 1.0
        assert omega(2.0) == 2.0 and omega(-3.5) == 3.5

    def test_value_at_half_against_quadrature(self):
        # omega' = (2/pi) arcsin, so omega(x) = omega(0) + int_0^x (2/pi) asin
        expected, err = quad(lambda u: (2.0 / math.pi) * math.asin(u), 0.0, 0.5)
        expected += 2.0 / math.pi
        assert err < 1e-12
        assert omega(0.5) == pytest.approx(expected, abs=1e-12)
        assert omega(0.5) == pytest.approx(0.7179955620884587, abs=1e-15)

    def test_even_and_dominates_abs(self):
        s = np.linspace(-3, 3, 301)
        vals = omega(s)
        assert np.allclose(vals, omega(-s))
        assert (vals >= np.abs(s) - 1e-15).all()
        inside = np.abs(s) < 1
        assert (vals[inside] > np.abs(s[inside]))[np.abs(s[inside]) < 0.999].all()

    def test_lipschitz(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(-2, 2, size=500)
        h = rng.uniform(-0.5, 0.5, size=500)
        assert (np.abs(omega(s + h) - omega(s)) <= np.abs(h) + 1e-12).all()


class TestLimitCurve:
    def test_p_zero_is_omega(self):
        s = np.linspace(-2, 2, 101)
        assert np.allclose(limit_curve(s, 0.0), omega(s))

    def test_support_and_tail(self):
        # bump support ends at sqrt(1-p); outside it the curve is exactly |s|
        p = 0.5
        r = math.sqrt(1 - p)
        assert limit_curve(r, p) == pytest.approx(r)
        assert limit_curve(2.0, p) == pytest.approx(2.0)
        assert limit_curve(-1.01 * r, p) == pytest.approx(1.01 * r)
        assert limit_curve(0.0, p) == pytest.approx(r * 2.0 / math.pi)

    def test_all_fixed_points(self):
        s = np.linspace(-2, 2, 41)
        assert np.allclose(limit_curve(s, 1.0), np.abs(s))

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_curve(0.0, 1.5)


class TestScaledSupDistance:
    def test_single_box(self):
        # sup attained at s=0: F(0) = L(0)/2 = 1 vs omega(0) = 2/pi
        d = YoungDiagram((1,))
        expected = 1.0 - 2.0 / math.pi
        assert scaled_sup_distance(d, 1, 0) == pytest.approx(expected, abs=1e-15)

    def test_single_box_sup_is_at_zero(self):
        d = YoungDiagram((1,))
        ss = np.linspace(-3, 3, 2001)
        gaps = [abs(scaled_height_unit(d, 1, s) - limit_curve(s, 0.0)) for s in ss]
        assert max(gaps) <= scaled_sup_distance(d, 1, 0) + 1e-12

    def test_scan_never_underestimates_dense_scan(self):
        # the kink scan is exact: no point of a dense grid beats it beyond
        # rounding, since the difference is monotone between kinks
        rng = derive_rng(17)
        s = np.linspace(-4, 4, 20_001)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            d = schensted_shape(sample_uniform(n, rng))
            m = int(rng.integers(0, n + 1))
            reported = scaled_sup_distance(d, n, m)
            dense = np.max(np.abs(scaled_height_unit(d, n, s) - limit_curve(s, m / n)))
            assert reported >= dense - 1e-12

    def test_is_the_maximum_over_scaled_kinks(self):
        # the distance scans exactly the rows the profile dump prints, bit for
        # bit, and both curves are back on |s| at the two ends of the window
        rng = derive_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 500))
            d = schensted_shape(sample_uniform(n, rng))
            for m in (0, int(rng.integers(0, n + 1)), n):
                s, f, phi = scaled_kinks(d, n, m)
                ends = np.abs(s[[0, -1]])
                assert np.array_equal(f[[0, -1]], ends)
                assert np.allclose(phi[[0, -1]], ends, rtol=0, atol=1e-12)
                gaps = [abs(fk - pk) for _, fk, pk in zip(s, f, phi)]
                assert scaled_sup_distance(d, n, m) == max(gaps)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            scaled_sup_distance(YoungDiagram(()), 0, 0)
        with pytest.raises(ValueError):
            scaled_sup_distance(YoungDiagram((2,)), 3, 0)
        with pytest.raises(ValueError):
            scaled_sup_distance(YoungDiagram((2,)), 2, 3)

    def test_identity_permutation_shape_converges(self):
        # all fixed points: profile is a thin strip over |s|, distance 1/sqrt(n)
        for n in (4, 100, 2500):
            d = YoungDiagram((n,))
            assert scaled_sup_distance(d, n, n) == pytest.approx(1.0 / math.sqrt(n))


class TestProfileDistance:
    def test_identical(self):
        d = YoungDiagram((3, 2))
        assert sup_profile_distance(d, d) == 0.0

    def test_one_box_vs_empty(self):
        assert sup_profile_distance(YoungDiagram((1,)), YoungDiagram(())) == pytest.approx(SQRT2)

    def test_row_vs_column(self):
        a, b = YoungDiagram((2,)), YoungDiagram((1, 1))
        assert sup_profile_distance(a, b) == pytest.approx(SQRT2)

    @given(partitions, partitions)
    def test_symmetry_and_triangle_zero(self, a, b):
        assert sup_profile_distance(a, b) == sup_profile_distance(b, a)
        assert sup_profile_distance(a, a) == 0.0


class TestDistanceBound:
    def test_identical_is_zero(self):
        d = YoungDiagram((4, 2, 1))
        assert profile_distance_bound(d, d) == 0.0

    def test_one_box_vs_empty(self):
        # min(l=0: 2, l=1: sqrt2) = sqrt2
        assert profile_distance_bound(YoungDiagram((1,)), YoungDiagram(())) == pytest.approx(SQRT2)

    @given(partitions, partitions)
    def test_dominates_distance(self, a, b):
        assert bound_dominates_distance(a, b)
        assert profile_distance_bound(a, b) >= sup_profile_distance(a, b) - 1e-12

    def test_dominates_on_schensted_pairs(self):
        rng = derive_rng(19)
        for _ in range(200):
            a = schensted_shape(sample_uniform(int(rng.integers(0, 120)), rng))
            b = schensted_shape(sample_uniform(int(rng.integers(0, 120)), rng))
            assert bound_dominates_distance(a, b)


def _table(diagrams):
    """Zero-padded parts, one diagram a row, as wide as the most rows."""
    width = max((d.num_rows for d in diagrams), default=0)
    return np.array([d.parts + (0,) * (width - d.num_rows) for d in diagrams],
                    dtype=np.int64).reshape(len(diagrams), width)


def _brute_gap_and_bound(a, b):
    """The integer profile gap, from height_profile on every integer t of
    both diagrams' reach, and the bound, from the tail sums one l at a time."""
    t = np.arange(-max(a.num_rows, b.num_rows) - 2, max(a.part(1), b.part(1)) + 3)
    gap = int(np.abs(height_profile(a, t) - height_profile(b, t)).max())
    rows = max(a.num_rows, b.num_rows)
    diffs = [a.part(k) - b.part(k) for k in range(1, rows + 1)]
    tails = [max((abs(sum(diffs[l:m])) for m in range(l + 1, rows + 1)), default=0)
             for l in range(rows + 1)]
    bound = min(2.0 * math.sqrt(k) + SQRT2 * l for l, k in enumerate(tails))
    dominates = all(gap <= 2 * l or (gap - 2 * l) ** 2 <= 8 * k for l, k in enumerate(tails))
    return gap, bound, dominates


class TestPairwiseBatches:
    @given(st.lists(st.tuples(partitions, partitions), max_size=12))
    @example([(YoungDiagram(()), YoungDiagram(())), (YoungDiagram((1,)), YoungDiagram(())),
              (YoungDiagram((15,) * 12), YoungDiagram((1,)))])
    def test_each_pair_of_a_batch_is_its_own_pair(self, pairs):
        # the two tables have their own widths; every pair gets the exact
        # values of the one-pair functions and of a brute-force route
        a_parts, b_parts = _table([a for a, _ in pairs]), _table([b for _, b in pairs])
        distance = sup_profile_distance_batch(a_parts, b_parts)
        bound = profile_distance_bound_batch(a_parts, b_parts)
        dominates = bound_dominates_distance_batch(a_parts, b_parts)
        assert distance.shape == bound.shape == dominates.shape == (len(pairs),)
        for k, (a, b) in enumerate(pairs):
            gap, brute_bound, brute_dominates = _brute_gap_and_bound(a, b)
            assert distance[k] == sup_profile_distance(a, b) == gap / SQRT2
            assert bound[k] == profile_distance_bound(a, b) == brute_bound
            assert dominates[k] == bound_dominates_distance(a, b) == brute_dominates


class TestConventionReconciliation:
    def test_two_scalings_agree(self):
        # on the kinks, and between them: interpolating the kink values
        # gives the unit-cell route at any s, as both are linear there
        rng = derive_rng(23)
        worst = 0.0
        for _ in range(30):
            n = int(rng.integers(1, 1500))
            d = schensted_shape(sample_uniform(n, rng))
            s, f, _ = scaled_kinks(d, n, 0)
            worst = max(worst, np.max(np.abs(f - scaled_height_unit(d, n, s))))
            between = rng.uniform(s[0], s[-1], size=40)
            gap = np.interp(between, s, f) - scaled_height_unit(d, n, between)
            worst = max(worst, np.max(np.abs(gap)))
        assert worst <= 1e-12

    def test_array_of_s_matches_scalar_calls(self):
        # bit for bit, and a scalar s still gives a float
        rng = derive_rng(24)
        for n in (1, 7, 300):
            d = schensted_shape(sample_uniform(n, rng))
            ss = rng.uniform(-3.0, 3.0, size=50)
            scalar = [scaled_height_unit(d, n, float(s)) for s in ss]
            assert all(type(v) is float for v in scalar)
            assert scaled_height_unit(d, n, ss).tolist() == scalar
            xs = ss * n
            assert height_unit_cells(d, xs).tolist() == [height_unit_cells(d, float(x)) for x in xs]

    @given(partitions)
    @example(YoungDiagram((7, 5, 2, 1, 1)))
    def test_unit_cell_evaluator_is_scaled_integer_profile(self, d):
        # the cell envelope against the boundary staircase
        xs = np.linspace(-(d.num_rows + 3), d.part(1) + 3, 97) / SQRT2
        got = height_unit_cells(d, xs)
        assert np.allclose(got, corner_profile(d, xs * SQRT2) / SQRT2, rtol=0, atol=1e-12)
