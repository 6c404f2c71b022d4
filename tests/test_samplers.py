import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import chi2
from test_golden import CASES, TRIALS

from permshape._kernels import cycle_scan
from permshape.perm import Permutation, cycle_stats, cycle_type
from permshape.samplers import (
    CORES,
    ENSEMBLES,
    FIX_RULES,
    REGIME_CHOICES,
    REGIME_KEYS,
    RegimeSpec,
    derive_rng,
    parse_key_values,
    sample_fpf_involution,
    sample_in_cycle_type,
    sample_regime,
    sample_uniform,
    sample_uniform_involution,
    _involution_cdf,
    _log_gamma,
)


@st.composite
def regime_kwargs(draw):
    """Keyword sets near a valid regime: the keys the tables say it reads,
    with at most one key flipped between given and left out."""
    values = {
        "ensemble": draw(st.sampled_from(sorted(ENSEMBLES))),
        "core": draw(st.sampled_from(sorted(CORES))),
        "fix_rule": draw(st.sampled_from(sorted(FIX_RULES))),
        **{key: draw(st.floats(0.0, 3.0)) for key in ("theta", "beta", "p", "c")},
        "cycle_type": draw(st.lists(st.integers(1, 4), max_size=4)
                           .map(lambda parts: tuple(sorted(parts, reverse=True)))),
    }
    reads = {"ensemble"}
    for key in REGIME_KEYS:
        if key in reads and key in REGIME_CHOICES:
            reads |= set(REGIME_CHOICES[key][values[key]][0])
    flipped = draw(st.sets(st.sampled_from(sorted(set(values) - {"ensemble"})), max_size=1))
    given_keys = reads ^ flipped
    return {k: v for k, v in values.items() if k in given_keys}


# fix_rule -> a strategy for each parameter it reads, over its valid range
FIX_RULE_PARAMS = {
    "constant": {"c": st.integers(0, 50).map(float)},
    "theta_log": {"theta": st.floats(0.01, 10.0)},
    "power": {"beta": st.floats(0.01, 0.99), "c": st.floats(0.0, 10.0)},
    "linear": {"p": st.floats(0.0, 1.0)},
}


def walked_type(p):
    """The cycle type of p's word by a walk, whatever runs p states."""
    return cycle_type(Permutation.from_zero_based(p.zero_based))


def scanned_stats(p):
    """cycle_stats(p), checked against a scan of the word: a draw may state
    its runs, and then its whole cycle type must be the one its word has."""
    assert cycle_type(p) == walked_type(p)
    cs = cycle_stats(p)
    assert (cs.num_cycles, cs.fixed_points, cs.two_cycles) == cycle_scan(p.zero_based)
    return cs


def assert_uniform_over_cells(counts, n_cells, total, alpha=1e-3):
    """Chi-square goodness of fit against the uniform law on n_cells cells."""
    assert len(counts) == n_cells
    expected = total / n_cells
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat <= chi2.ppf(1.0 - alpha, df=n_cells - 1), f"chi2={stat:.2f}"


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, 10, 3).integers(0, 1 << 30, size=5)
        b = derive_rng(42, 10, 3).integers(0, 1 << 30, size=5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = derive_rng(42, 10, 3).integers(0, 1 << 30, size=5)
        b = derive_rng(42, 10, 4).integers(0, 1 << 30, size=5)
        c = derive_rng(43, 10, 3).integers(0, 1 << 30, size=5)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            derive_rng(-1)


class TestSampleUniform:
    def test_n_one(self):
        rng = derive_rng(0)
        for _ in range(10):
            assert sample_uniform(1, rng) == Permutation([1])

    def test_uniform_over_s3(self):
        rng = derive_rng(1)
        total = 60_000
        counts = Counter(sample_uniform(3, rng).word.tobytes() for _ in range(total))
        assert_uniform_over_cells(counts, 6, total)

    def test_same_seed_same_output(self):
        xs = [sample_uniform(8, derive_rng(9, i)).to_text() for i in range(5)]
        ys = [sample_uniform(8, derive_rng(9, i)).to_text() for i in range(5)]
        assert xs == ys


class TestSampleInCycleType:
    def test_all_ones_is_identity(self):
        rng = derive_rng(2)
        for _ in range(5):
            assert sample_in_cycle_type((1, 1, 1, 1), rng) == Permutation.identity(4)

    def test_three_cycles_balanced(self):
        rng = derive_rng(3)
        total = 40_000
        counts = Counter(
            sample_in_cycle_type((3,), rng).word.tobytes() for _ in range(total)
        )
        # the two 3-cycles, balanced
        assert_uniform_over_cells(counts, 2, total)

    def test_two_two_cycles_uniform_over_three_matchings(self):
        rng = derive_rng(4)
        total = 30_000
        counts = Counter(
            sample_in_cycle_type((2, 2), rng).word.tobytes() for _ in range(total)
        )
        assert_uniform_over_cells(counts, 3, total)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_cycle_loop(self, seed):
        # the reference fills each cycle of the arrangement with one roll
        rng = np.random.default_rng(seed)
        for _ in range(25):
            parts = sorted(rng.integers(1, 9, size=rng.integers(0, 12)).tolist(), reverse=True)
            got = sample_in_cycle_type(tuple(parts), derive_rng(seed, len(parts)))
            arrangement = derive_rng(seed, len(parts)).permutation(sum(parts))
            word = np.empty(sum(parts), dtype=np.int64)
            offset = 0
            for length in parts:
                block = arrangement[offset : offset + length]
                word[block] = np.roll(block, -1)
                offset += length
            assert got == Permutation.from_zero_based(word)

    @pytest.mark.parametrize("lengths", [(4, 2, 1), (1, 2, 4), (2, 1, 4)])
    def test_cycle_type_is_respected(self, lengths):
        # the lengths may come in any order
        rng = derive_rng(5)
        for _ in range(20):
            cs = scanned_stats(sample_in_cycle_type(lengths, rng))
            assert cs.n == 7 and cs.num_cycles == 3
            assert cs.fixed_points == 1 and cs.two_cycles == 1

    @pytest.mark.parametrize("lengths", [(0,), (-1,), (2.5,), (3, 0, 1), (2, -1)])
    def test_rejects_a_length_that_is_not_a_positive_integer(self, lengths):
        with pytest.raises(ValueError, match="cycle lengths"):
            sample_in_cycle_type(lengths, derive_rng(5))

    def test_regime_takes_weakly_decreasing_positive_parts(self):
        for parts in ((1, 2), (0,), (2, 0), (3, -1)):
            with pytest.raises(ValueError, match="cycle_type"):
                RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=parts)


class TestSampleUniformInvolution:
    def test_size_two_split(self):
        rng = derive_rng(6)
        total = 40_000
        counts = Counter(
            sample_uniform_involution(2, rng).word.tobytes() for _ in range(total)
        )
        assert_uniform_over_cells(counts, 2, total)

    def test_size_three_quarters(self):
        rng = derive_rng(7)
        total = 40_000
        counts = Counter(
            sample_uniform_involution(3, rng).word.tobytes() for _ in range(total)
        )
        assert_uniform_over_cells(counts, 4, total)

    def test_outputs_are_involutions(self):
        rng = derive_rng(8)
        for n in (0, 1, 5, 40, 201):
            p = sample_uniform_involution(n, rng)
            z = p.zero_based
            assert z[z].tolist() == list(range(n))

    # scipy.special.gammaln is the reference here alone: the package draws
    # without scipy, and its port of cephes lgam must agree bit for bit
    def test_log_gamma_is_gammaln_bit_for_bit(self):
        x = np.arange(1.0, 200_001.0)
        assert np.array_equal(_log_gamma(x), gammaln(x))
        # both sides of each bound of cephes lgam's branches, and all at once
        around = [np.arange(max(bound - 50, 1), bound + 51.0) for bound in (13, 1000, 10**8)]
        for x in [*around, np.concatenate(around)]:
            assert np.array_equal(_log_gamma(x), gammaln(x)), x[0]

    def test_cdf_is_the_gammaln_expression_bit_for_bit(self):
        # every k weighed by gammaln, as the CDF was made before; past
        # n = 327 the CDF weighs only the heavy 2-cycle counts
        def reference(n):
            ks = np.arange(n // 2 + 1)
            logw = (gammaln(n + 1) - gammaln(ks + 1) - ks * math.log(2.0)
                    - gammaln(n - 2 * ks + 1))
            return np.cumsum(np.exp(logw - logw.max()))

        for n in [*range(3001), 10**5, 10**6]:
            assert np.array_equal(_involution_cdf(n), reference(n)), n


class TestSampleFpfInvolution:
    def test_n_two(self):
        rng = derive_rng(9)
        for _ in range(5):
            assert sample_fpf_involution(2, rng) == Permutation([2, 1])

    def test_n_four_three_matchings(self):
        rng = derive_rng(10)
        total = 30_000
        counts = Counter(sample_fpf_involution(4, rng).word.tobytes() for _ in range(total))
        assert_uniform_over_cells(counts, 3, total)

    def test_structure(self):
        rng = derive_rng(11)
        for n in (2, 10, 100):
            cs = scanned_stats(sample_fpf_involution(n, rng))
            assert cs.fixed_points == 0 and cs.two_cycles == n // 2

    def test_parity_error(self):
        with pytest.raises(ValueError, match="parity"):
            sample_fpf_involution(5, derive_rng(12))


class TestSampleRegime:
    def test_pure_n_cycle(self):
        spec = RegimeSpec(ensemble="n_cycle")
        cs = scanned_stats(sample_regime(spec, 50, derive_rng(13)))
        assert cs.num_cycles == 1 and cs.fixed_points == 0

    def test_composite_fpf_half(self):
        spec = RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="linear", p=0.5)
        rng = derive_rng(14)
        for n in (10, 11, 57, 100):
            p = sample_regime(spec, n, rng)
            cs = scanned_stats(p)
            assert cs.fixed_points == spec.fix_count(n)
            assert cs.fixed_points_of_square == n  # involutions square to identity

    def test_theta_log_fix_count(self):
        # floor(1000 / ln 1000) = 144, and the core is one long cycle
        spec = RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="theta_log", theta=1.0)
        assert spec.fix_count(1000) == 144
        cs = scanned_stats(sample_regime(spec, 1000, derive_rng(15)))
        assert cs.fixed_points == 144
        assert cs.num_cycles - cs.fixed_points == 1

    def test_parity_repair_from_zero(self):
        # odd n with an fpf core and target m=0 must bump m up to 1
        spec = RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="constant", c=0)
        cs = scanned_stats(sample_regime(spec, 7, derive_rng(16)))
        assert cs.fixed_points == 1
        assert cs.fixed_points_of_square == 7

    def test_parity_repair_decrements(self):
        spec = RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="constant", c=4)
        cs = scanned_stats(sample_regime(spec, 9, derive_rng(17)))
        assert cs.fixed_points == 3  # 9 - 4 is odd, so m drops to 3

    def test_lone_element_core_repair(self):
        spec = RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant", c=4)
        cs = scanned_stats(sample_regime(spec, 5, derive_rng(18)))
        assert cs.fixed_points == 3  # core of size 1 would be a fixed point

    def test_derangement_core(self):
        spec = RegimeSpec(
            ensemble="composite", core="uniform_derangement", fix_rule="linear", p=0.4
        )
        rng = derive_rng(19)
        for n in (5, 20, 101):
            p = sample_regime(spec, n, rng)
            assert scanned_stats(p).fixed_points == spec.fix_count(n)

    def test_measured_fix_count_close_to_rule(self):
        rng = derive_rng(20)
        for core in ("n_cycle", "fpf_involution", "uniform_derangement"):
            spec = RegimeSpec(ensemble="composite", core=core, fix_rule="power", beta=0.6, c=1.5)
            for n in (3, 17, 64, 333):
                cs = scanned_stats(sample_regime(spec, n, rng))
                assert cs.fixed_points == spec.fix_count(n)

    def test_derangement_core_of_size_zero(self):
        # rng.permutation(0) draws nothing: the empty core leaves the stream as it was
        rng = derive_rng(22)
        state = rng.bit_generator.state
        assert CORES["uniform_derangement"][1](0, rng) == Permutation.identity(0)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("fix_rule", sorted(FIX_RULES))
    @pytest.mark.parametrize("core", sorted(CORES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40))
    def test_composite_draws_never_raise(self, core, fix_rule, data, n):
        # the +-1 step off the target always lands on a core size the core
        # allows, and the draw plants the count fix_count names
        params = {key: data.draw(s, label=key) for key, s in FIX_RULE_PARAMS[fix_rule].items()}
        spec = RegimeSpec(ensemble="composite", core=core, fix_rule=fix_rule, **params)
        p = sample_regime(spec, n, derive_rng(data.draw(st.integers(0, 2**32), label="seed")))
        assert p.n == n
        assert scanned_stats(p).fixed_points == spec.fix_count(n)

    def test_uniform_in_cycle_type_regime(self):
        spec = RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=(2, 2))
        cs = scanned_stats(sample_regime(spec, 4, derive_rng(21)))
        assert cs.two_cycles == 2
        with pytest.raises(ValueError):
            sample_regime(spec, 5, derive_rng(21))


# Each cycle-type draw against numpy's own shuffle: the arrangement
# rng.permutation(n), filled with cycles of the given lengths left to right,
# and the state the shuffle leaves. The compiled path reads the stream in
# place, so its draw, the state after it and the next number drawn must all
# be numpy's, also when the stream starts on a buffered 32-bit half.
def numpy_cycle_layout(lengths, rng):
    arrangement = rng.permutation(sum(lengths))
    word = np.empty(arrangement.size, dtype=np.int64)
    offset = 0
    for length in lengths:
        block = arrangement[offset:offset + length]
        word[block] = np.roll(block, -1)
        offset += length
    return word


def numpy_matching(n, rng):
    # the pairing fpf involutions used before they went through the layout
    arrangement = rng.permutation(n)
    word = np.empty(n, dtype=np.int64)
    a, b = arrangement[0::2], arrangement[1::2]
    word[a], word[b] = b, a
    return word


def numpy_uniform_involution(n, rng):
    cdf = _involution_cdf(n)
    k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return numpy_cycle_layout([2] * k + [1] * (n - 2 * k), rng)


# sampler on (n, rng), and the same draw made with numpy's shuffle
CYCLE_TYPE_DRAWS = {
    "n_cycle": (lambda n, rng: sample_regime(RegimeSpec(ensemble="n_cycle"), n, rng),
                lambda n, rng: numpy_cycle_layout([n] if n else [], rng)),
    "fpf_involution": (lambda n, rng: sample_fpf_involution(n - n % 2, rng),
                       lambda n, rng: numpy_matching(n - n % 2, rng)),
    "uniform_involution": (sample_uniform_involution, numpy_uniform_involution),
}
LAYOUT_SIZES = (0, 1, 2, 3, 4, 10, 1000, 10**5)


def assert_draws_match(draw, reference, n, seed, pending):
    rngs = [derive_rng(seed, n) for _ in range(2)]
    if pending:
        # leaves the upper half of a 64-bit output buffered (has_uint32 = 1)
        for rng in rngs:
            rng.random(dtype=np.float32)
    got = draw(n, rngs[0])
    assert got.zero_based.tolist() == reference(n, rngs[1]).tolist()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("n", LAYOUT_SIZES)
@pytest.mark.parametrize("sampler", CYCLE_TYPE_DRAWS)
def test_cycle_type_draws_are_numpys_shuffle(sampler, n, pending):
    for seed in range(3 if n >= 10**5 else 12):
        assert_draws_match(*CYCLE_TYPE_DRAWS[sampler], n, seed, pending)


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("lengths", [(1, 3, 1), (5, 5, 1), (2, 1, 4), (1,), (3, 2, 2, 1),
                                     (1000,) * 3 + (1,) * 7 + (2,) * 500])
def test_any_order_of_cycle_lengths_is_numpys_shuffle(lengths, pending):
    for seed in range(12):
        assert_draws_match(lambda n, rng: sample_in_cycle_type(lengths, rng),
                           lambda n, rng: numpy_cycle_layout(lengths, rng), sum(lengths), seed,
                           pending)


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("cycle_type", [(1,), (4,), (2, 2), (3, 3, 1, 1, 1), (5, 5, 2, 2, 2, 1),
                                        (1,) * 7, (3,) * 5000 + (1,) * 15000])
def test_class_regime_draws_as_its_parts_do(cycle_type, pending):
    # the spec lays out its (length, count) runs, worked out once, as
    # sample_in_cycle_type lays out the parts one by one; the spec's draw
    # states its runs, the other is walked, and their statistics agree
    spec = RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=cycle_type)
    for seed in range(5):
        assert_draws_match(lambda n, rng: sample_regime(spec, n, rng),
                           lambda n, rng: sample_in_cycle_type(cycle_type, rng).zero_based,
                           sum(cycle_type), seed, pending)
        p = sample_regime(spec, sum(cycle_type), derive_rng(seed))
        q = sample_in_cycle_type(cycle_type, derive_rng(seed))
        assert p._runs is not None and q._runs is None
        assert cycle_stats(p) == cycle_stats(q)


# the ensembles, and the cores of composite ones, whose draws lay out a cycle
# type and so state its runs
STATING_ENSEMBLES = {"uniform_involution", "fpf_involution", "n_cycle", "uniform_in_cycle_type"}
STATING_CORES = {"n_cycle", "fpf_involution"}


@pytest.mark.parametrize("label", CASES)
def test_stated_counts_match_the_scan(label):
    # every ensemble and core x fix-rule pair at the golden draws' sizes
    spec, sizes = CASES[label]
    states = spec.ensemble in STATING_ENSEMBLES or spec.core in STATING_CORES
    for n in sizes:
        for trial in range(TRIALS):
            try:
                p = sample_regime(spec, n, derive_rng(7, n, trial))
            except ValueError:
                continue
            assert (p._runs is not None) == states
            scanned_stats(p)


@pytest.mark.parametrize("core", sorted(CORES))
def test_stated_counts_match_the_scan_at_a_million(core):
    spec = RegimeSpec(ensemble="composite", core=core, fix_rule="power", beta=0.5, c=1.0)
    scanned_stats(sample_regime(spec, 10**6, derive_rng(23)))


class TestRegimeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegimeSpec(ensemble="nope")
        with pytest.raises(ValueError):
            RegimeSpec(ensemble="composite")  # missing core/fix_rule
        with pytest.raises(ValueError):
            RegimeSpec(ensemble="uniform", p=1.5)
        with pytest.raises(ValueError):
            RegimeSpec(ensemble="uniform_in_cycle_type")

    def test_text_round_trip(self):
        for spec in (
            RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="theta_log",
                       theta=2.5),
            RegimeSpec(ensemble="composite", core="uniform_derangement", fix_rule="power",
                       beta=0.25, c=3.0),
            RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="linear", p=0.125),
            RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant", c=2.0),
            RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=(3, 2, 2)),
            RegimeSpec(ensemble="uniform"),
            RegimeSpec(ensemble="uniform_involution"),
            RegimeSpec(ensemble="fpf_involution"),
            RegimeSpec(ensemble="n_cycle"),
        ):
            assert RegimeSpec.from_text(spec.to_text()) == spec

    def test_cycle_type_given_as_a_list_is_stored_as_a_tuple(self):
        # config text always yields a tuple; a Python caller may pass a list
        spec = RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=[2, 2])
        same = RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=(2, 2))
        assert spec.cycle_type == (2, 2) and hash(spec) == hash(same) and spec == same
        assert RegimeSpec.from_text(spec.to_text()) == spec
        with pytest.raises(ValueError, match="cycle_type"):
            RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=[2.5, 1])

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=60).map(
        lambda parts: tuple(sorted(parts, reverse=True))))
    @example((5,))
    @example(tuple(range(40, 0, -1)))
    @example((3,) * 5000 + (2,) + (1,) * 15000)
    def test_runs_are_the_parts_counted_in_order(self, parts):
        # the runs found by bisection on the weakly decreasing parts
        spec = RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=parts)
        counted = tuple(v for run in Counter(parts).items() for v in run)
        assert spec._cycle_runs == (counted, sum(parts))

    @given(regime_kwargs())
    def test_constructor_and_text_accept_the_same_regimes(self, kwargs):
        text = "\n".join(f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
                         for key, v in kwargs.items())
        try:
            spec = RegimeSpec(**kwargs)
        except ValueError:
            with pytest.raises(ValueError):
                RegimeSpec.from_text(text)
            return
        assert RegimeSpec.from_text(text) == spec
        assert RegimeSpec.from_text(spec.to_text()) == spec

    def test_a_key_the_regime_does_not_read_is_rejected(self):
        with pytest.raises(ValueError, match="ensemble uniform does not read p$"):
            RegimeSpec(ensemble="uniform", p=0.5)
        with pytest.raises(ValueError, match="with fix_rule constant does not read theta$"):
            RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant", c=2, theta=7)

    def test_a_key_a_core_reads_is_required_and_written(self, monkeypatch):
        # a core entry's reads widen the regime as an ensemble's or a rule's do
        monkeypatch.setitem(CORES, "theta_cycle", (("theta",), *CORES["n_cycle"][1:]))
        regime = {"ensemble": "composite", "core": "theta_cycle", "fix_rule": "constant", "c": 1}
        with pytest.raises(ValueError, match="with core theta_cycle with fix_rule constant "
                                             "needs theta$"):
            RegimeSpec(**regime)
        spec = RegimeSpec(**regime, theta=2.0)
        assert spec.keys() == ("ensemble", "core", "fix_rule", "theta", "c")
        assert RegimeSpec.from_text(spec.to_text()) == spec

    @pytest.mark.parametrize("fix_rule, given_params, missing", [
        ("constant", {}, "c"),
        ("theta_log", {}, "theta"),
        ("power", {"c": 1.0}, "beta"),
        ("power", {"beta": 0.5}, "c"),
        ("linear", {}, "p"),
    ])
    def test_a_parameter_the_fix_rule_reads_is_required(self, fix_rule, given_params, missing):
        # no default stands in for it: a missing c is not c = 0
        with pytest.raises(ValueError, match=f"with fix_rule {fix_rule} needs {missing}$"):
            RegimeSpec(ensemble="composite", core="n_cycle", fix_rule=fix_rule, **given_params)

    def test_to_text_writes_only_keys_the_ensemble_reads(self):
        assert RegimeSpec(ensemble="n_cycle").to_text() == "ensemble = n_cycle"
        assert RegimeSpec(ensemble="uniform_in_cycle_type", cycle_type=(2, 2)).to_text() == (
            "ensemble = uniform_in_cycle_type\ncycle_type = 2,2")
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="power",
                          beta=0.25, c=3.0).to_text() == (
            "ensemble = composite\ncore = n_cycle\nfix_rule = power\nbeta = 0.25\nc = 3.0")

    @pytest.mark.parametrize("text", [
        "ensemble = n_cycle\ncore = n_cycle",
        "fix_rule = linear",  # the ensemble defaults to uniform
        "ensemble = fpf_involution\ntheta = 2",
        "ensemble = composite\ncore = n_cycle\nfix_rule = constant\ncycle_type = 2,2",
        "ensemble = uniform\ncycle_type = 2,2",
        "ensemble = uniform\ntrails = 50",
        "ensemble = composite\ncore = n_cycle\nfix_rule = theta_log\ntheta = two",
        "ensemble = composite\ncore = n_cycle\nfix_rule = theta_log\ntheta = nan",
        "ensemble = composite\ncore = n_cycle\nfix_rule = constant\nc = inf",
        # fix-rule parameters the rule does not read
        "ensemble = composite\ncore = n_cycle\nfix_rule = constant\nc = 2\ntheta = 7",
        "ensemble = composite\ncore = n_cycle\nfix_rule = theta_log\nbeta = 0.5",
        "ensemble = composite\ncore = n_cycle\nfix_rule = power\np = 0.5",
        "ensemble = composite\ncore = n_cycle\nfix_rule = linear\np = 0.5\nc = 1",
        "ensemble = uniform_in_cycle_type\ncycle_type = 2,,2",
    ])
    def test_from_text_rejects(self, text):
        with pytest.raises(ValueError):
            RegimeSpec.from_text(text)

    def test_key_value_parser(self):
        assert parse_key_values("# head\n a = 1 # one\n\nb=x, y\nc =\n") == {
            "a": "1", "b": "x, y", "c": ""}
        for text in ("ensemble uniform", " = 3", "a = 1\na = 2"):
            with pytest.raises(ValueError):
                parse_key_values(text)

    def test_fix_rules(self):
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant", c=7).fix_count(100) == 7
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="linear", p=0.25).fix_count(100) == 25
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="power", c=2, beta=0.5).fix_count(100) == 20
        # clamped to [0, n], then rounded down: an infinite target is clamped
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant", c=999).fix_count(10) == 10
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="power", c=1e308,
                          beta=0.5).fix_count(100) == 100
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="theta_log",
                          theta=1e308).fix_count(100) == 100
        # then moved by one when the core cannot live on the rest: down, or up from 0
        fpf = {"ensemble": "composite", "core": "fpf_involution", "fix_rule": "constant"}
        assert RegimeSpec(**fpf, c=4).fix_count(9) == 3
        assert RegimeSpec(**fpf, c=0).fix_count(7) == 1
        assert RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="constant",
                          c=4).fix_count(5) == 3
