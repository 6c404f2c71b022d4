"""Seeded, reproducible samplers for conjugacy-invariant permutation ensembles.

Every sampler is a pure function of an explicit numpy Generator, so trials
are reproducible independent of scheduling: derive one stream per trial with
``derive_rng(seed, *path)`` and never share streams between workers. All
ensembles here are conjugacy invariant by construction - the cycle type is
drawn first (or is deterministic) and the class is filled exchangeably.

A draw that lays out a cycle type (n-cycles, matchings, involutions, the
``uniform_in_cycle_type`` regime and ``sample_in_cycle_type``) gives its
cycles as (length, count) runs to ``_kernels.lay_out_cycles``, which
shuffles and lays them out in one compiled call that reads the PCG64 stream
exactly as ``rng.permutation(n)`` does, so every seeded draw is numpy's;
other bit generators and the pure-Python backend take numpy's shuffle
itself. A regime's draw states its runs, which ``perm.cycle_type`` folds.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ._kernels import lay_out_cycles
from .perm import Permutation, plant_fixed_points


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-style stream derivation: a PCG64 stream keyed by (seed, path).

    The same (seed, path) always yields the same stream, regardless of how
    many other streams were derived or in which order - this is what makes
    per-trial reproducibility independent of worker scheduling.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.PCG64(ss))


# -- config text ------------------------------------------------------------


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def parse_key_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a config text; ``#`` starts a comment.

    A line without ``=``, an empty key or a key given twice is an error.
    """
    kv: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ValueError(f"config line {number} is not key = value: {line!r}")
        if key in kv:
            raise ValueError(f"config line {number} sets {key} a second time")
        kv[key] = value
    return kv


def parse_values(kv: Mapping[str, str], parsers: Mapping[str, Callable[[str], Any]]) -> dict:
    """Each value read by the parser of its key; a key with none is unknown."""
    out = {}
    for key, value in kv.items():
        if key not in parsers:
            raise ValueError(f"unknown config key {key!r}")
        try:
            out[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None
    return out


# fix_rule -> (the parameters it reads, its fixed-point target at n, which
# fix_count clamps and rounds down, the parameters that must be whole numbers)
FIX_RULES = {
    "constant": (("c",), lambda spec, n: spec.c, ("c",)),
    "theta_log": (("theta",), lambda spec, n: spec.theta * n / math.log(n) if n >= 2 else 0, ()),
    "power": (("beta", "c"), lambda spec, n: spec.c * n**spec.beta, ()),
    "linear": (("p",), lambda spec, n: spec.p * n, ()),
}


@dataclass(frozen=True)
class RegimeSpec:
    """Which ensemble to draw from, and for composite ensembles how many
    fixed points to plant and what structure to put on the rest.

    fix_rule maps n to a fixed-point count by its entry in ``FIX_RULES``,
    and ``fix_count(n)`` is the count a draw plants (see there).

    Exactly the keys the regime reads are set, each to a value its
    ``REGIME_KEYS`` row accepts; every other key stays None. The regime
    reads ensemble, the keys its ensemble's entry reads and, in turn, the
    keys the entries of those choices read.
    """

    ensemble: str
    core: str | None = None
    fix_rule: str | None = None
    theta: float | None = None
    beta: float | None = None
    p: float | None = None
    c: float | None = None
    cycle_type: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.cycle_type is not None:
            # a list from a Python caller is stored as the tuple config text gives
            try:
                parts = tuple(map(operator.index, self.cycle_type))
            except TypeError:
                raise ValueError(f"cycle_type needs integer parts, got {self.cycle_type}") from None
            object.__setattr__(self, "cycle_type", parts)
        # one walk in REGIME_KEYS order: a key is read once a choice before it
        # reads it; a message names the ensemble and each choice that reads keys
        reads, named = {"ensemble"}, {"ensemble": self.ensemble}
        for key, (_, valid, accepted) in REGIME_KEYS.items():
            value = getattr(self, key)
            if (key in reads) != (value is not None):
                subject = " with ".join(f"{k} {v}" for k, v in named.items())
                raise ValueError(f"{subject} {'needs' if key in reads else 'does not read'} {key}")
            if value is None:
                continue
            if not valid(value):
                raise ValueError(f"{key} must be {accepted}, got {value!r}")
            if key in REGIME_CHOICES:
                widened = REGIME_CHOICES[key][value][0]
                reads.update(widened)
                if widened:
                    named[key] = value
        for key in FIX_RULES[self.fix_rule][2] if self.fix_rule else ():
            if getattr(self, key) % 1:
                raise ValueError(f"fix_rule {self.fix_rule} needs a whole number {key}, "
                                 f"got {getattr(self, key)}")
        if self.cycle_type is not None:
            # the class's runs and size, worked out once, not every draw; the parts
            # weakly decrease, so the runs lay cycles out in the order parts would
            runs = tuple(v for run in Counter(self.cycle_type).items() for v in run)
            object.__setattr__(self, "_cycle_runs", (runs, sum(self.cycle_type)))

    def fix_count(self, n: int) -> int:
        """The fixed points a draw at size n plants: the rule's target clamped
        to [0, n] (so an infinite one too), rounded down, then moved by one
        (down, or up from 0) when the core cannot live on the rest."""
        if self.fix_rule not in FIX_RULES:
            raise ValueError("regime has no fix_rule")
        m = math.floor(max(0, min(n, FIX_RULES[self.fix_rule][1](self, n))))
        if CORES[self.core][2](n - m):
            return m
        # a core refuses only k = 1 or an odd k, so the step lands on a size it takes
        return m - 1 if m > 0 else m + 1

    def keys(self) -> tuple[str, ...]:
        """The config keys this regime reads: the ones it sets."""
        return tuple(key for key in REGIME_KEYS if getattr(self, key) is not None)

    def to_text(self) -> str:
        """Key-value block, embeddable in an experiment config file: the
        keys the regime reads."""
        lines = []
        for key in self.keys():
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
        return "\n".join(lines)

    @classmethod
    def from_mapping(cls, kv: Mapping[str, str]) -> "RegimeSpec":
        """The regime the ``key = value`` settings name; the ensemble
        defaults to uniform."""
        readers = {key: read for key, (read, *_) in REGIME_KEYS.items()}
        return cls(**parse_values({"ensemble": "uniform", **kv}, readers))

    @classmethod
    def from_text(cls, text: str) -> "RegimeSpec":
        return cls.from_mapping(parse_key_values(text))


# -- basic ensembles --------------------------------------------------------


def sample_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform over all permutations of size n."""
    return Permutation.from_zero_based(rng.permutation(n))


def sample_in_cycle_type(lengths: Sequence[int], rng: np.random.Generator) -> Permutation:
    """Uniform over the conjugacy class with the given cycle lengths, a flat
    sequence of positive integers in any order; n is their sum.

    Draws a uniform arrangement of 0..n-1 and fills cycles of the given
    lengths left to right, in the order given; every class member arises from
    the same number of arrangements, so the result is exactly uniform in the class.
    It states no runs, as folding one run a part costs more than a walk.
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.size and (lengths.dtype.kind not in "iu" or lengths.min() < 1):
        raise ValueError(f"cycle lengths must be positive integers, got {lengths.tolist()}")
    # each length a run of one cycle: a run-length code would cost more
    # than the draw at small n
    runs = np.ones(2 * lengths.size, dtype=np.int64)
    runs[0::2] = lengths
    return Permutation.from_zero_based(lay_out_cycles(runs, int(lengths.sum()), rng))


def _lay_out_cycles(runs: tuple[int, ...], n: int, rng: np.random.Generator) -> Permutation:
    """``sample_in_cycle_type``'s draw of the cycles of ``runs``, flat (length,
    count) pairs of positive lengths tiling n, stating those runs."""
    return Permutation.from_zero_based(lay_out_cycles(runs, n, rng), runs)


# bounded, as an entry holds n/2 + 1 floats (4 MB at n = 1e6)
@functools.lru_cache(maxsize=64)
def _involution_cdf(n: int) -> np.ndarray:
    """Unnormalized CDF, over k = 0..n/2, of the 2-cycle count of a uniform
    involution of size n; read-only, as every caller shares it."""
    # imported here, not at the top: scipy.special takes about 0.3 s to load,
    # and only uniform-involution draws need it
    from scipy.special import gammaln

    ks = np.arange(n // 2 + 1)
    logw = gammaln(n + 1) - gammaln(ks + 1) - ks * math.log(2.0) - gammaln(n - 2 * ks + 1)
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf.flags.writeable = False
    return cdf


def sample_uniform_involution(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform over involutions (permutations with square = identity).

    The number k of 2-cycles is drawn with weight n! / (k! 2^k (n-2k)!),
    computed as log-weights and normalized exactly by summation; the draw
    is an inverse-CDF lookup, no rejection.
    """
    cdf = _involution_cdf(n)
    k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return _lay_out_cycles((2, k, 1, n - 2 * k), n, rng)


def sample_fpf_involution(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform fixed-point-free involution (uniform perfect matching).

    A uniform arrangement paired off consecutively is exactly uniform over
    matchings: each matching has (n/2)! 2^(n/2) preimages.
    """
    if n % 2 != 0:
        raise ValueError(f"parity: fixed-point-free involutions need even n, got {n}")
    return _lay_out_cycles((2, n // 2), n, rng)


def _sample_derangement(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform fixed-point-free permutation, by rejection (about e tries)."""
    if n == 1:
        raise ValueError("no derangement of size 1 exists")
    idx = np.arange(n)
    while True:
        w = rng.permutation(n)
        if not (w == idx).any():
            return Permutation.from_zero_based(w)


# -- composite regimes and the regime tables --------------------------------


def _sample_n_cycle(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform over the n-cycles (the empty permutation at n = 0)."""
    return _lay_out_cycles((n, 1) if n else (), n, rng)


def _sample_given_cycle_type(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    runs, size = spec._cycle_runs
    if size != n:
        raise ValueError(f"cycle_type sums to {size}, expected n={n}")
    return _lay_out_cycles(runs, n, rng)


def _sample_composite(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    """``spec.fix_count(n)`` fixed points on a uniform subset and an
    independent core on the complement, relabeled order-preservingly. Both
    choices are exchangeable, so the law is conjugacy invariant."""
    m = spec.fix_count(n)
    fixed = rng.choice(n, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
    return plant_fixed_points(fixed, CORES[spec.core][1](n - m, rng))


def _composite_draws(spec: RegimeSpec, n: int, ct: dict[int, int]) -> bool:
    """Exactly ``spec.fix_count(n)`` fixed points, and the core draws the rest."""
    return ct.get(1, 0) == spec.fix_count(n) and CORES[spec.core][3](
        {length: count for length, count in ct.items() if length != 1})


# n-cycles, matchings and uniform involutions know their runs in closed
# form and a uniform_in_cycle_type spec holds its own, so every cycle-type
# regime lays them out through _lay_out_cycles, and its draws state them; the
# public sample_in_cycle_type, for lengths in any order, is in no table. Every
# regime is uniform on the permutations of the cycle types it draws, each
# given as ``perm.cycle_type``'s dict, cycle length -> count.
# core -> (the keys it reads, its sampler on k elements, whether it can live
# on k elements, whether it draws a cycle type of k)
CORES = {
    # a lone leftover element would be a fixed point, not a core
    "n_cycle": ((), _sample_n_cycle, lambda k: k != 1, lambda ct: sum(ct.values()) <= 1),
    "fpf_involution": ((), sample_fpf_involution, lambda k: k % 2 == 0,
                       lambda ct: ct.keys() <= {2}),
    "uniform_derangement": ((), _sample_derangement, lambda k: k != 1,
                            lambda ct: 1 not in ct),
}
# ensemble -> (the keys it reads besides ensemble, its sampler (spec, n, rng),
# whether it draws a cycle type at n (spec, n, ct))
ENSEMBLES = {
    "uniform": ((), lambda spec, n, rng: sample_uniform(n, rng), lambda spec, n, ct: True),
    "uniform_involution": ((), lambda spec, n, rng: sample_uniform_involution(n, rng),
                           lambda spec, n, ct: ct.keys() <= {1, 2}),
    "fpf_involution": ((), lambda spec, n, rng: sample_fpf_involution(n, rng),
                       lambda spec, n, ct: ct.keys() <= {2}),
    "n_cycle": ((), lambda spec, n, rng: _sample_n_cycle(n, rng),
                lambda spec, n, ct: sum(ct.values()) <= 1),
    "uniform_in_cycle_type": (("cycle_type",), _sample_given_cycle_type,
                              lambda spec, n, ct: ct == Counter(spec.cycle_type)),
    "composite": (("core", "fix_rule"), _sample_composite, _composite_draws),
}
# regime key -> the table whose entries are the values it may take
REGIME_CHOICES = {"ensemble": ENSEMBLES, "core": CORES, "fix_rule": FIX_RULES}
# config key -> (how its text is read, whether a value is valid, the valid
# values in words). RegimeSpec checks a regime in this order, so a choice key
# comes before every key its entries read. RegimeSpec's fields come in this
# order too.
REGIME_KEYS = {
    **{key: (str, table.__contains__, "one of " + ", ".join(table))
       for key, table in REGIME_CHOICES.items()},
    "theta": (float, lambda v: 0.0 < v < math.inf, "positive and finite"),
    "beta": (float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "p": (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "c": (float, lambda v: 0.0 <= v < math.inf, "non-negative and finite"),
    "cycle_type": (int_list, lambda parts: bool(parts) and min(parts) >= 1
                   and list(parts) == sorted(parts, reverse=True),
                   "nonempty, positive and weakly decreasing"),
}


def sample_regime(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    """Draw from the ensemble described by spec at size n, by the sampler
    its ``ENSEMBLES`` entry names."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return ENSEMBLES[spec.ensemble][1](spec, n, rng)
