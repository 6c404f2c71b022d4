"""Seeded, reproducible samplers for conjugacy-invariant permutation ensembles.

Every sampler is a pure function of an explicit numpy Generator, so trials
are reproducible independent of scheduling: derive one stream per trial with
``derive_rng(seed, *path)`` and never share streams between workers. All
ensembles here are conjugacy invariant by construction - the cycle type is
drawn first (or is deterministic) and the class is filled exchangeably.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

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


# config key -> how its value is read
REGIME_KEYS = {"ensemble": str, "core": str, "fix_rule": str, "theta": float,
               "beta": float, "p": float, "c": float, "cycle_type": int_list}


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

    fix_rule maps n to a target fixed-point count by its entry in
    ``FIX_RULES``. The target is clamped to [0, n], then rounded down, and
    may be adjusted by +-1 when the core needs it (``CORES`` gives the core
    sizes each core allows). The realized count is visible on the sampled
    permutation itself.

    Exactly the keys the regime reads (``keys()``) are given; every other
    key stays None.
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
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        for key in ENSEMBLES[self.ensemble][0]:
            value, choices = getattr(self, key), REGIME_CHOICES.get(key)
            if not value or (choices and value not in choices):
                among = f" in {tuple(choices)}" if choices else ""
                raise ValueError(f"{self.ensemble} regime needs a {key}{among}")
        keys = self.keys()
        rule = f" with fix_rule {self.fix_rule}" if "fix_rule" in keys else ""
        unread = sorted(k for k in REGIME_KEYS if k not in keys and getattr(self, k) is not None)
        if unread:
            raise ValueError(f"ensemble {self.ensemble}{rule} does not read {', '.join(unread)}")
        for key in keys:
            if getattr(self, key) is None:
                raise ValueError(f"ensemble {self.ensemble}{rule} needs {key}")
        if self.theta is not None and not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.beta is not None and not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.c is not None and not 0.0 <= self.c < math.inf:
            raise ValueError("c must be non-negative and finite")
        parts = self.cycle_type or ()
        if any(a < 1 for a in parts) or any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"cycle_type needs positive, weakly decreasing parts, got {parts}")
        for key in FIX_RULES[self.fix_rule][2] if self.fix_rule else ():
            if getattr(self, key) % 1:
                raise ValueError(f"fix_rule {self.fix_rule} needs a whole number {key}, "
                                 f"got {getattr(self, key)}")

    def fix_count(self, n: int) -> int:
        """Target fixed-point count before parity adjustment: the rule's
        target clamped to [0, n] (so an infinite one too), then rounded down."""
        if self.fix_rule not in FIX_RULES:
            raise ValueError("regime has no fix_rule")
        return math.floor(max(0, min(n, FIX_RULES[self.fix_rule][1](self, n))))

    def keys(self) -> tuple[str, ...]:
        """The config keys this regime reads: the ensemble, the keys the
        ensemble reads and, when one of them is fix_rule, the rule's."""
        reads = ENSEMBLES[self.ensemble][0]
        if "fix_rule" in reads:
            reads += FIX_RULES[self.fix_rule][0]
        return ("ensemble",) + reads

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
        return cls(**parse_values({"ensemble": "uniform", **kv}, REGIME_KEYS))

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
    """
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.size and (lengths.dtype.kind not in "iu" or lengths.min() < 1):
        raise ValueError(f"cycle lengths must be positive integers, got {lengths.tolist()}")
    lengths = lengths.astype(np.int64, copy=False)
    n = int(lengths.sum())
    arrangement = rng.permutation(n)
    ends = np.cumsum(lengths)
    # each element maps to the next in the arrangement, a cycle's last to its first
    word = np.empty(n, dtype=np.int64)
    word[arrangement[:-1]] = arrangement[1:]
    word[arrangement[ends - 1]] = arrangement[ends - lengths]
    return Permutation.from_zero_based(word)


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
    return sample_in_cycle_type(np.repeat([2, 1], [k, n - 2 * k]), rng)


def sample_fpf_involution(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform fixed-point-free involution (uniform perfect matching).

    A uniform arrangement paired off consecutively is exactly uniform over
    matchings: each matching has (n/2)! 2^(n/2) preimages.
    """
    if n % 2 != 0:
        raise ValueError(f"parity: fixed-point-free involutions need even n, got {n}")
    arrangement = rng.permutation(n)
    word = np.empty(n, dtype=np.int64)
    a = arrangement[0::2]
    b = arrangement[1::2]
    word[a] = b
    word[b] = a
    return Permutation.from_zero_based(word)


def _sample_derangement(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform fixed-point-free permutation, by rejection (about e tries)."""
    if n == 0:
        return Permutation.identity(0)
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
    return sample_in_cycle_type((n,) if n else (), rng)


def _sample_given_cycle_type(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    if sum(spec.cycle_type) != n:
        raise ValueError(f"cycle_type sums to {sum(spec.cycle_type)}, expected n={n}")
    return sample_in_cycle_type(spec.cycle_type, rng)


def _sample_composite(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    """m fixed points on a uniform m-subset and an independent core on the
    complement, relabeled order-preservingly. Both choices are exchangeable,
    so the law is conjugacy invariant. m is the fix_rule target adjusted by
    at most 1 when the core demands it (decrement preferred; increment only
    from m = 0)."""
    sample_core, size_ok = CORES[spec.core]
    m = spec.fix_count(n)
    if not size_ok(n - m):
        m = m - 1 if m > 0 else m + 1
    if not 0 <= m <= n or not size_ok(n - m):
        raise ValueError(f"no valid fixed-point count near target for n={n}")
    fixed = rng.choice(n, size=m, replace=False) if m else np.empty(0, dtype=np.int64)
    return plant_fixed_points(fixed, sample_core(n - m, rng))


# sample_in_cycle_type is called by its module-global name at draw time,
# never stored in a table, so a rebinding of it (the benchmark's tracer) is
# seen. core -> (its sampler on k elements, whether it can live on k elements)
CORES = {
    # a lone leftover element would be a fixed point, not a core
    "n_cycle": (_sample_n_cycle, lambda k: k != 1),
    "fpf_involution": (sample_fpf_involution, lambda k: k % 2 == 0),
    "uniform_derangement": (_sample_derangement, lambda k: k != 1),
}
# ensemble -> (the keys it reads besides ensemble, its sampler (spec, n, rng))
ENSEMBLES = {
    "uniform": ((), lambda spec, n, rng: sample_uniform(n, rng)),
    "uniform_involution": ((), lambda spec, n, rng: sample_uniform_involution(n, rng)),
    "fpf_involution": ((), lambda spec, n, rng: sample_fpf_involution(n, rng)),
    "n_cycle": ((), lambda spec, n, rng: _sample_n_cycle(n, rng)),
    "uniform_in_cycle_type": (("cycle_type",), _sample_given_cycle_type),
    "composite": (("core", "fix_rule"), _sample_composite),
}
# regime key -> the names it may take
REGIME_CHOICES = {"ensemble": ENSEMBLES, "core": CORES, "fix_rule": FIX_RULES}


def sample_regime(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    """Draw from the ensemble described by spec at size n, by the sampler
    its ``ENSEMBLES`` entry names."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return ENSEMBLES[spec.ensemble][1](spec, n, rng)
