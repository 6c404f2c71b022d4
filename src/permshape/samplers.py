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
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np
from scipy.special import gammaln

from .perm import Permutation

ENSEMBLES = (
    "uniform",
    "uniform_involution",
    "fpf_involution",
    "n_cycle",
    "uniform_in_cycle_type",
    "composite",
)
CORES = ("n_cycle", "fpf_involution", "uniform_derangement")
FIX_RULES = ("constant", "theta_log", "power", "linear")
# the keys besides ensemble that each ensemble reads
ENSEMBLE_READS = {"composite": ("core", "fix_rule"), "uniform_in_cycle_type": ("cycle_type",)}
# and the parameters that a composite regime's fix_rule reads
FIX_RULE_READS = {"constant": ("c",), "theta_log": ("theta",), "power": ("beta", "c"),
                  "linear": ("p",)}


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


@dataclass(frozen=True)
class CycleType:
    """A conjugacy-class label: weakly decreasing positive parts summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for p in self.parts:
            if p <= 0:
                raise ValueError("cycle lengths must be positive")
            if prev is not None and p > prev:
                raise ValueError("cycle type parts must be weakly decreasing")
            prev = p

    @property
    def n(self) -> int:
        return sum(self.parts)


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


@dataclass(frozen=True)
class RegimeSpec:
    """Which ensemble to draw from, and for composite ensembles how many
    fixed points to plant and what structure to put on the rest.

    fix_rule maps n to a target fixed-point count:
      constant  -> c
      theta_log -> floor(theta * n / log n)
      power     -> floor(c * n**beta)
      linear    -> floor(p * n)
    The target is clamped to [0, n] and may be adjusted by +-1 when the core
    needs it (an fpf core needs an even remainder; a cycle or derangement
    core cannot live on exactly 1 element). The realized count is visible on
    the sampled permutation itself.
    """

    ensemble: str
    core: str | None = None
    fix_rule: str | None = None
    theta: float = 1.0
    beta: float = 0.5
    p: float = 0.0
    c: float = 0.0
    cycle_type: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.ensemble == "composite":
            if self.core not in CORES:
                raise ValueError(f"composite regime needs a core in {CORES}")
            if self.fix_rule not in FIX_RULES:
                raise ValueError(f"composite regime needs a fix_rule in {FIX_RULES}")
        if self.ensemble == "uniform_in_cycle_type" and not self.cycle_type:
            raise ValueError("uniform_in_cycle_type regime needs a cycle_type")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0.0 <= self.c < math.inf:
            raise ValueError("c must be non-negative and finite")

    def fix_count(self, n: int) -> int:
        """Target fixed-point count before parity adjustment, clamped to [0, n]."""
        if self.fix_rule == "constant":
            m = int(self.c)
        elif self.fix_rule == "theta_log":
            m = math.floor(self.theta * n / math.log(n)) if n >= 2 else 0
        elif self.fix_rule == "power":
            m = math.floor(self.c * n**self.beta)
        elif self.fix_rule == "linear":
            m = math.floor(self.p * n)
        else:
            raise ValueError("regime has no fix_rule")
        return max(0, min(n, m))

    def keys(self) -> tuple[str, ...]:
        """The config keys this regime reads: the ensemble, the keys the
        ensemble reads and, for a composite regime, its fix_rule's."""
        keys = ("ensemble",) + ENSEMBLE_READS.get(self.ensemble, ())
        if self.ensemble == "composite":
            keys += FIX_RULE_READS[self.fix_rule]
        return keys

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
        defaults to uniform, and a key the regime does not read is an
        error."""
        spec = cls(**parse_values({"ensemble": "uniform", **kv}, REGIME_KEYS))
        unread = sorted(set(kv) - set(spec.keys()))
        if unread:
            reader = f"ensemble {spec.ensemble}"
            if spec.ensemble == "composite":
                reader += f" with fix_rule {spec.fix_rule}"
            raise ValueError(f"{reader} does not read {', '.join(unread)}")
        return spec

    @classmethod
    def from_text(cls, text: str) -> "RegimeSpec":
        return cls.from_mapping(parse_key_values(text))


# -- basic ensembles --------------------------------------------------------


def sample_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform over all permutations of size n."""
    return Permutation.from_zero_based(rng.permutation(n))


def sample_in_cycle_type(t: CycleType, rng: np.random.Generator) -> Permutation:
    """Uniform over the conjugacy class with the given cycle type.

    Draws a uniform arrangement of 1..n and fills cycles of the prescribed
    lengths left to right; every class member arises from the same number of
    arrangements, so the result is exactly uniform in the class.
    """
    n = t.n
    arrangement = rng.permutation(n)
    lengths = np.asarray(t.parts, dtype=np.int64)
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
    ks = np.arange(n // 2 + 1)
    logw = gammaln(n + 1) - gammaln(ks + 1) - ks * math.log(2.0) - gammaln(n - 2 * ks + 1)
    cdf = np.cumsum(np.exp(logw - logw.max()))
    cdf.flags.writeable = False
    return cdf


def _involution_two_cycle_count(n: int, rng: np.random.Generator) -> int:
    """Number of 2-cycles of a uniform involution of size n.

    k is drawn with weight n! / (k! 2^k (n-2k)!), computed as log-weights
    and normalized exactly by summation; the draw is an inverse-CDF lookup,
    no rejection.
    """
    cdf = _involution_cdf(n)
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def sample_uniform_involution(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform over involutions (permutations with square = identity)."""
    k = _involution_two_cycle_count(n, rng)
    t = CycleType((2,) * k + (1,) * (n - 2 * k))
    return sample_in_cycle_type(t, rng)


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


# -- composite regimes -------------------------------------------------------


def _core_size_ok(core: str, k: int) -> bool:
    if core == "fpf_involution":
        return k % 2 == 0
    # a lone leftover element would be a fixed point, not a core
    return k != 1


def _sample_core(core: str, k: int, rng: np.random.Generator) -> Permutation:
    if k == 0:
        return Permutation.identity(0)
    if core == "n_cycle":
        return sample_in_cycle_type(CycleType((k,)), rng)
    if core == "fpf_involution":
        return sample_fpf_involution(k, rng)
    if core == "uniform_derangement":
        return _sample_derangement(k, rng)
    raise ValueError(f"unknown core {core!r}")


def sample_regime(spec: RegimeSpec, n: int, rng: np.random.Generator) -> Permutation:
    """Draw from the ensemble described by spec at size n.

    For composite regimes: plant m fixed points on a uniform m-subset and an
    independent core structure on the complement, relabeled order-
    preservingly. Both choices are exchangeable, so the law is conjugacy
    invariant. m is the fix_rule target adjusted by at most 1 when the core
    demands it (decrement preferred; increment only from m = 0).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if spec.ensemble == "uniform":
        return sample_uniform(n, rng)
    if spec.ensemble == "uniform_involution":
        return sample_uniform_involution(n, rng)
    if spec.ensemble == "fpf_involution":
        return sample_fpf_involution(n, rng)
    if spec.ensemble == "n_cycle":
        return sample_in_cycle_type(CycleType((n,) if n else ()), rng)
    if spec.ensemble == "uniform_in_cycle_type":
        t = CycleType(spec.cycle_type or ())
        if t.n != n:
            raise ValueError(f"cycle_type sums to {t.n}, expected n={n}")
        return sample_in_cycle_type(t, rng)

    core = spec.core or ""
    m = spec.fix_count(n)
    if not _core_size_ok(core, n - m):
        m = m - 1 if m > 0 else m + 1
    if not 0 <= m <= n or not _core_size_ok(core, n - m):
        raise ValueError(f"no valid fixed-point count near target for n={n}")
    k = n - m
    fixed = np.sort(rng.choice(n, size=m, replace=False)) if m else np.empty(0, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[fixed] = True
    rest = np.arange(n, dtype=np.int64)[~mask]
    core_perm = _sample_core(core, k, rng)
    word = np.empty(n, dtype=np.int64)
    word[fixed] = fixed
    word[rest] = rest[core_perm.zero_based]
    return Permutation.from_zero_based(word)
