"""Monte Carlo engine: seeded trial ladders, rescaled statistics, summaries.

Trials are independent tasks; each derives its own random stream from
(seed, n, trial_index), so results are a pure function of the config no
matter how trials are scheduled. Aggregation sorts before reducing, which
makes summaries bit-identical under any record ordering and any worker
count. TrialRecord CSVs carry only deterministic fields (wall time stays on
the in-memory record).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .perm import cycle_stats
from .rsk import lis_lds, schensted_shape
from .samplers import (
    RegimeSpec,
    derive_rng,
    int_list,
    parse_key_values,
    parse_values,
    sample_regime,
)
from .shape_geom import scaled_sup_distance

CSV_SCHEMA_VERSION = 1
ALL_ROWS = sys.maxsize
# measurement -> (leading rows of the insertion shape it reads, its value from
# the diagram of the peeled rows, a lazy (lambda1, ell) pair, n and the
# fixed-point count m). The profile distance reads every row; ell and lambda1
# read none, and come from the diagram when the peel was complete, else from
# one fused patience pass.
MEASURES = {
    "shape_distance": (ALL_ROWS, lambda shape, pair, n, m: scaled_sup_distance(shape, n, m)),
    "ell": (0, lambda shape, pair, n, m: pair()[1]),
    "lambda1": (0, lambda shape, pair, n, m: pair()[0]),
    "lambda2": (2, lambda shape, pair, n, m: shape.part(2)),
}
MEASUREMENTS = tuple(MEASURES)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial_index: int
    fix_count: int
    num_cycles: int
    fixed_points_of_square: int
    shape_distance: float | None = None
    ell: int | None = None
    lambda1: int | None = None
    lambda2: int | None = None
    wall_time: float = 0.0

    def cells(self) -> tuple:
        """The record's cells in records.csv, its schema version first."""
        return (CSV_SCHEMA_VERSION, *(getattr(self, name) for name in RECORD_FIELDS))

    def csv_row(self) -> str:
        """The record's line of records.csv, without its newline."""
        return csv_text(self.cells(), ()).rstrip("\n")


# the columns of records.csv after schema_version; wall_time stays in memory
RECORD_FIELDS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_time")
CSV_COLUMNS = ("schema_version",) + RECORD_FIELDS
CSV_HEADER = ",".join(CSV_COLUMNS)
# config key -> how its value is read; the other keys name the regime
HARNESS_KEYS = {"n_ladder": int_list, "trials": int, "seed": int,
                "measurements": lambda text: tuple(v.strip() for v in text.split(",")),
                "out": str}


@dataclass(frozen=True)
class ExperimentConfig:
    regime: RegimeSpec
    n_ladder: tuple[int, ...]
    trials: int
    seed: int
    measurements: tuple[str, ...] = MEASUREMENTS
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.n_ladder:
            raise ValueError("n_ladder must be nonempty")
        if self.n_ladder[0] < 1:
            raise ValueError("ladder sizes must be at least 1")
        if any(b <= a for a, b in zip(self.n_ladder, self.n_ladder[1:])):
            raise ValueError("n_ladder must be strictly increasing")
        unknown = set(self.measurements) - set(MEASUREMENTS)
        if unknown:
            raise ValueError(f"unknown measurements: {sorted(unknown)}")
        repeated = sorted({m for m in self.measurements if self.measurements.count(m) > 1})
        if repeated:
            raise ValueError(f"measurements named twice: {repeated}")

    @classmethod
    def from_mapping(cls, kv: Mapping[str, str]) -> "ExperimentConfig":
        """The experiment the ``key = value`` settings name. n_ladder and seed
        are required and trials defaults to 1; the keys that are not harness
        keys go to ``RegimeSpec.from_mapping``."""
        missing = [key for key in ("n_ladder", "seed") if key not in kv]
        if missing:
            raise ValueError(f"missing config key {', '.join(missing)}")
        harness = parse_values({k: v for k, v in kv.items() if k in HARNESS_KEYS}, HARNESS_KEYS)
        regime = RegimeSpec.from_mapping({k: v for k, v in kv.items() if k not in HARNESS_KEYS})
        return cls(regime=regime, **{"trials": 1, **harness})

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_key_values(text))


@dataclass(frozen=True)
class SummaryEntry:
    n: int
    statistic: str
    count: int
    mean: float
    sd: float
    q05: float
    q25: float
    q50: float
    q75: float
    q95: float


@dataclass(frozen=True)
class SummaryStats:
    entries: tuple[SummaryEntry, ...] = field(default_factory=tuple)

    def get(self, n: int, statistic: str) -> SummaryEntry:
        for e in self.entries:
            if e.n == n and e.statistic == statistic:
                return e
        raise KeyError((n, statistic))

    def to_json(self) -> str:
        """The text of summary.json."""
        return json_text({"schema_version": CSV_SCHEMA_VERSION,
                          "entries": [vars(e) for e in self.entries]})


def run_trial(regime: RegimeSpec, n: int, trial_index: int, seed: int,
              measurements: Sequence[str]) -> TrialRecord:
    """Sample one permutation and measure the requested statistics.

    The shape is peeled once, as deep as the deepest requested measurement
    reads. A peel that returns fewer rows than it asked for is the whole
    shape, which gives lambda1 (its first row) and ell (its row count) free.
    """
    t0 = time.perf_counter()
    p = sample_regime(regime, n, derive_rng(seed, n, trial_index))
    cs = cycle_stats(p)
    k = max((MEASURES[m][0] for m in measurements), default=0)
    shape = schensted_shape(p, max_rows=k) if k else None
    complete = shape is not None and shape.num_rows < k
    pair = functools.cache(lambda: (shape.part(1), shape.num_rows) if complete else lis_lds(p))
    values = {m: MEASURES[m][1](shape, pair, n, cs.fixed_points) for m in measurements}
    return TrialRecord(n=n, trial_index=trial_index, fix_count=cs.fixed_points,
                       num_cycles=cs.num_cycles, fixed_points_of_square=cs.fixed_points_of_square,
                       **values, wall_time=time.perf_counter() - t0)


def run_experiment(cfg: ExperimentConfig,
                   workers: int = 1) -> tuple[list[TrialRecord], SummaryStats]:
    """Run the full trial ladder.

    Returns all TrialRecords plus order-independent SummaryStats. Records
    come back in ladder order (n, then trial index) for any worker count,
    since ``pool.map`` yields results in submission order; each record
    depends only on (cfg.seed, n, trial_index), so the outputs are
    byte-identical for any ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    tasks = [
        (cfg.regime, n, t, cfg.seed, cfg.measurements)
        for n in cfg.n_ladder
        for t in range(cfg.trials)
    ]
    if workers == 1:
        records = [run_trial(*task) for task in tasks]
    else:
        # imported here: it loads multiprocessing, about 30 ms of every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, *zip(*tasks), chunksize=8))
    return records, summarize(records)


def summarize(records: Iterable[TrialRecord]) -> SummaryStats:
    """Aggregate records into per-(n, statistic) summaries via sorted reductions."""
    by_key: dict[tuple[int, str], list[float]] = {}
    for rec in records:
        for stat in RECORD_FIELDS:
            v = getattr(rec, stat)
            if stat in ("n", "trial_index") or v is None:
                continue
            by_key.setdefault((rec.n, stat), []).append(float(v))
    entries = []
    for (n, stat) in sorted(by_key):
        vals = np.sort(np.asarray(by_key[(n, stat)], dtype=np.float64))
        qs = np.quantile(vals, [0.05, 0.25, 0.50, 0.75, 0.95])
        entries.append(
            SummaryEntry(
                n=n,
                statistic=stat,
                count=int(vals.size),
                mean=float(np.mean(vals)),
                sd=float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
                q05=float(qs[0]),
                q25=float(qs[1]),
                q50=float(qs[2]),
                q75=float(qs[3]),
                q95=float(qs[4]),
            )
        )
    return SummaryStats(tuple(entries))


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV text of every table the package and its demos write: a float
    cell is ``repr(float(v))``, None empty and anything else ``str(v)``."""
    def cell(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in (header, *rows))


def json_text(doc) -> str:
    """The JSON text of every document the package and its demos write:
    sorted keys, indent 2, numpy floats as floats and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"


def write_outputs(records: Sequence[TrialRecord], summary: SummaryStats,
                  out_dir: str | Path) -> tuple[Path, Path]:
    """Write records.csv and summary.json into out_dir; return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    csv_path.write_text(csv_text(CSV_COLUMNS, (rec.cells() for rec in records)))
    json_path = out / "summary.json"
    json_path.write_text(summary.to_json())
    return csv_path, json_path


def read_records_csv(path: str | Path) -> list[TrialRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized records CSV header in {path}")
    out = []
    for line in lines[1:]:
        version, *cells = line.split(",")
        if version != str(CSV_SCHEMA_VERSION):
            raise ValueError(f"records CSV row of schema version {version!r} in {path}: {line!r}")
        if len(cells) != len(RECORD_FIELDS):
            raise ValueError(f"records CSV row of {len(cells) + 1} cells in {path}: {line!r}")
        # shape_distance is the one float column; an empty cell was not measured
        out.append(TrialRecord(**{
            name: None if cell == "" else (float if name == "shape_distance" else int)(cell)
            for name, cell in zip(RECORD_FIELDS, cells)
        }))
    return out


# -- rescaled statistics -----------------------------------------------------


def load_pilot_manifest() -> dict:
    """Calibrated Monte Carlo thresholds measured by the pilot runs.

    Regenerate with demos/04_calibrate_pilot_manifest.py; thresholds are
    data, not code.
    """
    from importlib.resources import files

    return json.loads((files("permshape") / "data" / "pilot_manifest.json").read_text())


# the regimes the pilot manifest calibrates, by its keys, and their ladder:
# demos/04 measures them and criterion-5 checks them against its thresholds
PILOT_LADDER = (1_000, 4_000, 16_000)
PILOT_REGIMES = {
    "fpf_involution": RegimeSpec(ensemble="fpf_involution"),
    "composite_fpf_half": RegimeSpec(ensemble="composite", core="fpf_involution",
                                     fix_rule="linear", p=0.5),
    "ncycle_theta_log": RegimeSpec(ensemble="composite", core="n_cycle",
                                   fix_rule="theta_log", theta=1.0),
}


def _edge(v: float, k: int, n: int, theta: float) -> float:
    return (v - 2.0 * math.sqrt(k)) / k ** (1.0 / 6.0)


# mode -> (the record field it reads, the size k it centres at from n and the
# fixed-point count m, its value from the field value, k, n and theta).
# tw2, tw1 and tw4 are one edge scaling on different fields and sizes.
RESCALINGS = {
    "tw2": ("ell", lambda n, m: n - m, _edge),
    "tw1": ("ell", lambda n, m: n, _edge),
    "tw4": ("lambda1", lambda n, m: n, _edge),
    "lln": ("ell", lambda n, m: n - m, lambda v, k, n, theta: v / math.sqrt(k)),
    "theta_log_l1": ("lambda1", lambda n, m: n,
                     lambda v, k, n, theta: v * math.log(n) / (theta * n)),
}


def rescale_statistic(rec: TrialRecord, mode: str, theta: float = 1.0) -> float:
    """Center/scale one trial the way the fluctuation and LLN limits do.

    tw2:          (ell - 2 sqrt(n - m)) / (n - m)^(1/6)
    tw1:          (ell - 2 sqrt(n)) / n^(1/6)
    tw4:          (lambda1 - 2 sqrt(n)) / n^(1/6)
    lln:          ell / sqrt(n - m)
    theta_log_l1: lambda1 * log(n) / (theta * n)
    with m the trial's measured fixed-point count.
    """
    if mode not in RESCALINGS:
        raise ValueError(f"unknown rescale mode {mode!r}")
    name, size, value = RESCALINGS[mode]
    k = size(rec.n, rec.fix_count)
    if k <= 0:
        raise ZeroDivisionError(f"mode {mode} centres at {k} <= 0 (n={rec.n}, m={rec.fix_count})")
    v = getattr(rec, name)
    if v is None:
        raise ValueError(f"record has no {name} measurement")
    return value(v, k, rec.n, theta)


def ks_two_sample(x: Sequence[float], y: Sequence[float]) -> float:
    """Classical two-sample Kolmogorov-Smirnov statistic (max CDF gap).

    Each sample must be a nonempty flat sequence of numbers that are not NaN.
    """
    xs, ys = (np.asarray(v, dtype=np.float64) for v in (x, y))
    for which, v in (("first", xs), ("second", ys)):
        if v.ndim != 1:
            raise ValueError(f"the {which} sample must be flat, not of shape {v.shape}")
        if v.size == 0:
            raise ValueError(f"the {which} sample is empty")
        if np.isnan(v).any():
            raise ValueError(f"the {which} sample holds NaN")
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def lambda2_window(records: Iterable[TrialRecord]) -> float:
    """Fraction of records with 1.75 < lambda2 / sqrt(n) < 4.25."""
    total = hits = 0
    for rec in records:
        if rec.lambda2 is None:
            continue
        total += 1
        ratio = rec.lambda2 / math.sqrt(rec.n)
        if 1.75 < ratio < 4.25:
            hits += 1
    if total == 0:
        raise ValueError("no records carry a lambda2 measurement")
    return hits / total
