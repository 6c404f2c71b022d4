"""The benchmark's workloads: the CLI calls of one round, and the checks on
what a round wrote.

A round is a fixed list of ``permshape.cli.main`` calls made from a seed;
every round of a run repeats the same calls on the same inputs. Its
operations are Monte Carlo trials (``experiment`` calls) or checked
permutations, pairs and draws (``verify`` calls). ``check`` reads one round's
outputs and returns the operations that failed a check, with the reasons.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

# criterion-5 regimes (the keys of the pilot manifest), criterion-6
# ensembles and the criterion-7 regime, as experiment config lines
DISTANCE_REGIMES = {
    "fpf_involution": "ensemble = fpf_involution",
    "composite_fpf_half": "ensemble = composite\ncore = fpf_involution\nfix_rule = linear\np = 0.5",
    "ncycle_theta_log": "ensemble = composite\ncore = n_cycle\nfix_rule = theta_log\ntheta = 1.0",
}
TW_ENSEMBLES = {
    "n_cycle": "ensemble = n_cycle",
    "uniform": "ensemble = uniform",
    "uniform_involution": "ensemble = uniform_involution",
    "composite_fpf_c1": "ensemble = composite\ncore = fpf_involution\nfix_rule = constant\nc = 1",
}

LLN_TRIALS = 5
LADDER = (1_000, 4_000, 16_000)
DISTANCE_TRIALS = 25
TW_N = 2_000
TW_TRIALS = 100
# suite -> (CLI size flag, size); greene and convention take no size flag
SUITES = {
    "greene": (None, None),
    "fixpoint": ("--draws", 1_000),
    "profile-bound": ("--pairs", 1_000),
    "convention": (None, None),
    "samplers": ("--draws", 1_000),
}
# The exact suites also ride along, smaller, in the rounds of the two
# kernel-bound workloads, so that the verify, oracles, pairwise shape_geom and
# perm layers are measured on a workload steady enough to gate on.
RIDING_SUITES = {
    "lln_n100k": {"greene": (None, None), "fixpoint": ("--draws", 200),
                  "profile-bound": ("--pairs", 200), "samplers": ("--draws", 100)},
    "distance_ladder": {"convention": (None, None)},
}
# an all-n-cycle run at n = 1e5 with no lambda2 takes ell and lambda1 from the
# LIS kernel, which the shape workloads never call
LIS_TRIALS = 50
GREENE_CHECKED = sum(math.factorial(n) for n in range(1, 7)) + 2 * 200  # suite defaults
CONVENTION_DIAGRAMS = 100  # suite default; its report carries no count
# trials per (config, n) regenerated and compared with the references
SAMPLED_TRIALS = {"lln_n100k": 2, "distance_ladder": 1, "tw_n2000": 3}


@dataclass
class Call:
    """One ``permshape.cli.main`` call: its argv, and where its stdout goes."""

    key: str
    argv: list[str]
    ops: int
    report: str | None = None  # file for stdout, when stdout is the output


@dataclass
class Experiment:
    key: str
    regime: str
    n_ladder: tuple[int, ...]
    trials: int
    seed: int
    measurements: tuple[str, ...]

    def config_text(self, out: Path) -> str:
        return "\n".join([
            self.regime,
            f"n_ladder = {','.join(str(n) for n in self.n_ladder)}",
            f"trials = {self.trials}",
            f"seed = {self.seed}",
            f"measurements = {','.join(self.measurements)}",
            f"out = {out}",
        ]) + "\n"


def experiments(workload: str, seed: int) -> list[Experiment]:
    if workload == "lln_n100k":
        return [Experiment("lln", DISTANCE_REGIMES["ncycle_theta_log"], (100_000,), LLN_TRIALS,
                           seed, ("ell", "lambda1", "lambda2")),
                Experiment("ncycle_lis", TW_ENSEMBLES["n_cycle"], (100_000,), LIS_TRIALS, seed,
                           ("ell", "lambda1"))]
    if workload == "distance_ladder":
        return [Experiment(key, regime, LADDER, DISTANCE_TRIALS, seed, ("shape_distance",))
                for key, regime in DISTANCE_REGIMES.items()]
    if workload == "tw_n2000":
        return [Experiment(key, regime, (TW_N,), TW_TRIALS, seed + i, ("ell", "lambda1"))
                for i, (key, regime) in enumerate(TW_ENSEMBLES.items())]
    return []


def suites(workload: str) -> dict[str, tuple[str | None, int | None]]:
    """The verify suites of a workload's round, with their size flags."""
    return SUITES if workload == "exact_checks" else RIDING_SUITES.get(workload, {})


def prepare(workload: str, seed: int, workdir: Path) -> list[Call]:
    """Write the round's config files and return its CLI calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    calls = []
    for exp in experiments(workload, seed):
        cfg = workdir / f"{exp.key}.cfg"
        cfg.write_text(exp.config_text(workdir / exp.key))
        calls.append(Call(exp.key, ["experiment", "--config", str(cfg), "--workers", "1"],
                          exp.trials * len(exp.n_ladder)))
    for suite, (flag, size) in suites(workload).items():
        argv = ["verify", "--suite", suite, "--seed", str(seed)]
        if flag:
            argv += [flag, str(size)]
        ops = {"greene": GREENE_CHECKED, "convention": CONVENTION_DIAGRAMS,
               "samplers": 2 * 6 * (size or 0)}.get(suite, size)
        calls.append(Call(suite, argv, ops, str(workdir / f"{suite}.json")))
    return calls


WORKLOADS = ("lln_n100k", "distance_ladder", "tw_n2000", "exact_checks")


def output_files(workload: str, calls: list[Call], workdir: Path) -> list[Path]:
    """Every file a round writes, in a fixed order."""
    return [path for c in calls
            for path in ([Path(c.report)] if c.report else
                         [workdir / c.key / name for name in ("records.csv", "summary.json")])]


# -- checks ------------------------------------------------------------------


@dataclass
class Verdict:
    """Failed operations of one round, per call, with the first reasons."""

    failed: dict[str, int] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, key: str, ops: int, reason: str) -> None:
        self.failed[key] = self.failed.get(key, 0) + ops
        if len(self.reasons) < 20:
            self.reasons.append(f"{key}: {reason}")


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _int(row: dict, col: str) -> int | None:
    return int(row[col]) if row[col] != "" else None


def _regime_rule(key: str, n: int, row: dict) -> str | None:
    """The cycle structure each regime promises, checked on one record."""
    fix, cycles = int(row["fix_count"]), int(row["num_cycles"])
    square_fixed = int(row["fixed_points_of_square"])
    involution = square_fixed == n
    if key in ("fpf_involution", "composite_fpf_c1"):
        # n is even, so the constant rule's one fixed point is dropped for parity
        if fix != 0 or not involution or cycles != n // 2:
            return "not a fixed-point-free involution"
    elif key == "composite_fpf_half":
        m = n // 2  # floor(p n), less one when the matching core would be odd
        m -= (n - m) % 2
        if fix != m or not involution or cycles != m + (n - m) // 2:
            return f"not {m} fixed points on a matching"
    elif key in ("ncycle_theta_log", "lln"):
        m = math.floor(n / math.log(n))
        if fix != m or cycles != m + 1:
            return f"not {m} fixed points on one long cycle"
    elif key in ("n_cycle", "ncycle_lis"):
        if cycles != 1 or fix != 0:
            return "not one n-cycle"
    elif key == "uniform_involution":
        if not involution:
            return "not an involution"
    return None


def _check_experiment(exp: Experiment, outdir: Path, verdict: Verdict, sample: int) -> list[dict]:
    from permshape.samplers import RegimeSpec, derive_rng, sample_regime

    key, ops = exp.key, exp.trials * len(exp.n_ladder)
    try:
        rows = _rows(outdir / "records.csv")
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        verdict.fail(key, ops, f"unreadable output ({exc})")
        return []
    expected = {(n, t) for n in exp.n_ladder for t in range(exp.trials)}
    seen = {(int(r["n"]), int(r["trial_index"])) for r in rows}
    if seen != expected or len(rows) != ops:
        verdict.fail(key, ops, "records are not one row per (n, trial)")
        return []
    measured = set(exp.measurements)
    regime = RegimeSpec.from_text(exp.regime)
    for row in rows:
        n, t = int(row["n"]), int(row["trial_index"])
        problem = _regime_rule(key, n, row)
        ell, lam1, lam2 = _int(row, "ell"), _int(row, "lambda1"), _int(row, "lambda2")
        dist = float(row["shape_distance"]) if row["shape_distance"] else None
        present = {s for s, v in (("ell", ell), ("lambda1", lam1), ("lambda2", lam2),
                                  ("shape_distance", dist)) if v is not None}
        if problem is None and present != measured:
            problem = f"columns {sorted(present)} for measurements {sorted(measured)}"
        if problem is None and ell is not None and lam1 is not None and ell * lam1 < n:
            problem = "ell * lambda1 < n breaks Erdos-Szekeres"
        if problem is None and lam1 is not None and lam1 < int(row["fix_count"]):
            problem = "lambda1 below the fixed-point count, which is increasing"
        if problem is None and lam2 is not None and not (0 < lam2 <= lam1 and lam1 + lam2 <= n):
            problem = "lambda2 outside (0, lambda1]"
        if problem is None and dist is not None and not 0.0 <= dist < math.inf:
            problem = "shape_distance not a finite non-negative number"
        if problem is None and t < sample:
            problem = _against_reference(sample_regime(regime, n, derive_rng(exp.seed, n, t)),
                                         row, ell, lam1, lam2, dist)
        if problem:
            verdict.fail(key, 1, f"n={n} trial={t}: {problem}")
    entries = {(e["n"], e["statistic"]): e for e in summary.get("entries", [])}
    for n in exp.n_ladder:
        for stat in measured:
            values = [float(r[stat]) for r in rows if int(r["n"]) == n]
            e = entries.get((n, stat))
            if (e is None or e["count"] != exp.trials
                    or not math.isclose(e["mean"], statistics.fmean(values), rel_tol=1e-12)
                    or not math.isclose(e["q50"], statistics.median(values), rel_tol=1e-12)):
                verdict.fail(key, ops, f"summary.json disagrees with records.csv at n={n} {stat}")
                return rows
    return rows


def _against_reference(perm, row, ell, lam1, lam2, dist) -> str | None:
    """Recompute one trial's record from its regenerated permutation."""
    word = [int(v) for v in perm.word]
    n = len(word)
    if not ref.is_permutation(word):
        return "sampler returned no permutation"
    cycles, fixed, two = ref.cycle_counts(word)
    if (cycles, fixed, fixed + 2 * two) != (int(row["num_cycles"]), int(row["fix_count"]),
                                            int(row["fixed_points_of_square"])):
        return "cycle counts differ from the reference"
    if (fixed + 2 * two == n) != ref.is_involution(word):
        return "involution test and square fixed points disagree"
    if ell is not None and ell != ref.lds(word):
        return f"ell {ell} != reference LDS {ref.lds(word)}"
    if lam1 is not None and lam1 != ref.lis(word):
        return f"lambda1 {lam1} != reference LIS {ref.lis(word)}"
    if lam2 is not None:
        rows = ref.schensted_rows(word, max_rows=2)
        if lam2 != rows[1]:
            return f"lambda2 {lam2} != reference second row {rows[1]}"
    if dist is not None:
        expect = ref.scaled_sup_distance(ref.schensted_rows(word), n, fixed)
        if not math.isclose(dist, expect, rel_tol=1e-9, abs_tol=1e-12):
            return f"shape_distance {dist!r} != reference {expect!r}"
    return None


def _tw(rows, mode) -> list[float]:
    out = []
    for r in rows:
        n, m, ell = int(r["n"]), int(r["fix_count"]), int(r["ell"])
        k = n - m if mode == "tw2" else n
        out.append((ell - 2.0 * math.sqrt(k)) / k ** (1.0 / 6.0))
    return out


def _ks(x, y) -> float:
    """Largest gap between two empirical CDFs, over the pooled sample."""
    xs, ys = sorted(x), sorted(y)
    return max(abs(bisect_right(xs, v) / len(xs) - bisect_right(ys, v) / len(ys)) for v in xs + ys)


def check(workload: str, seed: int, calls: list[Call], workdir: Path, root: Path) -> Verdict:
    verdict = Verdict()
    _check_suites([c for c in calls if c.report], suites(workload), verdict)
    exps = experiments(workload, seed)
    results = {e.key: _check_experiment(e, workdir / e.key, verdict, SAMPLED_TRIALS[workload])
               for e in exps}
    if workload == "lln_n100k":
        rows, ops = results["lln"], LLN_TRIALS
        if rows:
            lln = statistics.fmean(int(r["ell"]) / math.sqrt(int(r["n"]) - int(r["fix_count"]))
                                   for r in rows)
            l1 = statistics.fmean(int(r["lambda1"]) * math.log(int(r["n"])) / int(r["n"])
                                  for r in rows)
            window = statistics.fmean(1.75 < int(r["lambda2"]) / math.sqrt(int(r["n"])) < 4.25
                                      for r in rows)
            verdict.info.update(lln_mean=lln, theta_log_l1_mean=l1, lambda2_window=window)
            if not (1.9 <= lln <= 2.1 and 0.9 <= l1 <= 1.1 and window >= 0.9):
                verdict.fail("lln", ops, f"law of large numbers off: {lln:.4f} {l1:.4f} {window:.2f}")
    elif workload == "distance_ladder":
        manifest = json.loads((root / "src/permshape/data/pilot_manifest.json").read_text())
        for e in exps:
            rows = results[e.key]
            if not rows:
                continue
            means = [statistics.fmean(float(r["shape_distance"]) for r in rows if int(r["n"]) == n)
                     for n in LADDER]
            top = manifest["regimes"][e.key]["threshold_mean_top"]
            verdict.info[f"{e.key}_means"] = means
            if not all(b < a for a, b in zip(means, means[1:])) or means[-1] > top:
                verdict.fail(e.key, e.trials * len(LADDER),
                             f"means {means} not falling or top above {top}")
    elif workload == "tw_n2000":
        # reported only: even at criterion-6's 500 trials a side the gap
        # exceeds its bound of 0.1 on about half of all seeds
        if all(results.values()):
            verdict.info["ks_tw2"] = _ks(_tw(results["n_cycle"], "tw2"), _tw(results["uniform"], "tw2"))
            verdict.info["ks_tw1"] = _ks(_tw(results["uniform_involution"], "tw1"),
                                         _tw(results["composite_fpf_c1"], "tw1"))
    return verdict


def _check_suites(calls: list[Call], sizes: dict, verdict: Verdict) -> None:
    for call in calls:
        try:
            report = json.loads(Path(call.report).read_text())
        except (OSError, ValueError) as exc:
            verdict.fail(call.key, call.ops, f"no report ({exc})")
            continue
        flag, size = sizes[call.key]
        if call.key == "samplers":
            families = report.get("families", [])
            verdict.info["samplers_ok"] = report.get("ok")
            # the chi-square verdicts are reported, not required: at
            # alpha = 1e-3 per family a healthy build fails on about 0.6% of seeds
            consistent = all(f["ok"] == (f["stat"] <= f["crit"]) for f in families)
            if report.get("draws") != size or len(families) != 6 or not consistent:
                verdict.fail(call.key, call.ops, "samplers report incomplete or inconsistent")
            continue
        if call.key == "greene":
            counted = report.get("checked") == GREENE_CHECKED
        elif call.key == "convention":
            counted = report.get("worst_gap", math.inf) <= report.get("tol", 0.0)
        else:
            counted = report.get("checked") == size
        if report.get("suite") != call.key or report.get("ok") is not True or not counted:
            verdict.fail(call.key, call.ops, f"report {json.dumps(report)[:200]}")
