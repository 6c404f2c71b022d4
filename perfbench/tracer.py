"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` wraps each function in ``TARGETS`` and rebinds the
wrapper at every place a loaded ``permshape`` module binds the original
(``experiments`` binds ``schensted_shape`` from ``rsk``, ``rsk`` binds
``insertion_shape`` from ``_kernels``, and so on), so calls made inside the
package are traced as well. Spans stay in memory as flat arrays (name,
start, end, parent, work count) until ``stats`` and ``save`` read them.

Per-layer metrics are named ``permshape.<module>.<function>.<stat>``; the
package prefix keeps every name starting with a letter.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np


def _insertions(args, result) -> int:
    # element placements over all row passes: row i receives every letter
    # that ends in rows i..end, so the total is sum(i * lambda_i)
    return int(np.dot(result, np.arange(1, len(result) + 1)))


def _elements(args, result) -> int:
    return int(args[0].shape[0])


def _grid_points(args, result) -> int:
    d, n = args[0], args[1]
    big_t = max(d.part(1), d.num_rows) + math.ceil(2.0 * math.sqrt(n))
    return 4 * big_t + 1  # 2T + 1 kinks and 2T midpoints


TIMES = ("calls", "busy_s", "self_s", "p50_ms", "p90_ms")
ONCE = ("calls", "busy_s", "self_s")
LEAF = ("calls", "busy_s", "p50_ms", "p90_ms")
BUSY = ("calls", "busy_s")
SUITE = ("busy_s", "self_s")

# function -> the stats reported for it
TARGETS: dict[str, tuple[str, ...]] = {
    "_kernels.insertion_shape": TIMES + ("insertions", "insertions_per_s"),
    "_kernels.lis_length": LEAF + ("elements",),
    "_kernels.cycle_scan": LEAF,
    "rsk.lis": ONCE,
    "rsk.lds": ONCE,
    "rsk.schensted_shape": ONCE + ("p50_ms",),
    "samplers.derive_rng": LEAF,
    "samplers.sample_regime": TIMES,
    "samplers.sample_in_cycle_type": LEAF,
    "perm.cycle_stats": ONCE,
    "perm.remove_fixed_points": BUSY,
    "perm.conjugate": BUSY,
    "shape_geom.scaled_sup_distance": LEAF + ("grid_points",),
    "shape_geom.sup_profile_distance": BUSY,
    "shape_geom.profile_distance_bound": BUSY,
    "shape_geom.bound_dominates_distance": BUSY,
    "oracles.greene_report": ONCE,
    "oracles.check_fixed_point_bounds": ONCE,
    "oracles.check_profile_distance_bound": ONCE,
    "verify.suite_greene": SUITE,
    "verify.suite_fixpoint": SUITE,
    "verify.suite_profile_bound": SUITE,
    "verify.suite_convention": SUITE,
    "verify.suite_samplers": SUITE,
    "experiments.run_trial": TIMES,
    "experiments.run_experiment": ONCE,
    "experiments.summarize": BUSY,
    "cli.main": ONCE,
}
# function -> (name of its exact work count, how to count it from args and result)
WORK = {
    "_kernels.insertion_shape": ("insertions", _insertions),
    "_kernels.lis_length": ("elements", _elements),
    "shape_geom.scaled_sup_distance": ("grid_points", _grid_points),
}

# metrics of the trace itself and of module import, reported beside the layers
EXTRA_METRICS = {
    "trace.overhead_s": "s",
    "trace.gap_s": "s",
    "trace.spans": "count",
    "import.permshape.cli.cum_s": "s",
    "import.scipy.stats.cum_s": "s",
}

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms",
         "insertions": "count", "insertions_per_s": "1/s", "elements": "count",
         "grid_points": "count"}


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"permshape.{fn}.{stat}": UNITS[stat] for fn, stats in TARGETS.items() for stat in stats}
    out.update(EXTRA_METRICS)
    return out


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("q")
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        ident = self.names.index(name)
        count = WORK[name][1] if name in WORK else None
        stack, name_id, start, end = self._stack, self.name_id, self.start, self.end
        parent, work, clock = self.parent, self.work, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            work.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                work[idx] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target at each module of the package that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "permshape" or key.startswith("permshape."))]
        for name in self.names:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"permshape.{module_name}"], func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def mark(self) -> int:
        """Index of the next span, for cutting the record into rounds."""
        return len(self.start)

    def stats(self, cuts: list[int]) -> dict:
        """Per-round layer metrics over the rounds between consecutive ``cuts``.

        Counts and times are per round; every round runs the same calls, so a
        count that differs between rounds is reported as an error.
        """
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        rounds = len(cuts) - 1
        round_of = np.searchsorted(np.asarray(cuts), np.arange(len(dur)), side="right") - 1
        metrics: dict[str, float] = {}
        errors: list[str] = []
        for ident, name in enumerate(self.names):
            work_name = WORK[name][0] if name in WORK else None
            sel = ids == ident
            per_round = np.bincount(round_of[sel], minlength=rounds)
            if len(set(per_round.tolist())) > 1:
                errors.append(f"{name}: calls differ between rounds {per_round.tolist()}")
            d = dur[sel]
            calls = int(sel.sum())
            values = {
                "calls": calls // rounds,
                "busy_s": float(d.sum()) / rounds,
                "self_s": float(self_time[sel].sum()) / rounds,
                "p50_ms": float(np.median(d)) * 1e3 if calls else 0.0,
                # a tail percentile needs ten calls beyond it in every round;
                # counted per round, so whether it is reported does not hang
                # on how many rounds fit in the run
                "p90_ms": float(np.quantile(d, 0.9)) * 1e3 if calls // rounds >= 100 else 0.0,
            }
            if work_name:
                w = np.bincount(round_of[sel], weights=work[sel], minlength=rounds)
                if len(set(w.tolist())) > 1:
                    errors.append(f"{name}: {work_name} differ between rounds")
                values[work_name] = int(w[0]) if rounds else 0
                if work_name == "insertions":
                    total = float(d.sum())
                    values["insertions_per_s"] = float(work[sel].sum()) / total if total else 0.0
            for stat in TARGETS[name]:
                metrics[f"permshape.{name}.{stat}"] = values[stat]
        top = parent < 0
        top_per_round = np.bincount(round_of[top], weights=dur[top], minlength=rounds)
        metrics["trace.spans"] = len(dur) // rounds
        return {"metrics": metrics, "top_level_s": top_per_round.tolist(), "errors": errors}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )
