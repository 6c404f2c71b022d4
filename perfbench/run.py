"""permshape benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload lln_n100k --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src``. Each call builds the kernel cache (compiling only when the cache is
empty), runs the workload in one fresh process (``child.py``) for about
``--seconds`` and checks what it wrote. Before and after that process it
times fresh interpreters that import ``permshape.cli`` and load the kernels
(``setup_s``). With ``--trace 1`` the workload runs twice, untraced and
traced, and the per-layer metrics come from the traced process. Everything it writes goes
under ``.bench_build`` at the root of the checkout; the full report of a
call is ``.bench_build/results/<workload>-seed<seed>-trace<t>.json``.
The last line of stdout is the result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 10  # half before the workload's process, half after it
SETUP_CODE = ("import permshape.cli, permshape.rsk; permshape.rsk.warm_up(); "
              "print(permshape._kernels.BACKEND)")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the kernel cache lives in the checkout, not in the user's home
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    return env


def python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} did not end within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{args[:2]} exited {done.returncode}: {done.stderr[-2000:]}")
    return done


def start_cli(timeout: float) -> dict:
    """Time one fresh interpreter that imports the CLI and loads the kernels,
    in wall time and in the CPU time (user + system) that it used."""
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = python(["-c", SETUP_CODE], timeout=timeout)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - used.ru_utime - used.ru_stime
    return {"wall_s": wall, "cpu_s": cpu, "backend": done.stdout.strip()}


def build() -> dict:
    """Build the kernel cache, or find it built, with one interpreter.

    That interpreter compiles the kernels when the cache is empty, so it is
    never counted as a set-up; its time is reported as the build time.
    """
    compiles = not any((BUILD / "cache" / "permshape").glob("kernels-*.so"))
    first = start_cli(timeout=900)
    return {"backend": first["backend"], "compiled": compiles, "build_s": first["wall_s"]}


def probe(count: int) -> list[dict]:
    """Time ``count`` set-ups against the built kernel cache."""
    return [start_cli(timeout=60) for _ in range(count)]


def import_times() -> dict[str, float]:
    """Cumulative import time of permshape.cli and of scipy.stats, in s."""
    err = python(["-X", "importtime", "-c", "import permshape.cli"], timeout=60).stderr
    cum = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return {"import.permshape.cli.cum_s": cum.get("permshape.cli", 0.0),
            "import.scipy.stats.cum_s": cum.get("scipy.stats", 0.0)}


def run_child(workload: str, seed: int, seconds: float, trace: bool, tag: str) -> dict:
    workdir = BUILD / "work" / workload / ("traced" if trace else "plain")
    result = BUILD / "results" / f"{workload}-{tag}.child.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.unlink(missing_ok=True)
    python([str(HERE / "child.py"), workload, str(seed), repr(seconds), str(int(trace)),
            str(workdir), str(result)], timeout=TIMEOUT_S)
    doc = json.loads(result.read_text())
    doc["workdir"] = str(workdir)
    return doc


def judge(workload: str, seed: int, child: dict) -> tuple[dict, dict]:
    """Check a child's outputs: (attempted, failed, correct) and the details."""
    calls = [workloads.Call(**c) for c in child["calls"]]
    verdict = workloads.check(workload, seed, calls, Path(child["workdir"]), ROOT)
    rounds = child["rounds"]
    per_round = sum(c.ops for c in calls)
    same = len({r["digest"] for r in rounds}) == 1
    failed = 0
    reasons = list(verdict.reasons)
    for r in rounds:
        for call, code in zip(calls, r["codes"]):
            # samplers exits 2 when a chi-square verdict fails; see workloads
            ok_codes = ("0", "2") if call.key == "samplers" else ("0",)
            bad = code not in ok_codes
            if bad and len(reasons) < 20:
                reasons.append(f"{call.key}: exit {code[:300]}")
            failed += call.ops if bad else min(call.ops, verdict.failed.get(call.key, 0))
    if not same:
        reasons.append("rounds wrote different outputs from the same inputs")
    if child["backend"] != "c":
        reasons.append(f"kernel backend {child['backend']!r}, not the compiled 'c'")
    attempted = per_round * len(rounds)
    if not same or child["backend"] != "c":
        failed = attempted
    correct = failed == 0
    counts = {"attempted": attempted, "failed": failed, "correct": correct}
    return counts, {"reasons": reasons, "info": verdict.info}


def environment() -> dict:
    """The machine and versions; py-cpuinfo takes about a second, so the
    CPU model is looked up once per checkout."""
    import numpy

    cached = BUILD / "cpu.txt"
    if not cached.exists():
        try:
            import cpuinfo

            cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
        except ImportError:
            cpu = platform.processor() or "unknown"
        BUILD.mkdir(parents=True, exist_ok=True)
        cached.write_text(cpu)
    return {"cpu": cached.read_text(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    built = build()
    tag = f"seed{seed}-trace{int(trace)}"
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "build": built}
    report["environment"] = environment()
    if trace:
        plain = run_child(workload, seed, seconds / 2, False, tag + "-plain")
        traced = run_child(workload, seed, seconds / 2, True, tag)
        children = [plain, traced]
        walls = [r["wall_s"] for r in traced["rounds"]]
        top = traced["trace"]["top_level_s"]
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead_s"] = (statistics.median(walls)
                                       - statistics.median(r["wall_s"] for r in plain["rounds"]))
        metrics["trace.gap_s"] = statistics.median(w - t for w, t in zip(walls, top))
        metrics.update(import_times())
        report["trace_errors"] = traced["trace"]["errors"] + (
            ["tracing changed the outputs"]
            if plain["rounds"][0]["digest"] != traced["rounds"][0]["digest"] else [])
    else:
        probes = probe(SETUP_PROBES // 2)
        child = run_child(workload, seed, seconds, False, tag)
        probes += probe(SETUP_PROBES - len(probes))
        children = [child]
        metrics = {
            # CPU time, not wall time: a set-up is CPU-bound (its files sit in
            # the page cache), and CPU time moves less than wall time when
            # other processes hold the shared cores
            "setup_s": statistics.median(p["cpu_s"] for p in probes),
            "wall_s": statistics.median(r["wall_s"] for r in child["rounds"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in child["rounds"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        report["setup_probes"] = probes
    totals = {"attempted": 0, "failed": 0, "correct": not report.get("trace_errors")}
    report["checks"] = []
    checked = time.perf_counter()
    for child in children:
        counts, details = judge(workload, seed, child)
        totals["attempted"] += counts["attempted"]
        totals["failed"] += counts["failed"]
        totals["correct"] = totals["correct"] and counts["correct"]
        report["checks"].append(details)
    report["check_s"] = time.perf_counter() - checked
    report["backend"] = children[-1]["backend"]
    report["rounds"] = [{k: r[k] for k in ("wall_s", "cpu_s", "digest")} for r in children[-1]["rounds"]]
    report.update(totals)
    report["metrics"] = metrics
    report["elapsed_s"] = time.perf_counter() - started
    path = BUILD / "results" / f"{workload}-{tag}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    return report


def show(report: dict, units: dict[str, str]) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  backend {report['backend']}  "
          f"rounds {len(report['rounds'])}  attempted {report['attempted']}  "
          f"failed {report['failed']}  correct {report['correct']}")
    print(f"  cpu {env['cpu']}  nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"first start {report['build']['build_s']:.3f} s "
          f"({'compiled the kernels' if report['build']['compiled'] else 'kernel cache reused'})")
    for name, unit in units.items():
        print(f"  {name:<60} {report['metrics'][name]:.6g} {unit}")
    for reason in report.get("trace_errors", []) + [r for c in report["checks"] for r in c["reasons"]]:
        print(f"  FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "permshape" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'permshape'} is missing", file=sys.stderr)
        return 2
    # the checks import the program's samplers, from this checkout
    sys.path.insert(0, str(SRC))
    os.environ["XDG_CACHE_HOME"] = child_env()["XDG_CACHE_HOME"]
    trace = bool(args.trace)
    try:
        reports = [run_workload(w, args.seed, args.seconds, trace) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = layer_metrics() if trace else END_TO_END
    for report in reports:
        show(report, units)
    if len(reports) == 1:
        metrics = {k: {"value": reports[0]["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": r["metrics"][k], "unit": u}
                   for r in reports for k, u in units.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
