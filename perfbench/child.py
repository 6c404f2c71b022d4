"""One workload in one fresh process: timed rounds through ``permshape.cli.main``.

    python perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

``run.py`` starts it with ``src`` on PYTHONPATH. It imports the CLI, loads
the already-built kernels, writes the round's configs, then repeats the
round until the next one would end past SECONDS (always at least one).
Each round is timed from the first CLI call to the last output written,
in wall time and in the process's CPU time. With TRACE = 1 the tracer is
installed before the first round. RESULT receives the rounds, their output
digests, the peak RSS and the trace statistics as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import permshape.cli as cli
from permshape import _kernels
from permshape.rsk import warm_up

import workloads
from tracer import Tracer


def run_round(calls) -> list[str]:
    """Make the round's CLI calls; return each call's exit code or error."""
    codes = []
    for call in calls:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                codes.append(str(cli.main(call.argv)))
        except Exception:  # a raising call fails its operations; the round goes on
            codes.append("raised: " + traceback.format_exc(limit=3))
        if call.report:
            Path(call.report).write_text(out.getvalue())
    return codes


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir, result = argv
    seconds, workdir = float(seconds), Path(workdir)
    warm_up()
    calls = workloads.prepare(workload, int(seed), workdir)
    outputs = workloads.output_files(workload, calls, workdir)
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    rounds, cuts, elapsed = [], [], 0.0
    while not rounds or elapsed + rounds[-1]["wall_s"] <= seconds:
        for path in outputs:
            path.unlink(missing_ok=True)
        if tracer:
            cuts.append(tracer.mark())
        c0, t0 = time.process_time(), time.perf_counter()
        codes = run_round(calls)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = hashlib.sha256()
        for path in outputs:
            digest.update(path.read_bytes() if path.exists() else b"missing")
        rounds.append({"wall_s": wall, "cpu_s": cpu, "codes": codes, "digest": digest.hexdigest()})
        elapsed += wall
    doc = {
        "backend": _kernels.BACKEND,
        "calls": [vars(c) for c in calls],
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        cuts.append(tracer.mark())
        doc["trace"] = tracer.stats(cuts)
        tracer.save(Path(result).with_suffix(".spans.npz"))
    Path(result).write_text(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
