"""Command-line surface: sampling, shapes, profiles, distances, experiments,
verification suites, two-sample KS comparisons, and the kernel backend.

Exit codes: 0 success, 1 validation/usage error (a bad flag value, an
unknown choice and a missing required flag included), 2 verification
failure (a falsified check - should never happen). Every randomized
subcommand either takes --seed or generates one and prints it to stderr, so
any run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import secrets
import sys
import warnings
from pathlib import Path

import numpy as np

from . import _kernels
from .diagram import YoungDiagram
from .experiments import (
    HARNESS_KEYS,
    MEASUREMENTS,
    ExperimentConfig,
    csv_text,
    json_text,
    ks_two_sample,
    run_experiment,
    write_outputs,
)
from .perm import Permutation
from .rsk import schensted_shape
from .samplers import (
    REGIME_CHOICES,
    REGIME_KEYS,
    RegimeSpec,
    derive_rng,
    parse_key_values,
    sample_regime,
)
from .shape_geom import (
    profile_distance_bound,
    profile_rows,
    scaled_kinks,
    scaled_sup_distance,
    sup_profile_distance,
)
from .verify import SUITES, run_suite


class _Parser(argparse.ArgumentParser):
    """Reports what argparse rejects as any other bad input is reported:
    one ``error:`` line and exit code 1, not argparse's usage text and 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def count(text: str) -> int:
    """A count flag's value: an integer of at least 1 (argparse names it in errors)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def size(text: str) -> int:
    """A size flag's value: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _ensure_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(62)
    print(f"# seed {seed}", file=sys.stderr)
    return seed


def _flags(args, keys) -> dict[str, str]:
    """The flags given on the command line, named as config keys."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


_REGIME_HELP = {"ensemble": "default uniform",
                "cycle_type": "comma-separated cycle lengths, e.g. 2,2"}


def _add_regime_flags(sub):
    # values stay text: RegimeSpec.from_mapping reads them as it reads a config file
    for key in REGIME_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                         choices=REGIME_CHOICES.get(key), help=_REGIME_HELP.get(key))


def cmd_sample(args) -> int:
    regime = RegimeSpec.from_mapping(_flags(args, REGIME_KEYS))
    seed = _ensure_seed(args)
    for trial in range(args.count):
        rng = derive_rng(seed, args.n, trial)
        p = sample_regime(regime, args.n, rng)
        print(p.to_text())
    return 0


def cmd_shape(args) -> int:
    if args.perm is not None:
        words = [args.perm]
    else:
        words = [line for line in sys.stdin.read().splitlines() if line.strip()]
    for w in words:
        print(schensted_shape(Permutation.from_text(w)).to_text())
    return 0


def cmd_profile(args) -> int:
    if args.m is not None and args.n is None:
        raise ValueError("profile takes --m only with --n")
    d = YoungDiagram.from_text(args.diagram)
    if args.n is not None:
        m = args.m if args.m is not None else 0
        sys.stdout.write(csv_text(("s", "F", "Phi"), zip(*scaled_kinks(d, args.n, m))))
    else:
        sys.stdout.write(csv_text(("t", "L"), profile_rows(d)))
    return 0


def cmd_distance(args) -> int:
    d = YoungDiagram.from_text(args.diagram)
    if args.other is not None:
        if args.n is not None or args.m is not None:
            raise ValueError("distance takes either --other or --n/--m, not both")
        other = YoungDiagram.from_text(args.other)
        dist = sup_profile_distance(d, other)
        bound = profile_distance_bound(d, other)
        print(f"{dist!r} {bound!r}")
        return 0
    if args.n is None:
        raise ValueError("distance needs either --other or --n/--m")
    m = args.m if args.m is not None else 0
    print(repr(scaled_sup_distance(d, args.n, m)))
    return 0


def cmd_experiment(args) -> int:
    kv = parse_key_values(Path(args.config).read_text()) if args.config else {}
    kv.update(_flags(args, [*HARNESS_KEYS, *REGIME_KEYS]))
    if "seed" not in kv:
        kv["seed"] = str(_ensure_seed(args))
    cfg = ExperimentConfig.from_mapping(kv)
    records, summary = run_experiment(cfg, workers=args.workers)
    csv_path, json_path = write_outputs(records, summary, cfg.out or "experiment_out")
    print(f"records: {csv_path}")
    print(f"summary: {json_path}")
    for e in summary.entries:
        if e.statistic in MEASUREMENTS:
            print(f"n={e.n} {e.statistic}: mean={e.mean:.6g} sd={e.sd:.3g} count={e.count}")
    return 0


def cmd_verify(args) -> int:
    _, size_keyword = SUITES[args.suite]
    kwargs: dict = {}
    for keyword in ("pairs", "draws"):
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword != size_keyword:
            takes = f"--{size_keyword}" if size_keyword else "no size flag"
            raise ValueError(f"suite {args.suite} takes {takes}, not --{keyword}")
        kwargs[keyword] = value
    seed = _ensure_seed(args)
    report = run_suite(args.suite, seed=seed, **kwargs)
    sys.stdout.write(json_text(report))
    return 0 if report["ok"] else 2


def cmd_ks(args) -> int:
    with warnings.catch_warnings():
        # ks_two_sample reports an empty file; numpy need not warn first
        warnings.simplefilter("ignore", UserWarning)
        x = np.loadtxt(args.a, ndmin=1)
        y = np.loadtxt(args.b, ndmin=1)
    print(repr(ks_two_sample(x, y)))
    return 0


def cmd_info(args) -> int:
    for key, value in _kernels.info().items():
        print(f"{key}: {value}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once a process: each build leaves hundreds of
    argparse objects in reference cycles that only a full collection frees."""
    parser = _Parser(
        prog="permshape",
        description="Robinson-Schensted shapes of conjugacy-invariant random permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw permutations from an ensemble")
    p_sample.add_argument("--n", type=size, required=True)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--count", type=count, default=1)
    _add_regime_flags(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_shape = sub.add_parser("shape", help="Schensted shape of a permutation")
    p_shape.add_argument("--perm", default=None, help="one-line notation; stdin if omitted")
    p_shape.set_defaults(func=cmd_shape)

    p_profile = sub.add_parser("profile", help="height profile CSV of a diagram")
    p_profile.add_argument("--diagram", required=True, help="comma-separated parts")
    p_profile.add_argument("--n", type=int, default=None, help="emit the rescaled profile for size n")
    p_profile.add_argument("--m", type=int, default=None, help="fixed-point count for the comparison curve")
    p_profile.set_defaults(func=cmd_profile)

    p_dist = sub.add_parser("distance", help="profile distances")
    p_dist.add_argument("--diagram", required=True)
    p_dist.add_argument("--other", default=None, help="second diagram: report sup distance and bound")
    p_dist.add_argument("--n", type=int, default=None)
    p_dist.add_argument("--m", type=int, default=None)
    p_dist.set_defaults(func=cmd_distance)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo trial ladder")
    p_exp.add_argument("--config", default=None,
                       help="plain-text key = value config file; flags override its keys")
    p_exp.add_argument("--n", dest="n_ladder", default=None, help="comma-separated n ladder")
    p_exp.add_argument("--trials", default=None, help="default 1")
    p_exp.add_argument("--seed", default=None)
    p_exp.add_argument("--out", default=None, help="default experiment_out")
    p_exp.add_argument("--workers", type=count, default=1)
    p_exp.add_argument("--measurements", default=None,
                       help=f"comma-separated subset of {','.join(MEASUREMENTS)} (default all); "
                            "cycle statistics are always recorded")
    _add_regime_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--pairs", type=count, default=None)
    p_verify.add_argument("--draws", type=count, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_ks = sub.add_parser("ks", help="two-sample Kolmogorov-Smirnov statistic")
    p_ks.add_argument("--a", required=True, help="file with one number per line")
    p_ks.add_argument("--b", required=True)
    p_ks.set_defaults(func=cmd_ks)

    p_info = sub.add_parser("info", help="the kernel backend, its library file and band width")
    p_info.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
