"""Command-line surface: thin wrappers over the library operations plus the
experiment pipelines.

Exit codes: 0 success, 2 usage error, 3 precondition failure, 4 property
falsified (a dependent set, a tail bound violation, a missed threshold), so
scripts can branch on what actually happened.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import experiments
from .equidistribution import (
    CirclePoint,
    equidistribution_scan,
    monte_carlo_bernstein,
    psi as psi_op,
    weyl_means,
)
from .integer_sets import (
    IntegerSet,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
    generate_sumset,
)
from .partitions import dyadic_partition, gross_partition
from .relations import is_s_independent
from .selection import (
    DensitySchedule,
    SelectionTrial,
    monte_carlo_dependence,
    select as select_op,
    uniform_schedule,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_FALSIFIED = 4

OUT_DIR_ENV = "LACUNARY_OUT"


def _emit(text: str, out_file: str | None) -> None:
    if out_file:
        Path(out_file).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_set(path: str) -> IntegerSet:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return IntegerSet.from_json(text)
    return IntegerSet.from_lines(text, Path(path).stem)


def _parse_points(text: str) -> list[CirclePoint]:
    return [CirclePoint.parse(tok) for tok in text.split(",") if tok.strip()]


def _cmd_generate(args) -> int:
    if args.primes:
        out = generate_primes(args.limit)
    elif args.polynomial is not None:
        coeffs = [int(c) for c in args.polynomial.split(",")]
        out = generate_polynomial(coeffs, args.k_max)
    elif args.geometric:
        out = generate_geometric(args.base, args.k_max)
    elif args.sumset is not None:
        out = generate_sumset(_load_set(args.sumset), args.j)
    elif args.integers:
        out = generate_integers(args.n_max)
    else:
        raise ValueError("choose one of --primes / --polynomial / --geometric / --sumset / --integers")
    if args.label:
        out = IntegerSet(out.elements, args.label)
    _emit(out.to_lines() if args.format == "lines" else out.to_json(indent=2), args.out_file)
    return EXIT_OK


def _cmd_partition(args) -> int:
    if args.kind == "dyadic":
        part = dyadic_partition(args.k_max)
    else:
        exponents = [int(e) for e in args.exponents.split(",")] if args.exponents else None
        part = gross_partition(args.k_max, exponents)
    _emit(part.to_json(indent=2), args.out_file)
    return EXIT_OK


def _cmd_select(args) -> int:
    E = _load_set(args.set)
    if args.schedule:
        doc = json.loads(Path(args.schedule).read_text())
        schedule = DensitySchedule.from_json_dict(doc, E)
    elif args.density is not None:
        schedule = uniform_schedule(E, args.density)
    else:
        raise ValueError("select needs --density or --schedule")
    trial = select_op(E, schedule, args.seed)
    if args.format == "bitmap":
        _emit(json.dumps(trial.to_bitmap_json_dict(E), indent=2), args.out_file)
    else:
        _emit(trial.to_json(indent=2), args.out_file)
    if args.selected_out:
        Path(args.selected_out).write_text(trial.selected.to_json(indent=2))
    return EXIT_OK


def _cmd_independence(args) -> int:
    E = _load_set(args.set)
    report = is_s_independent(E, args.s)
    _emit(report.to_json(indent=2), args.out_file)
    return EXIT_OK if report.independent else EXIT_FALSIFIED


def _cmd_weyl(args) -> int:
    E = _load_set(args.set)
    points = _parse_points(args.points)
    if args.ks:
        ks = [int(k) for k in args.ks.split(",")]
        report = equidistribution_scan(E, ks, points)
        _emit(report.to_csv() if args.format == "csv" else report.to_json(indent=2), args.out_file)
    else:
        report = weyl_means(E, args.k if args.k is not None else len(E), points)
        _emit(report.to_json(indent=2), args.out_file)
    return EXIT_OK


def _cmd_psi(args) -> int:
    E = _load_set(args.set)
    schedule = DensitySchedule.from_json_dict(json.loads(Path(args.schedule).read_text()), E)
    trial = SelectionTrial.from_json_dict(json.loads(Path(args.trial).read_text()), E)
    point = psi_op(E, trial, schedule, args.k if args.k is not None else len(E), args.grid_cap)
    _emit(json.dumps(point.to_json_dict(), indent=2), args.out_file)
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    if args.mode == "dependence":
        if args.set is None or args.ell is None or args.s is None:
            raise ValueError("dependence mode needs --set, --ell and --s")
        E = _load_set(args.set)
        est = monte_carlo_dependence(E, args.ell, args.s, args.trials, args.seed)
        _emit(json.dumps(est.to_json_dict(), indent=2), args.out_file)
        falsified = est.bound < 1.0 and est.frequency > est.bound + 3.0 * est.wilson_half_width
        return EXIT_FALSIFIED if falsified else EXIT_OK
    if args.mode == "bernstein":
        if args.n is None or args.a is None:
            raise ValueError("bernstein mode needs --n and --a")
        dist: dict = {"kind": "rademacher"}
        if args.dist.startswith("selector:"):
            dist = {"kind": "selector", "delta": float(args.dist.split(":", 1)[1])}
        elif args.dist.startswith("uniform:"):
            dist = {"kind": "uniform", "half_width": float(args.dist.split(":", 1)[1])}
        elif args.dist != "rademacher":
            raise ValueError(f"unknown distribution {args.dist!r}")
        a_values = [float(a) for a in args.a.split(",")]
        report = monte_carlo_bernstein(args.n, dist, a_values, args.trials, args.seed)
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out_file)
        return EXIT_OK if report.all_within_bound else EXIT_FALSIFIED
    raise ValueError(f"unknown montecarlo mode {args.mode!r}")


def _cmd_pipeline(args) -> int:
    if not args.config:
        raise ValueError("pipeline needs --config")
    config = experiments.ExperimentConfig.from_json(Path(args.config).read_text())
    if args.kind == "block-independence":
        record = experiments.run_block_independence(config, threads=args.threads)
        falsified = not all(
            entry["all_tail_below_bound_with_slack"] for entry in record.summary["per_s"].values()
        )
    else:
        record = experiments.run_certification(config, threads=args.threads)
        verdicts = [
            entry["tail_meets_threshold"] for entry in record.summary["per_s"].values()
        ]
        if record.summary["psi_decay_meets_threshold"] is not None:
            verdicts.append(record.summary["psi_decay_meets_threshold"])
        falsified = not all(verdicts)
    out_dir = args.out or config.out_dir or os.environ.get(OUT_DIR_ENV, ".")
    path = experiments.save_record(record, out_dir)
    print(f"record: {path}")
    print(json.dumps(record.summary, indent=2, sort_keys=True))
    return EXIT_FALSIFIED if falsified else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="Random subsets of polynomial-growth integer sequences: "
        "independence certification and equidistribution diagnostics.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (counter-based, reproducible)")
    parser.add_argument("--config", help="experiment config JSON (pipeline)")
    parser.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate an integer set")
    kind = g.add_mutually_exclusive_group(required=True)
    kind.add_argument("--primes", action="store_true")
    kind.add_argument("--polynomial", metavar="COEFFS", help="comma-separated, increasing degree")
    kind.add_argument("--geometric", action="store_true")
    kind.add_argument("--sumset", metavar="SETFILE")
    kind.add_argument("--integers", action="store_true")
    g.add_argument("--limit", type=int, default=100)
    g.add_argument("--k-max", type=int, default=10, dest="k_max")
    g.add_argument("--base", type=int, default=3)
    g.add_argument("--j", type=int, default=2)
    g.add_argument("--n-max", type=int, default=100, dest="n_max")
    g.add_argument("--label", default="")
    g.add_argument("--format", choices=["json", "lines"], default="json")
    g.add_argument("--out-file")
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("partition", help="build a partition")
    p.add_argument("--kind", choices=["dyadic", "gross"], required=True)
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--exponents", help="comma-separated custom gross exponents")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_partition)

    s = sub.add_parser("select", help="random selection from a set")
    s.add_argument("--set", required=True)
    s.add_argument("--density", type=float)
    s.add_argument("--schedule", help="schedule JSON file")
    s.add_argument("--format", choices=["elements", "bitmap"], default="elements")
    s.add_argument("--out-file")
    s.add_argument("--selected-out", help="also write the bare selected set JSON here")
    s.set_defaults(func=_cmd_select)

    i = sub.add_parser("independence", help="check s-independence")
    i.add_argument("--set", required=True)
    i.add_argument("--s", type=int, required=True)
    i.add_argument("--out-file")
    i.set_defaults(func=_cmd_independence)

    w = sub.add_parser("weyl", help="Weyl means at circle points")
    w.add_argument("--set", required=True)
    w.add_argument("--k", type=int)
    w.add_argument("--ks", help="comma-separated checkpoints: emit a scan instead")
    w.add_argument("--points", default="1/2,0.41421356237309515")
    w.add_argument("--format", choices=["json", "csv"], default="json")
    w.add_argument("--out-file")
    w.set_defaults(func=_cmd_weyl)

    q = sub.add_parser("psi", help="selection discrepancy at prefix length k")
    q.add_argument("--set", required=True)
    q.add_argument("--schedule", required=True)
    q.add_argument("--trial", required=True)
    q.add_argument("--k", type=int)
    q.add_argument("--grid-cap", type=int, default=1 << 20, dest="grid_cap")
    q.add_argument("--out-file")
    q.set_defaults(func=_cmd_psi)

    m = sub.add_parser("montecarlo", help="Monte Carlo bound validation")
    m.add_argument("--mode", choices=["dependence", "bernstein"], required=True)
    m.add_argument("--set")
    m.add_argument("--ell", type=int)
    m.add_argument("--s", type=int)
    m.add_argument("--n", type=int)
    m.add_argument("--dist", default="rademacher", help="rademacher | selector:DELTA | uniform:HALFWIDTH")
    m.add_argument("--a", help="comma-separated deviation levels")
    m.add_argument("--trials", type=int, default=1000)
    m.add_argument("--out-file")
    m.set_defaults(func=_cmd_montecarlo)

    r = sub.add_parser("pipeline", help="run an experiment pipeline from a config")
    r.add_argument("kind", choices=["block-independence", "certify"])
    r.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
