"""Command-line front end: seeded runs with machine-readable reports.

Subcommands: ``epr``, ``chsh``, ``simulate``, ``thermal-ambiguity``,
``cells``.  Reports are JSON by default (CSV for the tabular quantities);
identical configuration and seed produce byte-identical reports except
for the ``duration_s`` field.  Random streams derive from
``default_rng([seed, replica])`` and every sampling draw consumes exactly
one uniform, so runs are reproducible and parallelizable by replica.

Exit codes: 0 success, 2 usage, parse and file errors (bad argument
values, malformed scenarios, unreadable inputs, unwritable ``--out``,
arrays too large to allocate), 3 scenario or model invariant violations
(non-exhaustive alternatives, diagonal mismatch).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import cells as cells_mod
from . import dynamics, epr, thermal
from .errors import (
    EventWeaveError,
    NoMatch,
    NotExhaustive,
    PartitionNotUnity,
    ZeroProbabilityEvent,
)
from .scenario import load_scenario

SCHEMA_VERSION = 1

#: minimal structural contract for every report, testable with jsonschema
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "duration_s"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "results": {"type": "object"},
        "duration_s": {"type": "number", "minimum": 0},
    },
}


class UsageError(ValueError):
    """Bad argument values; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main() reports it as a usage error, exit 2
        raise UsageError(message)


def _three_sigma_band(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


# -- handlers -----------------------------------------------------------------


def _outcome_keys():
    return [f"p_{n.replace('+', 'p').replace('-', 'm')}" for n in epr.OUTCOME_PAIRS]


def cmd_epr(args) -> tuple[dict, list, list]:
    if not 0.0 <= args.theta <= 180.0:
        raise UsageError(f"theta must be in [0, 180], got {args.theta}")
    if args.replicas < 1:
        raise UsageError(f"replicas must be positive, got {args.replicas}")
    setup = epr.build_epr(
        epr.Direction.in_plane_deg(0.0), epr.Direction.in_plane_deg(args.theta)
    )
    analytic = epr.joint_distribution(setup)
    keys = _outcome_keys()
    per_replica = []
    pooled = np.zeros(4)
    for r in range(args.replicas):
        freqs = epr.mc_frequencies(setup, args.runs, dynamics.replica_rng(args.seed, r))
        pooled += freqs
        per_replica.append(
            {
                "replica": r,
                "empirical": {k: float(f) for k, f in zip(keys, freqs)},
                "max_abs_deviation": float(np.max(np.abs(freqs - analytic))),
            }
        )
    pooled /= args.replicas
    dev = np.abs(pooled - analytic)
    n_total = args.runs * args.replicas
    within = bool(
        all(dev[i] <= _three_sigma_band(analytic[i], n_total) for i in range(4))
    )
    results = {
        "theta_deg": float(args.theta),
        **{k: float(a) for k, a in zip(keys, analytic)},
        "E": float(analytic[0] + analytic[3] - analytic[1] - analytic[2]),
        "empirical": {k: float(f) for k, f in zip(keys, pooled)},
        "replica_reports": per_replica,
        "max_abs_deviation": float(dev.max()),
        "within_three_sigma": within,
    }
    header = ["outcome", "analytic", "empirical"]
    rows = [
        [n, repr(float(a)), repr(float(e))]
        for n, a, e in zip(epr.OUTCOME_PAIRS, analytic, pooled)
    ]
    return results, header, rows


def cmd_chsh(args) -> tuple[dict, list, list]:
    angles = (args.a, args.ap, args.b, args.bp)
    for flag, value in zip(("--a", "--ap", "--b", "--bp"), angles):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be a finite angle, got {value}")
    dirs = tuple(epr.Direction.in_plane_deg(x) for x in angles)
    s_quantum = epr.chsh(*dirs)
    s_classical = epr.best_classical()
    results = {
        "S_quantum": float(s_quantum),
        "S_abs": float(abs(s_quantum)),
        "S_classical_max": float(s_classical),
        "gap": float(abs(s_quantum) - s_classical),
        "tsirelson_bound": epr.TSIRELSON_BOUND,
    }
    header = ["quantity", "value"]
    rows = [[k, repr(v)] for k, v in results.items()]
    return results, header, rows


def cmd_simulate(args) -> tuple[dict, list, list]:
    scenario = load_scenario(args.scenario)
    stages = [stage.alternatives for stage in scenario.stages]
    history = scenario.build_history()
    tree = dynamics.sample_outcome_tree(
        history, stages, args.runs, args.seed, args.replicas
    )

    sample_history = None
    if stages:
        for alts, idx in zip(stages, tree.first_path):
            dynamics.realize(history, None, alts.candidates[idx])
        sample_history = history.to_dict()

    n_total = args.runs * args.replicas
    results = {
        "stages": [stage.name for stage in scenario.stages],
        "runs": args.runs,
        "replicas": args.replicas,
        "paths": [
            {"outcomes": dynamics.outcome_names(stages, p), "analytic": a,
             "empirical": c / n_total}
            for p, a, c in zip(tree.paths, tree.analytic, tree.counts)
        ],
        "chain_rule": {
            "paths_checked": tree.chain_rule_checked,
            "max_abs_dev": tree.chain_rule_max_dev,
        },
        "sample_history": sample_history,
    }
    header = ["outcomes", "analytic", "empirical"]
    rows = [
        ["/".join(p["outcomes"]), repr(p["analytic"]), repr(p["empirical"])]
        for p in results["paths"]
    ]
    return results, header, rows


def cmd_thermal(args) -> tuple[dict, list, list]:
    model = thermal.matched_model(args.sites, args.mass, args.beta, args.hbar,
                                  args.box or None)
    match = thermal.matching_width(model)
    mixture, thermal_d = match.mixture, match.thermal
    lam = thermal.h_formula_width(model)
    results = {
        "sigma_star": match.sigma_star,
        "residual_sup_norm": match.residual_sup_norm,
        "lambda_h": lam,
        "ratio": lam / match.sigma_star,
        "packet_width_1e": 2.0 * match.sigma_star,
        "offdiag_max": mixture.max_offdiagonal(),
        "trace_thermal": thermal_d.trace(),
        "trace_mixture": mixture.trace(),
    }
    header = ["p", "thermal", "mixture"]
    rows = [
        [repr(float(p)), repr(float(t)), repr(float(m))]
        for p, t, m in zip(model.grid.momenta(), thermal_d.diagonal, mixture.diagonal)
    ]
    return results, header, rows


def cmd_cells(args) -> tuple[dict, list, list]:
    if args.cell_width:
        counts = []
        for w in args.cell_width:
            if not 0 < w <= args.box:
                raise UsageError(f"cell width {w} outside (0, box]")
            if not math.isfinite(args.box / w):
                raise UsageError(f"box {args.box} / cell width {w} is not finite")
            counts.append(max(1, round(args.box / w)))
    elif args.cells:
        counts = list(args.cells)
    else:
        counts = list(cells_mod.DEFAULT_SWEEP_CELLS)
    sweep = cells_mod.width_sweep(
        cell_counts=counts,
        n_points=args.sites,
        smoothing_fraction=args.smoothing,
        tau_scale=args.tau_scale,
        box_length=args.box,
    )
    results = {
        "slope": sweep.slope,
        "rows": [
            {
                "a": pt.cell_width,
                "delta_p": pt.delta_p,
                "delta_p_a_over_h": pt.product_over_h,
                "coherence_defect": pt.coherence_defect,
            }
            for pt in sweep.points
        ],
    }
    header = ["a", "delta_p", "delta_p_a_over_h", "coherence_defect"]
    rows = [
        [repr(pt.cell_width), repr(pt.delta_p), repr(pt.product_over_h),
         repr(pt.coherence_defect)]
        for pt in sweep.points
    ]
    return results, header, rows


# -- plumbing -----------------------------------------------------------------


def _comma_list(convert):
    """argparse type: a non-empty comma-separated list of ``convert`` values."""
    def parse(text: str) -> list:
        values = [convert(x) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one comma-separated value")
        return values
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eventweave",
        description="Event-pattern quantum simulator: sampling, EPR/CHSH, "
        "ensemble ambiguity, quasilocal cells.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    common.add_argument("--out", type=str, default=None, help="write report to file")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("epr", parents=[common],
                       help="analytic vs sampled two-sided spin outcomes")
    p.add_argument("--theta", type=float, default=90.0,
                   help="angle between analyzer directions, degrees")
    p.add_argument("--runs", type=int, default=100000)
    p.add_argument("--replicas", type=int, default=1,
                   help="independent streams from default_rng([seed, replica])")
    p.set_defaults(handler=cmd_epr)

    p = sub.add_parser("chsh", parents=[common],
                       help="quantum CHSH value vs exhaustive classical bound")
    a0, a1, b0, b1 = epr.CHSH_OPTIMAL_ANGLES_DEG
    p.add_argument("--a", type=float, default=a0)
    p.add_argument("--ap", type=float, default=a1)
    p.add_argument("--b", type=float, default=b0)
    p.add_argument("--bp", type=float, default=b1)
    p.set_defaults(handler=cmd_chsh)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a scenario file: staged event sampling")
    p.add_argument("scenario", type=str, help="path to a scenario JSON file")
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--replicas", type=int, default=1,
                   help="independent streams from default_rng([seed, replica])")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("thermal-ambiguity", parents=[common],
                       help="thermal diagonal vs uniform packet mixture")
    p.add_argument("--beta", type=float, default=1.0 / thermal.BOLTZMANN,
                   help="inverse temperature (default: 1 K in SI)")
    p.add_argument("--mass", type=float, default=thermal.PROTON_MASS)
    p.add_argument("--hbar", type=float, default=thermal.HBAR)
    p.add_argument("--sites", type=int, default=256)
    p.add_argument("--box", type=float, default=0.0,
                   help="box length; 0 selects 40 matching widths")
    p.set_defaults(handler=cmd_thermal)

    p = sub.add_parser("cells", parents=[common],
                       help="momentum-balance spread versus cell width")
    p.add_argument("--sites", type=int, default=4096)
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--cells", type=_comma_list(int), default=None,
                       help="comma-separated cell counts")
    sweep.add_argument("--cell-width", type=_comma_list(float), default=None,
                       help="comma-separated cell widths (box units)")
    p.add_argument("--box", type=float, default=1.0)
    p.add_argument("--tau-scale", type=float, default=2.0)
    p.add_argument("--smoothing", type=float, default=0.15,
                   help="cell smoothing as a fraction of the cell width")
    p.set_defaults(handler=cmd_cells)
    return parser


def _emit(args, report: dict, header: list, rows: list) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        results, header, rows = args.handler(args)
        duration = time.perf_counter() - start
        config = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler",) and not callable(v)
        }
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": config,
            "results": results,
            "duration_s": duration,
        }
        _emit(args, report, header, rows)
    except json.JSONDecodeError as exc:
        print(f"error: scenario parse failed at line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except (NotExhaustive, NoMatch, PartitionNotUnity, ZeroProbabilityEvent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, EventWeaveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
