"""eventweave benchmark: end-to-end and per-layer metrics for four workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload figure --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1

Each workload runs in its own process (``bench/worker.py``) with the package
imported from ``src/`` and BLAS pinned to one thread.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` a separate traced run with per-layer
self times, counts and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORKLOADS = ("figure", "wide", "growth", "lattice")

#: set-up is measured this many times per untraced run; the median is reported
SETUP_SAMPLES = 5
#: a run must be over well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
#: pinned in every workload process; OpenBLAS otherwise uses all cores
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit, better); must match BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_rel", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: operations of each workload whose median time is printed as ``<op>_s``
OP_METRICS = {
    "figure": ("simulate", "epr", "chsh"),
    "wide": ("simulate",),
    "growth": ("growth",),
    "lattice": ("thermal", "cells"),
}


def _per_layer() -> tuple:
    s, n, b = "s", "count", "B-computed"
    rows = [(f"cli.{c}.self_s", s, "lower")
            for c in ("simulate", "epr", "chsh", "thermal-ambiguity", "cells")]
    rows += [("cli.simulate.draws", n, "higher"),
             ("cli.simulate.paths_live_ratio", "ratio", "higher")]
    for layer, names in (
        ("dynamics", ("cut_state", "alternative_probabilities", "realized_state",
                      "joint_probability", "realize", "sample_extension", "sample_many")),
        ("tensors", ("contract", "tensor_product", "apply_event_operator")),
        ("graph", ("validate_cut", "add_interior_event", "to_json", "from_json",
                   "validate")),
        ("epr", ("build_epr", "joint_distribution", "mc_frequencies")),
        ("thermal", ("packet_mixture_density", "matching_width")),
        ("cells", ("branch_states", "single_branch", "momentum_balance_spread",
                   "CellPartition.validate")),
    ):
        for fn in names:
            rows += [(f"{layer}.{fn}.calls", n, "lower"), (f"{layer}.{fn}.self_s", s, "lower")]
    rows += [
        ("dynamics.cut_state.max_amps", n, "lower"),
        ("dynamics.sample_many.draws", n, "higher"),
        ("dynamics.errors", n, "lower"),
        ("tensors.contract.bytes", b, "lower"),
        ("tensors.tensor_product.bytes", b, "lower"),
        ("graph.events", n, "higher"),
        ("graph.validate_cut.events_walked", n, "lower"),
        ("scenario.load_scenario.self_s", s, "lower"),
        ("thermal.packet_mixture_density.bytes", b, "lower"),
    ]
    rows += [(f"{layer}.self_s", s, "lower")
             for layer in ("bench", "cli", "tensors", "graph", "dynamics", "scenario",
                           "epr", "thermal", "cells")]
    rows += [("bench.wall_s", s, "lower"), ("bench.ref_s", s, "lower"),
             ("bench.traced_wall_s", s, "lower"), ("bench.trace_overhead_s", s, "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is its result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int, size: str,
            deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
    result = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    if trace:
        layers = result["layers"]
        result["metrics"] = {name: {"value": layers.get(name, 0), "unit": unit}
                             for name, unit, _ in PER_LAYER}
    else:
        result["metrics"] = {name: {"value": result[name], "unit": unit}
                             for name, unit, _ in END_TO_END}
    return result


def recorded_digest(workload: str, seed: int, size: str) -> str | None:
    """Digest recorded at the seed commit for this workload and seed, if any."""
    path = BENCH / "baseline.json"
    if size != "full" or not path.exists():
        return None
    recorded = json.loads(path.read_text())["workloads"].get(workload, {})
    return recorded.get("digests", {}).get(str(seed))


def describe(res: dict) -> list[str]:
    """Human-readable block for one workload run."""
    w, n = res["workload"], res["passes"]
    lines = [f"== {w}  seed {res['seed']}  size {res['size']}  trace {res['trace']}  "
             f"passes {n}: {', '.join(OP_METRICS[w])}"]
    if res["trace"]:
        lines += [f"  {name:<42} {res['metrics'][name]['value']!r:>24} {unit}"
                  for name, unit, _ in PER_LAYER]
        lines.append(f"  tracing overhead: traced pass {res['layers']['bench.traced_wall_s']:.4f} s"
                     f" - untraced {res['wall_s']:.4f} s"
                     f" = {res['layers']['bench.trace_overhead_s']:+.4f} s")
    else:
        lines.append(f"  {'setup_s':<14} {res['setup_s']:>12.4f} s   median of "
                     f"{len(res['setup_samples_s'])} set-ups")
        lines.append(f"  {'wall_rel':<14} {res['wall_rel']:>12.4f} ratio  median of "
                     f"{len(res['pass_rel'])} passes of wall time / reference time")
        lines.append(f"  {'wall_s':<14} {res['wall_s']:>12.4f} s   median of "
                     f"{len(res['pass_wall_s'])} passes")
        lines.append(f"  {'ref_s':<14} {res['ref_s']:>12.4f} s   median of "
                     f"{len(res['ref_block_s'])} reference blocks")
        for op in OP_METRICS[w]:
            lines.append(f"  {op + '_s':<14} {res['op_s'][op]:>12.4f} s   median of "
                         f"{len(res['pass_wall_s'])} passes")
        lines.append(f"  {'peak_rss_mb':<14} {res['peak_rss_mb']:>12.1f} MB")
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'fail_frac':<14} {frac:>12.4f} ratio  "
                 f"({res['failed']} of {res['attempted']} operations failed)")
    want = recorded_digest(w, res["seed"], res["size"])
    status = "not recorded" if want is None else ("match" if want == res["digest"] else "DIFFERS")
    lines.append(f"  digest  sha256:{res['digest']}  (recorded for this seed: {status})")
    env = res["env"]
    lines.append("  env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    lines += [f"  problem: {p}" for p in res["problems"]]
    return lines


def _stop(signum, frame):
    # raising inside subprocess.run makes it kill and reap the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "eventweave" / "__init__.py").is_file():
        print(f"error: no eventweave package under {ROOT / 'src'}", file=sys.stderr)
        return 3
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    results = []
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, args.trace, args.size, deadline)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name} did not finish: {exc}", file=sys.stderr)
            return 1
        results.append(res)
        out_dir = BENCH / "_work" / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}-seed{args.seed}-{args.size}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")
        print("\n".join(describe(res)), flush=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
