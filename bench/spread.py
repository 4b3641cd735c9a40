"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 bench/spread.py --workloads figure,wide,growth,lattice --seeds 1-10
    python3 bench/spread.py --workloads figure --seeds 1-5 --out bench/_work/a.json

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints for each end-to-end metric the median over seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  The spread is marked ``ok`` when it is below a third of the
metric's bound in ``BENCHMARK.json`` and ``WIDE`` otherwise (``setup_s`` is
not held to that).  ``--out`` writes the same numbers, the per-operation
medians, the failure counts and the output digests as JSON; ``--compare``
sets the medians of a second set of runs against such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / "bench" / "_work" / "results" / f"{workload}-seed{seed}-full-trace0.json"
    return {"line": line, "record": json.loads(record.read_text())}


def measure(workload: str, seeds: list[int], seconds: int, spec: dict) -> dict:
    runs = {seed: one_run(workload, seed, seconds) for seed in seeds}
    out = {"end_to_end": {}, "operations_s": {}, "attempted": 0, "failed": 0,
           "digests": {}}
    for m in spec["end_to_end"]:
        out["end_to_end"][m["name"]] = quartiles(
            [runs[s]["line"]["metrics"][m["name"]]["value"] for s in seeds])
    for op in runs[seeds[0]]["record"]["op_s"]:
        out["operations_s"][f"{op}_s"] = statistics.median(
            runs[s]["record"]["op_s"][op] for s in seeds)
    for s in seeds:
        out["attempted"] += runs[s]["line"]["attempted"]
        out["failed"] += runs[s]["line"]["failed"]
        out["digests"][str(s)] = runs[s]["record"]["digest"]
    out["correct"] = all(runs[s]["line"]["correct"] for s in seeds)
    return out


def report(name: str, res: dict, spec: dict, earlier: dict | None) -> list[str]:
    lines = [f"== {name}: {res['failed']} of {res['attempted']} operations failed, "
             f"correct={res['correct']}"]
    for m in spec["end_to_end"]:
        q = res["end_to_end"][m["name"]]
        target = m["bound"] / 3
        mark = "-" if m["name"] == "setup_s" else ("ok" if q["spread"] < target else "WIDE")
        line = (f"  {m['name']:<14} median {q['median']:>12.5g} {m['unit']:<6} "
                f"q1 {q['q1']:>10.5g} q3 {q['q3']:>10.5g} spread {q['spread']:.3f} "
                f"(bound/3 {target:.3f}) {mark}")
        if earlier is not None:
            before = earlier["end_to_end"][m["name"]]["median"]
            change = q["median"] / before - 1.0
            worse = change if m["better"] == "lower" else -change
            line += f"  vs earlier {change:+.3f} {'ok' if worse <= m['bound'] else 'WORSE'}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds in BENCHMARK.json")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--compare", type=Path, default=None,
                   help="an earlier --out file to set the medians against")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    seeds = _seeds(args.seeds)
    results = {}
    for name in args.workloads.split(","):
        results[name] = measure(name, seeds, seconds, spec)
        print("\n".join(report(name, results[name], spec, earlier.get(name))), flush=True)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
