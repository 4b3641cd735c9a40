"""One workload process: set up, run timed passes, check, report.

Started by ``run.py`` with BLAS threads fixed and ``src`` on the path.
``--t0`` is the parent's monotonic clock just before the spawn, so
``setup_s`` covers interpreter start, imports and input generation.
The result is one JSON object on the last line of standard output.

Untraced runs (``--trace 0``) repeat the pass until the next one would
overrun ``--seconds`` (at least twice) and report medians.  A block of the
fixed reference computation (``reference.py``) runs before the first pass
and after every untraced pass; ``wall_rel`` is the median over passes of
the pass's wall time divided by the mean of the two blocks around it.  Traced runs
alternate untraced and traced passes, so tracing overhead is measured in
the same process, and report per-layer self time and counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_IMPORT = time.monotonic()

import numpy  # noqa: E402  (imports count towards set-up)
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_pass(workload, tracer=None) -> dict:
    """One pass; output checks happen afterwards, outside the timed region."""
    times, texts, errors = {}, [], {}
    root = tracer.open("bench.pass") if tracer else None
    start = time.perf_counter()
    for op in workload.ops:
        t = time.perf_counter()
        try:
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    text = op.run()
            else:
                text = op.run()
        except Exception as exc:  # the op failed; the pass goes on
            text, errors[op.name] = None, f"{type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - t
        texts.append(text)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)
    return {"wall_s": wall, "op_s": times, "texts": texts, "errors": errors}


def judge(workload, result: dict, first: list | None) -> list[str]:
    """Problems of one pass: errors, failed checks, determinism mismatches."""
    problems = []
    for i, op in enumerate(workload.ops):
        text = result["texts"][i]
        if op.name in result["errors"]:
            problems.append(f"{op.name}: {result['errors'][op.name]}")
            continue
        try:
            found = op.check(text)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"output unreadable ({type(exc).__name__}: {exc})"]
        problems += [f"{op.name}: {p}" for p in found]
        if first is not None and first[i] is not None:
            if workloads.normalized(text) != workloads.normalized(first[i]):
                problems.append(f"{op.name}: output differs from the first pass")
    return problems


def layer_metrics(passes_spans: list) -> dict:
    """Median per-name self time over traced passes, plus calls and counters."""
    per_pass = [spans.aggregate(recorded) for recorded in passes_spans]
    names = sorted(set().union(*per_pass))
    out = {}
    for name in names:
        out[f"{name}.calls"] = per_pass[0].get(name, (0, 0.0))[0]
        out[f"{name}.self_s"] = statistics.median(
            agg.get(name, (0, 0.0))[1] for agg in per_pass)
    for layer in ("bench", "cli") + spans.LAYERS:
        out[f"{layer}.self_s"] = statistics.median(
            sum(s for n, (_, s) in agg.items() if spans.layer_of(n) == layer)
            for agg in per_pass)
    return out


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parents[1]
    workdir = root / "bench" / "_work"
    workdir.mkdir(parents=True, exist_ok=True)

    workload = workloads.make(args.workload, args.seed, args.size, root, workdir)
    t0 = args.t0 if args.t0 is not None else T_IMPORT
    setup_s = time.monotonic() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    deadline = time.perf_counter() + args.seconds
    untraced, traced, spans_by_pass, counters = [], [], [], None
    first, problems, attempted, failed = None, [], 0, 0
    refs, iterations = [reference.block()], []
    while True:
        started = time.perf_counter()
        if args.trace and len(untraced) > len(traced):
            tracer = spans.Tracer()
            with spans.Installation(tracer):
                result = run_pass(workload, tracer)
            ok, total_self = spans.check_self_sum(tracer.spans, result["wall_s"])
            if not ok:
                failed += 1
                problems.append(f"trace: self times sum to {total_self!r} s, "
                                f"pass took {result['wall_s']!r} s")
            spans_by_pass.append(tracer.spans)
            if counters is None:
                counters = dict(tracer.counters)
            traced.append(result)
        else:
            result = run_pass(workload)
            refs.append(reference.block())
            result["rel"] = result["wall_s"] / ((refs[-2] + refs[-1]) / 2)
            untraced.append(result)
        found = judge(workload, result, first)
        if first is None:
            first = result["texts"]
            layer_extra = workload.extra_layer_counts(result["texts"]) if not found else {}
            digest = workloads.digest([t or "" for t in result["texts"]])
        attempted += len(workload.ops)
        failed += len({p.split(":", 1)[0] for p in found})
        problems += found
        iterations.append(time.perf_counter() - started)
        typical = statistics.median(iterations)
        if (len(untraced) + len(traced) >= MIN_PASSES
                and time.perf_counter() + typical > deadline):
            break

    walls = [r["wall_s"] for r in untraced]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "setup_s": setup_s,
        "passes": len(untraced) + len(traced),
        "wall_s": statistics.median(walls),
        "pass_wall_s": walls,
        "wall_rel": statistics.median(r["rel"] for r in untraced),
        "pass_rel": [r["rel"] for r in untraced],
        "ref_s": statistics.median(refs),
        "ref_block_s": refs,
        "op_s": {
            name: statistics.median(r["op_s"][name] for r in untraced)
            for name in untraced[0]["op_s"]
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "digest": digest,
        "env": environment(root),
    }
    if args.trace:
        layers = layer_metrics(spans_by_pass)
        layers.update(counters)
        layers.update(layer_extra)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["bench.wall_s"] = out["wall_s"]
        layers["bench.ref_s"] = out["ref_s"]
        layers["bench.traced_wall_s"] = traced_wall
        layers["bench.trace_overhead_s"] = traced_wall - out["wall_s"]
        out["layers"] = layers
        trace_file = workdir / f"spans-{args.workload}.jsonl"
        with trace_file.open("w") as fh:
            for s in spans_by_pass[0]:
                fh.write(json.dumps([s.name, s.parent, s.start, s.end, s.error]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
