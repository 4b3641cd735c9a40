"""Tests of the benchmark's own code: generators, span arithmetic, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
import spread
import workloads
from eventweave import dynamics, tensors
import eventweave

ROOT = Path(__file__).resolve().parents[2]


# -- generators ----------------------------------------------------------------


def _inputs(name, seed, tmp_path):
    wl = workloads.make(name, seed, "tiny", tmp_path, tmp_path)
    if name == "figure":
        return [wl.theta]
    if name == "wide":
        return json.loads(Path(tmp_path / f"wide-4-seed{seed}.json").read_text())
    if name == "growth":
        return [
            [workloads.bra_amps(c).tolist() + c.ket.amps.tolist()
             for c in alts.candidates]
            for alts in wl.steps
        ] + [v.amps.tolist() for v in wl.initial]
    return [op.name for op in wl.ops]


@pytest.mark.parametrize("name", ["figure", "wide", "growth"])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    assert _inputs(name, 5, tmp_path) == _inputs(name, 5, tmp_path)
    assert _inputs(name, 5, tmp_path) != _inputs(name, 6, tmp_path)


def test_wide_scenario_is_exhaustive_and_measures_distinct_pairs():
    sc = workloads.wide_scenario(seed=9, pairs=6)
    assert len(sc["initial_events"]) == 6
    pairs = [stage["name"] for stage in sc["stages"]]
    assert len(set(pairs)) == len(pairs) == 2
    for stage in sc["stages"]:
        # the four merged outcomes cover both analyzer bases on both sides
        total = np.zeros((2, 2))
        for cand in stage["candidates"]:
            a, b = (np.array([re for re, _ in f["amps"]]) for f in cand["bra"])
            total += np.outer(a, a) * np.dot(b, b)
        assert np.allclose(total, 2 * np.eye(2))


def test_growth_candidates_form_orthonormal_bases(tmp_path):
    wl = workloads.make("growth", 3, "tiny", tmp_path, tmp_path)
    for alts in wl.steps:
        b0, b1 = (workloads.bra_amps(c) for c in alts.candidates)
        assert abs(np.vdot(b0, b1)) < 1e-12
        assert abs(np.vdot(b0, b0) - 1) < 1e-12 and abs(np.vdot(b1, b1) - 1) < 1e-12


def test_normalized_drops_only_the_duration_line():
    text = '{\n  "a": 1,\n  "duration_s": 0.5\n}'
    other = text.replace("0.5", "0.7")
    assert workloads.normalized(text) == workloads.normalized(other)
    assert workloads.digest([text]) == workloads.digest([other])
    assert workloads.digest([text]) != workloads.digest([text.replace('"a": 1', '"a": 2')])


def test_band_accepts_the_mean_and_rejects_impossible_outcomes():
    assert workloads._band_problems("x", 0.25, 0.25, 1000) == []
    assert workloads._band_problems("x", 0.25, 0.40, 1000) != []
    assert workloads._band_problems("x", 0.0, 0.0, 1000) == []
    assert workloads._band_problems("x", 0.0, 0.001, 1000) != []


# -- span arithmetic -------------------------------------------------------------


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_on_nested_spans():
    tr = spans.Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    root = tr.open("bench.pass")        # 0 .. 10
    a = tr.open("dynamics.cut_state")   # 1 .. 4
    b = tr.open("tensors.contract")     # 2 .. 3
    tr.close(b)
    tr.close(a)
    c = tr.open("tensors.contract")     # 5 .. 9
    tr.close(c)
    tr.close(root)
    assert spans.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]
    agg = spans.aggregate(tr.spans)
    assert agg == {"bench.pass": (1, 3.0), "dynamics.cut_state": (1, 2.0),
                   "tensors.contract": (2, 5.0)}
    assert spans.check_self_sum(tr.spans, wall_s=10.0) == (True, 10.0)
    assert not spans.check_self_sum(tr.spans, wall_s=9.0)[0]


def test_self_sum_check_catches_misnested_and_open_spans():
    tr = spans.Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0))
    root = tr.open("bench.pass")
    child = tr.open("tensors.contract")
    tr.close(child)
    tr.close(root)
    assert spans.check_self_sum(tr.spans, wall_s=3.0)[0]
    tr.spans[1].end = 4.0  # child outlives its parent
    assert not spans.check_self_sum(tr.spans, wall_s=3.0)[0]
    tr.spans[1].end = float("nan")  # never closed
    assert not spans.check_self_sum(tr.spans, wall_s=3.0)[0]


def test_closing_out_of_order_raises():
    tr = spans.Tracer(clock=_clock(0.0, 1.0, 2.0))
    outer = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_installation_wraps_every_binding_and_restores_them():
    originals = (dynamics.cut_state, eventweave.cut_state, dynamics.contract,
                 tensors.contract, eventweave.History.validate_cut)
    tr = spans.Tracer()
    with spans.Installation(tr):
        assert dynamics.cut_state is eventweave.cut_state is not originals[0]
        assert dynamics.contract is tensors.contract is not originals[2]
        from eventweave.graph import History
        h = History()
        h.add_initial_event(tensors.LabeledVector(
            [tensors.FactorLabel("x", tensors.SpaceType("spin", 2))], [1.0, 0.0]))
        dynamics.cut_state(h)
    assert (dynamics.cut_state, eventweave.cut_state, dynamics.contract,
            tensors.contract, eventweave.History.validate_cut) == originals
    names = [s.name for s in tr.spans]
    assert names[0] == "dynamics.cut_state" and "graph.validate_cut" in names
    assert "tensors.tensor_product" in names
    assert tr.counters["dynamics.cut_state.max_amps"] == 2


def test_exceptions_count_once_through_nested_dynamics_calls():
    from eventweave.graph import History

    tr = spans.Tracer()
    h = History()
    with spans.Installation(tr), pytest.raises(Exception):
        dynamics.realize(h, ["missing"], None)
    assert tr.counters["dynamics.errors"] == 1
    assert all(s.error for s in tr.spans)


# -- reference computation and spread arithmetic ------------------------------


def test_reference_kernels_repeat_and_a_block_takes_time():
    assert reference.interpreter_unit() == reference.interpreter_unit()
    assert reference.numpy_unit() == reference.numpy_unit()
    assert 0.0 < reference.block(units=1)


def test_spread_is_the_quartile_distance_over_the_median():
    q = spread.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.75, 5.5, 8.25)
    assert q["spread"] == (8.25 - 2.75) / 5.5
    assert spread._seeds("1-3") == [1, 2, 3] and spread._seeds("4,7") == [4, 7]


# -- the benchmark as a program ------------------------------------------------


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_of_every_workload_passes_its_checks(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "4", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
    for wl in run.WORKLOADS:
        for name, unit, _ in wanted:
            assert result["metrics"][f"{wl}.{name}"]["unit"] == unit


def test_without_the_package_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "figure", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
