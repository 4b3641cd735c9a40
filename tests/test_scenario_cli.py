"""Scenario files and the command-line front end, including exit codes."""

import copy
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    POINTER,
    SPIN,
    SQRT_HALF,
    StuckGenerator,
    mutate_json,
    recording_states_and_draws,
    scenario_to_dict,
    singlet_pairs_scenario,
    spanning_pairs_scenario,
    spin_alternatives,
    unit_factor,
    zero_branch_scenario,
)
from eventweave import cells, cli, dynamics, tensors, thermal
from eventweave.dynamics import AlternativeSet, CandidateEvent
from eventweave.errors import NotExhaustive
from eventweave.graph import History, vector_from_dict, vector_to_dict
from eventweave.scenario import (
    Scenario,
    ScenarioError,
    Stage,
    load_scenario,
    scenario_from_dict,
)
from eventweave.tensors import FactorLabel, LabeledVector, ProductBra

REPO = Path(__file__).resolve().parents[1]
FIGURE = REPO / "scenarios" / "figure.json"

#: minimal structural contract for every report, testable with jsonschema
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "duration_s"],
    "properties": {
        "schema_version": {"const": cli.SCHEMA_VERSION},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "results": {"type": "object"},
        "duration_s": {"type": "number", "minimum": 0},
    },
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_bad_sum_scenario(path: Path) -> Path:
    src = unit_factor("alpha", [1.0, 0.0])
    cand = CandidateEvent(
        bra=ProductBra(
            [unit_factor("alpha", [math.sqrt(0.7), math.sqrt(0.3)])]
        ),
        c=1.0,
        ket=unit_factor("o1", [1.0], POINTER),
        name="tilt",
    )
    scen = Scenario(
        initial_events=[("src", src, None)],
        stages=[Stage("only", AlternativeSet([cand]))],
    )
    path.write_text(json.dumps(scenario_to_dict(scen)))
    return path


# -- vector literals and scenario parsing ----------------------------------------


def test_vector_literal_round_trip_is_bit_exact(rng):
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vec = LabeledVector(
        [FactorLabel("b", SPIN), FactorLabel("a", SPIN)],
        np.concatenate([amps[:4], [0, 0]])[:4],
    )
    data = vector_to_dict(vec)
    assert [entry["link"] for entry in data["labels"]] == ["a", "b"]
    back = vector_from_dict(json.loads(json.dumps(data)))
    assert back == vec


def test_shipped_figure_scenario_parses_and_builds():
    scen = load_scenario(FIGURE)
    assert [s.name for s in scen.stages] == ["absorb-left", "absorb-right"]
    h = scen.build_history()
    assert h.validate() == []


def test_scenario_round_trip():
    scen = load_scenario(FIGURE)
    again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scen))))
    assert scenario_to_dict(again) == scenario_to_dict(scen)


def test_shipped_three_stage_scenario_is_the_zero_branch_scenario():
    shipped = json.loads((REPO / "scenarios" / "three_stage.json").read_text())
    assert shipped == scenario_to_dict(zero_branch_scenario())


def test_scenario_errors_carry_breadcrumbs():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"schema": "eventweave-scenario/1"})
    assert "initial_events" in str(err.value)
    data = json.loads(FIGURE.read_text())
    del data["stages"][0]["candidates"][0]["ket"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert "$.stages[0].candidates[0]" in str(err.value)


# -- epr subcommand -----------------------------------------------------------------


def test_epr_report_structure_and_zero_outcomes(capsys):
    code, out, _ = run_cli(capsys, "epr", "--theta", "0", "--runs", "10000")
    assert code == 0
    report = json.loads(out)
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, REPORT_SCHEMA)
    res = report["results"]
    assert res["theta_deg"] == 0.0
    assert res["empirical"]["p_pp"] == 0.0
    assert res["empirical"]["p_mm"] == 0.0
    assert res["within_three_sigma"] is True
    assert abs(res["E"] + 1.0) < 1e-12
    for key in ("p_pp", "p_pm", "p_mp", "p_mm"):
        assert 0.0 <= res[key] <= 1.0
        assert 0.0 <= res["empirical"][key] <= 1.0


def test_epr_replicas_use_independent_streams(capsys):
    code, out, _ = run_cli(
        capsys, "epr", "--theta", "45", "--runs", "5000", "--seed", "4",
        "--replicas", "3",
    )
    assert code == 0
    res = json.loads(out)["results"]
    reports = res["replica_reports"]
    assert [r["replica"] for r in reports] == [0, 1, 2]
    freqs = {tuple(sorted(r["empirical"].items())) for r in reports}
    assert len(freqs) == 3  # distinct draws per replica
    pooled = sum(r["empirical"]["p_pp"] for r in reports) / 3
    assert abs(pooled - res["empirical"]["p_pp"]) < 1e-12


def test_epr_three_sigma_at_ninety_degrees(capsys):
    code, out, _ = run_cli(
        capsys, "epr", "--theta", "90", "--runs", "100000", "--seed", "1"
    )
    assert code == 0
    res = json.loads(out)["results"]
    band = 3.0 * math.sqrt(0.25 * 0.75 / 100000)
    assert res["max_abs_deviation"] <= band


def test_epr_rejects_angles_outside_range(capsys):
    code, _, err = run_cli(capsys, "epr", "--theta", "240")
    assert code == 2
    assert "theta" in err


# -- chsh subcommand ------------------------------------------------------------------


def test_chsh_report(capsys):
    code, out, _ = run_cli(capsys, "chsh")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["S_abs"] - 2.0 * math.sqrt(2.0)) < 1e-9
    assert res["S_classical_max"] == 2.0
    assert res["gap"] >= 0.828 - 1e-6


# -- simulate subcommand ----------------------------------------------------------------


def test_simulate_figure_matches_analytic(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", str(FIGURE), "--runs", "20000", "--seed", "11"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["chain_rule"]["paths_checked"] >= 8
    assert res["chain_rule"]["max_abs_dev"] < 1e-12
    for path in res["paths"]:
        p, f = path["analytic"], path["empirical"]
        assert 0.0 <= p <= 1.0
        band = 3.0 * math.sqrt(p * (1.0 - p) / 20000)
        assert abs(f - p) <= max(band, 1e-12)
    assert res["sample_history"] is not None
    assert abs(sum(p["analytic"] for p in res["paths"]) - 1.0) < 1e-9


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": "eventweave-scenario/1", "initial_events": [}')
    code, _, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert re.search(r"line \d+ column \d+", err)


def test_simulate_flags_non_exhaustive_sets(tmp_path, capsys):
    path = make_bad_sum_scenario(tmp_path / "short.json")
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 3
    assert "0.7" in err


def test_simulate_names_the_stage_and_path_of_a_non_exhaustive_set(tmp_path, capsys):
    """The figure's stage 1 cut to three of its four candidates sums to 1/2
    on the first node it is reached at, after stage-0 candidate ``a0g0``."""
    data = json.loads(FIGURE.read_text())
    del data["stages"][1]["candidates"][3]
    path = tmp_path / "three.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "simulate", str(path), "--runs", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("error: $.stages[1] after a0g0: alternative probabilities "
                          "sum to 0.49999")
    scen = load_scenario(path)
    with pytest.raises(NotExhaustive) as exc:
        dynamics.sample_outcome_tree(
            scen.build_history(), [st.alternatives for st in scen.stages], 10, 0
        )
    assert abs(exc.value.total - 0.5) < 1e-12
    assert exc.value.tolerance == dynamics.EXHAUSTIVE_TOL


def _re_emitting_scenario() -> Scenario:
    """``sx`` and ``sy`` emit |+> on ``x`` and ``y``; stage ``s1`` is <0| on
    ``x`` re-emitting ``x`` = |+> (``A``) or <0| on ``y`` emitting ``o1``
    (``B``); stage ``s2`` measures ``x`` up or down and emits ``o2``."""
    plus = [SQRT_HALF, SQRT_HALF]
    up = [1.0, 0.0]
    s1 = AlternativeSet([
        CandidateEvent(bra=ProductBra([unit_factor("x", up)]), c=1.0,
                       ket=unit_factor("x", plus), name="A"),
        CandidateEvent(bra=ProductBra([unit_factor("y", up)]), c=1.0,
                       ket=unit_factor("o1", [1.0], POINTER), name="B"),
    ])
    return Scenario(
        initial_events=[("sx", unit_factor("x", plus), None),
                        ("sy", unit_factor("y", plus), None)],
        stages=[Stage("s1", s1), Stage("s2", spin_alternatives("x", "o2"))],
    )


@pytest.mark.parametrize("seed", range(6))
def test_simulate_refuses_a_re_emitted_link_before_sampling(seed, tmp_path, capsys,
                                                            monkeypatch):
    """Path A/up would re-emit ``x``, which no history can hold twice: every
    seed exits 2 before a state is built or a uniform drawn."""
    path = tmp_path / "re_emit.json"
    path.write_text(json.dumps(scenario_to_dict(_re_emitting_scenario())))
    calls = recording_states_and_draws(monkeypatch)
    code, out, err = run_cli(capsys, "simulate", str(path), "--runs", "1000",
                             "--seed", str(seed))
    assert (code, out, calls) == (2, "", [])
    assert err == "error: $.stages[0]: link ids already used: ['x']\n"


def test_simulate_gap_uniforms_exit_cleanly(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(scenario_to_dict(zero_branch_scenario())))
    monkeypatch.setattr(dynamics, "replica_rng", StuckGenerator)
    code, out, _ = run_cli(capsys, "simulate", str(path), "--runs", "10")
    assert code == 0
    for p in json.loads(out)["results"]["paths"]:
        assert p["analytic"] > 0.0 or p["empirical"] == 0.0


def test_simulate_refuses_too_many_outcome_paths(tmp_path, capsys):
    n = dynamics.MAX_OUTCOME_PATHS.bit_length()  # 2**n paths, just above the cap
    scen = Scenario(
        initial_events=[
            (f"src{i}", unit_factor(f"s{i}", [SQRT_HALF, SQRT_HALF]), None)
            for i in range(n)
        ],
        stages=[Stage(f"m{i}", spin_alternatives(f"s{i}", f"o{i}")) for i in range(n)],
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario_to_dict(scen)))
    code, out, err = run_cli(capsys, "simulate", str(path), "--runs", "10")
    assert code == 2
    assert out == ""
    assert f"{2 ** n} outcome paths" in err
    assert str(dynamics.MAX_OUTCOME_PATHS) in err


def test_dense_states_beyond_the_amplitude_cap_are_refused(tmp_path, capsys, monkeypatch):
    """Independent pairs stay separate components, so 5 pairs run under a cap
    of 256; a bra over the ``a`` links of all 5 merges 4**5 = 1024 amplitudes."""
    assert 4**10 <= tensors.MAX_AMPLITUDES  # the traced wide composite fits
    monkeypatch.setattr(tensors, "MAX_AMPLITUDES", 256)

    def simulate(name, scenario):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        return run_cli(capsys, "simulate", str(path), "--runs", "10")

    assert simulate("pairs5", singlet_pairs_scenario(5))[0] == 0
    code, out, err = simulate("spanning5", spanning_pairs_scenario(5))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "MAX_AMPLITUDES = 256" in err


@pytest.mark.parametrize("argv, paths", [(["epr"], 4), (["simulate", str(FIGURE)], 16)])
def test_replica_tables_too_large_to_keep_exit_2(argv, paths, capsys):
    """10**12 replicas are refused before any state or count table is built,
    also on a host that would hand out the memory."""
    code, out, err = run_cli(capsys, *argv, "--replicas", "1000000000000")
    assert code == 2
    assert out == ""
    assert err == (f"error: 1000000000000 replicas x {paths} outcome paths make "
                   f"{paths}000000000000 replica counts; at most MAX_AMPLITUDES = "
                   f"16777216 are kept\n")


def test_arrays_that_cannot_be_allocated_exit_2(capsys, monkeypatch):
    """``cells --sites 100000000000`` asks numpy for 745 GiB, which this
    stands in for: a host that overcommits memory would hand it out."""
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type int64")

    monkeypatch.setattr(cells, "width_sweep", exhausted)
    code, out, err = run_cli(capsys, "cells", "--sites", "100000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: Unable to allocate 745. GiB")


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent/file.json")
    assert code == 2
    assert "file" in err.lower() or "No such" in err


def _figure_edited(edit):
    def argv(tmp_path):
        data = json.loads(FIGURE.read_text())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return ["simulate", str(path), "--runs", "10", "--format", "csv"]
    return argv


def _first_candidate(data):
    return data["stages"][0]["candidates"][0]


def _two_width_sweep(*extra):
    return lambda tmp: ["cells", "--sites", "256", "--cells", "4,8", *extra]


#: case -> (argv built under tmp_path, text the error line must contain)
BAD_INPUTS = {
    "stages-of-ints": (_figure_edited(lambda d: d.update(stages=[1])), "$.stages[0]"),
    "stages-object": (_figure_edited(lambda d: d.update(stages={"a": 1})), "'stages'"),
    "initial-event-not-object": (
        _figure_edited(lambda d: d.update(initial_events=[1])), "$.initial_events[0]"
    ),
    "candidate-not-object": (
        _figure_edited(lambda d: d["stages"][0].update(candidates=["x"])),
        "$.stages[0].candidates[0]",
    ),
    "complex-with-null": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[None, 0.0])),
        "$.stages[0].candidates[0].c",
    ),
    "c-not-numbers": (
        _figure_edited(lambda d: _first_candidate(d).update(c=["1", "0"])),
        "$.stages[0].candidates[0].c: bad complex value (a complex value must hold real "
        "numbers, got '1')",
    ),
    "c-beyond-the-float-range": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[10**400, 0])),
        "$.stages[0].candidates[0].c: bad complex value (a complex value leaves the "
        "float range",
    ),
    "amplitude-beyond-the-float-range": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"]["amps"][0]
                       .__setitem__(0, 10**400)),
        "$.initial_events[0].vector: bad vector literal (int too large to convert to float)",
    ),
    "amplitudes-bools": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"]["amps"]
                       .__setitem__(1, [False, False])),
        "$.initial_events[0].vector: bad vector literal (a vector's amps must hold real "
        "numbers, got False)",
    ),
    "amplitudes-triples": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"].update(
            amps=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        "$.initial_events[0].vector: bad vector literal (a vector's amps must be [re, im] "
        "pairs)",
    ),
    "amplitudes-singles": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"].update(amps=[[1.0], [0.0]])),
        "$.initial_events[0].vector: bad vector literal (a vector's amps must be [re, im] "
        "pairs)",
    ),
    "bra-amplitudes-ragged": (
        _figure_edited(lambda d: _first_candidate(d)["bra"][0]["amps"][0].append(0.0)),
        "$.stages[0].candidates[0].bra[0]: bad vector literal (a vector's amps must be "
        "[re, im] pairs)",
    ),
    "amplitude-nan-literal": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"]["amps"][1]
                       .__setitem__(0, math.nan)),
        "$.initial_events[0].vector: bad vector literal (amplitudes must be finite)",
    ),
    "amplitude-infinity-literal": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"]["amps"][1]
                       .__setitem__(1, -math.inf)),
        "$.initial_events[0].vector: bad vector literal (amplitudes must be finite)",
    ),
    "c-nan-literal": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[math.nan, 0.0])),
        "$.stages[0].candidates[0]: candidate weight c must be finite, got (nan+0j)",
    ),
    "c-infinity-literal": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[1.0, math.inf])),
        "$.stages[0].candidates[0]: candidate weight c must be finite, got (1+infj)",
    ),
    "bra-two-factors-on-one-link": (
        _figure_edited(lambda d: _first_candidate(d)["bra"].append(
            _first_candidate(d)["bra"][0])),
        "$.stages[0].candidates[0].bra: two bra factors on link 'alpha'",
    ),
    "bra-factor-not-unit": (
        _figure_edited(lambda d: _first_candidate(d)["bra"][0].update(
            amps=[[2.0, 0.0], [0.0, 0.0]])),
        "$.stages[0].candidates[0].bra: bra factor on 'alpha' has squared norm 4.0",
    ),
    "region-not-numbers": (
        _figure_edited(lambda d: _first_candidate(d).update(
            region={"center": ["0", True, 0, 0], "extent": [1, 1, 1, 1]})),
        "$.stages[0].candidates[0].region: bad region (region center must hold real "
        "numbers, got '0')",
    ),
    "candidate-name-not-string": (
        _figure_edited(lambda d: _first_candidate(d).update(name=5)), "'name'"
    ),
    "scenario-is-a-directory": (lambda tmp: ["simulate", str(tmp)], "directory"),
    "out-in-missing-directory": (
        lambda tmp: ["chsh", "--out", str(tmp / "missing" / "r.json")], "missing"
    ),
    "cells-zero-box": (lambda tmp: ["cells", "--box", "0"], "box"),
    "cells-zero-count": (lambda tmp: ["cells", "--cells", "8,0"], "cell"),
    "cells-zero-tau-scale": (
        lambda tmp: ["cells", "--sites", "256", "--cells", "8,16", "--tau-scale", "0"],
        "tau",
    ),
    "cells-negative-smoothing": (
        lambda tmp: ["cells", "--sites", "256", "--cells", "8,16", "--smoothing", "-0.1"],
        "smoothing",
    ),
    "cells-single-width": (
        lambda tmp: ["cells", "--sites", "256", "--cells", "8"], "two distinct"
    ),
    "cells-infinite-box": (
        lambda tmp: ["cells", "--box", "inf", "--cell-width", "0.1"], "box"
    ),
    "cells-width-count-overflows": (
        lambda tmp: ["cells", "--box", "1e308", "--cell-width", "1e-300"], "cell width"
    ),
    "cells-empty-count-list": (lambda tmp: ["cells", "--cells", ","], "--cells"),
    "cells-empty-width-list": (lambda tmp: ["cells", "--cell-width", ","], "--cell-width"),
    "cells-counts-and-widths": (
        lambda tmp: ["cells", "--cells", "8,16", "--cell-width", "0.1,0.2"],
        "not allowed with argument --cells",
    ),
    "cells-one-cell-spans-the-box": (
        lambda tmp: ["cells", "--sites", "256", "--cells", "1,8"], "spread"
    ),
    "cells-smoothing-wider-than-the-box": (_two_width_sweep("--smoothing", "1e150"), "spread"),
    "cells-tau-scale-underflows": (_two_width_sweep("--tau-scale", "1e-300"), "float range"),
    "cells-infinite-tau-scale": (_two_width_sweep("--tau-scale", "inf"), "tau scale"),
    "cells-infinite-smoothing": (_two_width_sweep("--smoothing", "inf"), "smoothing"),
    "cells-smoothing-overflows": (
        _two_width_sweep("--smoothing", "1e160"), "float range: a float overflowed"
    ),
    "cells-tau-scale-overflows": (
        _two_width_sweep("--tau-scale", "1e300"), "float range: a float overflowed"
    ),
    "cells-box-overflows": (_two_width_sweep("--box", "1e300"), "float range"),
    "chsh-nan-angle": (lambda tmp: ["chsh", "--a", "nan"], "--a "),
    "chsh-infinite-angle": (lambda tmp: ["chsh", "--b", "inf"], "--b "),
    "simulate-zero-runs": (
        lambda tmp: ["simulate", str(FIGURE), "--runs", "0"], "runs must be positive, got 0"
    ),
    "simulate-zero-replicas": (
        lambda tmp: ["simulate", str(FIGURE), "--replicas", "0"],
        "replicas must be positive, got 0",
    ),
    "epr-zero-replicas": (
        lambda tmp: ["epr", "--replicas", "0"], "replicas must be positive, got 0"
    ),
    "epr-replica-counts-too-large-to-allocate": (
        lambda tmp: ["epr", "--runs", "10", "--replicas", "1000000000000"],
        "4000000000000 replica counts; at most MAX_AMPLITUDES = 16777216 are kept",
    ),
    "epr-negative-seed": (
        lambda tmp: ["epr", "--seed", "-1"], "--seed must be non-negative, got -1"
    ),
    "thermal-box-nan": (lambda tmp: ["thermal-ambiguity", "--box", "nan"], "box"),
    "thermal-beta-nan": (lambda tmp: ["thermal-ambiguity", "--beta", "nan"], "beta"),
    "thermal-beta-inf": (lambda tmp: ["thermal-ambiguity", "--beta", "inf"], "beta"),
    "thermal-zero-mass": (lambda tmp: ["thermal-ambiguity", "--mass", "0"], "mass"),
    "thermal-negative-hbar": (lambda tmp: ["thermal-ambiguity", "--hbar", "-1"], "hbar"),
    "thermal-negative-box": (lambda tmp: ["thermal-ambiguity", "--box", "-1"], "box"),
    "thermal-box-out-of-float-range": (
        lambda tmp: ["thermal-ambiguity", "--box", "1e-320"], "non-finite residual"
    ),
    "thermal-hbar-out-of-float-range": (
        lambda tmp: ["thermal-ambiguity", "--hbar", "1e-300"], "non-finite residual"
    ),
    "thermal-default-box-overflows": (
        lambda tmp: ["thermal-ambiguity", "--beta", "1e300", "--mass", "1e-300",
                     "--hbar", "1", "--sites", "64"],
        "beta",
    ),
    "thermal-default-box-underflows": (
        lambda tmp: ["thermal-ambiguity", "--beta", "1e-300", "--mass", "1e300",
                     "--hbar", "1e-300"],
        "beta",
    ),
    "stage-exhaustive-string": (
        _figure_edited(lambda d: d["stages"][0].update(exhaustive="no")),
        "$.stages[0]: field 'exhaustive' should be bool",
    ),
    "stage-not-exhaustive": (
        _figure_edited(lambda d: d["stages"][0].update(
            candidates=d["stages"][0]["candidates"][:2], exhaustive=False)),
        "$.stages[0]: ",
    ),
    "candidate-infinite-weight": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[math.inf, 0.0])),
        "$.stages[0].candidates[0]: ",
    ),
    "candidate-region-nan": (
        _figure_edited(lambda d: _first_candidate(d).update(
            region={"center": [math.nan, 0, 0, 0], "extent": [1, 1, 1, 1]})),
        "$.stages[0].candidates[0].region: ",
    ),
    "stage-bra-on-unknown-link": (
        _figure_edited(lambda d: d["stages"][1]["candidates"][0]["bra"][0]["labels"][0]
                       .update(link="nosuch")),
        "$.stages[1] after a0g0: state carries no factor for links ['nosuch']",
    ),
    "stage-name-not-string": (
        _figure_edited(lambda d: d["stages"][0].update(name=[1, 2])),
        "$.stages[0]: field 'name' should be str",
    ),
    "initial-event-id-repeated": (
        _figure_edited(lambda d: d["initial_events"][1].update(id="left-apparatus")),
        "$.initial_events[1]: event id 'left-apparatus' already exists",
    ),
    "initial-event-link-repeated": (
        _figure_edited(lambda d: d["initial_events"][1]["vector"]["labels"][0]
                       .update(link="gamma")),
        "$.initial_events[1]: link ids already used: ['gamma']",
    ),
    "initial-event-not-unit": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"].update(
            amps=[[1.5, 0.0], [0.0, 0.0], [0.0, 0.0], [1.5, 0.0]])),
        "$.initial_events[0]: emitted vector has squared norm 4.5",
    ),
    "epr-zero-runs": (lambda tmp: ["epr", "--runs", "0"], "runs must be positive, got 0"),
    "bra-link-null": (
        _figure_edited(lambda d: _first_candidate(d)["bra"][0]["labels"][0].update(link=None)),
        "$.stages[0].candidates[0].bra[0]: bad vector literal (link id must be a "
        "non-empty string, got None)",
    ),
    "ket-link-int": (
        _figure_edited(lambda d: _first_candidate(d)["ket"]["labels"][0].update(link=5)),
        "$.stages[0].candidates[0].ket: bad vector literal (link id must be a "
        "non-empty string, got 5)",
    ),
    "dim-infinite": (
        _figure_edited(lambda d: d["initial_events"][0]["vector"]["labels"][0]
                       .update(dim=math.inf)),
        "$.initial_events[0].vector: bad vector literal (space 'spin' has dimension inf",
    ),
    "dim-not-integer": (
        _figure_edited(lambda d: d["initial_events"][2]["vector"]["labels"][0]
                       .update(dim=2.5)),
        "$.initial_events[2].vector: bad vector literal (space 'spin' has dimension 2.5",
    ),
    "thermal-packet-width-overflows": (
        lambda tmp: ["thermal-ambiguity", "--box", "7.5", "--hbar", "1e300",
                     "--mass", "1e300", "--sites", "3"],
        "leaves the float range",
    ),
    "unknown-schema": (
        _figure_edited(lambda d: d.update(schema="eventweave-scenario/2")),
        "$: unknown schema 'eventweave-scenario/2'",
    ),
    "no-initial-events": (
        _figure_edited(lambda d: d.update(initial_events=[])),
        "$.initial_events: need at least one initial event",
    ),
    "stage-without-candidates": (
        _figure_edited(lambda d: d["stages"][0].update(candidates=[])),
        "$.stages[0]: stage needs candidates",
    ),
    "complex-not-a-pair": (
        _figure_edited(lambda d: _first_candidate(d).update(c=[1.0])),
        "$.stages[0].candidates[0].c: complex values are [re, im] pairs",
    ),
    "candidate-empty-bra": (
        _figure_edited(lambda d: _first_candidate(d).update(bra=[])),
        "$.stages[0].candidates[0]: candidate needs at least one bra factor",
    ),
    "bra-factor-with-two-labels": (
        _figure_edited(lambda d: _first_candidate(d)["bra"].__setitem__(
            0, d["initial_events"][2]["vector"])),
        "$.stages[0].candidates[0].bra[0]: bra factors carry exactly one label",
    ),
    "cells-width-beyond-the-box": (
        lambda tmp: ["cells", "--cell-width", "2"], "cell width 2.0 outside (0, box]"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_inputs_exit_2_with_an_error_line(case, tmp_path, capsys):
    build_argv, expected = BAD_INPUTS[case]
    code, out, err = run_cli(capsys, *build_argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert expected in err


# -- boundary fuzzing ---------------------------------------------------------------------

#: the shipped scenarios that the fuzzing below mutates
SHIPPED = ("figure.json", "three_stage.json")


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_shipped_scenarios_exit_0_2_or_3_with_one_error_line(data, tmp_path, capsys):
    """One or two random edits of a shipped scenario: ``simulate`` runs it or
    refuses it with exit 2 or 3 and one ``error:`` line, never a traceback."""
    name = data.draw(st.sampled_from(SHIPPED))
    doc = json.loads((REPO / "scenarios" / name).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        mutate_json(doc, data.draw)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path), "--runs", "50")
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert err == "" and json.loads(out)["results"]


@pytest.fixture(scope="module")
def sample_histories(tmp_path_factory) -> list[dict]:
    """The ``sample_history`` record of a ``simulate`` report of each shipped scenario."""
    out = tmp_path_factory.mktemp("reports") / "report.json"
    records = []
    for name in SHIPPED:
        assert cli.main(["simulate", str(REPO / "scenarios" / name), "--runs", "1",
                         "--out", str(out)]) == 0
        records.append(json.loads(out.read_text())["results"]["sample_history"])
    return records


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_sample_histories_load_valid_or_raise_value_error(data, sample_histories):
    """``History.from_dict`` on one or two random edits of a sample history
    admits a valid history or raises ``ValueError``, as it promises."""
    record = copy.deepcopy(data.draw(st.sampled_from(sample_histories)))
    for _ in range(data.draw(st.integers(1, 2))):
        mutate_json(record, data.draw)
    try:
        history = History.from_dict(record)
    except ValueError:
        return
    assert history.validate() == []
    assert history.to_json() == json.dumps(history.to_dict())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_sample_histories_load_as_one_record_at_a_time(data, sample_histories):
    """One or two random edits of a sample history: ``History.from_dict``,
    whose amplitudes are converted in one array, admits the same history
    as :func:`reference.load_history`, which reads one record and one
    amplitude at a time, or raises the same error with the same message."""
    record = copy.deepcopy(data.draw(st.sampled_from(sample_histories)))
    for _ in range(data.draw(st.integers(1, 2))):
        mutate_json(record, data.draw)
    outcomes = []
    for load in (History.from_dict, reference.load_history):
        try:
            loaded = load(copy.deepcopy(record))
            outcomes.append((loaded.to_json(), loaded._counter))
        except Exception as exc:  # noqa: BLE001 - compared below
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


#: option values as a shell passes them: small and edge numbers, the texts
#: ``float`` reads as infinities and NaN, and text no option takes
ARG_TEXTS = ("0", "1", "-1", "3", "64", "0.5", "-0.0", "2.5", "1e-320", "1e-300",
             "1e300", "1e308", "inf", "-inf", "nan", "", "x", "4,8", "0.1,0.5", "8,0")

#: per subcommand, each option with the values at its own limits: sizes up to
#: 4096 sites, 10,000 runs and 4 replicas
ARG_OPTIONS = {
    "epr": {"--theta": ("180", "180.0001", "-0.0001", "37.5", "90"),
            "--runs": ("10000", "2", "1"), "--replicas": ("4", "2", "1")},
    "chsh": {opt: ("45", "-720", "1e20", "90") for opt in ("--a", "--ap", "--b", "--bp")},
    "thermal-ambiguity": {"--beta": ("1e-30", "7.2e22", "2"), "--mass": ("1e-27", "1e300", "1"),
                          "--hbar": ("1e-34", "1e300", "1"), "--sites": ("4096", "2", "257"),
                          "--box": ("7.5", "1e-9", "40")},
    "cells": {"--sites": ("4096", "2", "257", "1024"),
              "--cells": ("1,2", "2,4096", "4096,4097", "6,600", "3,3", "8,16"),
              "--cell-width": ("0.5,1", "1e-3,0.9", "1,1", "1e-300,0.5", "-0.5,0.5"),
              "--box": ("1e-300", "1e300", "2"), "--tau-scale": ("1e-300", "1e300", "4"),
              "--smoothing": ("1", "0", "1e300", "0.3")},
}

#: the options every subcommand takes
COMMON_OPTIONS = {"--seed": ("18446744073709551616",), "--format": ("json", "csv")}


@st.composite
def argument_lists(draw) -> list[str]:
    """A subcommand and up to four of its options, each value drawn from the
    option's own values or from :data:`ARG_TEXTS` with equal chance."""
    command = draw(st.sampled_from(sorted(ARG_OPTIONS)))
    options = {**ARG_OPTIONS[command], **COMMON_OPTIONS}
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    values = (st.sampled_from(options[opt]) | st.sampled_from(ARG_TEXTS) for opt in chosen)
    return [command, *(f"{opt}={draw(value)}" for opt, value in zip(chosen, values))]


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argument_lists())
def test_random_argument_lists_exit_0_2_or_3_with_one_error_line(argv, capsys):
    """``epr``, ``chsh``, ``thermal-ambiguity`` and ``cells`` on random
    options run or refuse with exit 2 or 3 and one ``error:`` line, never a
    traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    else:
        assert err == "" and out


# -- report writer ------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**60, 10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, 5e-324, 1.7976931348623157e308]),
    st.text(),
    st.sampled_from(["", "é", "\x00\x1f\x7f", "\u2028\ud800", '"\\/', "\U0001f600"]),
)
json_keys = st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(),
                      st.floats(allow_nan=False, allow_infinity=False))
report_trees = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_keys, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tree=report_trees)
def test_report_writer_prints_what_json_dumps_prints(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2, allow_nan=False)


@pytest.mark.parametrize("tree, error", [
    ({"a": [1.0, math.nan]}, ValueError),
    ({"a": {"b": math.inf}}, ValueError),
    ([(-math.inf,)], ValueError),
    ({math.nan: 1}, ValueError),
    ({"a": {1, 2}}, TypeError),
    ([b"x"], TypeError),
    ({"a": 1j}, TypeError),
    ([np.int64(1)], TypeError),
    ({(1, 2): 0}, TypeError),
])
def test_report_writer_refuses_what_json_refuses(tree, error):
    with pytest.raises(error):
        json.dumps(tree, indent=2, allow_nan=False)
    with pytest.raises(error):
        cli._json_text(tree)


def test_report_writer_leaves_nothing_for_the_cycle_collector(capsys):
    """With the cyclic collector off, 200 writes of the ``figure`` report
    leave the traced memory flat: no write's pieces outlive it.  A writer
    built as a closure that calls itself keeps each write's pieces in a
    reference cycle: 7.4 MB after the 200 writes, against under 1 kB for this one."""
    code, out, _ = run_cli(capsys, "simulate", str(FIGURE), "--runs", "100")
    assert code == 0
    report = json.loads(out)
    cli._json_text(report)
    gc.disable()
    tracemalloc.start()
    try:
        cli._json_text(report)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            cli._json_text(report)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 16_000


# -- thermal subcommand -------------------------------------------------------------------


def test_thermal_defaults_meet_the_contract(capsys):
    code, out, _ = run_cli(capsys, "thermal-ambiguity")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["residual_sup_norm"] < 1e-8
    assert res["offdiag_max"] < 1e-12
    assert abs(res["ratio"] - 2.0 * math.sqrt(2.0) * math.pi) < 1e-9
    assert abs(res["trace_thermal"] - 1.0) < 1e-12
    assert abs(res["trace_mixture"] - 1.0) < 1e-12


def test_thermal_builds_the_packet_mixture_once(capsys, monkeypatch):
    calls = []
    original = thermal.packet_mixture_density

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(thermal, "packet_mixture_density", counting)
    code, _, _ = run_cli(capsys, "thermal-ambiguity", "--sites", "64")
    assert code == 0
    assert len(calls) == 1


def without_duration(report: str) -> str:
    return "".join(ln for ln in report.splitlines(keepends=True)
                   if not ln.lstrip().startswith('"duration_s":'))


# the child prints the BLAS kernel it loaded, then two thermal reports
BLAS_CHILD = """
import contextlib, io, json, runpy, sys
from eventweave import cli
print(runpy.run_path(sys.argv[1])["build_fingerprint"]()[-1], flush=True)
reports = []
for argv in (["thermal-ambiguity", "--sites", "128", "--format", "csv"], ["thermal-ambiguity"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    reports.append(out.getvalue())
print(json.dumps(reports))
"""


def test_thermal_report_does_not_depend_on_the_blas_thread_count():
    """Native and two forced OpenBLAS kernels, each at 1 and 2 threads; a
    forced kernel the CPU cannot run (the child's header does not name it)
    is left out."""
    runs = {}
    for core in (None, "Nehalem", "Haswell"):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env.pop("OPENBLAS_CORETYPE", None)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", BLAS_CHILD, str(REPO / "tools" / "report_digests.py")],
                env=env, capture_output=True, text=True,
            )
            header, _, reports = proc.stdout.partition("\n")
            if core and header != f"# blas {core}":
                break
            assert proc.returncode == 0, proc.stderr
            runs[core, threads] = [without_duration(r) for r in json.loads(reports)]
    native = runs.pop((None, "1"))
    for key, reports in runs.items():
        assert reports == native, f"{key} differs from the native one-thread run"


def test_thermal_rejects_nonpositive_sites(capsys):
    code, _, err = run_cli(capsys, "thermal-ambiguity", "--sites", "0")
    assert code == 2
    assert "sites" in err


def test_thermal_csv_diagonals(tmp_path, capsys):
    out_file = tmp_path / "diag.csv"
    code, _, _ = run_cli(
        capsys, "thermal-ambiguity", "--sites", "64", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["p", "thermal", "mixture"]
    assert len(rows) == 65
    thermal_col = np.array([float(r[1]) for r in rows[1:]])
    mixture_col = np.array([float(r[2]) for r in rows[1:]])
    assert np.max(np.abs(thermal_col - mixture_col)) < 1e-8


_SMALL_REPORTS = {
    "epr": ["epr", "--runs", "100"],
    "chsh": ["chsh"],
    "simulate": ["simulate", str(FIGURE), "--runs", "100"],
    "thermal-ambiguity": ["thermal-ambiguity", "--sites", "64"],
    "cells": ["cells", "--sites", "512", "--cells", "4,8"],
}


@pytest.mark.parametrize("argv", _SMALL_REPORTS.values(), ids=_SMALL_REPORTS.keys())
def test_a_json_report_formats_no_csv_row(argv, capsys, monkeypatch):
    """Each handler's rows are a generator that only the CSV writer runs."""
    seen = []
    emit = cli._emit

    def recording(args, report, header, rows):
        seen.append(rows)
        emit(args, report, header, rows)

    monkeypatch.setattr(cli, "_emit", recording)
    for fmt in ("json", "csv"):
        assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
    left = [next(rows, None) for rows in seen]
    assert left[0] is not None and left[1] is None


# -- cells subcommand ---------------------------------------------------------------------


def test_cells_csv_and_slope(tmp_path, capsys):
    out_file = tmp_path / "cells.csv"
    code, _, _ = run_cli(
        capsys, "cells", "--sites", "1024", "--cells", "8,16,32,64",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_file.read_text())))
    assert rows[0] == ["a", "delta_p", "delta_p_a_over_h", "coherence_defect"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert 0.3 <= float(row[2]) <= 3.0


def test_cells_json_reports_slope(capsys):
    code, out, _ = run_cli(capsys, "cells", "--sites", "1024", "--cells", "8,16,32,64")
    assert code == 0
    res = json.loads(out)["results"]
    assert abs(res["slope"] + 1.0) < 0.05


def test_cells_rejects_zero_sites(capsys):
    code, _, err = run_cli(capsys, "cells", "--sites", "0")
    assert code == 2
    assert "sites" in err


def test_repeated_calls_in_one_process_start_from_the_defaults(capsys):
    """One parser serves every call: no value of one call leaks into the next."""
    def config(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        return json.loads(out)["config"]

    assert config("epr", "--theta", "30", "--runs", "100")["theta"] == 30.0
    assert config("epr", "--runs", "100")["theta"] == 90.0
    swept = config("cells", "--sites", "1024", "--cells", "8,16")
    assert swept["cells"] == [8, 16]
    code, out, _ = run_cli(capsys, "cells", "--sites", "1024")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["cells"] is None
    assert len(report["results"]["rows"]) == len(cells.DEFAULT_SWEEP_CELLS)
    code, _, err = run_cli(capsys, "epr", "--theta", "30", "--runs", "many")
    assert code == 2 and "--runs" in err
    assert config("epr", "--runs", "100") == {
        "command": "epr", "format": "json", "out": None, "replicas": 1,
        "runs": 100, "seed": 0, "theta": 90.0,
    }
    assert cli.build_parser() is cli.build_parser()


# -- determinism ----------------------------------------------------------------------------


def _strip_duration(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"duration_s"' not in line
    )


def test_reports_are_byte_identical_for_fixed_seeds(tmp_path, capsys):
    def run_twice(*argv):
        target = tmp_path / "report.json"
        texts = []
        for _ in range(2):
            code, _, _ = run_cli(capsys, *argv, "--out", str(target))
            assert code == 0
            texts.append(target.read_text())
        return texts

    first, second = run_twice("epr", "--theta", "60", "--runs", "30000", "--seed", "9")
    assert _strip_duration(first) == _strip_duration(second)
    first, second = run_twice("simulate", str(FIGURE), "--runs", "2000", "--seed", "5")
    assert _strip_duration(first) == _strip_duration(second)


def test_reports_validate_against_the_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    for argv in (
        ["chsh"],
        ["cells", "--sites", "1024", "--cells", "8,16"],
        ["thermal-ambiguity", "--sites", "64"],
        ["simulate", str(FIGURE), "--runs", "100"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)
