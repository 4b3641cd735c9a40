"""Scenario files and the command-line front end, including exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    POINTER,
    SPIN,
    SQRT_HALF,
    StuckGenerator,
    recording_states_and_draws,
    singlet_pairs_scenario,
    spanning_pairs_scenario,
    spin_alternatives,
    unit_factor,
    zero_branch_scenario,
)
from eventweave import cli, dynamics, tensors, thermal
from eventweave.dynamics import AlternativeSet, CandidateEvent
from eventweave.errors import NotExhaustive
from eventweave.graph import vector_from_dict, vector_to_dict
from eventweave.scenario import (
    Scenario,
    ScenarioError,
    Stage,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from eventweave.tensors import FactorLabel, LabeledVector, ProductBra

REPO = Path(__file__).resolve().parents[1]
FIGURE = REPO / "scenarios" / "figure.json"


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
    jsonschema.validate(report, cli.REPORT_SCHEMA)
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


class ExhaustedGenerator(np.random.Generator):
    """Generator whose uniforms never fit in memory."""

    def __init__(self, *_args):
        super().__init__(np.random.PCG64(0))

    def random(self, size=None, dtype=np.float64, out=None):
        raise MemoryError(f"Unable to allocate uniforms of shape {size}")


@pytest.mark.parametrize("argv", [["epr"], ["simulate", str(FIGURE)]])
def test_draws_that_cannot_be_allocated_exit_2(argv, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "replica_rng", ExhaustedGenerator)
    code, out, err = run_cli(capsys, *argv, "--runs", "1000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate uniforms")


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
    "cells-smoothing-overflows": (_two_width_sweep("--smoothing", "1e160"), "float range"),
    "cells-tau-scale-overflows": (_two_width_sweep("--tau-scale", "1e300"), "float range"),
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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_inputs_exit_2_with_an_error_line(case, tmp_path, capsys):
    build_argv, expected = BAD_INPUTS[case]
    code, out, err = run_cli(capsys, *build_argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert expected in err


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


def test_thermal_refuses_grids_beyond_the_dense_cap(capsys, monkeypatch):
    monkeypatch.setattr(thermal, "MAX_DENSE_SITES", 64)
    code, out, err = run_cli(capsys, "thermal-ambiguity", "--sites", "128")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "64" in err
    code, _, _ = run_cli(capsys, "thermal-ambiguity", "--sites", "64")
    assert code == 0


def test_thermal_report_does_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "eventweave.cli", "thermal-ambiguity",
             "--sites", "128", "--format", "csv"],
            env=env, capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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
        jsonschema.validate(json.loads(out), cli.REPORT_SCHEMA)
