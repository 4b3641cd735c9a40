"""The four benchmark workloads: inputs from a seed, passes, output checks.

Each workload builds its inputs once from ``(seed, size)`` (that is set-up)
and then exposes one pass as a list of operations.  An operation is one CLI
invocation through ``cli.main`` or, for ``growth``, one run of the library
loop.  Every operation returns its output text; its ``check``
judges it against the acceptance gate's tolerances, and the repeated-pass
determinism check compares :func:`normalized` texts byte for byte.

The package is reached only through module attributes (``dynamics.realize``
rather than ``from ... import realize``), so the tracing wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from eventweave import cli, dynamics, graph, tensors

WORKLOADS = ("figure", "wide", "growth", "lattice")

#: problem sizes; ``tiny`` is for the benchmark's own smoke test
SIZES = {
    "full": {
        "figure_runs": 20_000, "epr_runs": 100_000, "epr_replicas": 4,
        "wide_pairs": 10, "wide_runs": 2000,
        "growth_chains": 4, "growth_events": 600,
        "thermal_sites": 256, "cells_sites": 2048,
    },
    "tiny": {
        "figure_runs": 2000, "epr_runs": 20_000, "epr_replicas": 2,
        "wide_pairs": 4, "wide_runs": 500,
        "growth_chains": 4, "growth_events": 40,
        "thermal_sites": 128, "cells_sites": 1024,
    },
}

# acceptance-gate tolerances (tests/test_acceptance.py) and sampling bands
CHSH_TOL = 1e-9
EPR_JOINT_TOL = 1e-12
CHAIN_RULE_TOL = 1e-12
SUM_TO_ONE_TOL = 1e-9
THERMAL_RESIDUAL_MAX = 1e-8
THERMAL_OFFDIAG_MAX = 1e-12
CELLS_SLOPE_TOL = 0.05
CELLS_PRODUCT_RANGE = (0.3, 3.0)
#: a sampled count may sit this many binomial standard deviations from its
#: mean, plus ``BAND_SLACK_COUNTS`` for outcomes too rare for the normal
#: approximation; a correct sampler fails this about once in 10^6 checks
BAND_SIGMAS = 5.0
BAND_SLACK_COUNTS = 3.0

#: salts keep each workload's stream apart from the CLI's own seed streams
_SALT = {name: 7001 + i for i, name in enumerate(WORKLOADS)}

SPIN = {"space": "spin", "dim": 2}
POINTER = {"space": "pointer", "dim": 1}


def input_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SALT[workload]])


def normalized(text: str) -> str:
    """Report text without the ``duration_s`` line, the one field that varies."""
    return "\n".join(line for line in text.splitlines() if '"duration_s"' not in line)


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(normalized(text).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> str:
    """One in-process CLI invocation; a nonzero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eventweave {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


@dataclass
class Op:
    name: str  # metric stem: the pass reports ``<name>_s``
    span: str | None  # span opened around the call when tracing
    run: Callable[[], str]
    check: Callable[[str], list[str]]


# -- shared checks -----------------------------------------------------------


def _band_problems(label: str, prob: float, freq: float, n: int) -> list[str]:
    count = freq * n
    if prob <= 0.0:
        return [] if count == 0 else [f"{label}: impossible outcome sampled {count:g} times"]
    band = BAND_SIGMAS * math.sqrt(n * prob * (1.0 - prob)) + BAND_SLACK_COUNTS
    if abs(count - n * prob) > band:
        return [f"{label}: count {count:g} vs expected {n * prob:.1f} (band {band:.1f})"]
    return []


def _check_simulate(text: str, every_path_checked: bool) -> list[str]:
    res = json.loads(text)["results"]
    n = res["runs"] * res["replicas"]
    problems = []
    total = sum(p["analytic"] for p in res["paths"])
    if abs(total - 1.0) > SUM_TO_ONE_TOL:
        problems.append(f"simulate: analytic path probabilities sum to {total!r}")
    for p in res["paths"]:
        label = "simulate " + "/".join(p["outcomes"])
        problems += _band_problems(label, p["analytic"], p["empirical"], n)
    chain = res["chain_rule"]
    if chain["max_abs_dev"] > CHAIN_RULE_TOL:
        problems.append(f"simulate: chain rule deviates by {chain['max_abs_dev']!r}")
    live = sum(1 for p in res["paths"] if p["analytic"] > 0.0)
    if every_path_checked and chain["paths_checked"] != live:
        problems.append(
            f"simulate: chain rule checked {chain['paths_checked']} of {live} paths"
        )
    sample = res["sample_history"]
    if sample is None:
        problems.append("simulate: no sample history")
    else:
        problems += [f"sample history: {p}" for p in graph.History.from_dict(sample).validate()]
    return problems


def _half_angle_law(theta_deg: float) -> dict[str, float]:
    half = math.radians(theta_deg) / 2.0
    same, diff = 0.5 * math.sin(half) ** 2, 0.5 * math.cos(half) ** 2
    return {"p_pp": same, "p_pm": diff, "p_mp": diff, "p_mm": same}


def _check_epr(text: str) -> list[str]:
    report = json.loads(text)
    res, cfg = report["results"], report["config"]
    want = _half_angle_law(cfg["theta"])
    problems = []
    for key, p in want.items():
        if abs(res[key] - p) > EPR_JOINT_TOL:
            problems.append(f"epr {key}: {res[key]!r} vs half-angle law {p!r}")
        problems += _band_problems(
            f"epr pooled {key}", p, res["empirical"][key], cfg["runs"] * cfg["replicas"]
        )
        for rep in res["replica_reports"]:
            problems += _band_problems(
                f"epr replica {rep['replica']} {key}", p, rep["empirical"][key], cfg["runs"]
            )
    return problems


def _check_chsh(text: str) -> list[str]:
    res = json.loads(text)["results"]
    problems = []
    if abs(res["S_abs"] - 2.0 * math.sqrt(2.0)) > CHSH_TOL:
        problems.append(f"chsh: |S| = {res['S_abs']!r}, want 2*sqrt(2)")
    if res["S_classical_max"] != 2.0:
        problems.append(f"chsh: classical bound {res['S_classical_max']!r}, want 2")
    return problems


def _check_thermal(text: str) -> list[str]:
    res = json.loads(text)["results"]
    problems = []
    if not res["residual_sup_norm"] < THERMAL_RESIDUAL_MAX:
        problems.append(f"thermal: residual {res['residual_sup_norm']!r}")
    if not res["offdiag_max"] < THERMAL_OFFDIAG_MAX:
        problems.append(f"thermal: off-diagonal {res['offdiag_max']!r}")
    return problems


def _check_cells(text: str) -> list[str]:
    res = json.loads(text)["results"]
    problems = []
    if abs(res["slope"] + 1.0) > CELLS_SLOPE_TOL:
        problems.append(f"cells: slope {res['slope']!r}, want -1")
    lo, hi = CELLS_PRODUCT_RANGE
    for row in res["rows"]:
        if not lo <= row["delta_p_a_over_h"] <= hi:
            problems.append(f"cells: a={row['a']!r} gives dp*a/h {row['delta_p_a_over_h']!r}")
    return problems


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs are built in ``__init__``; ``ops`` is one pass."""

    name = ""
    ops: list[Op]

    def extra_layer_counts(self, texts: list[str]) -> dict[str, float]:
        """Counts read from a pass's outputs rather than from spans."""
        return {}


class Figure(Workload):
    """Shipped five-event scenario, then EPR at a seeded angle, then CHSH."""

    name = "figure"

    def __init__(self, seed: int, size: dict, root: Path, workdir: Path):
        rng = input_rng(self.name, seed)
        self.theta = float(rng.uniform(10.0, 170.0))
        sim_argv = ["simulate", "scenarios/figure.json",
                    "--runs", str(size["figure_runs"]), "--seed", str(seed)]
        epr_argv = ["epr", "--theta", repr(self.theta), "--runs", str(size["epr_runs"]),
                    "--replicas", str(size["epr_replicas"]), "--seed", str(seed)]
        self.ops = [
            Op("simulate", "cli.simulate", lambda: run_cli(sim_argv),
               lambda t: _check_simulate(t, every_path_checked=False)),
            Op("epr", "cli.epr", lambda: run_cli(epr_argv), _check_epr),
            Op("chsh", "cli.chsh", lambda: run_cli(["chsh"]), _check_chsh),
        ]

    def extra_layer_counts(self, texts):
        return _simulate_counts(texts[0])


def _simulate_counts(text: str) -> dict[str, float]:
    res = json.loads(text)["results"]
    paths = res["paths"]
    live = sum(1 for p in paths if p["analytic"] > 0.0)
    return {
        "cli.simulate.draws": res["runs"] * res["replicas"] * len(res["stages"]),
        "cli.simulate.paths_live_ratio": live / len(paths),
    }


def _spin_basis(theta_deg: float) -> tuple[list, list]:
    """(+, -) eigenvectors of an in-plane analyzer as [re, im] amplitude pairs."""
    half = math.radians(theta_deg) / 2.0
    c, s = math.cos(half), math.sin(half)
    return [[c, 0.0], [s, 0.0]], [[-s, 0.0], [c, 0.0]]


def wide_scenario(seed: int, pairs: int) -> dict:
    """Independent singlets; each of two stages measures one seeded pair at
    seeded analyzer angles, so 16 outcome paths stay cheap to enumerate."""
    rng = input_rng("wide", seed)
    r = math.sqrt(0.5)
    initial = [
        {"id": f"pair{i:02d}",
         "vector": {"labels": [{"link": f"a{i:02d}", **SPIN}, {"link": f"b{i:02d}", **SPIN}],
                    "amps": [[0.0, 0.0], [r, 0.0], [-r, 0.0], [0.0, 0.0]]}}
        for i in range(pairs)
    ]
    measured = rng.choice(pairs, size=2, replace=False)
    stage_list = []
    for k, i in enumerate(measured):
        ta, tb = rng.uniform(5.0, 175.0, size=2)
        basis_a, basis_b = _spin_basis(float(ta)), _spin_basis(float(tb))
        cands = []
        for sa, va in zip("+-", basis_a):
            for sb, vb in zip("+-", basis_b):
                cands.append({
                    "name": f"{sa}{sb}", "c": [1.0, 0.0],
                    "bra": [{"labels": [{"link": f"a{i:02d}", **SPIN}], "amps": va},
                            {"labels": [{"link": f"b{i:02d}", **SPIN}], "amps": vb}],
                    "ket": {"labels": [{"link": f"m{k}", **POINTER}], "amps": [[1.0, 0.0]]},
                })
        stage_list.append({"name": f"pair{int(i):02d}", "exhaustive": True,
                           "candidates": cands})
    return {"schema": "eventweave-scenario/1", "initial_events": initial,
            "stages": stage_list}


class Wide(Workload):
    """Many independent singlets: a dense cut state of 4**pairs amplitudes."""

    name = "wide"

    def __init__(self, seed: int, size: dict, root: Path, workdir: Path):
        scenario = wide_scenario(seed, size["wide_pairs"])
        path = workdir / f"wide-{size['wide_pairs']}-seed{seed}.json"
        path.write_text(json.dumps(scenario))
        argv = ["simulate", path.relative_to(root).as_posix(),
                "--runs", str(size["wide_runs"]), "--seed", str(seed)]
        self.ops = [
            Op("simulate", "cli.simulate", lambda: run_cli(argv),
               lambda t: _check_simulate(t, every_path_checked=True)),
        ]

    def extra_layer_counts(self, texts):
        return _simulate_counts(texts[0])


def bra_amps(cand: dynamics.CandidateEvent) -> np.ndarray:
    """Amplitudes of a single-factor candidate's bra."""
    (factor,) = cand.bra.factors.values()
    return factor.amps


def _random_basis(rng: np.random.Generator) -> np.ndarray:
    """Columns form a random orthonormal qubit basis."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unit_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


class Growth(Workload):
    """Parallel qubit chains grown one measured event at a time."""

    name = "growth"

    def __init__(self, seed: int, size: dict, root: Path, workdir: Path):
        rng = input_rng(self.name, seed)
        self.seed = seed
        qubit = tensors.SpaceType("qubit", 2)

        def vec(link: str, amps) -> tensors.LabeledVector:
            return tensors.LabeledVector([tensors.FactorLabel(link, qubit)], amps)

        chains = size["growth_chains"]
        self.initial = [vec(f"c{c}_00000", _unit_qubit(rng)) for c in range(chains)]
        self.steps: list[dynamics.AlternativeSet] = []
        head = [0] * chains
        for k in range(size["growth_events"]):
            c = k % chains
            link, head[c] = f"c{c}_{head[c]:05d}", head[c] + 1
            nxt = f"c{c}_{head[c]:05d}"
            basis = _random_basis(rng)
            self.steps.append(dynamics.AlternativeSet([
                dynamics.CandidateEvent(
                    bra=tensors.ProductBra([vec(link, basis[:, j])]), c=1.0,
                    ket=vec(nxt, _unit_qubit(rng)), name=f"s{k}o{j}")
                for j in range(2)
            ]))
        self.outcomes: list[int] = []
        self.ops = [Op("growth", None, self.grow, self.check_growth)]

    def grow(self) -> str:
        history = graph.History()
        for c, v in enumerate(self.initial):
            history.add_initial_event(v, event_id=f"src{c}")
        rng = dynamics.replica_rng(self.seed, 0)
        outcomes = []
        for alts in self.steps:
            state = dynamics.cut_state(history)
            idx = dynamics.sample_extension(state, alts, rng)
            dynamics.realize(history, None, alts.candidates[idx])
            outcomes.append(idx)
        text = history.to_json()
        back = graph.History.from_json(text)
        problems = back.validate()
        if problems:
            raise RuntimeError(f"deserialized history is invalid: {problems[:3]}")
        if back.to_json() != text:
            raise RuntimeError("history JSON round trip is not byte-identical")
        self.outcomes = outcomes
        return text

    def check_growth(self, text: str) -> list[str]:
        """Event count, and the outcome-0 count against the exact law."""
        problems = []
        n_events = len(json.loads(text)["events"])
        if n_events != len(self.initial) + len(self.steps):
            problems.append(f"growth: history holds {n_events} events")
        chains = len(self.initial)
        psi = [v.amps for v in self.initial]
        p0 = np.empty(len(self.steps))
        for k, (alts, idx) in enumerate(zip(self.steps, self.outcomes)):
            c = k % chains
            p0[k] = abs(np.vdot(bra_amps(alts.candidates[0]), psi[c])) ** 2
            psi[c] = alts.candidates[idx].ket.amps
        zeros = sum(1 for idx in self.outcomes if idx == 0)
        band = BAND_SIGMAS * math.sqrt(float(np.sum(p0 * (1.0 - p0)))) + BAND_SLACK_COUNTS
        if abs(zeros - p0.sum()) > band:
            problems.append(f"growth: {zeros} first outcomes vs expected {p0.sum():.1f}")
        return problems


class Lattice(Workload):
    """Thermal/packet ambiguity, then the cell-width sweep; no event machinery."""

    name = "lattice"

    def __init__(self, seed: int, size: dict, root: Path, workdir: Path):
        thermal_argv = ["thermal-ambiguity", "--sites", str(size["thermal_sites"]),
                        "--seed", str(seed)]
        cells_argv = ["cells", "--sites", str(size["cells_sites"]), "--seed", str(seed)]
        self.ops = [
            Op("thermal", "cli.thermal-ambiguity", lambda: run_cli(thermal_argv),
               _check_thermal),
            Op("cells", "cli.cells", lambda: run_cli(cells_argv), _check_cells),
        ]


def make(name: str, seed: int, size: str, root: Path, workdir: Path) -> Workload:
    cls = {cls.name: cls for cls in (Figure, Wide, Growth, Lattice)}[name]
    return cls(seed, SIZES[size], root, workdir)
