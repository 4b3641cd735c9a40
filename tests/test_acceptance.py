"""End-to-end acceptance suite.

One test per shipped claim, each printing a PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforcing its stated
tolerance and runtime budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import reference
from conftest import HistoryFactory, position_to_momentum
from eventweave import cli, dynamics, epr, thermal
from eventweave.cells import (
    CellPartition,
    MomentumGrid,
    TKernel,
    branch_states,
    cell_decompose,
    integrate_over_box,
    width_sweep,
)
from eventweave.dynamics import (
    cut_state,
    event_probability,
    joint_probability,
    realized_state,
)
from eventweave.graph import Cut
from eventweave.tensors import LabeledVector, ProductBra, random_unit_vector

REPO = Path(__file__).resolve().parents[1]
FIGURE = REPO / "scenarios" / "figure.json"


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[criterion {self.number}] {status} ({elapsed:.2f}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} took {elapsed:.1f}s, budget {self.budget_s}s"
            )
        return False


def test_criterion_1_epr_joint_probabilities():
    with criterion(1, "EPR joints match the half-angle law; MC within 3 sigma", 10.0):
        n = 100_000
        for i, theta in enumerate((0.0, 30.0, 60.0, 90.0, 120.0, 180.0)):
            setup = epr.build_epr(
                epr.Direction.in_plane_deg(0.0), epr.Direction.in_plane_deg(theta)
            )
            got = epr.joint_distribution(setup)
            half = math.radians(theta) / 2.0
            want = np.array(
                [
                    0.5 * math.sin(half) ** 2,
                    0.5 * math.cos(half) ** 2,
                    0.5 * math.cos(half) ** 2,
                    0.5 * math.sin(half) ** 2,
                ]
            )
            assert np.max(np.abs(got - want)) <= 1e-12
            freqs = epr.mc_frequencies(setup, n, dynamics.replica_rng(100 + i, 0))
            for a, f in zip(want, freqs):
                band = 3.0 * math.sqrt(a * (1.0 - a) / n)
                assert abs(f - a) <= max(band, 1e-12)


def test_criterion_2_nonclassicality_gap():
    with criterion(2, "CHSH reaches 2*sqrt(2); classical enumeration stays at 2", 1.0):
        dirs = epr.chsh_optimal_directions()
        s_quantum = abs(epr.chsh(*dirs))
        assert abs(s_quantum - 2.0 * math.sqrt(2.0)) <= 1e-9
        s_classical = epr.best_classical()
        assert s_classical == 2.0
        assert all(
            abs(s.chsh_value()) <= 2.0
            for s in epr.enumerate_deterministic_strategies()
        )
        assert s_quantum - s_classical >= 0.828 - 1e-6


def test_criterion_3_no_signalling():
    with criterion(3, "single-side marginals are 1/2 for 1000 setting pairs", 5.0):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
            setup = epr.build_epr(
                epr.Direction.from_cartesian(*v1), epr.Direction.from_cartesian(*v2)
            )
            state = setup.state
            p_plus_near = event_probability(state, setup.side1["+"])
            p_plus_far = event_probability(state, setup.side2["+"])
            assert abs(p_plus_near - 0.5) <= 1e-12
            assert abs(p_plus_far - 0.5) <= 1e-12


def test_criterion_4_thermal_packet_ambiguity():
    with criterion(4, "thermal diagonal equals the packet mixture at sigma*", 30.0):
        beta, mass = 2.0, 1.0
        sigma_guess = 0.5 * math.sqrt(beta / mass)
        model = thermal.LatticeModel(
            MomentumGrid(256, 40.0 * sigma_guess), mass=mass, beta=beta
        )
        result = thermal.matching_width(model)
        assert result.residual_sup_norm < 1e-8
        family = thermal.PacketFamily.every_site(model, result.sigma_star)
        mixture = thermal.packet_mixture_density(model, family)
        assert mixture.max_offdiagonal() < 1e-12
        times = tuple(np.linspace(0.0, 2.0, 5))
        averaged = thermal.packet_mixture_density(
            model, thermal.PacketFamily.every_site(model, result.sigma_star, times)
        )
        assert np.max(np.abs(averaged.matrix - mixture.matrix)) <= 1e-12
        # desk check against the quoted 2e-9 m packet scale for a proton at 1 K;
        # the 1/e amplitude radius 2*sigma* is the like-for-like width measure
        proton = thermal.proton_model()
        sigma_star = thermal.matching_width(proton).sigma_star
        factor = (2.0 * sigma_star) / 2e-9
        assert 0.25 <= factor <= 4.0


def test_criterion_5_cell_reconstruction_and_purity():
    with criterion(5, "cell operators reconstruct the box integral; pure branches", 10.0):
        rng = np.random.default_rng(55)
        grid = MomentumGrid(128, 1.0)
        p = grid.momenta()
        pmax = float(np.abs(p).max())
        pp, qq = np.meshgrid(p, p, indexing="ij")
        tau = np.zeros((128, 128), dtype=complex)
        for _ in range(4):
            c1, c2 = rng.uniform(-pmax / 2, pmax / 2, 2)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            tau += amp * np.exp(
                -((pp - c1) ** 2 + (qq - c2) ** 2) / (2 * (pmax / 3) ** 2)
            )
        kernel = TKernel.from_matrix(grid, tau)
        box = integrate_over_box(kernel).matrix
        scale = max(1.0, float(np.abs(box).max()))
        for n_cells in (1, 2, 5, 8):
            parts = cell_decompose(
                kernel, CellPartition.smoothed_indicators(grid, n_cells, 0.12)
            )
            total = sum(pk.matrix for pk in parts)
            assert np.max(np.abs(total - box)) <= 1e-12 * scale
        # localized input feeds exactly one branch
        fine = MomentumGrid(1024, 1.0)
        part = CellPartition.smoothed_indicators(fine, 4, 0.07)
        x = fine.positions()
        a = fine.box_length / 4
        sig = a / 26
        psi_x = np.exp(-((x - a * 1.5) ** 2) / (4 * sig**2)).astype(complex)
        psi_x /= np.linalg.norm(psi_x)
        psi = position_to_momentum(fine, psi_x)
        pf = fine.momenta()
        envelope = np.exp(-(pf**2) / (2 * (np.abs(pf).max() / 6.0) ** 2))
        dec = branch_states(TKernel.separable(fine, envelope), part, psi)
        home = dec.branches[1].squared_norm()
        leak = max(dec.branches[k].squared_norm() for k in (0, 2, 3))
        assert leak / home < 1e-8


def test_criterion_6_momentum_balance_scaling():
    with criterion(6, "spread * width tracks h with log-log slope -1", 30.0):
        sweep = width_sweep()
        widths = sweep.widths()
        assert widths.max() / widths.min() >= 100.0 - 1e-9
        assert abs(sweep.slope + 1.0) <= 0.05
        for pt in sweep.points:
            assert 0.3 <= pt.product_over_h <= 3.0


def test_criterion_7_dynamics_property_suite():
    with criterion(7, "chain rule, reorder, spectator, saturation on 200 histories", 60.0):
        rng = np.random.default_rng(777)
        factory = HistoryFactory(rng)
        tol = 1e-12
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 2000:
            attempts += 1
            h = factory.random_history()
            free = sorted(h.free_links())
            if len(free) < 2:
                continue
            half = max(1, len(free) // 2)
            e = factory.random_candidate(h, links=free[:half])
            f = factory.random_candidate(h, links=free[half:])
            s = cut_state(h)
            # oracle cross-check of the probability law itself
            pe = event_probability(s, e)
            bra_map = {lid: list(fac.amps) for lid, fac in e.bra.factors.items()}
            oracle = reference.naive_apply_probability(
                e.c, bra_map, *reference.parts(e.ket), *reference.parts(s.composite)
            )
            assert abs(pe - oracle) <= tol
            # permutation invariance of spacelike joints
            joint = joint_probability(s, [e, f])
            assert abs(joint - joint_probability(s, [f, e])) <= tol
            # chain rule through the renormalized post-event state
            if pe > 1e-9:
                p1, after = realized_state(s, e)
                assert abs(joint - p1 * event_probability(after, f)) <= tol
            # spectator invariance
            h2 = h.snapshot()
            h2.add_initial_event(
                random_unit_vector(
                    factory.fresh_labels(1, 1), rng
                )
            )
            assert abs(event_probability(cut_state(h2), e) - pe) <= tol
            # enlarging the cut by a saturated chunk changes nothing
            h3 = h.snapshot()
            base_cut = Cut.of(h.events)
            vec = random_unit_vector(factory.fresh_labels(1, 1), rng)
            eid_a = h3.add_initial_event(vec)
            eid_c = h3.add_interior_event(
                ProductBra([vec]), 1.0, LabeledVector.scalar(1.0)
            )
            enlarged = Cut.of(set(base_cut.past_event_ids) | {eid_a, eid_c})
            assert abs(event_probability(cut_state(h3, enlarged), e) - pe) <= tol
            checked += 1
        assert checked >= 200, f"only {checked} usable histories in {attempts} tries"


def test_criterion_8_reproducible_reports(tmp_path, capsys):
    with criterion(8, "fixed seeds give byte-identical reports", 30.0):
        def run_twice(*argv):
            target = tmp_path / "report.json"
            texts = []
            for _ in range(2):
                code = cli.main([*argv, "--out", str(target)])
                capsys.readouterr()
                assert code == 0
                texts.append(target.read_text())
            return texts

        def strip_duration(text):
            return "\n".join(
                line for line in text.splitlines() if '"duration_s"' not in line
            )

        for argv in (
            ["epr", "--theta", "30", "--runs", "50000", "--seed", "21"],
            ["simulate", str(FIGURE), "--runs", "3000", "--seed", "8"],
            ["chsh"],
        ):
            first, second = run_twice(*argv)
            assert strip_duration(first) == strip_duration(second)
            assert json.loads(first)["schema_version"] == 1
