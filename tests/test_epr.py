"""Singlet correlations, CHSH values, and the classical-strategy bound."""

import math
from dataclasses import astuple

import numpy as np
import pytest

import reference
from conftest import one_sided, sample_many
from eventweave import dynamics
from eventweave.epr import (
    OUTCOME_PAIRS,
    TSIRELSON_BOUND,
    DeterministicStrategy,
    Direction,
    best_classical,
    build_epr,
    chsh,
    chsh_optimal_directions,
    correlation,
    enumerate_deterministic_strategies,
    joint_distribution,
    spin_eigenvectors,
)


def plane(angle):
    return Direction.in_plane_deg(angle)


def random_direction(rng):
    v = rng.standard_normal(3)
    return Direction.from_cartesian(*v)


def test_direction_must_be_unit():
    with pytest.raises(ValueError):
        Direction(1.0, 1.0, 0.0)
    d = Direction.from_cartesian(1.0, 1.0, 0.0)
    assert abs(np.dot(astuple(d), astuple(d)) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="zero vector has no direction"):
        Direction.from_cartesian(0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Direction(math.nan, math.nan, math.nan),
        lambda: Direction(math.nan, 0.0, 1.0),
        lambda: Direction.from_cartesian(math.inf, 0.0, 0.0),
        lambda: Direction.in_plane_deg(math.nan),
    ],
    ids=["all-nan", "one-nan", "infinite-cartesian", "nan-angle"],
)
def test_non_finite_directions_are_refused(build):
    with pytest.raises(ValueError, match="norm nan"):
        build()


def test_spin_eigenvectors_are_orthonormal_eigenstates(rng):
    for _ in range(10):
        e = random_direction(rng)
        plus, minus = spin_eigenvectors(e)
        m = reference._SX * e.x + reference._SY * e.y + reference._SZ * e.z
        assert np.linalg.norm(m @ plus - plus) < 1e-12
        assert np.linalg.norm(m @ minus + minus) < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-12


def test_aligned_settings_anticorrelate_perfectly():
    setup = build_epr(plane(0.0), plane(0.0))
    probs = dynamics.alternative_probabilities(setup.state, setup.alternatives)
    assert np.max(np.abs(probs - np.array([0.0, 0.5, 0.5, 0.0]))) < 1e-12


def test_outcome_probabilities_always_sum_to_one(rng):
    for _ in range(25):
        setup = build_epr(random_direction(rng), random_direction(rng))
        assert abs(joint_distribution(setup).sum() - 1.0) < 1e-12


def test_agreement_probability_follows_the_half_angle_law(rng):
    for _ in range(20):
        e1, e2 = random_direction(rng), random_direction(rng)
        setup = build_epr(e1, e2)
        theta = math.acos(np.clip(np.dot(astuple(e1), astuple(e2)), -1.0, 1.0))
        assert abs(joint_distribution(setup)[0] - 0.5 * math.sin(theta / 2.0) ** 2) < 1e-12
        assert abs(
            joint_distribution(setup)[0]
            - reference.singlet_pair_probability(astuple(e1), 1, astuple(e2), 1)
        ) < 1e-12


@pytest.mark.parametrize(
    "theta,expected",
    [
        (0.0, (0.0, 0.5, 0.5, 0.0)),
        (90.0, (0.25, 0.25, 0.25, 0.25)),
        (60.0, (0.125, 0.375, 0.375, 0.125)),
    ],
)
def test_joint_distribution_fixed_points(theta, expected):
    setup = build_epr(plane(0.0), plane(theta))
    assert np.max(np.abs(joint_distribution(setup) - np.array(expected))) < 1e-12


def test_merged_candidates_equal_sequential_pairs(rng):
    """The joints are the merged candidates' probabilities, bit for bit the
    sequential two-event joints of the one-sided candidates."""
    settings = [(plane(0.0), plane(float(t))) for t in range(181)]
    settings += [(random_direction(rng), random_direction(rng)) for _ in range(400)]
    for e1, e2 in settings:
        setup = build_epr(e1, e2)
        sequential = np.array([
            dynamics.joint_probability(
                setup.state, [one_sided(setup, "1", s1), one_sided(setup, "2", s2)])
            for s1, s2 in OUTCOME_PAIRS
        ])
        assert np.array_equal(joint_distribution(setup), sequential)


@pytest.mark.parametrize("theta,expected", [(0.0, -1.0), (90.0, 0.0), (60.0, -0.5)])
def test_correlation_fixed_points(theta, expected):
    setup = build_epr(plane(0.0), plane(theta))
    assert abs(correlation(joint_distribution(setup)) - expected) < 1e-12


def test_correlation_equals_minus_dot_product(rng):
    for _ in range(20):
        e1, e2 = random_direction(rng), random_direction(rng)
        joints = joint_distribution(build_epr(e1, e2))
        assert abs(correlation(joints) + np.dot(astuple(e1), astuple(e2))) < 1e-12


def test_joint_distribution_is_rotation_invariant(rng):
    for _ in range(10):
        e1, e2 = random_direction(rng), random_direction(rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        r1 = Direction.from_cartesian(*(q @ astuple(e1)))
        r2 = Direction.from_cartesian(*(q @ astuple(e2)))
        d1 = joint_distribution(build_epr(e1, e2))
        d2 = joint_distribution(build_epr(r1, r2))
        assert np.max(np.abs(d1 - d2)) < 1e-12


def test_far_setting_never_moves_the_near_marginal(rng):
    for _ in range(50):
        e1, e2 = random_direction(rng), random_direction(rng)
        setup = build_epr(e1, e2)
        p = joint_distribution(setup)
        assert abs((p[0] + p[1]) - 0.5) < 1e-12  # side 1 shows +
        assert abs((p[0] + p[2]) - 0.5) < 1e-12  # side 2 shows +


def test_chsh_reaches_the_tsirelson_bound_at_the_chosen_settings():
    s = chsh(*chsh_optimal_directions())
    assert abs(abs(s) - TSIRELSON_BOUND) < 1e-9


def test_chsh_with_identical_settings_is_two():
    d = plane(17.0)
    assert abs(abs(chsh(d, d, d, d)) - 2.0) < 1e-12


def test_chsh_never_exceeds_tsirelson(rng):
    for _ in range(60):
        a, ap, b, bp = (plane(float(x)) for x in rng.uniform(0, 360, 4))
        assert abs(chsh(a, ap, b, bp)) <= TSIRELSON_BOUND + 1e-9


def test_exhaustive_classical_bound_is_exactly_two(rng):
    assert best_classical() == 2.0
    values = {s.chsh_value() for s in enumerate_deterministic_strategies()}
    assert values == {-2.0, 2.0}


def test_quantum_beats_every_classical_mixture():
    uniform = np.mean([s.chsh_value() for s in enumerate_deterministic_strategies()])
    assert abs(uniform) <= 2.0
    gap = abs(chsh(*chsh_optimal_directions())) - best_classical()
    assert gap >= 2.0 * math.sqrt(2.0) - 2.0 - 1e-9


def test_classical_strategy_validation():
    s = DeterministicStrategy((1, -1), (1, 1))
    assert s.chsh_value() in (-2.0, 2.0)
    with pytest.raises(ValueError):
        DeterministicStrategy((0, 1), (1, 1))


def test_monte_carlo_matches_analytic_within_three_sigma():
    n = 100_000
    for theta in (0.0, 30.0, 60.0, 90.0):
        setup = build_epr(plane(0.0), plane(theta))
        analytic = joint_distribution(setup)
        tree = dynamics.sample_outcome_tree(setup.history, [setup.alternatives], n, 2024)
        freqs = tree.replica_counts[0] / n
        for a, f in zip(analytic, freqs):
            band = 3.0 * math.sqrt(a * (1.0 - a) / n)
            assert abs(f - a) <= max(band, 1e-12)


@pytest.mark.parametrize("replicas", [1, 4])
@pytest.mark.parametrize("theta", [0.0, 30.0, 90.0, 137.5])
def test_outcome_tree_replica_counts_equal_the_one_stage_draw_loop(
    theta, replicas, monkeypatch
):
    """Each replica's counts are the per-replica stream's draws, bit for bit,
    also when the runs span several (shortened) draw chunks."""
    monkeypatch.setattr(dynamics, "DRAW_CHUNK", 7)
    setup = build_epr(plane(0.0), plane(theta))
    for seed in range(10):
        for runs in (1, 7, 23, 1000):
            tree = dynamics.sample_outcome_tree(
                setup.history, [setup.alternatives], runs, seed, replicas
            )
            assert tree.replica_counts.shape == (replicas, 4)
            for r, counts in enumerate(tree.replica_counts):
                want = reference.sample_counts(
                    setup.state, setup.alternatives, runs, dynamics.replica_rng(seed, r)
                )
                assert counts.dtype == want.dtype and np.array_equal(counts, want)


def test_impossible_outcomes_are_never_sampled():
    setup = build_epr(plane(0.0), plane(0.0))
    draws = sample_many(setup.state, setup.alternatives, 10_000, 5)
    counts = np.bincount(draws, minlength=4)
    assert counts[0] == 0 and counts[3] == 0
