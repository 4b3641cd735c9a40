"""Thermal diagonal versus uniform packet mixture on the 1-D lattice."""

import math

import numpy as np
import pytest

import reference
from conftest import packet_overlap
from eventweave.cells import MomentumGrid
from eventweave.errors import NoMatch
from eventweave.thermal import (
    MAX_SIGMA_FRACTION,
    LatticeModel,
    PacketFamily,
    gaussian_packet,
    h_formula_width,
    matched_model,
    matching_sigma,
    matching_width,
    packet_mixture_density,
    proton_model,
    thermal_density,
)


def natural_model(n_sites=256, beta=2.0, mass=1.0):
    sigma = 0.5 * math.sqrt(beta / mass)
    return LatticeModel(MomentumGrid(n_sites, 40.0 * sigma), mass=mass, beta=beta)


# -- thermal_density ------------------------------------------------------------


def test_tiny_beta_is_nearly_uniform():
    model = LatticeModel(MomentumGrid(64, 10.0), mass=1.0, beta=1e-9)
    w = thermal_density(model).diagonal
    assert w.max() / w.min() - 1.0 < 1e-6


def test_weights_are_symmetric_under_momentum_reversal():
    model = natural_model(n_sites=64)
    w = thermal_density(model).diagonal
    p = model.grid.momenta()
    for k in range(1, 64):
        assert p[64 - k] == -p[k]
        assert w[64 - k] == w[k]


def test_weight_table_matches_per_point_exponentials():
    model = natural_model(n_sites=64, beta=1.7, mass=0.9)
    density = thermal_density(model)
    raw = [math.exp(-model.beta * p * p / (2.0 * model.mass)) for p in model.grid.momenta()]
    z = sum(raw)
    assert max(abs(a - b / z) for a, b in zip(density.diagonal, raw)) < 1e-14
    assert density.max_offdiagonal() == 0.0


# -- packet_mixture_density -------------------------------------------------------


def test_uniform_spatial_average_kills_off_diagonals():
    model = natural_model()
    sigma = matching_sigma(model)
    mix = packet_mixture_density(model, PacketFamily.every_site(model, sigma))
    assert mix.max_offdiagonal() < 1e-12
    assert abs(mix.trace() - 1.0) < 1e-12


def test_time_averaged_family_gives_the_same_density():
    model = natural_model(n_sites=128)
    sigma = matching_sigma(model)
    single = packet_mixture_density(model, PacketFamily.every_site(model, sigma))
    times = tuple(np.linspace(0.0, 3.0, 7))
    averaged = packet_mixture_density(
        model, PacketFamily.every_site(model, sigma, times=times)
    )
    assert np.max(np.abs(averaged.matrix - single.matrix)) < 1e-12


def test_mixture_diagonal_is_the_single_packet_envelope():
    model = natural_model(n_sites=128)
    sigma = matching_sigma(model)
    mix = packet_mixture_density(model, PacketFamily.every_site(model, sigma))
    grid = model.grid
    psi = gaussian_packet(model, grid.box_length / 2.0, sigma)
    envelope = reference.direct_packet_momentum_abs2(
        grid.positions(), psi, grid.momenta(), grid.hbar
    )
    assert np.max(np.abs(mix.diagonal - envelope)) < 1e-12


# -- matching_width ----------------------------------------------------------------


def test_matching_relation_and_residual():
    model = natural_model(n_sites=256)
    result = matching_width(model)
    lhs = 2.0 * result.sigma_star**2 / model.grid.hbar**2
    assert abs(lhs - model.beta / (2.0 * model.mass)) < 1e-15
    assert result.residual_sup_norm < 1e-8


def test_doubling_beta_scales_the_width_by_sqrt_two():
    m1, m2 = natural_model(beta=2.0), natural_model(beta=4.0)
    assert abs(matching_sigma(m2) / matching_sigma(m1) - math.sqrt(2.0)) < 1e-12


def test_proton_at_one_kelvin_lands_near_the_quoted_scale():
    model = proton_model()
    result = matching_width(model)
    # documented constant gap between the h-based formula and sigma*
    assert abs(h_formula_width(model) / result.sigma_star - 2.0 * math.sqrt(2.0) * math.pi) < 1e-9
    # the packet's 1/e amplitude radius (2 sigma) against the quoted 2e-9 m
    width_1e = 2.0 * result.sigma_star
    factor = width_1e / 2e-9
    assert 0.25 <= factor <= 4.0
    # pin the absolute scale so constant regressions cannot hide
    assert abs(result.sigma_star - 3.4698e-10) < 1e-13


def test_too_small_a_box_raises_no_match():
    sigma = 0.5 * math.sqrt(2.0)
    model = LatticeModel(MomentumGrid(256, 4.0 * sigma), mass=1.0, beta=2.0)
    with pytest.raises(NoMatch):
        matching_width(model)


def test_both_routes_agree_on_every_momentum_statistic(rng):
    model = natural_model(n_sites=256)
    sigma = matching_sigma(model)
    mix = packet_mixture_density(model, PacketFamily.every_site(model, sigma))
    therm = thermal_density(model)
    p = model.grid.momenta()
    scale = np.max(np.abs(p))
    for _ in range(10):
        a, b, c = rng.uniform(-1, 1, 3)
        values = a * np.cos(3 * p / scale) + b * (p / scale) ** 2 + c
        assert abs(np.dot(therm.diagonal, values) - np.dot(mix.diagonal, values)) < 1e-8


# -- packet overlaps -----------------------------------------------------------------


def test_identical_centers_have_unit_overlap():
    model = natural_model(n_sites=256)
    assert abs(packet_overlap(model, 1.0, 3.0, 3.0) - 1.0) < 1e-12


def test_neighbor_overlaps_follow_the_gaussian_formula():
    model = LatticeModel(MomentumGrid(1024, 60.0), mass=1.0, beta=2.0)
    mid = model.grid.box_length / 2.0
    for d in (1.0, 2.0, 10.0):
        got = packet_overlap(model, 1.0, mid - d / 2.0, mid + d / 2.0)
        assert abs(got - math.exp(-d * d / 8.0)) < 1e-9
    # packets one width apart overlap plainly: the decomposition is non-orthogonal
    assert packet_overlap(model, 1.0, mid - 0.5, mid + 0.5) > 0.5
    # far-separated packets are orthogonal for practical purposes
    assert packet_overlap(model, 1.0, mid - 7.0, mid + 7.0) < 1e-10


def test_trace_normalization_everywhere():
    model = natural_model(n_sites=128, beta=3.0)
    assert abs(thermal_density(model).trace() - 1.0) < 1e-12
    mix = packet_mixture_density(
        model, PacketFamily.every_site(model, matching_sigma(model))
    )
    assert abs(mix.trace() - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["box_length", "mass", "beta", "hbar"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_lattice_parameters_are_refused(name, value):
    """The grid refuses a bad box or hbar, the model a bad mass or beta."""
    grid = dict(n_points=64, box_length=10.0, hbar=1.0)
    physics = dict(mass=1.0, beta=2.0)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        if name in grid:
            MomentumGrid(**{**grid, name: value})
        else:
            LatticeModel(MomentumGrid(**grid), **{**physics, name: value})


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(sigma=float("nan"), centers=(0.0,)), "sigma"),
        (dict(sigma=float("inf"), centers=(0.0,)), "sigma"),
        (dict(sigma=0.0, centers=(0.0,)), "sigma"),
        (dict(sigma=1.0, centers=(float("nan"),)), "centers"),
        (dict(sigma=1.0, centers=(0.0, float("inf"))), "centers"),
        (dict(sigma=1.0, centers=(0.0,), times=(float("inf"),)), "times"),
        (dict(sigma=1.0, centers=(0.0,), times=(0.0, float("nan"))), "times"),
    ],
)
def test_packet_families_with_nonfinite_inputs_are_refused(kwargs, field):
    with pytest.raises(ValueError, match=field):
        PacketFamily(**kwargs)


@pytest.mark.parametrize("sigma", [0.0, float("nan"), float("inf")])
def test_gaussian_packet_refuses_a_nonpositive_or_nonfinite_width(sigma):
    model = LatticeModel(MomentumGrid(64, 10.0), 1.0, 1.0)
    with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
        gaussian_packet(model, 0.0, sigma)


def test_matched_model_defaults_to_forty_matching_widths():
    model = matched_model(128, 1.0, 2.0, 1.0)
    assert model.grid.box_length == matching_sigma(model) / MAX_SIGMA_FRACTION
    grid = model.grid
    assert (grid.n_points, grid.hbar, model.mass, model.beta) == (128, 1.0, 1.0, 2.0)
    assert matched_model(128, 1.0, 2.0, 1.0, box_length=30.0).grid.box_length == 30.0


def test_matched_model_refuses_a_zero_box():
    with pytest.raises(ValueError, match="box_length"):
        matched_model(128, 1.0, 2.0, 1.0, box_length=0.0)


@pytest.mark.parametrize("kelvin", [0.0, -1.0, float("nan"), float("inf")])
def test_proton_model_refuses_a_nonpositive_or_nonfinite_temperature(kelvin):
    with pytest.raises(ValueError, match="temperature"):
        proton_model(kelvin)


def test_mixture_matrix_matches_the_projector_loop():
    # the loop's sequential sum over 3n projectors is the less accurate side:
    # at 128 sites it sits 7.8e-16 off an extended-precision sum, the matrix
    # product 1.1e-16, so the 1e-15 bound is kept to a small lattice
    model = natural_model(n_sites=64)
    family = PacketFamily.every_site(
        model, matching_sigma(model), times=(0.0, 0.7, 1.9)
    )
    got = packet_mixture_density(model, family)
    want = reference.naive_packet_mixture_density(model, family)
    assert np.max(np.abs(got.matrix - want)) < 1e-15
    assert np.array_equal(got.diagonal, got.matrix.diagonal().real)
