"""Two decompositions of one thermal momentum density on a 1-D lattice.

A free particle in a box at inverse temperature ``beta`` has the
momentum-diagonal density ``w(p) ~ exp(-beta p^2 / 2m)``.  Exactly the
same density arises as a uniform spatial (and time) mixture of minimal
Gaussian packets of one particular width: the module builds both sides
numerically and verifies they cannot be told apart by any subsequent
momentum statistic.

Width conventions, fixed once for the whole module: a packet of width
``sigma`` has amplitude ``exp(-x^2 / (4 sigma^2))``, so ``sigma`` is the
position standard deviation and the momentum envelope is
``|phi(p)|^2 ~ exp(-2 sigma^2 p^2 / hbar^2)``.  Matching the thermal
exponent therefore pins ``2 sigma*^2 / hbar^2 = beta / 2m``.  The
h-based order-of-magnitude formula ``h sqrt(beta/2m)`` for the same
length is larger than ``sigma*`` by the constant ``2 sqrt(2) pi``; both
are reported, neither is silently corrected into the other.

The lattice is :class:`eventweave.cells.MomentumGrid` (box, ``hbar``, the
transform to momentum); a :class:`LatticeModel` adds mass and inverse
temperature, and :func:`matched_model` gives it a default box of 40 sigma*.
A :class:`MomentumDensity` keeps its diagonal and the O(sites) factors of
its off-diagonals, less the time phases that the family and the model
give; nothing here builds the dense (sites x sites) density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cells import MomentumGrid, _positive_finite
from .errors import NoMatch

# 2019 SI values, for the desk-scale sanity checks
BOLTZMANN = 1.380649e-23
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2.0 * math.pi)
PROTON_MASS = 1.67262192369e-27

#: sigma* exceeds this times the box and wrap-around starts to matter
MAX_SIGMA_FRACTION = 1.0 / 40.0

#: sup-norm residual above which the two momentum diagonals do not match
MATCH_TOL = 1e-8


@dataclass(frozen=True)
class LatticeModel:
    """Periodic 1-D lattice with a particle's mass and inverse temperature."""

    grid: MomentumGrid
    mass: float
    beta: float

    def __post_init__(self):
        _positive_finite("mass", self.mass)
        _positive_finite("beta", self.beta)


class MomentumDensity:
    """Diagonal weights over the lattice momenta, and factors of the
    off-diagonals.

    A packet mixture keeps its momentum-space site-0 ``packet`` and the
    translation factor ``shift`` (entry ``(i, j)`` carries
    ``shift[(i - j) % n]``).  Its off-diagonals are their product times the
    mean over the family's times of the free-evolution phase, which the
    family and the model give and which is not kept.  With no ``packet`` the
    density is exactly diagonal.
    """

    def __init__(self, diagonal: np.ndarray, packet=None, shift=None):
        self.diagonal = diagonal
        self.packet, self.shift = packet, shift

    def trace(self) -> float:
        return float(self.diagonal.sum())

    def max_offdiagonal(self) -> float:
        """``max |shift[k != 0]| * max |packet|^2``, a bound on every
        off-diagonal modulus; exactly 0 for a family at every site, whose
        shift vanishes off ``k = 0``."""
        if self.packet is None:
            return 0.0
        peak = np.max(self.packet.real**2 + self.packet.imag**2)
        return float(np.max(np.abs(self.shift[1:])) * peak)


@dataclass(frozen=True)
class PacketFamily:
    """Uniformly weighted Gaussian packets on a grid of centers and times."""

    sigma: float
    centers: tuple[float, ...]
    times: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        _positive_finite("sigma", self.sigma)
        for name in ("centers", "times"):
            values = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must all be finite, got {tuple(values.tolist())}")
            object.__setattr__(self, name, tuple(values.tolist()))
        if not self.centers:
            raise ValueError("need at least one center")

    @classmethod
    def every_site(
        cls, model: LatticeModel, sigma: float, times=(0.0,)
    ) -> "PacketFamily":
        return cls(sigma=sigma, centers=model.grid.positions(), times=times)


def gaussian_packet(model: LatticeModel, center: float, sigma: float) -> np.ndarray:
    """Unit-norm minimal packet at ``center``, periodic minimum-image."""
    _positive_finite("sigma", sigma)
    if not 4.0 * sigma * sigma < math.inf:
        raise ValueError(f"packet width sigma={sigma} leaves the float range")
    d = model.grid.displacements(center)
    psi = np.exp(-(d**2) / (4.0 * sigma**2))
    return (psi / np.sqrt(np.sum(psi**2))).astype(np.complex128)


def thermal_density(model: LatticeModel) -> MomentumDensity:
    """Normalized ``exp(-beta p^2/2m)`` diagonal; off-diagonals exactly 0."""
    p = model.grid.momenta()
    w = np.exp(-model.beta * p**2 / (2.0 * model.mass))
    return MomentumDensity(w / w.sum())


def packet_mixture_density(
    model: LatticeModel, family: PacketFamily
) -> MomentumDensity:
    """Average of momentum-space projectors over the packet family.

    A packet at site j is the site-0 packet shifted by j sites, so
    ``phi_j(p) = phi_0(p) e^{-i p x_j / hbar}``, and at time t it gains
    ``e^{-i t omega(p)}``.  The average is therefore
    ``phi_0(p) conj(phi_0(p')) S(p - p') T(p, p')``: S is the FFT of the
    centers' site histogram over their count, T the mean over times of the
    phase ``e^{-i t (omega(p) - omega(p'))}``.  One packet, its transform
    and the histogram's transform build it; the diagonal
    ``mean_t |phi_0 e^{-i t omega}|^2 S(0)`` costs O(sites x times), and
    nothing on the way calls BLAS.  A center that is not one of
    ``grid.positions()`` has no such structure and raises ``ValueError``.
    """
    grid = model.grid
    n = grid.n_points
    sites = grid.positions()
    centers = np.array(family.centers)
    index = np.minimum(np.searchsorted(sites, centers), n - 1)
    if not np.array_equal(sites[index], centers):
        off = centers[sites[index] != centers][0]
        raise ValueError(f"packet center {off} is not a lattice site")
    shift = np.fft.fft(np.bincount(index, minlength=n)) / len(centers)
    kinetic_phase_rate = grid.momenta()**2 / (2.0 * model.mass * grid.hbar)
    packet = grid.to_momentum(gaussian_packet(model, 0.0, family.sigma))
    phases = np.exp(-1j * np.multiply.outer(family.times, kinetic_phase_rate))
    waves = packet * phases
    diagonal = np.mean(waves.real**2 + waves.imag**2, axis=0) * shift[0].real
    return MomentumDensity(diagonal, packet, shift)


def matching_sigma(model: LatticeModel) -> float:
    """Width making the packet envelope equal the thermal exponent:
    ``2 sigma^2 / hbar^2 = beta / 2m``."""
    return 0.5 * model.grid.hbar * math.sqrt(model.beta / model.mass)


def h_formula_width(model: LatticeModel) -> float:
    """The h-based order-of-magnitude width ``h sqrt(beta / 2m)``."""
    return 2.0 * math.pi * model.grid.hbar * math.sqrt(model.beta / (2.0 * model.mass))


@dataclass(frozen=True)
class MatchResult:
    """Matching width, its residual, and the two densities it compared."""

    sigma_star: float
    residual_sup_norm: float
    thermal: MomentumDensity
    mixture: MomentumDensity


def matching_width(model: LatticeModel) -> MatchResult:
    """Derive sigma* and verify the two diagonals agree in sup norm.

    Raises :class:`NoMatch` when the residual exceeds ``MATCH_TOL``, which
    in practice signals a box too small for the packets (wrap-around) or a
    grid too coarse for the thermal envelope.  A non-finite residual means
    the model's arithmetic left the float range and raises ``ValueError``.
    """
    sigma = matching_sigma(model)
    with np.errstate(all="ignore"):
        thermal = thermal_density(model)
        mixture = packet_mixture_density(model, PacketFamily.every_site(model, sigma))
        residual = float(np.max(np.abs(thermal.diagonal - mixture.diagonal)))
    if not math.isfinite(residual):
        raise ValueError(f"non-finite residual {residual}: model out of float range")
    if residual > MATCH_TOL:
        raise NoMatch(residual, MATCH_TOL)
    return MatchResult(sigma, residual, thermal, mixture)


def matched_model(
    n_sites: int, mass: float, beta: float, hbar: float, box_length: float | None = None
) -> LatticeModel:
    """Lattice model on a box of ``box_length``, or, for ``None``, of 40
    matching widths, derived once the grid and model have checked every input;
    a derived box outside the float range is refused naming beta, mass and hbar."""
    grid = MomentumGrid(n_sites, 1.0 if box_length is None else box_length, hbar)
    model = LatticeModel(grid, mass, beta)
    if box_length is None:
        box = matching_sigma(model) / MAX_SIGMA_FRACTION
        if not 0 < box < math.inf:
            raise ValueError(f"beta={beta}, mass={mass} and hbar={hbar} give a default "
                             f"box of {box}, outside the float range; give an explicit box")
        model = replace(model, grid=replace(grid, box_length=box))
    return model


def proton_model(
    temperature_kelvin: float = 1.0, n_sites: int = 256
) -> LatticeModel:
    """SI-unit lattice for a proton at the given temperature, box 40 sigma*."""
    beta = 1.0 / (BOLTZMANN * _positive_finite("temperature", temperature_kelvin))
    return matched_model(n_sites, PROTON_MASS, beta, HBAR)
