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

#: largest grid whose dense (sites x sites) packet and density matrices
#: :func:`packet_mixture_density` builds; at 4096 sites each takes 268 MB
MAX_DENSE_SITES = 4096


@dataclass(frozen=True)
class LatticeModel:
    """Periodic 1-D lattice with a particle's mass and inverse temperature."""

    grid: MomentumGrid
    mass: float
    beta: float

    def __post_init__(self):
        _positive_finite("mass", self.mass)
        _positive_finite("beta", self.beta)


@dataclass
class MomentumDensity:
    """Diagonal weights over the lattice momenta; ``matrix is None`` means
    the density is exactly diagonal by construction."""

    diagonal: np.ndarray
    matrix: np.ndarray | None = None

    def trace(self) -> float:
        return float(self.diagonal.sum())

    def max_offdiagonal(self) -> float:
        if self.matrix is None:
            return 0.0
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.max(np.abs(off)))


@dataclass(frozen=True)
class PacketFamily:
    """Uniformly weighted Gaussian packets on a grid of centers and times."""

    sigma: float
    centers: tuple[float, ...]
    times: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        _positive_finite("sigma", self.sigma)
        if not self.centers:
            raise ValueError("need at least one center")
        for name in ("centers", "times"):
            values = tuple(float(v) for v in getattr(self, name))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must all be finite, got {values}")
            object.__setattr__(self, name, values)

    @classmethod
    def every_site(
        cls, model: LatticeModel, sigma: float, times=(0.0,)
    ) -> "PacketFamily":
        return cls(sigma=sigma, centers=tuple(model.grid.positions()), times=tuple(times))


def gaussian_packet(model: LatticeModel, center: float, sigma: float) -> np.ndarray:
    """Unit-norm minimal packet at ``center``, periodic minimum-image."""
    _positive_finite("sigma", sigma)
    d = model.grid.displacements(center)
    psi = np.exp(-(d**2) / (4.0 * sigma**2)).astype(np.complex128)
    return psi / np.linalg.norm(psi)


def thermal_density(model: LatticeModel) -> MomentumDensity:
    """Normalized ``exp(-beta p^2/2m)`` diagonal; off-diagonals exactly 0."""
    p = model.grid.momenta()
    w = np.exp(-model.beta * p**2 / (2.0 * model.mass))
    return MomentumDensity(diagonal=w / w.sum(), matrix=None)


def packet_mixture_density(
    model: LatticeModel, family: PacketFamily
) -> MomentumDensity:
    """Average of momentum-space projectors over the packet family.

    Each packet, freely evolved to its family time, is one row of a matrix
    ``Phi``; the average is ``Phi^T conj(Phi) / count``, whose summation
    order is BLAS's, so entries may differ from a projector-by-projector
    sum in their last bits.  Raises ``ValueError`` before building ``Phi``
    for a grid of more than :data:`MAX_DENSE_SITES` sites.
    """
    grid = model.grid
    n = grid.n_points
    if n > MAX_DENSE_SITES:
        raise ValueError(f"{n} sites need dense {n} x {n} matrices; "
                         f"at most MAX_DENSE_SITES = {MAX_DENSE_SITES} fit")
    p = grid.momenta()
    kinetic_phase_rate = p**2 / (2.0 * model.mass * grid.hbar)
    phi = np.array([grid.to_momentum(gaussian_packet(model, c, family.sigma))
                    for c in family.centers])
    phases = np.exp(-1j * np.multiply.outer(family.times, kinetic_phase_rate))
    phi = (phi[:, None, :] * phases).reshape(-1, n)
    rho = phi.T @ phi.conj() / len(phi)
    return MomentumDensity(diagonal=rho.diagonal().real.copy(), matrix=rho)


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
