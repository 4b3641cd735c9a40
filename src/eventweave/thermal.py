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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Periodic 1-D lattice with physical constants attached."""

    n_sites: int
    box_length: float
    mass: float
    beta: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        for name in ("box_length", "mass", "beta", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def positions(self) -> np.ndarray:
        return np.arange(self.n_sites) * (self.box_length / self.n_sites)

    def momenta(self) -> np.ndarray:
        dp = 2.0 * math.pi * self.hbar / self.box_length
        return (np.arange(self.n_sites) - self.n_sites // 2) * dp

    def to_momentum(self, psi_x: np.ndarray) -> np.ndarray:
        """Unitary transform onto :meth:`momenta` ordering."""
        return np.fft.fftshift(np.fft.fft(psi_x)) / math.sqrt(self.n_sites)


@dataclass
class MomentumDensity:
    """Diagonal weights over the lattice momenta; ``matrix is None`` means
    the density is exactly diagonal by construction."""

    momenta: np.ndarray
    diagonal: np.ndarray
    matrix: np.ndarray | None = None

    def trace(self) -> float:
        return float(self.diagonal.sum())

    def max_offdiagonal(self) -> float:
        if self.matrix is None:
            return 0.0
        off = self.matrix - np.diag(np.diag(self.matrix))
        return float(np.max(np.abs(off)))

    def expectation(self, values: np.ndarray) -> float:
        """Mean of a momentum function under the diagonal weights."""
        return float(np.dot(self.diagonal, values))


@dataclass(frozen=True)
class PacketFamily:
    """Uniformly weighted Gaussian packets on a grid of centers and times."""

    sigma: float
    centers: tuple[float, ...]
    times: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.centers:
            raise ValueError("need at least one center")
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))

    @classmethod
    def every_site(
        cls, model: LatticeModel, sigma: float, times=(0.0,)
    ) -> "PacketFamily":
        return cls(sigma=sigma, centers=tuple(model.positions()), times=tuple(times))


def gaussian_packet(model: LatticeModel, center: float, sigma: float) -> np.ndarray:
    """Unit-norm minimal packet at ``center``, periodic minimum-image."""
    d = model.positions() - center
    half = model.box_length / 2.0
    d = (d + half) % model.box_length - half
    psi = np.exp(-(d**2) / (4.0 * sigma**2)).astype(np.complex128)
    return psi / np.linalg.norm(psi)


def thermal_density(model: LatticeModel) -> MomentumDensity:
    """Normalized ``exp(-beta p^2/2m)`` diagonal; off-diagonals exactly 0."""
    p = model.momenta()
    w = np.exp(-model.beta * p**2 / (2.0 * model.mass))
    return MomentumDensity(momenta=p, diagonal=w / w.sum(), matrix=None)


def packet_mixture_density(
    model: LatticeModel, family: PacketFamily
) -> MomentumDensity:
    """Average of momentum-space projectors over the packet family.

    Each packet, freely evolved to its family time, is one row of a matrix
    ``Phi``; the average is ``Phi^T conj(Phi) / count``, whose summation
    order is BLAS's, so entries may differ from a projector-by-projector
    sum in their last bits.
    """
    p = model.momenta()
    kinetic_phase_rate = p**2 / (2.0 * model.mass * model.hbar)
    phi = np.array([model.to_momentum(gaussian_packet(model, c, family.sigma))
                    for c in family.centers])
    phases = np.exp(-1j * np.multiply.outer(family.times, kinetic_phase_rate))
    phi = (phi[:, None, :] * phases).reshape(-1, model.n_sites)
    rho = phi.T @ phi.conj() / len(phi)
    return MomentumDensity(momenta=p, diagonal=rho.diagonal().real.copy(), matrix=rho)


def matching_sigma(model: LatticeModel) -> float:
    """Width making the packet envelope equal the thermal exponent:
    ``2 sigma^2 / hbar^2 = beta / 2m``."""
    return 0.5 * model.hbar * math.sqrt(model.beta / model.mass)


def h_formula_width(model: LatticeModel) -> float:
    """The h-based order-of-magnitude width ``h sqrt(beta / 2m)``."""
    return 2.0 * math.pi * model.hbar * math.sqrt(model.beta / (2.0 * model.mass))


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


def packet_overlap(model: LatticeModel, sigma: float, c1: float, c2: float) -> float:
    """|<psi_c1|psi_c2>| for two packets of equal width."""
    a = gaussian_packet(model, c1, sigma)
    b = gaussian_packet(model, c2, sigma)
    return float(abs(np.vdot(a, b)))


@dataclass
class OverlapReport:
    """Overlaps between consecutive centers of a family."""

    separations: np.ndarray
    overlaps: np.ndarray

    def max_neighbor_overlap(self) -> float:
        return float(self.overlaps.max()) if self.overlaps.size else 0.0


def overlap_report(model: LatticeModel, family: PacketFamily) -> OverlapReport:
    """Pairwise overlaps of neighboring packets; nonzero overlaps for
    centers closer than a few widths exhibit the non-orthogonal
    decomposition."""
    if len(family.centers) < 2:
        raise ValueError("need at least two packets")
    centers = np.sort(np.asarray(family.centers))
    seps = np.diff(centers)
    overlaps = np.array(
        [
            packet_overlap(model, family.sigma, c1, c2)
            for c1, c2 in zip(centers[:-1], centers[1:])
        ]
    )
    return OverlapReport(separations=seps, overlaps=overlaps)


def proton_model(
    temperature_kelvin: float = 1.0, n_sites: int = 256
) -> LatticeModel:
    """SI-unit lattice for a proton at the given temperature, box 40 sigma*."""
    beta = 1.0 / (BOLTZMANN * temperature_kelvin)
    sigma = 0.5 * HBAR * math.sqrt(beta / PROTON_MASS)
    return LatticeModel(
        n_sites=n_sites,
        box_length=sigma / MAX_SIGMA_FRACTION,
        mass=PROTON_MASS,
        beta=beta,
        hbar=HBAR,
    )
