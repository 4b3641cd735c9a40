"""Quasilocal scattering operators, cell division, and momentum balance.

Everything lives on the total-momentum variable of the collision: a
scattering kernel ``tau(P', P)`` on a discrete momentum grid, its
space translates ``tau * exp(i (P'-P) x / hbar)``, and the box integral
of those translates, which restores exact momentum conservation.  A
partition of unity ``sum_k g_k(x) = 1`` on the conjugate spatial box
splits the integrated operator into cell operators whose kernels are
``tau(P', P) * ghat_k(P'-P)``; the transform width of ``ghat_k`` is what
limits the momentum balance of a branch confined to a cell of width
``a`` to a spread of order ``h / a``.

Kernels may be stored dense (fine up to ~1k grid points) or in separable
``left(P') * right(P)`` form, which the wide sweeps use to stay out of
quadratic memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PartitionNotUnity, ZeroNormBranch

#: partition-of-unity and reconstruction tolerance
PARTITION_TOL = 1e-12

#: cell functions must fall below this outside their padded cell
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid ``(n - n//2) * spacing`` with conjugate box."""

    n_points: int
    spacing: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError("need at least 16 grid points")
        if not all(math.isfinite(v) and v > 0 for v in (self.spacing, self.hbar)):
            raise ValueError("spacing and hbar must be positive and finite")

    @classmethod
    def of_box(cls, n_points: int, box_length: float, hbar: float = 1.0) -> "MomentumGrid":
        if not (math.isfinite(box_length) and box_length > 0):
            raise ValueError(f"box length must be positive and finite, got {box_length}")
        return cls(n_points, 2.0 * math.pi * hbar / box_length, hbar)

    @property
    def box_length(self) -> float:
        return 2.0 * math.pi * self.hbar / self.spacing

    @property
    def dx(self) -> float:
        return self.box_length / self.n_points

    def momenta(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.spacing

    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    def offset_momentum(self, offset) -> np.ndarray:
        """Momentum transfer for an index offset ``i - j``."""
        return np.asarray(offset) * self.spacing


class TKernel:
    """Scattering kernel over the grid, dense or separable.

    Separable form means ``tau(P_i, P_j) = left[i] * right[j]``; it keeps
    translation O(n) and is what the wide momentum sweeps use.
    """

    def __init__(self, grid: MomentumGrid, *, matrix=None, left=None, right=None):
        if (matrix is None) == (left is None):
            raise ValueError("provide exactly one of matrix or left/right")
        self.grid = grid
        n = grid.n_points
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=np.complex128)
            if matrix.shape != (n, n):
                raise ValueError(f"kernel shape {matrix.shape}, grid has {n} points")
            self._matrix = matrix
            self._left = self._right = None
        else:
            left = np.asarray(left, dtype=np.complex128)
            right = left if right is None else np.asarray(right, dtype=np.complex128)
            if left.shape != (n,) or right.shape != (n,):
                raise ValueError("separable factors must match the grid size")
            self._left, self._right = left, right
            self._matrix = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_matrix(cls, grid, matrix) -> "TKernel":
        return cls(grid, matrix=matrix)

    @classmethod
    def separable(cls, grid, left, right=None) -> "TKernel":
        return cls(grid, left=left, right=right)

    @classmethod
    def constant(cls, grid, value: complex = 1.0) -> "TKernel":
        ones = np.full(grid.n_points, np.sqrt(complex(value)), dtype=np.complex128)
        return cls(grid, left=ones, right=ones)

    # -- access --------------------------------------------------------------

    @property
    def is_separable(self) -> bool:
        return self._matrix is None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return np.multiply.outer(self._left, self._right)


def translate_kernel(kernel: TKernel, x: float) -> TKernel:
    """Conjugate by the spatial translation: phases ``exp(i (P'-P) x / hbar)``."""
    p = kernel.grid.momenta()
    phase = np.exp(1j * p * x / kernel.grid.hbar)
    if kernel.is_separable:
        return TKernel.separable(
            kernel.grid, kernel._left * phase, kernel._right * np.conj(phase)
        )
    return TKernel.from_matrix(
        kernel.grid, kernel.matrix * np.multiply.outer(phase, np.conj(phase))
    )


def _offset_index_matrix(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.subtract.outer(idx, idx)


def integrate_over_box(kernel: TKernel) -> TKernel:
    """Sum of grid translates times dx; restores momentum conservation.

    The phase sums are evaluated explicitly; for a full box they vanish on
    every off-diagonal offset and equal the box length on the diagonal.
    Result is dense, so keep the grid moderate.
    """
    grid = kernel.grid
    n = grid.n_points
    sites = np.arange(n)
    offsets = np.arange(-(n - 1), n)
    phase_sum = grid.dx * np.exp(
        2j * np.pi * np.multiply.outer(offsets, sites) / n
    ).sum(axis=1)
    out = kernel.matrix * phase_sum[_offset_index_matrix(n) + (n - 1)]
    return TKernel.from_matrix(grid, out)


@dataclass
class CellPartition:
    """Partition of unity over the spatial box, one function per cell."""

    grid: MomentumGrid
    functions: np.ndarray  # (n_cells, n_points)
    width: float
    smoothing: float

    @classmethod
    def smoothed_indicators(
        cls, grid: MomentumGrid, n_cells: int, smoothing_fraction: float = 0.15
    ) -> "CellPartition":
        """Equal cells, Gaussian-convolved so the transforms decay fast.

        The convolution kernel is normalized on the grid, so the functions
        still sum to one exactly (up to roundoff).
        """
        if n_cells < 1:
            raise ValueError("need at least one cell")
        if not 0 <= smoothing_fraction < math.inf:
            raise ValueError(
                f"smoothing fraction must be finite and >= 0, got {smoothing_fraction}"
            )
        n = grid.n_points
        if n_cells > n:
            raise ValueError("more cells than grid sites")
        width = grid.box_length / n_cells
        assignment = (np.arange(n) * n_cells) // n
        indicators = np.zeros((n_cells, n))
        indicators[assignment, np.arange(n)] = 1.0
        smoothing = smoothing_fraction * width
        if smoothing_fraction > 0:
            x = grid.positions()
            half = grid.box_length / 2.0
            d = (x + half) % grid.box_length - half
            kern = np.exp(-(d**2) / (2.0 * smoothing**2))
            kern /= kern.sum()
            kern_hat = np.fft.fft(kern)
            functions = np.real(
                np.fft.ifft(np.fft.fft(indicators, axis=1) * kern_hat, axis=1)
            )
        else:
            functions = indicators
        return cls(grid=grid, functions=functions, width=width, smoothing=smoothing)

    @property
    def n_cells(self) -> int:
        return self.functions.shape[0]

    def validate(self) -> None:
        """Partition-of-unity and padded-support checks.

        A smoothed indicator cannot vanish exactly at its cell edge, so the
        support requirement is enforced on the cell padded by eight
        smoothing lengths, beyond which the Gaussian tail is < 1e-12.
        """
        total = self.functions.sum(axis=0)
        dev = float(np.max(np.abs(total - 1.0)))
        if dev > PARTITION_TOL:
            raise PartitionNotUnity(
                f"cell functions sum to 1 only within {dev:.3e} (> {PARTITION_TOL:g})"
            )
        n = self.grid.n_points
        pad = int(math.ceil(8.0 * self.smoothing / self.grid.dx)) + 1
        cell_sites = n // self.n_cells + 1
        for k in range(self.n_cells):
            inside = self.functions[k] >= SUPPORT_TOL
            sites = np.flatnonzero(inside)
            if sites.size == 0:
                continue
            # measure the occupied arc length on the periodic grid
            gaps = np.diff(np.concatenate([sites, [sites[0] + n]]))
            arc = n - int(gaps.max()) + 1
            if arc > cell_sites + 2 * pad:
                raise ValueError(
                    f"cell {k} spreads over {arc} sites; allowed "
                    f"{cell_sites} + 2*{pad} padding"
                )

    def hat(self, k: int) -> np.ndarray:
        """Transform of cell function k, indexed by offset mod n.

        ``hat(k)[m % n]`` multiplies the kernel entry at index offset
        ``m = i - j``; offsets that differ by the grid period are
        indistinguishable on the lattice.
        """
        n = self.grid.n_points
        return self.grid.dx * n * np.fft.ifft(self.functions[k])

    def hat_abs2_by_offset(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(momentum transfer, |ghat|^2) over the aliased offset range."""
        n = self.grid.n_points
        hat = self.hat(k)
        m = np.arange(n)
        q_index = np.where(m <= n // 2, m, m - n)
        order = np.argsort(q_index)
        return self.grid.offset_momentum(q_index[order]), np.abs(hat[order]) ** 2

    def translated(self, sites: int) -> "CellPartition":
        """Partition moved by an integer number of grid sites."""
        return CellPartition(
            grid=self.grid,
            functions=np.roll(self.functions, sites, axis=1),
            width=self.width,
            smoothing=self.smoothing,
        )


def translate_state(grid: MomentumGrid, psi: np.ndarray, sites: int) -> np.ndarray:
    """Momentum-space form of moving a state by ``sites`` grid steps.

    Paired with :meth:`CellPartition.translated`, branch construction is
    exactly covariant under this operation for any kernel.
    """
    n = grid.n_points
    return psi * np.exp(2j * np.pi * np.arange(n) * sites / n)


def position_to_momentum(grid: MomentumGrid, psi_x: np.ndarray) -> np.ndarray:
    """Unitary map onto the :meth:`MomentumGrid.momenta` index order.

    Index ``n_points // 2`` of the result carries zero momentum, matching
    kernels and envelopes built as functions of ``momenta()``.
    """
    return math.sqrt(grid.n_points) * np.fft.fftshift(np.fft.ifft(psi_x))


def momentum_to_position(grid: MomentumGrid, psi_p: np.ndarray) -> np.ndarray:
    """Inverse of :func:`position_to_momentum`."""
    return np.fft.fft(np.fft.ifftshift(psi_p)) / math.sqrt(grid.n_points)


def _cell_kernel(kernel: TKernel, cells: CellPartition, k: int) -> np.ndarray:
    """Dense cell operator ``tau(P',P) * ghat_k(P'-P)``."""
    n = kernel.grid.n_points
    return kernel.matrix * cells.hat(k)[_offset_index_matrix(n) % n]


def cell_decompose(kernel: TKernel, cells: CellPartition) -> list[TKernel]:
    """Cell operators ``tau(P',P) * ghat_k(P'-P)``; they sum back to the
    box-integrated operator because the cell functions sum to one."""
    cells.validate()
    return [TKernel.from_matrix(kernel.grid, _cell_kernel(kernel, cells, k))
            for k in range(cells.n_cells)]


@dataclass
class BranchState:
    """Outgoing state confined to one cell, plus its generating data."""

    cell_index: int
    vector: np.ndarray
    kernel: TKernel
    cells: CellPartition

    @property
    def gk_hat(self) -> np.ndarray:
        return self.cells.hat(self.cell_index)

    def squared_norm(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)


@dataclass
class BranchDecomposition:
    branches: list[BranchState]
    probabilities: np.ndarray
    coherence_defect: float
    psi_out: np.ndarray


def _branch_vectors(kernel: TKernel, cells: CellPartition, psi, rows: slice):
    """Branch vectors of the cells in ``rows``, one per row; a separable
    kernel needs one forward and one batched inverse transform."""
    n = kernel.grid.n_points
    if kernel.is_separable:
        inner = np.fft.fft(kernel._right * psi)
        return kernel._left * (
            kernel.grid.dx * n * np.fft.ifft(cells.functions[rows] * inner, axis=1)
        )
    return np.array([_cell_kernel(kernel, cells, k) @ psi
                     for k in range(cells.n_cells)[rows]])


def single_branch(
    kernel: TKernel, cells: CellPartition, k: int, psi_in: np.ndarray
) -> BranchState:
    """Branch state of one cell without building the others."""
    (vec,) = _branch_vectors(kernel, cells, psi_in, slice(k, k + 1))
    return BranchState(k, vec, kernel, cells)


def branch_states(
    kernel: TKernel, cells: CellPartition, psi_in: np.ndarray
) -> BranchDecomposition:
    """All cell branches of an incoming unit state.

    Branch probabilities are the squared norms, normalized; the coherence
    defect ``| ||sum Psi_k||^2 - sum ||Psi_k||^2 |`` measures how much the
    incoherent reading discards.
    """
    psi_in = np.asarray(psi_in, dtype=np.complex128)
    nrm = float(np.linalg.norm(psi_in))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"incoming state has norm {nrm!r}; normalize it first")
    cells.validate()
    vectors = _branch_vectors(kernel, cells, psi_in, slice(None))
    branches = [BranchState(k, vec, kernel, cells) for k, vec in enumerate(vectors)]
    norms2 = np.array([b.squared_norm() for b in branches])
    total = float(norms2.sum())
    if total <= 0.0:
        raise ZeroNormBranch("every branch has zero weight")
    psi_out = vectors.sum(axis=0)
    defect = abs(float(np.vdot(psi_out, psi_out).real) - total)
    return BranchDecomposition(
        branches=branches,
        probabilities=norms2 / total,
        coherence_defect=defect,
        psi_out=psi_out,
    )


def momentum_balance_spread(branch: BranchState, psi_in: np.ndarray) -> float:
    """Standard deviation of ``P_out - P_in`` for one branch.

    The joint weight of a momentum pair is
    ``|tau(P',P) ghat_k(P'-P) psi(P)|^2``; the spread is taken over the
    transfer ``q = P' - P``.  Inputs should be concentrated away from the
    grid edges, since offsets are aliased by the lattice period.
    The kernel weight of each index offset ``i - j`` is one correlation
    (separable kernel) or one bincount over the offset matrix (dense).
    """
    kernel = branch.kernel
    n = kernel.grid.n_points
    psi2 = np.abs(np.asarray(psi_in)) ** 2
    offsets = np.arange(-(n - 1), n)
    if kernel.is_separable:
        left2, right2 = np.abs(kernel._left) ** 2, np.abs(kernel._right) ** 2
        by_offset = np.correlate(left2, right2 * psi2, "full")
    else:
        tau2 = np.abs(kernel.matrix) ** 2 * psi2
        by_offset = np.bincount((_offset_index_matrix(n) + n - 1).ravel(), tau2.ravel())
    w = np.abs(branch.gk_hat[offsets % n]) ** 2 * by_offset
    q = kernel.grid.offset_momentum(offsets)
    w_total = float(w.sum())
    if w_total <= 0.0 or branch.squared_norm() <= 0.0:
        raise ZeroNormBranch(f"branch {branch.cell_index} carries no weight")
    mean = float(np.dot(w, q)) / w_total
    var = max(float(np.dot(w, q * q)) / w_total - mean * mean, 0.0)
    return math.sqrt(var)


@dataclass(frozen=True)
class SweepPoint:
    cell_width: float
    delta_p: float
    product_over_h: float
    coherence_defect: float


@dataclass
class SweepResult:
    points: list[SweepPoint]
    slope: float

    def widths(self) -> np.ndarray:
        return np.array([pt.cell_width for pt in self.points])


#: cell counts covering two decades of width on the default sweep grid
DEFAULT_SWEEP_CELLS = (6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 600)


def default_sweep_state(grid: MomentumGrid) -> np.ndarray:
    """Broad unit packet centered at zero momentum, width p_max / 8."""
    p = grid.momenta()
    pmax = float(np.max(np.abs(p)))
    psi = np.exp(-(p**2) / (2.0 * (pmax / 8.0) ** 2)).astype(np.complex128)
    return psi / np.linalg.norm(psi)


def width_sweep(
    cell_counts: Sequence[int] = DEFAULT_SWEEP_CELLS,
    n_points: int = 4096,
    smoothing_fraction: float = 0.15,
    tau_scale: float = 2.0,
    box_length: float = 1.0,
) -> SweepResult:
    """Spread of the momentum balance versus cell width, with ``hbar = 1``.

    One grid serves the whole sweep, so each width sits in a genuinely
    different resolution regime; the kernel is a smooth separable envelope
    ``exp(-P^2 / 2 (tau_scale p_max)^2)`` on each side.  Inputs that leave
    the float range or give some width no positive spread raise ValueError.
    """
    if not tau_scale > 0:
        raise ValueError(f"tau scale must be positive, got {tau_scale}")
    if len(set(cell_counts)) < 2:
        raise ValueError("a slope needs at least two distinct cell counts")
    grid = MomentumGrid.of_box(n_points, box_length)
    h = 2.0 * math.pi * grid.hbar
    points = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            p = grid.momenta()
            pmax = float(np.max(np.abs(p)))
            f = np.exp(-(p**2) / (2.0 * (tau_scale * pmax) ** 2))
            kernel = TKernel.separable(grid, f)
            psi = default_sweep_state(grid)
            for n_cells in cell_counts:
                cells = CellPartition.smoothed_indicators(
                    grid, n_cells, smoothing_fraction
                )
                decomp = branch_states(kernel, cells, psi)
                spread = momentum_balance_spread(decomp.branches[n_cells // 2], psi)
                points.append(
                    SweepPoint(
                        cell_width=cells.width,
                        delta_p=spread,
                        product_over_h=spread * cells.width / h,
                        coherence_defect=decomp.coherence_defect,
                    )
                )
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"sweep parameters leave the float range: {exc}") from None
    bad = [pt.cell_width for pt in points if not 0.0 < pt.delta_p < math.inf]
    if bad:
        raise ValueError(f"no positive momentum-balance spread at cell widths {bad}")
    widths = np.log(np.array([pt.cell_width for pt in points]))
    spreads = np.log(np.array([pt.delta_p for pt in points]))
    slope = float(np.polyfit(widths, spreads, 1)[0])
    return SweepResult(points=points, slope=slope)
