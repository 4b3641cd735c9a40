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

The lattice is :class:`MomentumGrid`, a periodic box and its conjugate
momentum grid; :mod:`thermal` builds on the same class.  Its
:meth:`MomentumGrid.to_momentum` is the package's one position-to-momentum
transform, with phase ``exp(-i p x / hbar)``.  The cell transforms
:meth:`CellPartition.hat` are inverse FFTs, ``sum_x g_k(x) exp(+i q x / hbar)
dx`` over the offset ``q = P' - P``, the sign of the translates above.

Kernels may be stored dense (fine up to ~1k grid points) or in separable
``left(P') * right(P)`` form, which the wide sweeps use to stay out of
quadratic memory.

The width sweep computes only what its report reads: each cell is a
difference of one periodic cumulative sum of the Gaussian, branch weights
are summed over blocks of cells, and one correlation gives the kernel's
offset weights for every width.  ``tests/reference.py`` keeps, as oracles,
the transform-based smoothing and a per-width driver that builds every
branch through :func:`branch_states`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PartitionNotUnity, ZeroNormBranch

#: partition-of-unity and reconstruction tolerance
PARTITION_TOL = 1e-12

#: cell functions must fall below this outside their padded cell
SUPPORT_TOL = 1e-12

#: bytes of branch amplitudes the sweep holds at once
_BLOCK_BYTES = 1 << 20


def _positive_finite(name: str, value: float) -> float:
    """``value`` if it lies in ``(0, inf)``, else a ValueError naming it."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class MomentumGrid:
    """Periodic box of ``n_points`` sites and its conjugate momentum grid
    ``(i - n//2) * spacing``; :mod:`thermal` uses it too."""

    n_points: int
    box_length: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_points}")
        _positive_finite("box_length", self.box_length)
        _positive_finite("hbar", self.hbar)

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi * self.hbar / self.box_length

    @property
    def dx(self) -> float:
        return self.box_length / self.n_points

    def momenta(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.spacing

    def positions(self) -> np.ndarray:
        return np.arange(self.n_points) * self.dx

    def displacements(self, center: float = 0.0) -> np.ndarray:
        """Minimum-image offsets of :meth:`positions` from ``center``."""
        half = self.box_length / 2.0
        return (self.positions() - center + half) % self.box_length - half

    def offset_momentum(self, offset) -> np.ndarray:
        """Momentum transfer for an index offset ``i - j``."""
        return np.asarray(offset) * self.spacing

    def to_momentum(self, psi_x: np.ndarray) -> np.ndarray:
        """Unitary transform ``e^{-ipx/hbar} / sqrt(n)`` onto :meth:`momenta`
        order: index ``n_points // 2`` carries zero momentum."""
        return np.fft.fftshift(np.fft.fft(psi_x)) / math.sqrt(self.n_points)


class TKernel:
    """Scattering kernel over the grid, dense or separable.

    Separable form means ``tau(P_i, P_j) = left[i] * right[j]``; it keeps
    branch construction to FFTs and is what the wide momentum sweeps use.
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

    # -- access --------------------------------------------------------------

    @property
    def is_separable(self) -> bool:
        return self._matrix is None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return np.multiply.outer(self._left, self._right)


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
        still sum to one exactly (up to roundoff).  A convolved cell of
        ``L`` sites starting at site ``s`` is a difference of two shifts of
        one periodic cumulative sum ``Q`` of the kernel,
        ``g(x) = Q(x - s + 1) - Q(x - s + 1 - L)``; cell lengths take at
        most two values, so each distinct length gets one profile and every
        row is a circular shift of it.  A cell that covers the box is
        exactly 1.
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
        # cell k holds the sites i with (i * n_cells) // n == k
        starts = -((-np.arange(n_cells + 1) * n) // n_cells)
        lengths = np.diff(starts)
        smoothing = smoothing_fraction * width
        if smoothing_fraction > 0:
            kern = np.exp(-(grid.displacements() ** 2) / (2.0 * smoothing**2))
            kern /= kern.sum()
        else:
            kern = np.zeros(n)
            kern[0] = 1.0
        # q[n + m] = Q(m), the sum of kern over [0, m), for m = -n .. n;
        # Q(m + n) = Q(m) + Q(n) continues it periodically
        q = np.concatenate([[0.0], np.cumsum(kern)])
        q = np.concatenate([q[:-1] - q[-1], q])
        distinct, which = np.unique(lengths, return_inverse=True)
        profiles = np.array([
            np.ones(n) if length == n
            else q[n + 1 :] - q[n + 1 - length : 2 * n + 1 - length]
            for length in distinct
        ])
        # row k is its profile shifted right by starts[k], read off the
        # doubled profile
        shifts = sliding_window_view(np.tile(profiles, 2), n, axis=1)
        functions = shifts[which, (n - starts[:-1]) % n]
        return cls(grid=grid, functions=functions, width=width, smoothing=smoothing)

    @property
    def n_cells(self) -> int:
        return self.functions.shape[0]

    def validate(self) -> None:
        """Partition-of-unity and padded-support checks.

        A smoothed indicator cannot vanish exactly at its cell edge, so the
        support requirement is enforced on the cell padded by eight
        smoothing lengths, beyond which the Gaussian tail is < 1e-12.  The
        occupied arc of a cell on the periodic grid is the box minus its
        largest gap between supported sites, the wrap-around gap included.
        """
        total = self.functions.sum(axis=0)
        dev = float(np.max(np.abs(total - 1.0)))
        if not dev <= PARTITION_TOL:
            raise PartitionNotUnity(
                f"cell functions sum to 1 only within {dev:.3e} (> {PARTITION_TOL:g})"
            )
        n = self.grid.n_points
        pad = int(math.ceil(8.0 * self.smoothing / self.grid.dx)) + 1
        cell_sites = n // self.n_cells + 1
        cells, sites = np.nonzero(self.functions >= SUPPORT_TOL)
        if sites.size == 0:
            return
        first = np.flatnonzero(np.concatenate([[True], cells[1:] != cells[:-1]]))
        last = np.append(first[1:], sites.size) - 1
        gaps = np.empty_like(sites)
        gaps[:-1] = np.diff(sites)
        gaps[last] = sites[first] + n - sites[last]
        arcs = n - np.maximum.reduceat(gaps, first) + 1
        bad = np.flatnonzero(arcs > cell_sites + 2 * pad)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"cell {cells[first[k]]} spreads over {arcs[k]} sites; allowed "
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


def _probabilities_and_defect(
    norms2: np.ndarray, out2: float
) -> tuple[np.ndarray, float]:
    """Branch probabilities and the coherence defect, from the squared
    norms of the branches and of their sum."""
    total = float(norms2.sum())
    if total <= 0.0:
        raise ZeroNormBranch("every branch has zero weight")
    return norms2 / total, abs(out2 - total)


def _branch_norms(
    kernel: TKernel, cells: CellPartition, psi
) -> tuple[np.ndarray, float]:
    """Squared norms of every branch of a separable kernel, and of their sum.

    The cells are walked in blocks of at most :data:`_BLOCK_BYTES` of
    branch amplitudes, so no branch outlives its block.  Because the cells
    sum to one, the summed branch is the whole operator applied and takes
    one more transform.
    """
    n = kernel.grid.n_points
    inner = np.fft.fft(kernel._right * psi)
    weight = np.abs(kernel._left) ** 2 * (kernel.grid.dx * n) ** 2
    rows = max(1, _BLOCK_BYTES // (16 * n))
    norms2 = np.concatenate([
        np.abs(np.fft.ifft(cells.functions[k : k + rows] * inner, axis=1)) ** 2 @ weight
        for k in range(0, cells.n_cells, rows)
    ])
    out = np.fft.ifft(cells.functions.sum(axis=0) * inner)
    return norms2, float(np.abs(out) ** 2 @ weight)


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
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"incoming state has norm {nrm!r}; normalize it first")
    cells.validate()
    vectors = _branch_vectors(kernel, cells, psi_in, slice(None))
    branches = [BranchState(k, vec, kernel, cells) for k, vec in enumerate(vectors)]
    psi_out = vectors.sum(axis=0)
    probabilities, defect = _probabilities_and_defect(
        np.array([b.squared_norm() for b in branches]),
        float(np.vdot(psi_out, psi_out).real),
    )
    return BranchDecomposition(
        branches=branches,
        probabilities=probabilities,
        coherence_defect=defect,
        psi_out=psi_out,
    )


def _offset_weights(kernel: TKernel, psi_in) -> np.ndarray:
    """Kernel weight ``sum_j |tau[j+m, j]|^2 |psi_j|^2`` of each index offset
    ``m = -(n-1) .. n-1``: one correlation (separable kernel) or one
    bincount over the offset matrix (dense)."""
    n = kernel.grid.n_points
    psi2 = np.abs(np.asarray(psi_in)) ** 2
    if kernel.is_separable:
        left2, right2 = np.abs(kernel._left) ** 2, np.abs(kernel._right) ** 2
        return np.correlate(left2, right2 * psi2, "full")
    tau2 = np.abs(kernel.matrix) ** 2 * psi2
    return np.bincount((_offset_index_matrix(n) + n - 1).ravel(), tau2.ravel())


def _spread(
    grid: MomentumGrid, gk_hat: np.ndarray, by_offset: np.ndarray, norm2: float, k: int
) -> float:
    """Standard deviation of the transfer ``q`` under the offset weights
    ``|ghat_k|^2 * by_offset``; ``norm2`` is branch k's squared norm."""
    n = grid.n_points
    offsets = np.arange(-(n - 1), n)
    w = np.abs(gk_hat[offsets % n]) ** 2 * by_offset
    q = grid.offset_momentum(offsets)
    w_total = float(w.sum())
    if w_total <= 0.0 or norm2 <= 0.0:
        raise ZeroNormBranch(f"branch {k} carries no weight")
    mean = float(np.dot(w, q)) / w_total
    var = max(float(np.dot(w, q * q)) / w_total - mean * mean, 0.0)
    return math.sqrt(var)


def momentum_balance_spread(branch: BranchState, psi_in: np.ndarray) -> float:
    """Standard deviation of ``P_out - P_in`` for one branch.

    The joint weight of a momentum pair is
    ``|tau(P',P) ghat_k(P'-P) psi(P)|^2``; the spread is taken over the
    transfer ``q = P' - P``.  Inputs should be concentrated away from the
    grid edges, since offsets are aliased by the lattice period.
    """
    return _spread(
        branch.kernel.grid,
        branch.gk_hat,
        _offset_weights(branch.kernel, psi_in),
        branch.squared_norm(),
        branch.cell_index,
    )


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


def _sweep_point(
    kernel: TKernel, psi, by_offset: np.ndarray, n_cells: int, smoothing_fraction: float
) -> SweepPoint:
    """One width of the sweep: the spread of branch ``n_cells // 2`` and the
    coherence defect, without keeping any branch."""
    grid = kernel.grid
    cells = CellPartition.smoothed_indicators(grid, n_cells, smoothing_fraction)
    cells.validate()
    norms2, out2 = _branch_norms(kernel, cells, psi)
    _, defect = _probabilities_and_defect(norms2, out2)
    k = n_cells // 2
    spread = _spread(grid, cells.hat(k), by_offset, norms2[k], k)
    return SweepPoint(
        cell_width=cells.width,
        delta_p=spread,
        product_over_h=spread * cells.width / (2.0 * math.pi * grid.hbar),
        coherence_defect=defect,
    )


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
    _positive_finite("tau scale", tau_scale)
    if len(set(cell_counts)) < 2:
        raise ValueError("a slope needs at least two distinct cell counts")
    if n_points < 16:
        raise ValueError(f"need at least 16 grid sites, got {n_points}")
    grid = MomentumGrid(n_points, box_length)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            p = grid.momenta()
            pmax = float(np.max(np.abs(p)))
            f = np.exp(-(p**2) / (2.0 * (tau_scale * pmax) ** 2))
            kernel = TKernel.separable(grid, f)
            psi = default_sweep_state(grid)
            by_offset = _offset_weights(kernel, psi)
            points = [
                _sweep_point(kernel, psi, by_offset, n_cells, smoothing_fraction)
                for n_cells in cell_counts
            ]
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"sweep parameters leave the float range: {exc}") from None
    bad = [pt.cell_width for pt in points if not 0.0 < pt.delta_p < math.inf]
    if bad:
        raise ValueError(f"no positive momentum-balance spread at cell widths {bad}")
    widths = np.log(np.array([pt.cell_width for pt in points]))
    spreads = np.log(np.array([pt.delta_p for pt in points]))
    slope = float(np.polyfit(widths, spreads, 1)[0])
    return SweepResult(points=points, slope=slope)
