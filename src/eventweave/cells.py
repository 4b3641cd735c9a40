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
``left(P') * right(P)`` form.  :func:`cell_decompose` takes either and
yields the cell operators one at a time; :func:`branch_weights` and the
width sweep take the separable form, which keeps them out of quadratic
memory.

A :class:`CellPartition` holds its cells as circular shifts of profiles:
equal cells need one profile per cell length (a difference of one
periodic cumulative sum of the Gaussian), so one or two, and any other
cell functions are a profile per cell with no shift.  Only
:meth:`CellPartition.rows` builds the (cells × n) matrix, and only
:meth:`CellPartition.windowed` calls it, for cells that are not exactly 0
outside their windows.  The values over each cell's own window, which
:meth:`CellPartition.validate` gathers, serve three things: each branch
weight, by a short transform over the window (one batched FFT per width);
the sum of the cells, added window by window with the bits of the row
sum, for the partition-of-unity check and the summed branch; and the
support check, once per profile.  One private step turns a partition into
branch weights and the coherence defect, for :func:`branch_weights` and
for each width of the sweep.  One correlation gives the kernel's offset
weights for every width, and the spread of the momentum balance is
computed only there, for one branch per width.  ``tests/reference.py``
keeps, as oracles, the transform-based smoothing, the per-cell branch
vectors and weights, and a per-width sweep built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PartitionNotUnity, ZeroNormBranch

#: partition-of-unity and reconstruction tolerance
PARTITION_TOL = 1e-12

#: cell functions must fall below this outside their padded cell
SUPPORT_TOL = 1e-12

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
    branch weights to FFTs and is what the wide momentum sweeps use.
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


def _cell_starts(n: int, n_cells: int) -> np.ndarray:
    """First site of each of ``n_cells`` equal cells on ``n`` sites, then
    ``n``: cell k holds the sites i with ``(i * n_cells) // n == k``."""
    return -((-np.arange(n_cells + 1) * n) // n_cells)


def _support_arcs(functions: np.ndarray) -> np.ndarray:
    """Occupied arc of each row on the periodic grid, in sites: the box
    minus the row's largest gap between sites at or above ``SUPPORT_TOL``,
    the wrap-around gap included, plus one; 0 for a row with no such site."""
    n = functions.shape[1]
    arcs = np.zeros(functions.shape[0], dtype=np.intp)
    rows, sites = np.nonzero(functions >= SUPPORT_TOL)
    if sites.size:
        first = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
        last = np.append(first[1:], sites.size) - 1
        gaps = np.empty_like(sites)
        gaps[:-1] = np.diff(sites)
        gaps[last] = sites[first] + n - sites[last]
        arcs[rows[first]] = n - np.maximum.reduceat(gaps, first) + 1
    return arcs


@dataclass
class CellPartition:
    """Partition of unity over the spatial box: cell k is
    ``profiles[which[k]]`` shifted right by ``starts[k]`` sites.

    Equal cells take at most two lengths, so :meth:`smoothed_indicators`
    holds one or two n-point profiles, not a row per cell.  Any other cell
    functions are ``starts`` all 0 (then ``n``) with one profile per cell.
    """

    grid: MomentumGrid
    starts: np.ndarray  # first site of each cell, then n_points
    profiles: np.ndarray  # (distinct profiles, n_points)
    which: np.ndarray  # profile of each cell
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
        one periodic cumulative sum ``Q`` of the kernel, ``g(x) = Q(x - s +
        1) - Q(x - s + 1 - L)``, so each distinct length gets one profile,
        that of a cell starting at site 0.  A cell that covers the box is
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
        starts = _cell_starts(n, n_cells)
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
        return cls(grid, starts, profiles, which, width, smoothing)

    @property
    def n_cells(self) -> int:
        return self.which.size

    def rows(self) -> np.ndarray:
        """Every cell function, one row per cell: the one place a
        (cells × n) matrix is built."""
        n = self.grid.n_points
        # row k is its profile shifted right by starts[k], read off the
        # doubled profile
        shifts = sliding_window_view(np.tile(self.profiles, 2), n, axis=1)
        return shifts[self.which, (n - self.starts[:-1]) % n]

    def windowed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each cell's window of sites, the cell's values there, and the sum
        of every cell.

        A window is the cell and ``pad`` sites past either edge, beyond
        which a smoothed cell is below 1e-23, or the whole box from the
        cell's first site when that would exceed it.  In profile
        coordinates every window is the same, so the values are gathered
        once per profile.  The sum adds the windows in cell order, which
        gives the bits of ``rows().sum(axis=0)`` whenever every profile is
        exactly 0 outside its window; otherwise it is that sum.
        """
        n = self.grid.n_points
        pad = int(math.ceil(10.0 * self.smoothing / self.grid.dx)) + 1
        size = int(np.diff(self.starts).max()) + 2 * pad
        if size >= n:
            size, pad = n, 0
        window = (np.arange(size) - pad) % n
        sites = (self.starts[:-1, None] + window) % n
        values = self.profiles[:, window][self.which]
        outside = np.ones(n, dtype=bool)
        outside[window] = False
        if np.any(self.profiles[:, outside]):
            total = self.rows().sum(axis=0)
        else:
            total = np.bincount(sites.ravel(), values.ravel(), minlength=n)
        return sites, values, total

    def validate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Refuse cells whose sum is not one, or the first cell whose
        occupied arc exceeds its padded cell; return the :meth:`windowed`
        sites, values and sum it checked.

        A cell's occupied arc is its profile's, since circular shifts keep
        it.  A smoothed indicator cannot vanish exactly at its cell edge, so
        the support requirement is enforced on the cell padded by eight
        smoothing lengths, beyond which the Gaussian tail is < 1e-12.
        """
        sites, values, total = self.windowed()
        dev = float(np.max(np.abs(total - 1.0)))
        if not dev <= PARTITION_TOL:
            raise PartitionNotUnity(
                f"cell functions sum to 1 only within {dev:.3e} (> {PARTITION_TOL:g})"
            )
        n = self.grid.n_points
        pad = int(math.ceil(8.0 * self.smoothing / self.grid.dx)) + 1
        cell_sites = n // self.n_cells + 1
        arcs = _support_arcs(self.profiles)[self.which]
        bad = np.flatnonzero(arcs > cell_sites + 2 * pad)
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"cell {k} spreads over {arcs[k]} sites; allowed "
                f"{cell_sites} + 2*{pad} padding"
            )
        return sites, values, total

    def hat(self, k: int) -> np.ndarray:
        """Transform of cell function k, indexed by offset mod n.

        ``hat(k)[m % n]`` multiplies the kernel entry at index offset
        ``m = i - j``; offsets that differ by the grid period are
        indistinguishable on the lattice.
        """
        n = self.grid.n_points
        cell = np.roll(self.profiles[self.which[k]], self.starts[k])
        return self.grid.dx * n * np.fft.ifft(cell)


def _refuse_off_grid(kernel: TKernel, cells: CellPartition) -> None:
    """Refuse a partition off the kernel's grid."""
    if cells.grid != kernel.grid:
        raise ValueError(f"partition grid {cells.grid} is not the kernel's {kernel.grid}")


def cell_decompose(kernel: TKernel, cells: CellPartition) -> Iterator[TKernel]:
    """Cell operators ``tau(P',P) * ghat_k(P'-P)``, built one at a time in cell
    order; they sum back to the box-integrated operator because the cell
    functions sum to one.  Branch k of a state ``psi`` is the k-th operator's
    ``.matrix @ psi``.  A partition off the kernel's grid or one that fails
    :meth:`CellPartition.validate` is refused at the call."""
    _refuse_off_grid(kernel, cells)
    cells.validate()
    n = kernel.grid.n_points
    tau, offsets = kernel.matrix, _offset_index_matrix(n) % n
    return (TKernel.from_matrix(kernel.grid, tau * cells.hat(k)[offsets])
            for k in range(cells.n_cells))


def _fft_length(m: int) -> int:
    """Smallest ``2^a 3^b 5^c`` of at least ``m``, a size the FFT takes fast."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((m - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _norm_terms(kernel: TKernel, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Width-free terms of a separable kernel's branch norms:
    ``inner = fft(right * psi)``, ``w = |left|^2 (dx n)^2`` and
    ``W = ifft(w) / n``."""
    n = kernel.grid.n_points
    inner = np.fft.fft(kernel._right * psi)
    weight = np.abs(kernel._left) ** 2 * (kernel.grid.dx * n) ** 2
    return inner, weight, np.fft.ifft(weight) / n


def _windowed_norms(
    sites: np.ndarray, values: np.ndarray, total: np.ndarray, terms: tuple
) -> tuple[np.ndarray, float]:
    """Squared norms of every branch of a separable kernel, from each
    branch's own cell window, and of their sum.

    Branch k's squared norm is ``sum_P w(P) |ifft(h_k)(P)|^2`` with
    ``h_k = g_k * inner``; ``terms`` is :func:`_norm_terms`, and ``sites``,
    ``values`` and ``total`` are :meth:`CellPartition.windowed`.  Expanding
    the square gives ``sum_{t,t'} h_k(t) conj(h_k(t')) W(t - t')``, ``W``
    indexed mod n.  Beyond the window, ``pad`` sites past either edge of
    cell k, ``g_k`` is below 1e-23, so the double sum runs over the
    window's ``L`` sites and only offsets ``|m| < L`` enter.  With ``F_k`` the length-``M`` FFT of
    ``h_k`` over the window, ``M >= 2L - 1``, the sum is
    ``sum_j |F_k(j)|^2 V(j)`` where ``V = Re ifft(W_M)`` and ``W_M`` is
    ``W`` on the offsets ``|m| < L``, folded onto ``M`` points.  A window
    that is the whole box gives the circular sum exactly.  One batched FFT
    covers every cell.  The summed branch is the window's sum of the cells
    applied, one n-point transform.
    """
    inner, weight, weight_hat = terms
    n = inner.size
    size = sites.shape[1]
    length = _fft_length(2 * size - 1)
    h = values * inner[sites]
    offsets = np.arange(1 - size, size)
    folded = np.zeros(length, dtype=np.complex128)
    folded[offsets % length] = weight_hat[offsets % n]
    v = np.fft.ifft(folded).real
    norms2 = (np.abs(np.fft.fft(h, length, axis=1)) ** 2 * v).sum(axis=1)
    out = np.fft.ifft(total * inner)
    return norms2, float((np.abs(out) ** 2 * weight).sum())


def _weights(cells: CellPartition, terms: tuple) -> tuple[np.ndarray, float]:
    """Squared norm of every branch of a separable kernel and the coherence
    defect: :meth:`CellPartition.validate`, then :func:`_windowed_norms`
    over the windows it checked; ``terms`` is :func:`_norm_terms`."""
    norms2, out2 = _windowed_norms(*cells.validate(), terms)
    total = float(norms2.sum())
    if total <= 0.0:
        raise ZeroNormBranch("every branch has zero weight")
    return norms2, abs(out2 - total)


def branch_weights(
    kernel: TKernel, cells: CellPartition, psi_in: np.ndarray
) -> tuple[np.ndarray, float]:
    """Squared norm of every cell branch of an incoming unit state, and the
    coherence defect ``| ||sum Psi_k||^2 - sum ||Psi_k||^2 |``, which
    measures how much the incoherent reading discards.

    These are the weights :func:`width_sweep` reads, so the kernel must be
    separable; :func:`cell_decompose` applies a dense one.
    """
    if not kernel.is_separable:
        raise ValueError("branch weights need a separable kernel; apply a dense one "
                         "through cell_decompose")
    psi_in = np.asarray(psi_in, dtype=np.complex128)
    n = kernel.grid.n_points
    if psi_in.shape != (n,):
        raise ValueError(f"incoming state has shape {psi_in.shape}; the kernel's grid "
                         f"has {n} sites")
    nrm = float(np.linalg.norm(psi_in))
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"incoming state has norm {nrm!r}; normalize it first")
    _refuse_off_grid(kernel, cells)
    return _weights(cells, _norm_terms(kernel, psi_in))


def _offset_weights(kernel: TKernel, psi_in) -> np.ndarray:
    """Separable kernel's weight ``sum_j |tau[j+m, j]|^2 |psi_j|^2`` of each
    index offset ``m = -(n-1) .. n-1``, as one correlation."""
    psi2 = np.abs(np.asarray(psi_in)) ** 2
    left2, right2 = np.abs(kernel._left) ** 2, np.abs(kernel._right) ** 2
    return np.correlate(left2, right2 * psi2, "full")


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
    mean = float((w * q).sum()) / w_total
    var = max(float((w * q * q).sum()) / w_total - mean * mean, 0.0)
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
    return psi / math.sqrt(float((np.abs(psi) ** 2).sum()))


def _sweep_point(
    grid: MomentumGrid, terms: tuple, by_offset: np.ndarray, n_cells: int,
    smoothing_fraction: float,
) -> SweepPoint:
    """One width of the sweep: the spread of branch ``n_cells // 2`` and the
    coherence defect, without keeping any branch or any cell's whole row."""
    cells = CellPartition.smoothed_indicators(grid, n_cells, smoothing_fraction)
    norms2, defect = _weights(cells, terms)
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
            terms = _norm_terms(kernel, psi)
            points = [
                _sweep_point(grid, terms, by_offset, n_cells, smoothing_fraction)
                for n_cells in cell_counts
            ]
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"sweep parameters leave the float range: {exc}") from None
    bad = [pt.cell_width for pt in points if not 0.0 < pt.delta_p < math.inf]
    if bad:
        raise ValueError(f"no positive momentum-balance spread at cell widths {bad}")
    # least-squares slope of log spread against log width
    widths = np.log(np.array([pt.cell_width for pt in points]))
    spreads = np.log(np.array([pt.delta_p for pt in points]))
    widths -= widths.mean()
    slope = float((widths * (spreads - spreads.mean())).sum() / (widths**2).sum())
    return SweepResult(points=points, slope=slope)
