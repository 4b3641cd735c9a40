"""Quasilocal kernels: box integration, cells, branches, and spreads."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import reference
from conftest import (
    counting_transforms,
    momentum_balance_spread,
    momentum_to_position,
    partition_of_rows,
    position_to_momentum,
)
from eventweave import cells as cells_module
from eventweave.cells import (
    DEFAULT_SWEEP_CELLS,
    PARTITION_TOL,
    SUPPORT_TOL,
    CellPartition,
    MomentumGrid,
    TKernel,
    branch_weights,
    cell_decompose,
    default_sweep_state,
    integrate_over_box,
    width_sweep,
)
from eventweave.errors import PartitionNotUnity, ZeroNormBranch
from eventweave.thermal import LatticeModel


def smooth_kernel(grid, rng, bumps=4):
    p = grid.momenta()
    pmax = float(np.abs(p).max())
    pp, qq = np.meshgrid(p, p, indexing="ij")
    tau = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for _ in range(bumps):
        c1, c2 = rng.uniform(-pmax / 2, pmax / 2, 2)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        tau += amp * np.exp(-((pp - c1) ** 2 + (qq - c2) ** 2) / (2 * (pmax / 3) ** 2))
    return TKernel.from_matrix(grid, tau)


def envelope_kernel(grid, fraction=1 / 6):
    p = grid.momenta()
    pmax = float(np.abs(p).max())
    return TKernel.separable(grid, np.exp(-(p**2) / (2 * (fraction * pmax) ** 2)))


def unit_kernel(grid):
    return TKernel.separable(grid, np.ones(grid.n_points))


def unit_packet_in_cell(grid, n_cells, cell_index, width_fraction=1 / 26):
    x = grid.positions()
    a = grid.box_length / n_cells
    center = a * (cell_index + 0.5)
    sig = a * width_fraction
    psi_x = np.exp(-((x - center) ** 2) / (4 * sig**2)).astype(complex)
    psi_x /= np.linalg.norm(psi_x)
    return position_to_momentum(grid, psi_x)


# -- integrate_over_box -------------------------------------------------------------


def test_box_integration_restores_momentum_conservation(rng):
    grid = MomentumGrid(64, 1.0)
    T = smooth_kernel(grid, rng)
    out = integrate_over_box(T).matrix
    diag_scale = np.abs(np.diag(out)).max()
    off = out - np.diag(np.diag(out))
    assert np.max(np.abs(off)) < 1e-12 * diag_scale


def test_box_integration_of_the_unit_kernel_is_proportional_to_identity():
    grid = MomentumGrid(32, 2.0)
    out = integrate_over_box(unit_kernel(grid)).matrix
    assert np.max(np.abs(out - grid.box_length * np.eye(32))) < 1e-10


def test_box_integration_diagonal_matches_the_translation_loop_oracle(rng):
    grid = MomentumGrid(32, 1.5)
    T = smooth_kernel(grid, rng, bumps=3)
    out = integrate_over_box(T).matrix
    oracle = reference.direct_translation_integral(
        T.matrix, grid.momenta(), grid.dx, grid.hbar
    )
    assert np.max(np.abs(out - oracle)) < 1e-9
    assert np.max(
        np.abs(np.diag(out) - grid.box_length * np.diag(T.matrix))
    ) < 1e-10


# -- cell partitions ------------------------------------------------------------------


def test_partition_functions_sum_to_one(rng):
    grid = MomentumGrid(256, 1.0)
    for k in (1, 2, 5, 16):
        part = CellPartition.smoothed_indicators(grid, k, 0.12)
        part.validate()
        assert np.max(np.abs(part.rows().sum(axis=0) - 1.0)) < 1e-12


def test_tampered_partition_is_rejected():
    grid = MomentumGrid(64, 1.0)
    part = smoothed_rows(grid, 4, 0.1)
    part.profiles[2] *= 1.001
    with pytest.raises(PartitionNotUnity):
        part.validate()


def test_overly_wide_cell_functions_are_rejected():
    grid = MomentumGrid(64, 1.0)
    flat = np.full((2, 64), 0.5)
    bad = partition_of_rows(grid, flat, width=0.5, smoothing=0.001)
    with pytest.raises(ValueError):
        bad.validate()


def test_partition_with_a_nan_entry_is_rejected():
    grid = MomentumGrid(64, 1.0)
    part = smoothed_rows(grid, 4, 0.1)
    part.profiles[1, 20] = np.nan
    with pytest.raises(PartitionNotUnity, match="nan"):
        part.validate()


@pytest.mark.parametrize("n_points", [16, 64, 256, 2048])
def test_smoothed_cells_match_the_fft_oracle(n_points):
    grid = MomentumGrid(n_points, 1.0)
    for n_cells in (1, 2, 7, 12, n_points):
        for fraction in (0.0, 0.15, 0.5, 3.0):
            got = CellPartition.smoothed_indicators(grid, n_cells, fraction).rows()
            want = reference.fft_smoothed_indicators(grid, n_cells, fraction)
            assert np.max(np.abs(got - want)) <= 1e-14, (n_cells, fraction)
            if n_cells == 1:
                assert np.all(got == got[0, 0])


def test_many_narrow_cells_still_sum_to_one():
    grid = MomentumGrid(16384, 1.0)
    part = CellPartition.smoothed_indicators(grid, 600, 0.15)
    assert np.max(np.abs(part.rows().sum(axis=0) - 1.0)) <= PARTITION_TOL
    part.validate()


def test_rows_are_the_shifted_profiles_and_hat_transforms_them():
    """Row k is, bit for bit, its profile rolled by the cell's first site,
    and ``hat(k)`` is the transform of that row."""
    for n_points in (16, 64, 1000):
        grid = MomentumGrid(n_points, 1.0)
        for n_cells in (1, 2, 7, 12, n_points):
            for fraction in (0.0, 0.15, 3.0):
                part = CellPartition.smoothed_indicators(grid, n_cells, fraction)
                rows = part.rows()
                rolled = [np.roll(part.profiles[part.which[k]], part.starts[k])
                          for k in range(n_cells)]
                assert np.array_equal(rows, rolled)
                assert part.width == grid.box_length / n_cells
                assert part.smoothing == fraction * part.width
                for k in {0, n_cells // 2, n_cells - 1}:
                    want = grid.dx * n_points * np.fft.ifft(rows[k])
                    assert np.array_equal(part.hat(k), want)


def test_windowed_sum_has_the_bits_of_the_row_sum(monkeypatch):
    """The sum over cell windows is ``rows().sum(axis=0)`` bit for bit,
    without materializing the rows, for windows narrower than the box and
    capped at it."""
    capped = narrower = 0
    for n_points in (16, 64, 1000, 2048):
        grid = MomentumGrid(n_points, 1.0)
        for n_cells in [c for c in (1, 2, 7, 12, 96, 600) if c < n_points] + [n_points]:
            for fraction in (0.0, 0.05, 0.15, 0.5, 3.0):
                part = CellPartition.smoothed_indicators(grid, n_cells, fraction)
                rows = part.rows()
                with monkeypatch.context() as patch:
                    patch.setattr(part, "rows", None)  # calling it would raise
                    sites, values, total = part.windowed()
                assert np.array_equal(total, rows.sum(axis=0))
                assert np.array_equal(values, np.take_along_axis(rows, sites, axis=1))
                capped += sites.shape[1] == n_points
                narrower += sites.shape[1] < n_points
    assert capped > 10 and narrower > 10


def test_windowed_sum_outside_the_windows_is_the_row_sum(monkeypatch):
    """A profile that is not exactly 0 outside its window sends the sum
    through ``rows().sum(axis=0)``; an entry below ``SUPPORT_TOL`` there
    still passes ``validate``."""
    grid = MomentumGrid(1000, 1.0)
    part = CellPartition.smoothed_indicators(grid, 12, 0.15)
    window = part.windowed()[0][0]  # cell 0 starts at site 0: its profile's window
    outside = np.setdiff1d(np.arange(grid.n_points), window)
    part.profiles[0, outside[outside.size // 2]] = 1e-30
    assert 1e-30 < SUPPORT_TOL
    calls = []
    monkeypatch.setattr(part, "rows", lambda rows=part.rows: calls.append(1) or rows())
    total = part.validate()[2]
    assert calls == [1]
    assert np.array_equal(total, part.rows().sum(axis=0))


def smoothed_rows(grid, n_cells, fraction):
    """``smoothed_indicators``' cells as one unshifted profile per cell."""
    part = CellPartition.smoothed_indicators(grid, n_cells, fraction)
    return partition_of_rows(grid, part.rows(), part.width, part.smoothing)


def broken_forms():
    """Smoothed partitions that ``validate`` refuses, each with a name."""
    grid = MomentumGrid(64, 1.0)
    tampered = CellPartition.smoothed_indicators(grid, 4, 0.1)
    tampered.profiles[0] *= 1.001
    yield "tampered", tampered
    flat = CellPartition.smoothed_indicators(grid, 2, 0.1)
    flat.profiles[:] = 0.5
    flat.smoothing = 0.001
    yield "too wide", flat
    for site in (3, 40):  # inside and outside the first cell's window
        nan = CellPartition.smoothed_indicators(grid, 4, 0.1)
        nan.profiles[0, site] = np.nan
        yield f"nan at {site}", nan
    # 65 sites make cells of 33 and 32 sites; moving 0.1 of the second cell's
    # profile out to site 40 keeps the sum at one and widens that cell alone
    wide = CellPartition.smoothed_indicators(MomentumGrid(65, 1.0), 2, 0.0)
    short, long = wide.which[1], wide.which[0]
    wide.profiles[short, 40] += 0.1
    wide.profiles[long, (wide.starts[1] + 40) % 65] -= 0.1
    yield "second cell too wide", wide


def test_profile_check_refuses_what_validate_refuses():
    """The check on a few shifted profiles refuses as the per-cell loop
    does, and as it does on the same cells held one profile per row."""
    seen = []
    for name, part in broken_forms():
        want = outcome(reference.naive_validate, part)
        assert want is not None, name
        assert outcome(CellPartition.validate, part) == want, name
        rows = partition_of_rows(part.grid, part.rows(), part.width, part.smoothing)
        assert outcome(CellPartition.validate, rows) == want, name
        seen.append(want)
    assert {kind for kind, _ in seen} == {PartitionNotUnity, ValueError}
    assert seen[-1][1].startswith("cell 1 spreads over 41 sites")


def random_partition(rng, n, n_cells, smoothing):
    """Cell functions that sum to one, each cell on zero to three random arcs
    (which may wrap around the box edge), plus sub-threshold noise outside."""
    support = np.zeros((n_cells, n), dtype=bool)
    arcs = rng.integers(0, 4, n_cells)
    for k in np.flatnonzero(arcs):
        for _ in range(arcs[k]):
            start, length = rng.integers(n), rng.integers(1, n // 2)
            support[k, (start + np.arange(length)) % n] = True
    orphans = np.flatnonzero(~support.any(axis=0))
    owners = np.flatnonzero(arcs)
    if owners.size == 0:
        owners = np.array([0])
    support[rng.choice(owners, orphans.size), orphans] = True
    values = np.where(support, rng.uniform(0.01, 1.0, support.shape), 0.0)
    values[~support & (rng.random(support.shape) < 0.05)] = 5e-13
    grid = MomentumGrid(n, 1.0)
    return partition_of_rows(grid, values / values.sum(axis=0), 1.0 / n_cells, smoothing)


def outcome(check, part):
    try:
        check(part)
    except (ValueError, PartitionNotUnity) as exc:
        return type(exc), str(exc)
    return None


def test_vectorized_validate_matches_the_per_cell_loop():
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(300):
        n = int(rng.choice([16, 64, 200]))
        n_cells = int(rng.integers(1, 13))
        part = random_partition(rng, n, n_cells, rng.uniform(0.0, 0.06))
        want = outcome(reference.naive_validate, part)
        assert outcome(CellPartition.validate, part) == want
        outcomes.append(want)
    refused = [o for o in outcomes if o is not None]
    assert 30 <= len(refused) <= 270
    assert len({msg.split(" spreads")[0] for _, msg in refused}) > 3


def test_cell_transforms_match_the_direct_sum_oracle(rng):
    grid = MomentumGrid(32, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    hat = part.hat(1)
    for offset in (0, 1, 5, 17, 31):
        want = reference.direct_cell_hat(part.rows()[1], grid.dx, 32, offset)
        assert abs(hat[offset] - want) < 1e-12


def test_single_cell_decomposition_is_the_box_integral(rng):
    grid = MomentumGrid(64, 1.0)
    T = smooth_kernel(grid, rng)
    part = CellPartition.smoothed_indicators(grid, 1, 0.1)
    (only,) = cell_decompose(T, part)
    box = integrate_over_box(T)
    assert np.max(np.abs(only.matrix - box.matrix)) < 1e-10


@pytest.mark.parametrize("n_cells", [2, 5, 8])
def test_cell_operators_reconstruct_the_box_integral(rng, n_cells):
    grid = MomentumGrid(128, 1.0)
    T = smooth_kernel(grid, rng)
    parts = cell_decompose(T, CellPartition.smoothed_indicators(grid, n_cells, 0.12))
    total = sum(p.matrix for p in parts)
    box = integrate_over_box(T).matrix
    assert np.max(np.abs(total - box)) < 1e-12 * max(1.0, np.abs(box).max())


def test_cell_operators_are_built_one_at_a_time(rng):
    """48 dense operators on 256 sites are 48 MiB as a list; summed as they
    are yielded, only a few n-by-n arrays are live at once."""
    grid = MomentumGrid(256, 1.0)
    T = smooth_kernel(grid, rng)
    part = CellPartition.smoothed_indicators(grid, 48, 0.12)
    tracemalloc.start()
    try:
        total = sum(op.matrix for op in cell_decompose(T, part))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
    box = integrate_over_box(T).matrix
    assert np.max(np.abs(total - box)) < 1e-12 * max(1.0, np.abs(box).max())


def test_cell_transform_is_concentrated_within_h_over_a():
    grid = MomentumGrid(1024, 1.0)
    n_cells = 8
    part = CellPartition.smoothed_indicators(grid, n_cells, 0.12)
    n = grid.n_points
    m = np.arange(n)  # hat(k)[m] belongs to the offset m, aliased into (-n/2, n/2]
    q = grid.offset_momentum(np.where(m <= n // 2, m, m - n))
    weight = np.abs(part.hat(n_cells // 2)) ** 2
    a = part.width
    h = 2.0 * math.pi * grid.hbar
    inside = np.abs(q) <= 2.0 * h / a
    assert weight[inside].sum() / weight.sum() > 0.9


# -- branches --------------------------------------------------------------------------


def branch_vectors(kernel, part, psi):
    """Every branch, one row per cell, through the cell operators."""
    return np.array([op.matrix @ psi for op in cell_decompose(kernel, part)])


def test_branches_sum_to_the_full_outgoing_state(rng):
    grid = MomentumGrid(256, 1.0)
    T = envelope_kernel(grid)
    part = CellPartition.smoothed_indicators(grid, 5, 0.1)
    psi = default_sweep_state(grid)
    vectors = branch_vectors(T, part, psi)
    box_out = integrate_over_box(TKernel.from_matrix(grid, T.matrix)).matrix @ psi
    assert np.max(np.abs(vectors.sum(axis=0) - box_out)) < 1e-9 * np.abs(box_out).max()
    norms2, _ = branch_weights(T, part, psi)
    separate = (np.abs(vectors) ** 2).sum(axis=1)
    assert np.max(np.abs(norms2 - separate)) <= 1e-12 * separate.max()


def test_localized_input_feeds_exactly_one_branch():
    grid = MomentumGrid(1024, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.07)
    psi = unit_packet_in_cell(grid, 4, 1)
    norms2, _ = branch_weights(envelope_kernel(grid), part, psi)
    home = norms2[1]
    leak = max(norms2[k] for k in (0, 2, 3))
    assert leak / home < 1e-8


def test_branch_probabilities_report_which_cell(rng):
    grid = MomentumGrid(1024, 1.0)
    n_cells = 4
    part = CellPartition.smoothed_indicators(grid, n_cells, 0.07)
    T = envelope_kernel(grid)
    for cell in range(n_cells):
        norms2, _ = branch_weights(T, part, unit_packet_in_cell(grid, n_cells, cell))
        assert abs(norms2[cell] / norms2.sum() - 1.0) < 1e-6


def test_broad_input_has_a_nonzero_coherence_defect():
    grid = MomentumGrid(256, 1.0)
    T = envelope_kernel(grid)
    part = CellPartition.smoothed_indicators(grid, 4, 0.12)
    psi = default_sweep_state(grid)
    norms2, defect = branch_weights(T, part, psi)
    out = branch_vectors(T, part, psi).sum(axis=0)
    total = float(np.vdot(out, out).real)
    separate = float(norms2.sum())
    assert abs(defect - abs(total - separate)) <= 1e-12 * separate
    assert defect > 1e-3 * separate


def test_branch_weights_are_the_sweeps():
    """The sweep's coherence defects are ``branch_weights``' bit for bit."""
    counts = (8, 64)
    sweep = width_sweep(cell_counts=counts, n_points=1024)
    grid = MomentumGrid(1024, 1.0)
    kernel, psi = envelope_kernel(grid, 2.0), default_sweep_state(grid)  # width_sweep's
    for pt, n_cells in zip(sweep.points, counts):
        part = CellPartition.smoothed_indicators(grid, n_cells, 0.15)
        assert branch_weights(kernel, part, psi)[1] == pt.coherence_defect


def test_branch_construction_is_translation_covariant(rng):
    grid = MomentumGrid(128, 1.0)
    tau = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    T = TKernel.from_matrix(grid, tau)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    psi /= np.linalg.norm(psi)
    base = branch_vectors(T, part, psi)
    shift = 37
    # moving the cells by `shift` sites multiplies momentum states by this phase
    phase = np.exp(2j * np.pi * np.arange(128) * shift / 128)
    moved_part = dataclasses.replace(part, profiles=np.roll(part.profiles, shift, axis=1))
    moved = branch_vectors(T, moved_part, psi * phase)
    assert np.max(np.abs(moved - base * phase)) < 1e-12


def test_separable_and_dense_routes_agree(rng):
    """The windowed weights of a separable kernel are the squared norms of
    its dense cell operators applied, and both forms give one spread."""
    grid = MomentumGrid(128, 1.0)
    T = envelope_kernel(grid, 1 / 3)
    dense = TKernel.from_matrix(grid, T.matrix)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    psi = default_sweep_state(grid)
    norms2, _ = branch_weights(T, part, psi)
    dense_norms2 = (np.abs(branch_vectors(dense, part, psi)) ** 2).sum(axis=1)
    assert np.max(np.abs(norms2 - dense_norms2)) <= 1e-12 * norms2.max()
    for k in range(4):
        sa = momentum_balance_spread(T, part, k, norms2[k], psi)
        sb = momentum_balance_spread(dense, part, k, dense_norms2[k], psi)
        assert abs(sa - sb) < 1e-9 * max(sa, 1.0)


def test_position_momentum_transforms_are_unitary_inverses(rng):
    grid = MomentumGrid(256, 1.0)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    w = grid.to_momentum(v)
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-12
    back = np.fft.ifft(np.fft.ifftshift(w)) * math.sqrt(grid.n_points)
    assert np.max(np.abs(back - v)) < 1e-12


def test_grid_transform_and_test_helper_have_opposite_fourier_signs(rng):
    grid = MomentumGrid(64, 1.0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    reflected = np.roll(grid.to_momentum(v)[::-1], 1)  # p -> -p on the grid
    assert np.max(np.abs(position_to_momentum(grid, v) - reflected)) < 1e-12
    real = v.real
    conjugate = np.conj(grid.to_momentum(real))
    assert np.max(np.abs(position_to_momentum(grid, real) - conjugate)) < 1e-12


def test_unit_kernel_branches_act_as_cell_multiplication():
    grid = MomentumGrid(256, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    psi = unit_packet_in_cell(grid, 4, 2, width_fraction=1 / 8)
    branch = branch_vectors(unit_kernel(grid), part, psi)[2]
    back = momentum_to_position(grid, branch)
    psi_x = momentum_to_position(grid, psi)
    want = grid.box_length * part.rows()[2] * psi_x
    assert np.max(np.abs(back - want)) < 1e-12


@pytest.mark.parametrize("kind", ["separable", "dense"])
def test_cell_operators_apply_as_the_per_cell_loop(kind, rng):
    """A dense kernel's cell operators applied give the oracle's vectors bit
    for bit; a separable kernel's agree with its per-cell transforms."""
    grid = MomentumGrid(256, 1.0)
    T = envelope_kernel(grid) if kind == "separable" else smooth_kernel(grid, rng)
    psi = default_sweep_state(grid)
    for n_cells in (4, 48):
        part = CellPartition.smoothed_indicators(grid, n_cells, 0.15)
        got = branch_vectors(T, part, psi)
        want = reference.naive_branch_vectors(T, part, psi)
        if kind == "dense":
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


# -- momentum balance spread --------------------------------------------------------


@pytest.mark.parametrize("kind, n_points", [("separable", 1024), ("dense", 256)])
def test_spreads_match_the_per_offset_loop(kind, n_points, rng):
    grid = MomentumGrid(n_points, 1.0)
    T = envelope_kernel(grid) if kind == "separable" else smooth_kernel(grid, rng)
    psi = default_sweep_state(grid)
    for n_cells in (4, 48):
        part = CellPartition.smoothed_indicators(grid, n_cells, 0.15)
        norms2 = (np.abs(reference.naive_branch_vectors(T, part, psi)) ** 2).sum(axis=1)
        for k, norm2 in enumerate(norms2):
            got = momentum_balance_spread(T, part, k, norm2, psi)
            want = reference.naive_momentum_balance_spread(T, part.hat(k), psi)
            assert abs(got - want) <= 1e-12 * want


def test_full_box_cell_conserves_momentum_exactly():
    grid = MomentumGrid(128, 1.0)
    part = CellPartition.smoothed_indicators(grid, 1, 0.1)
    psi = default_sweep_state(grid)
    T = unit_kernel(grid)
    (norm2,), _ = branch_weights(T, part, psi)
    assert momentum_balance_spread(T, part, 0, norm2, psi) < 1e-6 * grid.spacing


def test_zero_branch_has_no_spread():
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(grid, 2, 0.1)
    psi = default_sweep_state(grid)
    with pytest.raises(ZeroNormBranch, match="branch 0 carries no weight"):
        momentum_balance_spread(unit_kernel(grid), part, 0, 0.0, psi)


def test_spread_times_width_sits_near_h(rng):
    sweep = width_sweep(cell_counts=(8, 16, 32, 64), n_points=1024)
    for pt in sweep.points:
        assert 0.3 <= pt.product_over_h <= 3.0


def test_spread_scales_inversely_with_cell_width():
    sweep = width_sweep(cell_counts=(8, 16, 32, 64, 128), n_points=1024)
    assert abs(sweep.slope + 1.0) < 0.05


def test_nan_incoming_state_is_refused():
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    psi = default_sweep_state(grid)
    psi[3] = np.nan
    with pytest.raises(ValueError, match="norm nan"):
        branch_weights(envelope_kernel(grid), part, psi)


def test_cell_decompose_refuses_a_partition_off_the_kernel_grid(rng):
    part = CellPartition.smoothed_indicators(MomentumGrid(128, 1.0), 4, 0.1)
    with pytest.raises(ValueError, match="n_points=128.*n_points=64"):
        cell_decompose(smooth_kernel(MomentumGrid(64, 1.0), rng), part)


def test_branch_weights_refuses_a_partition_off_the_kernel_grid():
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(MomentumGrid(128, 1.0), 4, 0.1)
    with pytest.raises(ValueError, match="n_points=128.*n_points=64"):
        branch_weights(envelope_kernel(grid), part, default_sweep_state(grid))


def test_branch_weights_refuses_a_state_off_the_kernel_grid():
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    psi = default_sweep_state(MomentumGrid(128, 1.0))
    with pytest.raises(ValueError, match=r"shape \(128,\); the kernel's grid has 64 sites"):
        branch_weights(envelope_kernel(grid), part, psi)


def test_branch_weights_refuses_a_dense_kernel(rng):
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    with pytest.raises(ValueError, match="separable kernel"):
        branch_weights(smooth_kernel(grid, rng), part, default_sweep_state(grid))


def test_branch_weights_of_an_annihilated_state_are_refused():
    grid = MomentumGrid(64, 1.0)
    part = CellPartition.smoothed_indicators(grid, 4, 0.1)
    zero = TKernel.separable(grid, np.zeros(grid.n_points))
    with pytest.raises(ZeroNormBranch, match="every branch has zero weight"):
        branch_weights(zero, part, default_sweep_state(grid))


@pytest.mark.parametrize("cell_counts, n_points", [
    (DEFAULT_SWEEP_CELLS, 1024),
    (DEFAULT_SWEEP_CELLS, 2048),
    ((10, 20, 50), 1024),  # cells --cell-width 0.1,0.05,0.02 on the unit box
])
def test_sweep_matches_the_per_width_path(cell_counts, n_points):
    sweep = width_sweep(cell_counts=cell_counts, n_points=n_points)
    points, slope = reference.naive_width_sweep(cell_counts, n_points)
    assert len(sweep.points) == len(points)
    for pt, (width, delta_p, defect) in zip(sweep.points, points):
        assert pt.cell_width == width
        assert abs(pt.delta_p - delta_p) <= 1e-13 * delta_p
        assert abs(pt.coherence_defect - defect) <= 1e-13
    assert abs(sweep.slope - slope) <= 1e-13


def windowed_against_the_oracle(kernel, psi, n_cells, fraction):
    """Windowed branch norms and the summed branch's, with the oracle's."""
    grid = kernel.grid
    part = CellPartition.smoothed_indicators(grid, n_cells, fraction)
    got = cells_module._windowed_norms(*part.windowed(), cells_module._norm_terms(kernel, psi))
    return got, reference.branch_norms(kernel, part, psi)


def assert_rows_match(got, want, rel=1e-14):
    """Row by row within ``rel``; a row the oracle reads as 0 is 0."""
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= rel * want)


@pytest.mark.parametrize("n_points", [1024, 4096, 16384])
def test_windowed_norms_match_the_per_cell_oracle(n_points):
    grid = MomentumGrid(n_points, 1.0)
    kernel, psi = envelope_kernel(grid, 2.0), default_sweep_state(grid)  # width_sweep's
    for n_cells in DEFAULT_SWEEP_CELLS:
        (norms2, out2), (want, want_out2) = windowed_against_the_oracle(
            kernel, psi, n_cells, 0.15
        )
        assert_rows_match(norms2, want)
        assert abs(out2 - want_out2) <= 1e-14 * want_out2
        # the reported branch sits far from the packet, yet keeps its weight
        middle = norms2[n_cells // 2]
        assert 0.0 < middle < 1e-20 * norms2.max()


@pytest.mark.parametrize("n_cells, fraction", [
    (1, 0.15),
    (1024, 0.15),  # one site per cell
    (16, 0.0),
    (600, 0.0),
    (8, 2.0),  # windows capped at the box
    (96, 2.0),
])
def test_windowed_norms_match_the_oracle_at_the_limits(n_cells, fraction):
    grid = MomentumGrid(1024, 1.0)
    kernel, psi = envelope_kernel(grid, 2.0), default_sweep_state(grid)  # width_sweep's
    (norms2, out2), (want, want_out2) = windowed_against_the_oracle(
        kernel, psi, n_cells, fraction
    )
    assert_rows_match(norms2, want)
    assert abs(out2 - want_out2) <= 1e-14 * want_out2


@pytest.mark.parametrize("fraction", [0.0, 0.15])
def test_windowed_norms_are_zero_where_the_oracle_reads_zero(fraction):
    """A flat state under the unit kernel puts ``fft(psi)`` on site 0 alone,
    so every cell that does not reach site 0 has exactly zero weight."""
    grid = MomentumGrid(1024, 1.0)
    psi = np.full(grid.n_points, 1.0 / math.sqrt(grid.n_points), dtype=complex)
    (norms2, _), (want, _) = windowed_against_the_oracle(
        unit_kernel(grid), psi, 64, fraction
    )
    assert 0 < np.count_nonzero(want) < 8
    assert_rows_match(norms2, want)


def test_sweep_transforms_per_width_do_not_grow_with_the_cells(monkeypatch):
    calls = counting_transforms(monkeypatch)
    counts = []
    for n_cells in (8, 600):
        calls.clear()
        width_sweep(cell_counts=(n_cells, 12), n_points=4096)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_sweep_memory_grows_with_the_sites_not_with_sites_times_cells(monkeypatch):
    """A 600-cell row matrix alone would be 4800 bytes per site; the sweep
    holds each cell's window and a few n-point arrays, and never calls
    ``CellPartition.rows``."""
    built = []
    rows = CellPartition.rows
    monkeypatch.setattr(CellPartition, "rows", lambda self: built.append(1) or rows(self))
    for n_points in (4096, 8192):
        tracemalloc.start()
        try:
            width_sweep(cell_counts=(8, 600), n_points=n_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1000 * n_points, (n_points, peak)
    assert built == []


def test_sweep_inputs_that_give_no_spread_are_refused():
    with pytest.raises(ValueError, match="box_length"):
        MomentumGrid(64, 0.0)
    with pytest.raises(ValueError, match="box_length"):
        MomentumGrid(64, float("nan"))
    with pytest.raises(ValueError, match="hbar"):
        MomentumGrid(64, 1.0, hbar=float("nan"))
    with pytest.raises(ValueError, match="smoothing"):
        CellPartition.smoothed_indicators(MomentumGrid(256, 1.0), 8, -0.1)
    with pytest.raises(ValueError, match="tau scale"):
        width_sweep(cell_counts=(8, 16), n_points=256, tau_scale=0.0)
    with pytest.raises(ValueError, match="two distinct"):
        width_sweep(cell_counts=(8, 8), n_points=256)


def test_two_sites_make_a_lattice_but_the_sweep_needs_sixteen():
    model = LatticeModel(MomentumGrid(2, 1.0), mass=1.0, beta=1.0)
    assert np.array_equal(model.grid.momenta(), [-2.0 * math.pi, 0.0])
    with pytest.raises(ValueError, match="need at least 2 sites, got 1"):
        MomentumGrid(1, 1.0)
    with pytest.raises(ValueError, match="need at least 16 grid sites, got 15"):
        width_sweep(cell_counts=(2, 4), n_points=15)
