"""Brute-force reference implementations used as independent test oracles.

Everything here works on plain lists and explicit loops over full index
ranges (or on textbook matrix formulas), deliberately avoiding the
package's tensor and transform machinery.
"""

import itertools
import math

import numpy as np


def parts(vec):
    """(labels, amps) view of a LabeledVector for the naive routines."""
    return [(lab.link_id, lab.dim) for lab in vec.labels], list(vec.amps)


def naive_entry(labels, amps, assignment):
    idx = 0
    for lid, dim in labels:
        idx = idx * dim + assignment[lid]
    return amps[idx]


def naive_tensor_product(labels_u, amps_u, labels_v, amps_v):
    labels = list(labels_u) + list(labels_v)
    out = []
    for combo in itertools.product(*[range(d) for _, d in labels]):
        assignment = {lid: i for (lid, _), i in zip(labels, combo)}
        out.append(
            naive_entry(labels_u, amps_u, assignment)
            * naive_entry(labels_v, amps_v, assignment)
        )
    return labels, out


def naive_contract(bra_factors, labels, amps):
    """bra_factors: {link_id: 1-d complex sequence}; full index sums."""
    keep = [(lid, d) for lid, d in labels if lid not in bra_factors]
    summed = [(lid, d) for lid, d in labels if lid in bra_factors]
    out = []
    for keep_combo in itertools.product(*[range(d) for _, d in keep]):
        base = {lid: i for (lid, _), i in zip(keep, keep_combo)}
        total = 0.0 + 0.0j
        for combo in itertools.product(*[range(d) for _, d in summed]):
            assignment = dict(base)
            weight = 1.0 + 0.0j
            for (lid, _), i in zip(summed, combo):
                assignment[lid] = i
                weight *= complex(bra_factors[lid][i]).conjugate()
            total += weight * naive_entry(labels, amps, assignment)
        out.append(total)
    return keep, out


def tensordot_contract(bra, psi):
    """``<bra|psi`` by one ``np.tensordot`` per bra factor, in bra order.

    This is the form :func:`eventweave.tensors.contract` replaced with
    tensordot's own steps: the same ``np.dot`` of the same operands, so the
    two agree bit for bit.
    """
    from eventweave.tensors import LabeledVector

    labels = list(psi.labels)
    tensor = psi.amps.reshape([lab.dim for lab in labels]) if labels else psi.amps
    for lid, fac in bra.factors.items():
        axis = next(i for i, lab in enumerate(labels) if lab.link_id == lid)
        tensor = np.tensordot(np.conj(fac.amps), tensor, axes=([0], [axis]))
        del labels[axis]
    return LabeledVector(labels, np.ascontiguousarray(tensor).reshape(-1))


def naive_squared_norm(amps):
    total = 0.0
    for a in amps:
        a = complex(a)
        total += a.real * a.real + a.imag * a.imag
    return total


def naive_apply_probability(c, bra_factors, ket_labels, ket_amps, labels, amps):
    """Squared norm of ``c * ket (x) <bra|state`` via the naive routines."""
    res_labels, res_amps = naive_contract(bra_factors, labels, amps)
    res_amps = [complex(c) * a for a in res_amps]
    _, full = naive_tensor_product(ket_labels, ket_amps, res_labels, res_amps)
    return naive_squared_norm(full)


# -- spin pair (textbook matrix route) ----------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLET_4 = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)


def pauli_eigenvector(direction, sign):
    """Eigenvector of ``e . sigma`` picked by eigenvalue sign via eigh."""
    e = np.asarray(direction, dtype=float)
    m = e[0] * _SX + e[1] * _SY + e[2] * _SZ
    vals, vecs = np.linalg.eigh(m)
    column = int(np.argmax(vals)) if sign > 0 else int(np.argmin(vals))
    return vecs[:, column]


def singlet_pair_probability(e1, s1, e2, s2):
    """P(outcomes s1, s2) for analyzers e1, e2 on the two-spin singlet."""
    proj = np.kron(pauli_eigenvector(e1, s1), pauli_eigenvector(e2, s2))
    return float(abs(np.vdot(proj, _SINGLET_4)) ** 2)


# -- lattice transforms --------------------------------------------------------


def direct_packet_momentum_abs2(positions, psi_x, momenta, hbar):
    """|phi(p)|^2 by direct transform sums, one momentum at a time."""
    n = len(positions)
    out = np.empty(len(momenta))
    x = np.asarray(positions, dtype=float)
    for i, p in enumerate(momenta):
        s = np.sum(np.asarray(psi_x) * np.exp(-1j * p * x / hbar))
        out[i] = abs(s) ** 2 / n
    return out


def direct_translation_integral(tau, momenta, dx, hbar):
    """Sum of phase-translated kernels over all grid sites, times dx."""
    n = len(momenta)
    out = np.zeros((n, n), dtype=complex)
    qdiff = np.subtract.outer(np.asarray(momenta), np.asarray(momenta))
    for j in range(n):
        out += tau * np.exp(1j * qdiff * (j * dx) / hbar) * dx
    return out


def direct_cell_hat(g, dx, n, offset):
    """Transform of a cell function at one index offset, by direct sum."""
    l = np.arange(n)
    return dx * np.sum(np.asarray(g) * np.exp(2j * np.pi * offset * l / n))


# -- dense cut state -------------------------------------------------------------


def dense_cut_state(history, cut=None):
    """Cut state as one dense vector over every free link of the cut.

    This is the loop :func:`eventweave.dynamics.cut_state` replaced: it
    tensors each source's component (its emitted vector contracted with the
    bras absorbed inside the cut) into one composite, in sorted event-id
    order, and normalizes the composite once.  The result is a one-component
    ``CutState``, so its size is the product of all the components'.
    """
    from eventweave import dynamics, tensors
    from eventweave.graph import Cut

    if cut is None:
        cut = history.frontier_cut()
    elif not isinstance(cut, Cut):
        cut = Cut.of(cut)
    free = history.free_links(cut)
    composite = tensors.LabeledVector.scalar(1.0)
    for eid in sorted({history.links[lid].source for lid in free}):
        ev = history.events[eid]
        bras = [history.events[history.links[lid].target].bra.factor(lid)
                for lid in ev.forward_links if lid not in free]
        vec = (tensors.contract(tensors.ProductBra(bras), ev.emitted_vector)
               if bras else ev.emitted_vector)
        composite = tensors.tensor_product(composite, vec)
    total = composite.squared_norm()
    if total <= dynamics.ZERO_PROBABILITY_EPS:
        raise dynamics.ZeroProbabilityEvent(f"cut state has squared norm {total!r}")
    if abs(total - 1.0) > 1e-15:
        composite = composite.scaled(1.0 / np.sqrt(total))
    return dynamics.CutState((composite,), history.links)


# -- history documents (one record and one amplitude at a time) ---------------


def load_history(data):
    """``History.from_dict`` as it read a document before its amplitudes
    were converted in one array: one record at a time, each vector literal
    by its own ``LabeledVector`` of ``complex(re, im)`` per pair, each event
    built as an ``EventRecord`` and then admitted by ``graph._readmit``.
    Pairs that do not hold two values are refused as ``[re, im]`` pairs
    before any of a literal's values is converted."""
    from eventweave import graph
    from eventweave.errors import EventWeaveError
    from eventweave.tensors import FactorLabel, LabeledVector, ProductBra, SpaceType

    def vector(literal):
        labels = [FactorLabel(entry["link"], SpaceType(entry["space"], entry["dim"]))
                  for entry in literal["labels"]]
        graph._refuse_non_numbers(literal["amps"], "a vector's amps")
        if any(len(pair) != 2 for pair in literal["amps"]):
            raise TypeError("a vector's amps must be [re, im] pairs")
        amps = [complex(re, im) for re, im in literal["amps"]]
        return LabeledVector(labels, np.array(amps, dtype=np.complex128))

    events, links = {}, {}
    try:
        for rec in data["links"]:
            if graph._record_id(rec, "link") in links:
                raise ValueError(f"duplicate link id {rec['id']!r}")
            space = SpaceType(rec["space"]["name"], rec["space"]["dim"])
            links[rec["id"]] = (space, rec["source"], rec.get("target"))
        for rec in data["events"]:
            if graph._record_id(rec, "event") in events:
                raise ValueError(f"duplicate event id {rec['id']!r}")
            amplitude = rec.get("amplitude", [1.0, 0.0])
            graph._refuse_non_numbers([amplitude], "an event amplitude")
            if len(amplitude) != 2:
                raise TypeError(f"an event amplitude must be an [re, im] pair, "
                                f"got {amplitude!r}")
            re, im = amplitude
            events[rec["id"]] = graph.EventRecord(
                id=rec["id"],
                backward_links=tuple(rec["backward_links"]),
                forward_links=tuple(rec["forward_links"]),
                emitted_vector=vector(rec["vector"]),
                amplitude=complex(re, im),
                bra=None if rec.get("bra") is None
                else ProductBra([vector(f) for f in rec["bra"]]),
                region=graph.region_from_dict(rec.get("region")),
            )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed history record: {exc!r}") from exc
    except EventWeaveError as exc:
        raise ValueError(f"invalid history: {exc}") from exc
    h, problems = graph._readmit(events.values(), links)
    if problems:
        raise ValueError(f"invalid history: {'; '.join(problems[:3])}")
    # the counter goes on from the largest id that reads f"e{n}"; no counter
    # reaches a number of more than 18 digits
    h._counter = max((n for eid in h.events if eid[1:].isdecimal() and len(eid) <= 19
                      and eid == f"e{(n := int(eid[1:]))}"), default=0)
    return h


# -- staged sampling (one uniform per draw) ------------------------------------


def searchsorted_draw(probs, u):
    """Candidate index selected by each uniform in ``u`` (scalar or array),
    by binary search over the cumulative sums of the live probabilities.

    This is the draw that counting :func:`eventweave.dynamics._thresholds`
    replaced: probabilities at or below 1e-15 count as 0, a uniform picks
    the first candidate whose cumulative probability exceeds it, and a
    uniform past the sum goes to the last live candidate.
    """
    from eventweave import dynamics

    live = np.where(probs > dynamics.PRUNED_BRANCH_PROBABILITY, probs, 0.0)
    last = np.flatnonzero(live)[-1]
    return np.minimum(np.searchsorted(np.cumsum(live), u, side="right"), last)


def grouped_sample_paths(tables, u):
    """Path index (lexicographic) of each row of uniforms ``u``, one
    :func:`searchsorted_draw` per reached node.

    This is the walk :func:`eventweave.dynamics._sample_paths` replaced:
    rows are sorted by their path prefix and split into groups, and each
    group draws over its own row of the stage's table.  ``tables`` hold
    conditional probabilities, not the thresholds the package stores.
    """
    path = np.zeros(u.shape[0], dtype=np.intp)
    for depth, table in enumerate(tables):
        if len(table) == 1:  # every prefix is 0
            path = searchsorted_draw(table[0], u[:, depth])
            continue
        pick = np.empty_like(path)
        order = np.argsort(path, kind="stable")
        grouped = path[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        for rows in np.split(order, starts[1:]):
            pick[rows] = searchsorted_draw(table[path[rows[0]]], u[rows, depth])
        path = path * table.shape[1] + pick
    return path


def naive_simulate_counts(history, stages, runs, seed, replicas=1):
    """Per-draw walk of the outcome tree: ``({path: count}, first_path)``.

    This is the loop :func:`eventweave.dynamics.sample_outcome_tree`
    replaced: one ``rng.random()`` per stage per run, with conditional
    states and probabilities memoized per path.  Each draw is one
    :func:`searchsorted_draw`.
    """
    from eventweave import dynamics

    state_cache = {(): dynamics.cut_state(history)}
    probs_cache = {}

    def conditional_probs(path):
        if path not in probs_cache:
            probs_cache[path] = dynamics.alternative_probabilities(
                state_cache[path], stages[len(path)]
            )
        return probs_cache[path]

    counts = {}
    first_path = None
    for replica in range(replicas):
        rng = dynamics.replica_rng(seed, replica)
        for _ in range(runs):
            cur = ()
            for _depth in range(len(stages)):
                idx = int(searchsorted_draw(conditional_probs(cur), rng.random()))
                key = cur + (idx,)
                if key not in state_cache:
                    cand = stages[len(cur)].candidates[idx]
                    _, state_cache[key] = dynamics.realized_state(state_cache[cur], cand)
                cur = key
            counts[cur] = counts.get(cur, 0) + 1
            if first_path is None:
                first_path = cur
    return counts, first_path


def sample_counts(state, alts, n, rng):
    """Per-candidate counts of ``n`` draws: the stream of the test suite's
    ``sample_many``, drawn in blocks of ``DRAW_CHUNK`` so memory stays
    bounded.

    This is the one-stage draw loop ``epr`` counted with before it drew
    through :func:`eventweave.dynamics.sample_outcome_tree`; one replica's
    counts there must equal it bit for bit.
    """
    from eventweave import dynamics

    if n < 1:
        raise ValueError(f"runs must be positive, got {n}")
    probs = dynamics.alternative_probabilities(state, alts)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    counts = np.zeros(probs.size, dtype=np.int64)
    for start in range(0, n, dynamics.DRAW_CHUNK):
        u = rng.random(min(dynamics.DRAW_CHUNK, n - start))
        counts += np.bincount(searchsorted_draw(probs, u), minlength=probs.size)
    return counts


def naive_chain_rule(root, stages, paths, analytic):
    """``(paths checked, max |joint - analytic|)`` of the chain-rule check.

    This is the per-path loop :func:`eventweave.dynamics.sample_outcome_tree`
    replaced: every live path's joint is
    :func:`eventweave.dynamics.joint_probability` on the root state, so each
    prefix is applied again for every path below it.
    """
    from eventweave import dynamics

    checked, max_dev = 0, 0.0
    for path, prob in zip(paths, analytic):
        if prob <= dynamics.PRUNED_BRANCH_PROBABILITY:
            continue
        cands = [stages[d].candidates[i] for d, i in enumerate(path)]
        joint = dynamics.joint_probability(root, cands)
        checked += 1
        max_dev = max(max_dev, abs(joint - float(prob)))
    return checked, max_dev


def naive_grow(initial, steps, rng):
    """``(history, outcomes)`` of a history grown one drawn event per step.

    ``initial`` are the source vectors (event ids ``src0``, ``src1``, ...)
    and each of ``steps`` an alternative set on the frontier.  This is the
    loop ``realize`` ran before the frontier state was kept: every step
    cuts a fresh state of every event, draws one candidate by
    :func:`searchsorted_draw` with one ``rng.random()``, then cuts another
    fresh state and applies the drawn candidate again to gate its
    admission.  A cut passed explicitly is never the kept frontier state.
    A probability is ``c |ket><bra|`` applied to the components the bra
    names by the public vector operations, not by ``dynamics``' kernels.
    """
    from functools import reduce

    from eventweave import dynamics, tensors
    from eventweave.graph import History

    def probability(state, cand):
        touched = sorted({state.index[lid] for lid in cand.bra.label_ids})
        psi = reduce(tensors.tensor_product, (state.components[k] for k in touched))
        residual = tensors.contract(cand.bra, psi).scaled(cand.c)
        return tensors.tensor_product(cand.ket, residual).squared_norm()

    history = History()
    for c, vec in enumerate(initial):
        history.add_initial_event(vec, event_id=f"src{c}")
    outcomes = []
    for alts in steps:
        state = dynamics.cut_state(history, history.frontier_cut())
        probs = np.array([probability(state, cand) for cand in alts.candidates])
        if abs(probs.sum() - 1.0) > dynamics.EXHAUSTIVE_TOL:
            raise dynamics.NotExhaustive(float(probs.sum()), dynamics.EXHAUSTIVE_TOL)
        idx = int(searchsorted_draw(probs, rng.random()))
        cand = alts.candidates[idx]
        p = probability(dynamics.cut_state(history, history.frontier_cut()), cand)
        if p <= dynamics.ZERO_PROBABILITY_EPS:
            raise dynamics.ZeroProbabilityEvent(f"candidate has probability {p!r}")
        history.add_interior_event(cand.bra, cand.c, cand.ket, region=cand.region)
        outcomes.append(idx)
    return history, outcomes


# -- lattice loops (one cell, one offset, one packet at a time) ----------------


def naive_branch_vectors(kernel, cells, psi):
    """Branch vectors built one cell at a time, one row per cell: the
    cell operators of :func:`eventweave.cells.cell_decompose` applied to
    ``psi``.  A separable kernel transforms ``right * psi`` again for every
    cell, a dense one builds ``tau * ghat_k`` for every cell.
    """
    grid = kernel.grid
    n = grid.n_points
    idx = np.subtract.outer(np.arange(n), np.arange(n)) % n
    rows = []
    functions = cells.rows()
    for k in range(cells.n_cells):
        if kernel.is_separable:
            inner = np.fft.fft(kernel._right * psi)
            rows.append(
                kernel._left * (grid.dx * n * np.fft.ifft(functions[k] * inner))
            )
        else:
            rows.append((kernel.matrix * cells.hat(k)[idx]) @ psi)
    return np.array(rows)


def branch_norms(kernel, cells, psi):
    """Squared norms of every branch of a separable kernel, and of their sum,
    one n-point inverse transform per cell.

    This is the per-cell path the sweep's windowed norms replaced: branch k
    is ``left * dx n ifft(g_k * fft(right * psi))`` in full, and its norm
    is weighed over every momentum.
    """
    n = kernel.grid.n_points
    inner = np.fft.fft(kernel._right * psi)
    weight = np.abs(kernel._left) ** 2 * (kernel.grid.dx * n) ** 2
    functions = cells.rows()
    norms2 = np.array([
        np.abs(np.fft.ifft(functions[k] * inner)) ** 2 @ weight
        for k in range(cells.n_cells)
    ])
    out = np.fft.ifft(functions.sum(axis=0) * inner)
    return norms2, float(np.abs(out) ** 2 @ weight)


def naive_momentum_balance_spread(kernel, gk_hat, psi):
    """Spread of ``P_out - P_in`` summed one index offset ``m = i - j`` at a time.

    The weight of offset ``m`` is ``|ghat_k(m)|^2 sum_j |tau[j+m, j]|^2
    |psi_j|^2``, with the kernel diagonal read straight from the separable
    factors or the dense matrix.
    """
    grid = kernel.grid
    n = grid.n_points
    psi2 = np.abs(np.asarray(psi)) ** 2
    gk2 = np.abs(gk_hat) ** 2

    def diagonal(m):
        if not kernel.is_separable:
            return np.diagonal(kernel.matrix, offset=-m)
        if m >= 0:
            return kernel._left[m:] * kernel._right[: n - m]
        return kernel._left[: n + m] * kernel._right[-m:]

    w_total = q_sum = q2_sum = 0.0
    for m in range(-(n - 1), n):
        g2 = gk2[m % n]
        if g2 == 0.0:
            continue
        slice_psi2 = psi2[: n - m] if m >= 0 else psi2[-m:]
        w = g2 * float(np.dot(np.abs(diagonal(m)) ** 2, slice_psi2))
        q = m * grid.spacing
        w_total += w
        q_sum += w * q
        q2_sum += w * q * q
    mean = q_sum / w_total
    return math.sqrt(max(q2_sum / w_total - mean * mean, 0.0))


def fft_smoothed_indicators(grid, n_cells, smoothing_fraction):
    """Cell functions of :meth:`eventweave.cells.CellPartition.smoothed_indicators`
    by transforms: every indicator row is convolved with the normalized
    Gaussian through a forward and an inverse FFT of the whole matrix."""
    n = grid.n_points
    width = grid.box_length / n_cells
    assignment = (np.arange(n) * n_cells) // n
    indicators = np.zeros((n_cells, n))
    indicators[assignment, np.arange(n)] = 1.0
    if smoothing_fraction == 0:
        return indicators
    smoothing = smoothing_fraction * width
    x = grid.positions()
    half = grid.box_length / 2.0
    d = (x + half) % grid.box_length - half
    kern = np.exp(-(d**2) / (2.0 * smoothing**2))
    kern /= kern.sum()
    kern_hat = np.fft.fft(kern)
    return np.real(np.fft.ifft(np.fft.fft(indicators, axis=1) * kern_hat, axis=1))


def naive_validate(partition):
    """:meth:`eventweave.cells.CellPartition.validate`, one cell at a time:
    each cell's occupied arc is the box minus its largest gap between
    supported sites, found with its own ``diff``."""
    from eventweave.cells import PARTITION_TOL, SUPPORT_TOL
    from eventweave.errors import PartitionNotUnity

    functions = partition.rows()
    dev = float(np.max(np.abs(functions.sum(axis=0) - 1.0)))
    if not dev <= PARTITION_TOL:
        raise PartitionNotUnity(
            f"cell functions sum to 1 only within {dev:.3e} (> {PARTITION_TOL:g})"
        )
    grid = partition.grid
    n = grid.n_points
    pad = int(math.ceil(8.0 * partition.smoothing / grid.dx)) + 1
    cell_sites = n // partition.n_cells + 1
    for k in range(partition.n_cells):
        sites = np.flatnonzero(functions[k] >= SUPPORT_TOL)
        if sites.size == 0:
            continue
        gaps = np.diff(np.concatenate([sites, [sites[0] + n]]))
        arc = n - int(gaps.max()) + 1
        if arc > cell_sites + 2 * pad:
            raise ValueError(
                f"cell {k} spreads over {arc} sites; allowed "
                f"{cell_sites} + 2*{pad} padding"
            )


def naive_width_sweep(cell_counts, n_points, smoothing_fraction=0.15, tau_scale=2.0,
                      box_length=1.0):
    """:func:`eventweave.cells.width_sweep` one width at a time: FFT-smoothed
    cells, every branch weight and the coherence defect from
    :func:`branch_norms`, and the spread of branch ``n_cells // 2`` from the
    test suite's ``momentum_balance_spread`` with its own offset
    correlation.  Returns ``([(width, delta_p, coherence_defect), ...], slope)``.
    """
    from conftest import momentum_balance_spread, partition_of_rows
    from eventweave.cells import MomentumGrid, TKernel, default_sweep_state

    grid = MomentumGrid(n_points, box_length)
    p = grid.momenta()
    pmax = float(np.max(np.abs(p)))
    kernel = TKernel.separable(grid, np.exp(-(p**2) / (2.0 * (tau_scale * pmax) ** 2)))
    psi = default_sweep_state(grid)
    points = []
    for n_cells in cell_counts:
        width = grid.box_length / n_cells
        cells = partition_of_rows(
            grid, fft_smoothed_indicators(grid, n_cells, smoothing_fraction),
            width, smoothing_fraction * width,
        )
        norms2, out2 = branch_norms(kernel, cells, psi)
        k = n_cells // 2
        spread = momentum_balance_spread(kernel, cells, k, norms2[k], psi)
        points.append((width, spread, abs(out2 - float(norms2.sum()))))
    widths, spreads = np.log([pt[:2] for pt in points]).T
    return points, float(np.polyfit(widths, spreads, 1)[0])


def naive_packet_mixture_density(model, family):
    """Mixture matrix accumulated one (center, time) projector at a time."""
    from eventweave import thermal

    grid = model.grid
    p = grid.momenta()
    rho = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    rate = p**2 / (2.0 * model.mass * grid.hbar)
    count = 0
    for center in family.centers:
        phi0 = grid.to_momentum(thermal.gaussian_packet(model, center, family.sigma))
        for t in family.times:
            phi = phi0 * np.exp(-1j * rate * t)
            rho += np.multiply.outer(phi, np.conj(phi))
            count += 1
    return rho / count


def density_matrix(density, model, family):
    """Dense (sites x sites) form of a
    :class:`eventweave.thermal.MomentumDensity` that
    :func:`eventweave.thermal.packet_mixture_density` built from ``model``
    and ``family``, ``None`` when it is exactly diagonal: the kept packet's
    projector averaged over the family's free-evolution phases, rebuilt as
    that function builds them, times the ``shift`` factor, with the
    density's own diagonal bit for bit."""
    if density.packet is None:
        return None
    n = density.diagonal.size
    kinetic_phase_rate = model.grid.momenta()**2 / (2.0 * model.mass * model.grid.hbar)
    phases = np.exp(-1j * np.multiply.outer(family.times, kinetic_phase_rate))
    waves = density.packet * phases
    rho = sum(np.multiply.outer(w, w.conj()) for w in waves) / len(waves)
    sites = np.arange(n)
    rho *= density.shift[np.subtract.outer(sites, sites) % n]
    np.fill_diagonal(rho, density.diagonal)
    return rho


def dense_packet_mixture_density(model, family):
    """Mixture matrix as one dense product: each (center, time) packet is a
    row of ``Phi`` and the average is ``Phi^T conj(Phi) / rows``."""
    from eventweave import thermal

    grid = model.grid
    n = grid.n_points
    p = grid.momenta()
    kinetic_phase_rate = p**2 / (2.0 * model.mass * grid.hbar)
    phi = np.array([grid.to_momentum(thermal.gaussian_packet(model, c, family.sigma))
                    for c in family.centers])
    phases = np.exp(-1j * np.multiply.outer(family.times, kinetic_phase_rate))
    phi = (phi[:, None, :] * phases).reshape(-1, n)
    return phi.T @ phi.conj() / len(phi)
