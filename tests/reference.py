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


# -- staged sampling (one uniform per draw) ------------------------------------


def naive_simulate_counts(history, stages, runs, seed, replicas=1):
    """Per-draw walk of the outcome tree: ``({path: count}, first_path)``.

    This is the loop :func:`eventweave.dynamics.sample_outcome_tree`
    replaced: one ``rng.random()`` per stage per run, with conditional
    states and probabilities memoized per path.  It still clips a uniform
    past ``cumsum(probs)[-1]`` to the last candidate, so it agrees with the
    engine only while no uniform lands in that residual gap.
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
                probs = conditional_probs(cur)
                u = rng.random()
                idx = int(
                    np.searchsorted(np.cumsum(probs), u, side="right").clip(
                        0, len(probs) - 1
                    )
                )
                key = cur + (idx,)
                if key not in state_cache and float(probs[idx]) > 1e-15:
                    cand = stages[len(cur)].candidates[idx]
                    _, state_cache[key] = dynamics.realized_state(state_cache[cur], cand)
                cur = key
            counts[cur] = counts.get(cur, 0) + 1
            if first_path is None:
                first_path = cur
    return counts, first_path
