"""Shared builders for the test suite."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from eventweave import cells, dynamics
from eventweave.dynamics import CandidateEvent, realize
from eventweave.epr import singlet_vector
from eventweave.dynamics import AlternativeSet
from eventweave.graph import History, region_to_dict, vector_to_dict
from eventweave.scenario import SCHEMA_NAME, Scenario, Stage
from eventweave.thermal import gaussian_packet
from eventweave.tensors import (
    FactorLabel,
    LabeledVector,
    ProductBra,
    SpaceType,
    contract,
    tensor_product,
)

SPIN = SpaceType("spin", 2)
POINTER = SpaceType("pointer", 1)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def random_unit_vector(labels, rng: np.random.Generator) -> LabeledVector:
    """Haar-ish random unit vector over the given factors."""
    size = 1
    for lab in labels:
        size *= lab.dim
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    amps /= np.linalg.norm(amps)
    return LabeledVector(labels, amps)


def apply_event_operator(c, bra, ket, psi) -> LabeledVector:
    """Apply the rank-1 event operator ``c |ket><bra|``: ``c * ket (x) <bra|psi``."""
    return tensor_product(ket, contract(bra, psi).scaled(c))


def threshold_tables(tables) -> list[np.ndarray]:
    """The threshold tables the outcome tree draws by, built from tables of
    conditional probabilities: each row's :func:`eventweave.dynamics._thresholds`,
    padded with ``inf``, and ``inf`` throughout a row with no live candidate."""
    stored = []
    for table in tables:
        out = np.full((table.shape[0], table.shape[1] - 1), np.inf)
        for row, probs in zip(out, table):
            if np.any(probs > dynamics.PRUNED_BRANCH_PROBABILITY):
                cuts = dynamics._thresholds(probs)
                row[:len(cuts)] = cuts
        stored.append(out)
    return stored


def sample_many(state, alts, n, rng) -> np.ndarray:
    """Vector of ``n`` draws by the package's draw rule; stream-equivalent
    to ``n`` single :func:`eventweave.dynamics.sample_extension` draws."""
    probs = dynamics.alternative_probabilities(state, alts)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return dynamics._sample_paths(threshold_tables([probs[None, :]]), rng.random((n, 1)))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of :func:`eventweave.scenario.scenario_from_dict`, bit-exact
    on amplitudes."""
    return {
        "schema": SCHEMA_NAME,
        "initial_events": [
            {"id": eid, "vector": vector_to_dict(vec), "region": region_to_dict(region)}
            for eid, vec, region in scenario.initial_events
        ],
        "stages": [
            {
                "name": stage.name,
                "candidates": [
                    {
                        "name": cand.name,
                        "c": [cand.c.real, cand.c.imag],
                        "bra": [vector_to_dict(f) for f in cand.bra.factors.values()],
                        "ket": vector_to_dict(cand.ket),
                        "region": region_to_dict(cand.region),
                    }
                    for cand in stage.alternatives.candidates
                ],
            }
            for stage in scenario.stages
        ],
    }


def partition_of_rows(grid, functions, width, smoothing) -> cells.CellPartition:
    """A :class:`eventweave.cells.CellPartition` whose cells are the rows of
    ``functions`` as given: one profile per cell, none shifted."""
    n_cells = len(functions)
    starts = np.zeros(n_cells + 1, dtype=np.intp)
    starts[-1] = grid.n_points
    return cells.CellPartition(grid, starts, np.asarray(functions, dtype=float),
                               np.arange(n_cells), width, smoothing)


def momentum_balance_spread(kernel, partition, k: int, norm2: float, psi) -> float:
    """Standard deviation of ``P_out - P_in`` for branch ``k``, whose
    squared norm is ``norm2``, by the sweep's own spread.

    The joint weight of a momentum pair is
    ``|tau(P',P) ghat_k(P'-P) psi(P)|^2``; the spread is taken over the
    transfer ``q = P' - P``.  A separable kernel's offset weights are the
    sweep's correlation; a dense kernel's are one bincount over the offset
    matrix.  Inputs should be concentrated away from the grid edges, since
    offsets are aliased by the lattice period.
    """
    n = kernel.grid.n_points
    if kernel.is_separable:
        by_offset = cells._offset_weights(kernel, psi)
    else:
        offsets = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
        tau2 = np.abs(kernel.matrix) ** 2 * np.abs(np.asarray(psi)) ** 2
        by_offset = np.bincount(offsets.ravel(), tau2.ravel())
    return cells._spread(kernel.grid, partition.hat(k), by_offset, norm2, k)


def recording_states_and_draws(monkeypatch) -> list:
    """Swap ``dynamics.cut_state`` and ``dynamics.replica_rng`` for stubs
    that record their names: an empty list means no state was built and
    nothing was sampled."""
    calls = []
    for name in ("cut_state", "replica_rng"):
        monkeypatch.setattr(dynamics, name, lambda *args, name=name: calls.append(name))
    return calls


def counting_transforms(monkeypatch) -> list:
    """Every ``np.fft.fft`` and ``np.fft.ifft`` call the package makes, by name."""
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def bell_pair(a_id: str, b_id: str) -> LabeledVector:
    return LabeledVector(
        [FactorLabel(a_id, SPIN), FactorLabel(b_id, SPIN)],
        np.array([1, 0, 0, 1], dtype=complex) * SQRT_HALF,
    )


def unit_factor(link_id: str, amps, space=SPIN) -> LabeledVector:
    return LabeledVector([FactorLabel(link_id, space)], amps)


def distance(u: LabeledVector, v: LabeledVector) -> float:
    """Max absolute amplitude difference of two vectors with equal labels."""
    assert u.labels == v.labels, (u.label_ids, v.label_ids)
    return float(np.max(np.abs(u.amps - v.amps)))


def saturated(h: History, event_id: str) -> bool:
    """True iff every forward link of the event has been absorbed."""
    return not set(h.events[event_id].forward_links) & h.free_links()


def packet_overlap(model, sigma: float, c1: float, c2: float) -> float:
    """|<psi_c1|psi_c2>| for two lattice packets of width ``sigma``."""
    return abs(np.vdot(gaussian_packet(model, c1, sigma), gaussian_packet(model, c2, sigma)))


def position_to_momentum(grid, psi_x: np.ndarray) -> np.ndarray:
    """Unitary map onto ``grid.momenta()`` order with phase ``exp(+i p x / hbar)``,
    the sign of :meth:`CellPartition.hat`; the package's own transform is
    :meth:`MomentumGrid.to_momentum`, the opposite sign."""
    return math.sqrt(grid.n_points) * np.fft.fftshift(np.fft.ifft(psi_x))


def momentum_to_position(grid, psi_p: np.ndarray) -> np.ndarray:
    """Inverse of :func:`position_to_momentum`."""
    return np.fft.fft(np.fft.ifftshift(psi_p)) / math.sqrt(grid.n_points)


def one_sided(setup, side: str, outcome: str) -> CandidateEvent:
    """Analyzer ``side``'s (``"1"`` or ``"2"``) one-sided ``outcome`` event
    of an :class:`eventweave.epr.EprSetup`: the bra factors the merged
    candidates hold for that side (``alpha`` and ``gamma``, or ``beta`` and
    ``delta``), emitting ``out1`` or ``out2``."""
    links = ("alpha", "gamma") if side == "1" else ("beta", "delta")
    merged = next(cand for cand in setup.alternatives.candidates
                  if cand.name[int(side) - 1] == outcome)
    return CandidateEvent(
        bra=ProductBra([merged.bra.factor(link) for link in links]),
        c=1.0,
        ket=unit_factor(f"out{side}", [1.0], POINTER),
        name=side + outcome,
    )


def assert_round_trip_is_bit_exact(h: History) -> History:
    """Load ``h.to_json()`` and check that the copy is ``h`` bit for bit: the
    same JSON bytes, every emitted vector and bra factor with the same
    labels and amplitude bytes, the same amplitudes, open links and fresh
    frontier state, and no problem for ``validate``.  Returns the copy."""
    text = h.to_json()
    back = History.from_json(text)
    assert back.to_json() == text
    assert back.validate() == []
    assert back.events.keys() == h.events.keys()
    for eid, ev in h.events.items():
        got = back.events[eid]
        pairs = [(got.emitted_vector, ev.emitted_vector)]
        assert (got.bra is None) == (ev.bra is None)
        if ev.bra is not None:
            assert list(got.bra.factors) == list(ev.bra.factors)
            pairs += [(got.bra.factors[lid], fac) for lid, fac in ev.bra.factors.items()]
        for vec, want in pairs:
            assert vec.labels == want.labels
            assert vec.amps.dtype == want.amps.dtype and vec.amps.tobytes() == want.amps.tobytes()
        assert np.array(got.amplitude).tobytes() == np.array(ev.amplitude).tobytes()
    assert back.free_links() == h.free_links()
    fresh = (dynamics.cut_state(back, back.events), dynamics.cut_state(h, h.events))
    for vec, want in zip(*(state.components for state in fresh), strict=True):
        assert vec.labels == want.labels and vec.amps.tobytes() == want.amps.tobytes()
    return back


def generic_figure() -> History:
    """Three initial events: two entangled residue pairs plus a singlet."""
    h = History()
    h.add_initial_event(bell_pair("gamma", "res1"), event_id="ap1")
    h.add_initial_event(bell_pair("delta", "res2"), event_id="ap2")
    h.add_initial_event(singlet_vector("alpha", "beta"), event_id="decay")
    return h


def figure_outcome_candidates(rng=None):
    """Candidate events 4 and 5 consuming (alpha, gamma) and (beta, delta)."""
    if rng is None:
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        bra4 = ProductBra([unit_factor("alpha", up), unit_factor("gamma", up)])
        # the singlet anticorrelates the two spins, so take the opposite side down
        bra5 = ProductBra([unit_factor("beta", down), unit_factor("delta", up)])
        ket4 = unit_factor("out4", [1.0], POINTER)
        ket5 = unit_factor("out5", [1.0], POINTER)
        c4 = c5 = 1.0
    else:
        bra4 = ProductBra(
            [
                random_unit_vector([FactorLabel("alpha", SPIN)], rng),
                random_unit_vector([FactorLabel("gamma", SPIN)], rng),
            ]
        )
        bra5 = ProductBra(
            [
                random_unit_vector([FactorLabel("beta", SPIN)], rng),
                random_unit_vector([FactorLabel("delta", SPIN)], rng),
            ]
        )
        ket4 = random_unit_vector([FactorLabel("out4", SPIN)], rng)
        ket5 = random_unit_vector([FactorLabel("out5", SPIN)], rng)
        c4 = complex(rng.normal(), rng.normal()) / 2.0
        c5 = complex(rng.normal(), rng.normal()) / 2.0
    e4 = CandidateEvent(bra=bra4, c=c4, ket=ket4, name="ev4")
    e5 = CandidateEvent(bra=bra5, c=c5, ket=ket5, name="ev5")
    return e4, e5


#: a uniform inside the residual gap of :func:`gap_alternatives`
STUCK_UNIFORM = 1.0 - 1e-12

#: scales the two live candidates of :func:`gap_alternatives` so their
#: probabilities sum to 1 - 4e-10, inside the exhaustiveness tolerance
GAP_WEIGHT = math.sqrt(1.0 - 4e-10)


class StuckGenerator(np.random.Generator):
    """Generator whose every uniform is :data:`STUCK_UNIFORM`."""

    def __init__(self, *_args):
        super().__init__(np.random.PCG64(0))

    def random(self, size=None, dtype=np.float64, out=None):
        return STUCK_UNIFORM if size is None else np.full(size, STUCK_UNIFORM)


def gap_alternatives(link_id: str, out_id: str) -> AlternativeSet:
    """Three candidates on a |+> spin: up, down, and a zero-weight |->.

    Up and down carry weight ``GAP_WEIGHT``, so ``cumsum(probs)`` ends just
    below 1 and a uniform of ``STUCK_UNIFORM`` falls past it.
    """
    def cand(amps, c, name):
        return CandidateEvent(
            bra=ProductBra([unit_factor(link_id, amps)]), c=c,
            ket=unit_factor(out_id, [1.0], POINTER), name=name,
        )

    return AlternativeSet([
        cand([1.0, 0.0], GAP_WEIGHT, "up"),
        cand([0.0, 1.0], GAP_WEIGHT, "down"),
        cand([SQRT_HALF, -SQRT_HALF], 1.0, "minus"),
    ])


def spin_alternatives(link_id: str, out_id: str) -> AlternativeSet:
    return AlternativeSet([
        CandidateEvent(
            bra=ProductBra([unit_factor(link_id, amps)]), c=1.0,
            ket=unit_factor(out_id, [1.0], POINTER), name=name,
        )
        for amps, name in (([1.0, 0.0], "up"), ([0.0, 1.0], "down"))
    ])


def zero_branch_scenario() -> Scenario:
    """Three stages: a residual gap at stage 0, dead subtrees after it.

    Stage 0 is :func:`gap_alternatives` on a |+> spin; stages 1 and 2
    measure the two halves of a singlet, so half of the stage-2 branches
    have conditional probability 0.
    """
    return Scenario(
        initial_events=[
            ("src", unit_factor("s", [SQRT_HALF, SQRT_HALF]), None),
            ("decay", singlet_vector("alpha", "beta"), None),
        ],
        stages=[
            Stage("tilt", gap_alternatives("s", "o_tilt")),
            Stage("left", spin_alternatives("alpha", "o_left")),
            Stage("right", spin_alternatives("beta", "o_right")),
        ],
    )


def singlet_pairs_scenario(pairs: int) -> Scenario:
    """Independent singlets; two stages each measure one pair (pairs 0 and
    1), so every component of the cut state has 4 amplitudes."""
    def pair_stage(i):
        up = unit_factor(f"a{i}", [1.0, 0.0]), unit_factor(f"b{i}", [1.0, 0.0])
        down = unit_factor(f"a{i}", [0.0, 1.0]), unit_factor(f"b{i}", [0.0, 1.0])
        ket = unit_factor(f"m{i}", [1.0], POINTER)
        return Stage(f"pair{i}", AlternativeSet([
            CandidateEvent(bra=ProductBra([sa, sb]), c=1.0, ket=ket, name=na + nb)
            for sa, na in zip((up[0], down[0]), "+-")
            for sb, nb in zip((up[1], down[1]), "+-")
        ]))

    return Scenario(
        initial_events=[(f"pair{i}", singlet_vector(f"a{i}", f"b{i}"), None)
                        for i in range(pairs)],
        stages=[pair_stage(0), pair_stage(1)],
    )


def spanning_pairs_scenario(pairs: int) -> Scenario:
    """Independent singlets and one stage whose bras span the ``a`` link of
    every pair, so its probabilities merge all ``4**pairs`` amplitudes."""
    ket = unit_factor("m", [1.0], POINTER)
    spins = {"+": [1.0, 0.0], "-": [0.0, 1.0]}
    cands = [
        CandidateEvent(
            bra=ProductBra([unit_factor(f"a{i}", spins[s]) for i, s in enumerate(signs)]),
            c=1.0, ket=ket, name="".join(signs),
        )
        for signs in itertools.product("+-", repeat=pairs)
    ]
    return Scenario(
        initial_events=[(f"pair{i}", singlet_vector(f"a{i}", f"b{i}"), None)
                        for i in range(pairs)],
        stages=[Stage("all-a", AlternativeSet(cands))],
    )


class HistoryFactory:
    """Randomized small histories with a bounded composite size."""

    def __init__(self, rng: np.random.Generator, max_amplitudes: int = 1024):
        self.rng = rng
        self.max_amplitudes = max_amplitudes
        self._link_counter = itertools.count()

    def fresh_labels(self, k: int, current_size: int) -> list[FactorLabel]:
        labels = []
        size = current_size
        for _ in range(k):
            dim = int(self.rng.integers(1, 5))
            if size * dim > self.max_amplitudes:
                dim = 1
            size *= dim
            labels.append(
                FactorLabel(f"L{next(self._link_counter)}", SpaceType(f"d{dim}", dim))
            )
        return labels

    def _frontier_size(self, h: History) -> int:
        size = 1
        for lid in h.free_links():
            size *= h.links[lid].space.dim
        return size

    def random_history(self, max_events: int = 6) -> History:
        h = History()
        n_init = int(self.rng.integers(1, 4))
        for _ in range(n_init):
            labels = self.fresh_labels(
                int(self.rng.integers(1, 4)), self._frontier_size(h)
            )
            h.add_initial_event(random_unit_vector(labels, self.rng))
        n_interior = int(self.rng.integers(0, max_events - n_init + 1))
        for _ in range(n_interior):
            cand = self.random_candidate(h, allow_empty_ket=True)
            if cand is None:
                break
            try:
                realize(h, None, cand)
            except Exception:
                break
        return h

    def random_candidate(
        self,
        h: History,
        links=None,
        n_ket_labels: int | None = None,
        allow_empty_ket: bool = False,
    ) -> CandidateEvent | None:
        free = sorted(h.free_links())
        if not free:
            return None
        if links is None:
            take = min(len(free), int(self.rng.integers(1, 3)))
            links = [free[i] for i in self.rng.choice(len(free), take, replace=False)]
        bra = ProductBra(
            [
                random_unit_vector([FactorLabel(lid, h.links[lid].space)], self.rng)
                for lid in links
            ]
        )
        if n_ket_labels is None:
            low = 0 if allow_empty_ket else 1
            n_ket_labels = int(self.rng.integers(low, 3))
        if n_ket_labels == 0:
            ket = LabeledVector.scalar(1.0)
        else:
            ket = random_unit_vector(
                self.fresh_labels(n_ket_labels, self._frontier_size(h)), self.rng
            )
        c = complex(self.rng.normal(), self.rng.normal()) / 2.0
        if abs(c) < 1e-3:
            c = 1.0
        return CandidateEvent(bra=bra, c=c, ket=ket)


#: what a mutation may write in place of a JSON value: every JSON type, the
#: constants Python's ``json`` reads (NaN, Infinity), numbers at the edges of
#: the float range and strings that ``float`` or ``int`` would accept
ODD_JSON_VALUES = (
    None, True, False, 0, -1, 1, 3, 2.5, -0.0, 1e-320, 1e308, 10**400,
    math.inf, -math.inf, math.nan, "", "x", "1", "spin", [], [None], [1.0, 0.0],
    {}, {"x": 1},
)


def _json_slots(doc):
    """Every ``(container, key)`` that holds a value of ``doc``, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _json_slots(value)


def mutate_json(doc, draw) -> None:
    """One random edit of the JSON document ``doc``, in place, with choices
    drawn by ``draw`` (hypothesis's ``data.draw``): a value replaced by one of
    :data:`ODD_JSON_VALUES` or by a copy of another value of the document, a
    value deleted, or a list item repeated."""
    slots = list(_json_slots(doc))
    container, key = draw(st.sampled_from(slots))
    edits = ("odd", "copy", "delete", "repeat") if isinstance(container, list) else (
        "odd", "copy", "delete")
    edit = draw(st.sampled_from(edits))
    if edit == "odd":
        container[key] = copy.deepcopy(draw(st.sampled_from(ODD_JSON_VALUES)))
    elif edit == "copy":
        source, source_key = draw(st.sampled_from(slots))
        container[key] = copy.deepcopy(source[source_key])
    elif edit == "delete":
        del container[key]
    else:
        container.insert(key, copy.deepcopy(container[key]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
