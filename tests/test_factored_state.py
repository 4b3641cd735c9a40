"""Cut states as products of per-source components, against the dense oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import (
    HistoryFactory,
    apply_event_operator,
    distance,
    generic_figure,
    random_unit_vector,
    sample_many,
    scenario_to_dict,
    singlet_pairs_scenario,
    unit_factor,
)
from eventweave import dynamics, epr, tensors
from eventweave.dynamics import (
    CandidateEvent,
    cut_state,
    event_probability,
    realized_state,
    sample_outcome_tree,
)
from eventweave.errors import LabelCollision, MissingLabel, ZeroProbabilityEvent
from eventweave.graph import Cut, History
from eventweave.scenario import load_scenario
from eventweave.tensors import FactorLabel, LabeledVector, ProductBra, SpaceType

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def random_past_closed_cut(h, rng) -> Cut:
    """Each event joins with probability 0.7 once every source it absorbs from
    has joined; insertion order is causal order."""
    inside = set()
    for eid, ev in h.events.items():
        sources = {h.links[lid].source for lid in ev.backward_links}
        if sources <= inside and rng.random() < 0.7:
            inside.add(eid)
    return Cut.of(inside)


def random_candidate(factory, labels, rng) -> CandidateEvent:
    """A bra over 1-3 of ``labels`` (so it may span several components), a
    ket over 0-2 fresh links and a random weight."""
    take = rng.choice(len(labels), size=min(len(labels), int(rng.integers(1, 4))),
                      replace=False)
    bra = ProductBra([random_unit_vector([labels[i]], rng) for i in take])
    ket = random_unit_vector(factory.fresh_labels(int(rng.integers(0, 3)), 1), rng)
    return CandidateEvent(bra=bra, c=complex(rng.normal(), rng.normal()) / 2.0, ket=ket)


def test_frontier_states_match_the_full_walk_while_chains_grow():
    """Four seeded qubit chains grown by 240 measured events: at every step
    the frontier state read from the kept open links equals, bit for bit,
    the one a fresh cut of every event builds by the full walk and scan."""
    rng = np.random.default_rng(2015)
    qubit = SpaceType("qubit", 2)
    h, heads = History(), [0] * 4
    for c in range(4):
        h.add_initial_event(random_unit_vector([FactorLabel(f"c{c}_000", qubit)], rng),
                            event_id=f"src{c}")
    for k in range(240):
        c = k % 4
        link, heads[c] = f"c{c}_{heads[c]:03d}", heads[c] + 1
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ket = random_unit_vector([FactorLabel(f"c{c}_{heads[c]:03d}", qubit)], rng)
        alts = dynamics.AlternativeSet([
            CandidateEvent(bra=ProductBra([LabeledVector([FactorLabel(link, qubit)],
                                                         basis[:, j])]), c=1.0, ket=ket)
            for j in range(2)
        ])
        state = cut_state(h)
        full = cut_state(h, Cut.of(h.events))
        assert [v.labels for v in state.components] == [v.labels for v in full.components]
        assert all(np.array_equal(a.amps, b.amps)
                   for a, b in zip(state.components, full.components))
        idx = dynamics.sample_extension(state, alts, rng)
        eid = dynamics.realize(h, None, alts.candidates[idx])
        assert eid in h.frontier_cut().past_event_ids
    assert len(h.events) == 244


def test_factored_states_match_the_dense_oracle(rng):
    """Composites, candidate probabilities and two-step sequences on random
    histories and random past-closed cuts; a realized state's composite is
    the dense one up to a global phase."""
    factory = HistoryFactory(rng)
    sequences = 0
    for _ in range(80):
        h = factory.random_history(max_events=8)
        cut = random_past_closed_cut(h, rng)
        try:
            dense = reference.dense_cut_state(h, cut)
        except ZeroProbabilityEvent:
            continue
        state = cut_state(h, cut)
        assert all(abs(vec.squared_norm() - 1.0) < 1e-15 for vec in state.components)
        assert state.composite.labels == dense.composite.labels
        assert distance(state.composite, dense.composite) < 1e-14
        labels = dense.composite.labels
        if not labels:
            continue
        for _ in range(3):
            e = random_candidate(factory, labels, rng)
            assert abs(event_probability(state, e) - event_probability(dense, e)) < 1e-14
        e = random_candidate(factory, labels, rng)
        applied = apply_event_operator(e.c, e.bra, e.ket, dense.composite)
        p1 = applied.squared_norm()
        if p1 < 1e-6:
            continue
        got, after = realized_state(state, e)
        assert abs(got - p1) < 1e-14
        expected = applied.scaled(1.0 / np.sqrt(p1))
        overlap = np.vdot(after.composite.amps, expected.amps)
        assert distance(after.composite.scaled(overlap / abs(overlap)), expected) < 1e-14
        if not applied.labels:
            continue
        f = random_candidate(factory, applied.labels, rng)
        p2 = apply_event_operator(f.c, f.bra, f.ket, applied).squared_norm() / p1
        assert abs(event_probability(after, f) - p2) < 1e-14
        sequences += 1
    assert sequences >= 20


def test_components_are_one_per_source_and_shared_after_an_event():
    h = generic_figure()
    state = cut_state(h)
    assert [vec.label_ids for vec in state.components] == [
        ("gamma", "res1"), ("delta", "res2"), ("alpha", "beta")
    ]
    ket = unit_factor("out", [1.0], tensors.SpaceType("pointer", 1))
    cand = CandidateEvent(
        bra=ProductBra([unit_factor("alpha", [1.0, 0.0])]), c=1j, ket=ket
    )
    p, after = realized_state(state, cand)
    assert p == pytest.approx(0.5, abs=1e-15)
    assert after.components[:2] == state.components[:2]
    assert all(a is b for a, b in zip(after.components, state.components[:2]))
    assert [vec.label_ids for vec in after.components[2:]] == [("beta",), ("out",)]


def test_bra_links_missing_and_ket_labels_taken_are_refused():
    state = cut_state(generic_figure())
    pointer = tensors.SpaceType("pointer", 1)
    missing = CandidateEvent(
        bra=ProductBra([unit_factor("nope", [1.0, 0.0])]), c=1.0,
        ket=unit_factor("out", [1.0], pointer),
    )
    with pytest.raises(MissingLabel):
        event_probability(state, missing)
    # "res1" lives in a component this bra does not touch
    taken = CandidateEvent(
        bra=ProductBra([unit_factor("alpha", [1.0, 0.0])]), c=1.0,
        ket=unit_factor("res1", [1.0, 0.0]),
    )
    with pytest.raises(LabelCollision, match=r"^link ids already used: \['res1'\]$"):
        realized_state(state, taken)
    reused = CandidateEvent(
        bra=ProductBra([unit_factor("alpha", [1.0, 0.0])]), c=1.0,
        ket=unit_factor("alpha", [1.0, 0.0]),
    )
    # History refuses to re-emit a consumed link, so no probability is given
    for api in (event_probability, realized_state):
        with pytest.raises(LabelCollision, match=r"^link ids already used: \['alpha'\]$"):
            api(state, reused)


@pytest.mark.parametrize("name", ["figure.json", "three_stage.json"])
@pytest.mark.parametrize("replicas", [1, 3])
def test_sampled_outcomes_equal_those_from_the_dense_root(name, replicas, monkeypatch):
    scen = load_scenario(SCENARIOS / name)
    stages = [st.alternatives for st in scen.stages]
    factored = [sample_outcome_tree(scen.build_history(), stages, 3000, seed, replicas)
                for seed in range(5)]
    monkeypatch.setattr(dynamics, "cut_state", reference.dense_cut_state)
    for seed, tree in enumerate(factored):
        dense = sample_outcome_tree(scen.build_history(), stages, 3000, seed, replicas)
        assert tree.counts == dense.counts
        assert tree.first_path == dense.first_path
        assert np.allclose(tree.analytic, dense.analytic, rtol=0.0, atol=1e-14)


def test_shipped_pairs24_scenario_is_24_singlet_pairs():
    shipped = json.loads((SCENARIOS / "pairs24.json").read_text())
    assert shipped == scenario_to_dict(singlet_pairs_scenario(24))


def test_24_pairs_never_build_a_product_above_16_amplitudes(monkeypatch):
    """4**24 amplitudes exceed MAX_AMPLITUDES, so the dense state cannot be
    built, while the factored outcome tree multiplies only small vectors."""
    scen = load_scenario(SCENARIOS / "pairs24.json")
    stages = [st.alternatives for st in scen.stages]
    with pytest.raises(ValueError, match="MAX_AMPLITUDES"):
        reference.dense_cut_state(scen.build_history())
    sizes = []
    original = tensors._outer

    def counting(u, v):
        out = original(u, v)
        sizes.append(out[2].size)
        return out

    monkeypatch.setattr(tensors, "_outer", counting)  # under tensor_product
    monkeypatch.setattr(dynamics, "_outer", counting)
    tree = sample_outcome_tree(scen.build_history(), stages, 2000, 0, 2)
    assert sizes and max(sizes) <= 16
    assert sorted(tree.analytic) == pytest.approx([0.0] * 12 + [0.25] * 4, abs=1e-15)
    assert tree.chain_rule_checked == 4 and tree.chain_rule_max_dev <= 1e-15


def test_blocked_draws_equal_one_block(monkeypatch):
    scen = load_scenario(SCENARIOS / "figure.json")
    stages = [st.alternatives for st in scen.stages]
    setup = epr.build_epr(epr.Direction.in_plane_deg(0.0), epr.Direction.in_plane_deg(40.0))

    def draw():
        tree = sample_outcome_tree(scen.build_history(), stages, 50, 3, 3)
        epr_tree = sample_outcome_tree(setup.history, [setup.alternatives], 50, 3, 2)
        return tree.counts, tree.first_path, epr_tree.replica_counts[1]

    counts, first, epr_counts = draw()
    draws = sample_many(setup.state, setup.alternatives, 50, dynamics.replica_rng(3, 1))
    assert np.array_equal(epr_counts, np.bincount(draws, minlength=4))
    monkeypatch.setattr(dynamics, "DRAW_CHUNK", 7)
    chunked_counts, chunked_first, chunked_epr_counts = draw()
    assert chunked_counts == counts
    assert chunked_first == first
    assert np.array_equal(chunked_epr_counts, epr_counts)


def test_candidates_spanning_the_same_components_merge_them_once(monkeypatch):
    """Every EPR outcome spans the singlet and both setting pointers: the
    three components are multiplied out once (two products) for the four
    candidates, into exactly the dense composite.  The outer-product kernel
    counts both the merges (under ``tensor_product``) and the ket products."""
    setup = epr.build_epr(epr.Direction.in_plane_deg(0.0), epr.Direction.in_plane_deg(40.0))
    calls = []
    original = tensors._outer

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(tensors, "_outer", counting)
    monkeypatch.setattr(dynamics, "_outer", counting)
    dynamics.alternative_probabilities(setup.state, setup.alternatives)
    assert len(calls) == 2 + 4  # one merge, then one ket product per candidate
    assert len(setup.state.components) == 3
    assert list(setup.state.merged) == [(0, 1, 2)]
    assert setup.state.merged[(0, 1, 2)] == reference.dense_cut_state(setup.history).composite
