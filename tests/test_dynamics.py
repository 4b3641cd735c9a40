"""Probability law: cut states, joints, sampling, realization, properties."""

import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import (
    POINTER,
    SPIN,
    SQRT_HALF,
    HistoryFactory,
    StuckGenerator,
    assert_round_trip_is_bit_exact,
    bell_pair,
    distance,
    figure_outcome_candidates,
    gap_alternatives,
    generic_figure,
    one_sided,
    random_unit_vector,
    recording_states_and_draws,
    sample_many,
    saturated,
    spin_alternatives,
    threshold_tables,
    unit_factor,
    zero_branch_scenario,
)
from eventweave import dynamics, graph, tensors
from eventweave.dynamics import (
    ZERO_PROBABILITY_EPS,
    AlternativeSet,
    CandidateEvent,
    alternative_probabilities,
    cut_state,
    event_probability,
    joint_probability,
    realize,
    realized_state,
    sample_extension,
    sample_outcome_tree,
)
from eventweave.epr import Direction, build_epr, singlet_vector, spin_eigenvectors
from eventweave.errors import (
    InvalidCut,
    LabelCollision,
    NotExhaustive,
    OverlappingBackwardLinks,
    ZeroProbabilityEvent,
)
from eventweave.graph import Cut, History
from eventweave.scenario import Scenario, Stage, load_scenario
from eventweave.tensors import (
    FactorLabel,
    LabeledVector,
    ProductBra,
    SpaceType,
    tensor_product,
)


def pure_absorber_chunk(h, rng, prefix="chunk"):
    """Append a fully saturated two-event pattern (emit then absorb all)."""
    vec = random_unit_vector([FactorLabel(f"{prefix}_l", SPIN)], rng)
    h.add_initial_event(vec, event_id=f"{prefix}_a")
    h.add_interior_event(
        ProductBra([vec]), 1.0, LabeledVector.scalar(1.0), event_id=f"{prefix}_c"
    )


# -- cut_state -------------------------------------------------------------------


def test_cut_state_of_the_decay_alone_is_the_singlet():
    h = generic_figure()
    s = cut_state(h, Cut.of(["decay"]))
    assert distance(s.composite, singlet_vector("alpha", "beta")) < 1e-15


def test_cut_state_takes_a_plain_list_of_event_ids():
    h = generic_figure()
    got = cut_state(h, ["ap1", "decay"]).composite
    want = cut_state(h, Cut.of(["ap1", "decay"])).composite
    assert got.labels == want.labels and np.array_equal(got.amps, want.amps)


def test_a_past_that_never_happens_has_no_cut_state():
    """``add_interior_event`` gates no probability, so a history may hold an
    event whose bra is orthogonal to the vector it consumes; the source's
    free link ``t`` then carries the zero vector."""
    h = History()
    h.add_initial_event(tensor_product(unit_factor("s", [1.0, 0.0]),
                                       unit_factor("t", [1.0, 0.0])))
    h.add_interior_event(ProductBra([unit_factor("s", [0.0, 1.0])]), 1.0,
                         unit_factor("o", [1.0], POINTER))
    with pytest.raises(ZeroProbabilityEvent,
                       match=r"^cut state has squared norm 0\.0; this past never happens$"):
        cut_state(h)


def test_cut_state_of_the_three_initial_events_is_their_product():
    h = generic_figure()
    s = cut_state(h, Cut.of(["ap1", "ap2", "decay"]))
    expected = tensor_product(
        tensor_product(bell_pair("gamma", "res1"), bell_pair("delta", "res2")),
        singlet_vector("alpha", "beta"),
    )
    assert s.composite.labels == expected.labels
    assert distance(s.composite, expected) < 1e-12


def test_cut_state_of_saturated_events_only_is_scalar_one(rng):
    h = History()
    pure_absorber_chunk(h, rng)
    s = cut_state(h)
    assert s.composite.labels == ()
    assert abs(complex(s.composite) - 1.0) < 1e-12


def history_of(h, event_ids):
    """A new history holding only the given events of ``h``, re-added in order."""
    g = History()
    for eid in event_ids:
        ev = h.events[eid]
        if ev.bra is None:
            g.add_initial_event(ev.emitted_vector, event_id=eid)
        else:
            g.add_interior_event(ev.bra, ev.amplitude, ev.emitted_vector, event_id=eid)
    return g


def test_cut_state_ignores_absorptions_outside_the_cut(rng):
    factory = HistoryFactory(rng)
    prefixes = 0
    for _ in range(30):
        h = factory.random_history(max_events=8)
        ids = list(h.events)
        for k in range(len(ids) + 1):
            got = cut_state(h, Cut.of(ids[:k])).composite
            alone = cut_state(history_of(h, ids[:k])).composite
            assert got.labels == alone.labels
            assert np.array_equal(got.amps, alone.amps)
            prefixes += 1
    assert prefixes >= 60


def test_cut_state_of_long_chains_is_the_product_of_their_heads(rng):
    h = History()
    heads = [
        h.add_initial_event(random_unit_vector([FactorLabel(f"c{i}_0", SPIN)], rng))
        for i in range(4)
    ]
    for step in range(1, 150):
        for i, head in enumerate(heads):
            (lid,) = h.events[head].forward_links
            bra = ProductBra([random_unit_vector([FactorLabel(lid, SPIN)], rng)])
            ket = random_unit_vector([FactorLabel(f"c{i}_{step}", SPIN)], rng)
            heads[i] = h.add_interior_event(bra, 1.0, ket)
    assert len(h.events) == 600
    expected = LabeledVector.scalar(1.0)
    for head in sorted(heads):
        expected = tensor_product(expected, h.events[head].emitted_vector)
    got = cut_state(h).composite
    assert got.labels == expected.labels
    assert distance(got, expected) < 1e-14


# -- event_probability --------------------------------------------------------------


def test_any_spin_outcome_on_the_singlet_has_probability_half(rng):
    h = History()
    h.add_initial_event(singlet_vector("alpha", "beta"))
    s = cut_state(h)
    for _ in range(5):
        v = rng.standard_normal(3)
        e = Direction.from_cartesian(*v)
        plus, _ = spin_eigenvectors(e)
        cand = CandidateEvent(
            bra=ProductBra([LabeledVector([FactorLabel("alpha", SPIN)], plus)]),
            c=1.0,
            ket=unit_factor("out", [1.0], POINTER),
        )
        assert abs(event_probability(s, cand) - 0.5) < 1e-12


def test_zero_weight_candidate_has_zero_probability(rng):
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    dead = CandidateEvent(bra=e4.bra, c=0.0, ket=e4.ket)
    assert event_probability(cut_state(h), dead) == 0.0


def test_realized_state_refuses_a_zero_probability_candidate():
    e4, _ = figure_outcome_candidates()
    dead = CandidateEvent(bra=e4.bra, c=0.0, ket=e4.ket)
    with pytest.raises(ZeroProbabilityEvent, match=r"^candidate has probability 0\.0$"):
        realized_state(cut_state(generic_figure()), dead)


def test_event_probability_matches_the_index_sum_oracle(rng):
    h = generic_figure()
    e4, _ = figure_outcome_candidates(rng)
    s = cut_state(h, Cut.of(["ap1", "decay"]))
    p = event_probability(s, e4)
    bra_map = {lid: list(f.amps) for lid, f in e4.bra.factors.items()}
    expected = reference.naive_apply_probability(
        e4.c, bra_map, *reference.parts(e4.ket), *reference.parts(s.composite)
    )
    assert abs(p - expected) < 1e-12


# -- joint_probability ---------------------------------------------------------------


def _epr_pair_candidates(theta_deg, s1, s2):
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(theta_deg))
    return setup, [one_sided(setup, "1", s1), one_sided(setup, "2", s2)]


def test_joint_for_aligned_analyzers_never_agrees():
    setup, cands = _epr_pair_candidates(0.0, "+", "+")
    assert joint_probability(setup.state, cands) < 1e-30


def test_joint_values_match_the_matrix_oracle():
    for theta, s1, s2, frozen in (
        (180.0, "+", "+", 0.5),
        (90.0, "+", "+", 0.25),
        (60.0, "-", "+", 0.375),
    ):
        setup, cands = _epr_pair_candidates(theta, s1, s2)
        got = joint_probability(setup.state, cands)
        want = reference.singlet_pair_probability(
            astuple(Direction.in_plane_deg(0.0)), +1 if s1 == "+" else -1,
            astuple(Direction.in_plane_deg(theta)), +1 if s2 == "+" else -1,
        )
        assert abs(got - want) < 1e-12
        assert abs(got - frozen) < 1e-12


def test_joint_rejects_overlapping_backward_links():
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    with pytest.raises(OverlappingBackwardLinks):
        joint_probability(cut_state(h), [e4, e4])


def test_joint_is_invariant_under_reordering(rng):
    h = generic_figure()
    e4, e5 = figure_outcome_candidates(rng)
    s = cut_state(h)
    assert abs(joint_probability(s, [e4, e5]) - joint_probability(s, [e5, e4])) < 1e-12


# -- sampling ----------------------------------------------------------------------


def _binary_alternatives():
    h = History()
    h.add_initial_event(unit_factor("spin", [1.0, 0.0]))
    s = cut_state(h)
    up = CandidateEvent(
        bra=ProductBra([unit_factor("spin", [1.0, 0.0])]),
        c=1.0, ket=unit_factor("o1", [1.0], POINTER), name="up",
    )
    down = CandidateEvent(
        bra=ProductBra([unit_factor("spin", [0.0, 1.0])]),
        c=1.0, ket=unit_factor("o2", [1.0], POINTER), name="down",
    )
    return s, AlternativeSet([up, down])


def test_an_alternative_set_needs_a_candidate():
    with pytest.raises(ValueError, match="an alternative set needs at least one candidate"):
        AlternativeSet([])


def test_certain_alternative_is_always_chosen():
    s, alts = _binary_alternatives()
    for seed in range(20):
        assert sample_extension(s, alts, np.random.default_rng(seed)) == 0


def test_sampled_frequencies_sit_in_three_sigma_bands():
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(90.0))
    n = 100_000
    draws = sample_many(setup.state, setup.alternatives, n, 12345)
    freqs = np.bincount(draws, minlength=4) / n
    band = 3.0 * math.sqrt(0.25 * 0.75 / n)
    assert np.max(np.abs(freqs - 0.25)) < band


def test_fixed_seed_reproduces_the_draw_sequence():
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(60.0))
    s, alts = setup.state, setup.alternatives
    a = [sample_extension(s, alts, np.random.default_rng(42)) for _ in range(1)]
    b = [sample_extension(s, alts, np.random.default_rng(42)) for _ in range(1)]
    assert a == b
    seq1 = sample_many(s, alts, 64, np.random.default_rng(42))
    seq2 = sample_many(s, alts, 64, np.random.default_rng(42))
    assert np.array_equal(seq1, seq2)


def test_single_draws_share_the_stream_with_sample_many():
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(45.0))
    s, alts = setup.state, setup.alternatives
    gen = np.random.default_rng(7)
    singles = [sample_extension(s, alts, gen) for _ in range(32)]
    batch = sample_many(s, alts, 32, np.random.default_rng(7))
    assert singles == list(batch)


def test_non_exhaustive_set_reports_the_measured_sum():
    s, alts = _binary_alternatives()
    partial = AlternativeSet([alts.candidates[0]])
    half = cut_state_of_tilted()
    with pytest.raises(NotExhaustive) as err:
        sample_extension(half, partial, np.random.default_rng(0))
    assert abs(err.value.total - 0.5) < 1e-12


def cut_state_of_tilted():
    h = History()
    h.add_initial_event(unit_factor("spin", [math.sqrt(0.5), math.sqrt(0.5)]))
    return cut_state(h)


def test_probability_sum_above_one_is_a_hard_error():
    s, alts = _binary_alternatives()
    tilted = CandidateEvent(
        bra=ProductBra([unit_factor("spin", [math.sqrt(0.5), math.sqrt(0.5)])]),
        c=1.0, ket=unit_factor("o3", [1.0], POINTER),
    )
    bloated = AlternativeSet(alts.candidates + [tilted])
    with pytest.raises(NotExhaustive) as err:
        alternative_probabilities(s, bloated)
    assert err.value.total > 1.0 + 1e-9


def _plus_history():
    h = History()
    h.add_initial_event(unit_factor("s", [SQRT_HALF, SQRT_HALF]))
    return h


def _plus_state():
    return cut_state(_plus_history())


def test_gap_uniform_never_draws_the_zero_weight_candidate():
    s, alts = _plus_state(), gap_alternatives("s", "out")
    probs = alternative_probabilities(s, alts)
    assert probs[2] <= ZERO_PROBABILITY_EPS
    assert probs.sum() < StuckGenerator().random()
    assert sample_extension(s, alts, StuckGenerator()) == 1
    assert set(sample_many(s, alts, 16, StuckGenerator()).tolist()) == {1}


def test_outcome_tree_gap_uniform_never_enters_the_zero_weight_branch(monkeypatch):
    monkeypatch.setattr(dynamics, "replica_rng", StuckGenerator)
    h = History()
    h.add_initial_event(unit_factor("s", [SQRT_HALF, SQRT_HALF]))
    tree = sample_outcome_tree(h, [gap_alternatives("s", "out")], 50, 0)
    assert tree.counts == [0, 50, 0]
    assert tree.first_path == (1,)


def _pruned_tail_alternatives() -> AlternativeSet:
    """Up (0.5), down (0.5 - 1e-10) and up again at probability 1e-16 on a
    |+> spin: the last candidate is pruned, the sum ends below 1 - 1e-12."""
    def cand(amps, c):
        return CandidateEvent(bra=ProductBra([unit_factor("s", amps)]), c=c,
                              ket=unit_factor("out", [1.0], POINTER))

    return AlternativeSet([cand([1.0, 0.0], 1.0),
                           cand([0.0, 1.0], math.sqrt(1.0 - 2e-10)),
                           cand([1.0, 0.0], math.sqrt(2e-16))])


def test_gap_uniform_never_draws_a_pruned_candidate(monkeypatch):
    h, alts = _plus_history(), _pruned_tail_alternatives()
    s = cut_state(h)
    probs = alternative_probabilities(s, alts)
    assert ZERO_PROBABILITY_EPS < probs[2] <= dynamics.PRUNED_BRANCH_PROBABILITY
    assert probs.sum() < StuckGenerator().random()
    assert sample_extension(s, alts, StuckGenerator()) == 1
    assert set(sample_many(s, alts, 16, StuckGenerator()).tolist()) == {1}
    monkeypatch.setattr(dynamics, "replica_rng", StuckGenerator)
    tree = sample_outcome_tree(h, [alts], 16, 0, 2)
    assert tree.replica_counts.tolist() == [[0, 16, 0], [0, 16, 0]]
    assert tree.counts == [0, 32, 0]


def _fixed_generator(value: float) -> np.random.Generator:
    class Fixed(StuckGenerator):
        def random(self, size=None, dtype=np.float64, out=None):
            return value if size is None else np.full(size, value)

    return Fixed()


def test_uniform_in_a_pruned_candidates_sliver_skips_it(monkeypatch):
    """Candidates of probability p, 1e-16 and 0.5 - 1e-10: the uniform p is
    past the first and inside the second one's sliver of the cumulative sum."""
    h, alts = _plus_history(), _pruned_tail_alternatives()
    s = cut_state(h)
    alts = AlternativeSet([alts.candidates[i] for i in (0, 2, 1)])
    p = float(alternative_probabilities(s, alts)[0])
    assert p < p + 1e-16
    assert sample_extension(s, alts, _fixed_generator(p)) == 2
    monkeypatch.setattr(dynamics, "replica_rng", lambda *_: _fixed_generator(p))
    assert sample_outcome_tree(h, [alts], 8, 0).counts == [0, 0, 8]


@pytest.mark.parametrize("n", [0, -1])
def test_outcome_tree_refuses_fewer_than_one_run_or_replica(n):
    h, alts = _plus_history(), _pruned_tail_alternatives()
    for name, args in (("runs", (n, 0)), ("replicas", (10, 0, n))):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {n}$"):
            sample_outcome_tree(h, [alts], *args)


def test_outcome_tree_refuses_replica_tables_above_the_dense_cap(monkeypatch):
    """replicas x paths cells of counts are kept up to ``MAX_AMPLITUDES``;
    past it the tree is refused before any state is cut."""
    h, alts = _plus_history(), _pruned_tail_alternatives()
    monkeypatch.setattr(dynamics, "MAX_AMPLITUDES", 6)
    assert sample_outcome_tree(h, [alts], 10, 0, 2).replica_counts.shape == (2, 3)

    def no_state(*_):
        raise AssertionError("a state was cut")

    monkeypatch.setattr(dynamics, "cut_state", no_state)
    with pytest.raises(ValueError, match=r"^3 replicas x 3 outcome paths make 9 replica "
                                         r"counts; at most MAX_AMPLITUDES = 6 are kept$"):
        sample_outcome_tree(h, [alts], 10, 0, 3)


# -- threshold-count draw against the binary search -----------------------------

PRUNED = dynamics.PRUNED_BRANCH_PROBABILITY

#: rows with pruned entries (0, 1e-16 and exactly the threshold) first, in the
#: middle and last, and rows ending 1e-12 short of one
BOUNDARY_ROWS = [
    [0.25, 0.25, 0.25, 0.25],
    [PRUNED, 0.5, 0.5],
    [0.0, 1e-16, 0.5, 0.5 - 1e-12],
    [0.5, PRUNED, 0.5],
    [0.3, 0.0, 1e-16, 0.7 - 1e-12],
    [0.5, 0.5 - 1e-12, PRUNED],
    [0.5, 0.5, 0.0, 1e-16],
    [1e-16, 1.0 - 1e-12, 0.0],
    [1.0 - 1e-12],
    [0.1, 0.2, 0.3, 0.4 - 1e-12, 1e-16, PRUNED],
]


def _boundary_uniforms(probs) -> np.ndarray:
    """Each cumulative sum of the live probabilities and its two neighbours,
    0, the largest uniform below 1, and uniforms in a residual-mass gap."""
    cum = np.cumsum(np.where(np.asarray(probs) > PRUNED, probs, 0.0))
    return np.concatenate([
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
        [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 1.0 - 5e-13, 1.0 - 1e-13],
    ])


@pytest.mark.parametrize("probs", BOUNDARY_ROWS)
def test_threshold_draw_equals_the_binary_search_at_boundaries(probs):
    probs = np.array(probs)
    u = _boundary_uniforms(probs)
    got = dynamics._sample_paths(threshold_tables([probs[None, :]]), u[:, None])
    assert got.dtype == np.intp
    assert np.array_equal(got, reference.searchsorted_draw(probs, u))
    assert all(probs[got] > PRUNED)


#: rows whose sum falls 1e-9 short of one (the most ``EXHAUSTIVE_TOL`` lets
#: through), with pruned candidates first, in the middle and last
SHORT_ROWS = [
    [0.5, 0.5 - 1e-9],
    [1e-16, 0.5, PRUNED, 0.5 - 1e-9, 0.0],
    [0.2, 0.0, 0.3, 1e-16, 0.5 - 1e-9, PRUNED, 0.0],
    [1.0 - 1e-9, 1e-16],
]


@pytest.mark.parametrize("probs", BOUNDARY_ROWS + SHORT_ROWS)
def test_scalar_draw_equals_the_binary_search_at_boundaries(probs, monkeypatch):
    """``sample_extension``'s one uniform against the binary search: at each
    threshold and one ulp either side, inside each pruned candidate's
    sliver of the raw cumulative sum, and past the sum."""
    probs = np.array(probs)
    raw = np.cumsum(probs)
    slivers = [np.nextafter(raw[i - 1], 1.0) for i in range(1, probs.size)
               if 0.0 < probs[i] <= PRUNED]
    total = float(np.sum(probs))
    past = [np.nextafter(total, 1.0), (total + 1.0) / 2, np.nextafter(1.0, 0.0)]
    uniforms = [float(x) for x in (*_boundary_uniforms(probs), *slivers, *past)]
    assert len(slivers) == sum(0.0 < p <= PRUNED for p in probs[1:])
    monkeypatch.setattr(dynamics, "alternative_probabilities", lambda *_: probs)
    for x in uniforms:
        pick = sample_extension(None, None, _fixed_generator(x))
        assert type(pick) is int
        assert pick == int(reference.searchsorted_draw(probs, x)), x


def _random_tables(rng) -> list[np.ndarray]:
    """1-4 depths of 2-6 candidates; some entries pruned (0, 1e-16 or the
    threshold), some rows 1e-12 short of one, and every row no path reaches
    all zero, which :func:`threshold_tables` makes ``inf``, as ``_expand``
    leaves it."""
    tables, reached = [], np.ones(1, dtype=bool)
    for n in rng.integers(2, 7, size=rng.integers(1, 5)):
        table = rng.random((reached.size, n)) * (rng.random((reached.size, n)) < 0.7)
        table[np.arange(reached.size), rng.integers(0, n, reached.size)] += 0.5
        short = np.where(rng.random(reached.size) < 0.5, 1e-12, 0.0)
        table *= ((1.0 - short) / table.sum(axis=1))[:, None]
        tiny = (table == 0.0) & (rng.random(table.shape) < 0.5)
        table[tiny] = rng.choice([1e-16, PRUNED], size=tiny.sum())
        table[~reached] = 0.0
        tables.append(table)
        reached = (table > PRUNED).ravel()
    return tables


@pytest.mark.parametrize("seed", range(10))
def test_depth_pass_equals_the_grouped_walk_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    tables = _random_tables(rng)
    runs = 4000
    u = rng.random((runs, len(tables)))
    for d, table in enumerate(tables):
        pool = np.concatenate([_boundary_uniforms(row) for row in table])
        hit = rng.random(runs) < 0.5
        u[hit, d] = rng.choice(pool, size=hit.sum())
    stored = threshold_tables(tables)
    got = dynamics._sample_paths(stored, u)
    want = reference.grouped_sample_paths(tables, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.all(np.prod([table.shape[1] for table in tables]) > got)
    for r in range(0, runs, 97):
        assert int(dynamics._sample_paths(stored, u[r:r + 1])[0]) == want[r]


#: one-row tables 1e-9 short of one, with pruned candidates before the last live one
SHORT_ROWS = [
    [0.2, 0.0, 0.3, 1e-16, 0.5 - 1e-9],
    [PRUNED, 0.6, 1e-16, 0.4 - 1e-9, 0.0],
]


@pytest.mark.parametrize("earlier", [0, 2])
@pytest.mark.parametrize("probs", BOUNDARY_ROWS + SHORT_ROWS)
def test_threshold_counts_equal_the_grouped_walk_on_one_row_tables(probs, earlier):
    """A one-row last stage, alone or below one-candidate stages, is counted
    by thresholds: the grouped walk's counts at every boundary uniform and
    past a sum 1e-9 short of one, and its path for each single run."""
    probs = np.array(probs)
    tables = [np.ones((1, 1))] * earlier + [probs[None, :]]
    rng = np.random.default_rng(len(probs))
    last = np.concatenate([_boundary_uniforms(probs), 1.0 - 1e-9 * rng.random(50),
                           rng.random(200)])
    u = np.hstack([rng.random((last.size, earlier)), last[:, None]])
    want = reference.grouped_sample_paths(tables, u)
    stored = threshold_tables(tables)
    got = dynamics._path_counts(stored, u, probs.size)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.bincount(want, minlength=probs.size))
    for r in range(len(u)):
        one = dynamics._path_counts(stored, u[r:r + 1], probs.size)
        assert np.array_equal(np.flatnonzero(one), [want[r]])


@pytest.mark.parametrize("seed", range(10))
def test_path_counts_equal_the_grouped_walk_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    tables = _random_tables(rng)
    total = math.prod(table.shape[1] for table in tables)
    u = rng.random((4000, len(tables)))
    got = dynamics._path_counts(threshold_tables(tables), u, total)
    want = np.bincount(reference.grouped_sample_paths(tables, u), minlength=total)
    assert np.array_equal(got, want)


def test_one_stage_sampling_holds_no_per_run_array():
    """At ``DRAW_CHUNK`` runs the uniforms are one 8 MiB block.  Counting by
    thresholds adds a 1 MiB comparison mask at a time; a pick per run would
    add 8 MiB more."""
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(37.5))
    cut_state(setup.history)
    tracemalloc.start()
    try:
        sample_outcome_tree(setup.history, [setup.alternatives], dynamics.DRAW_CHUNK, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * dynamics.DRAW_CHUNK * 8, peak


# -- outcome tree --------------------------------------------------------------------

FIGURE = Path(__file__).resolve().parents[1] / "scenarios" / "figure.json"


def leaf_boundary_scenario() -> Scenario:
    """Two stages, each up at 1e-8 and down at 1 - 1e-8: path (0, 0) has
    conditionals above the pruning threshold but analytic 1e-16, below it."""
    spin = [math.sqrt(1e-8), math.sqrt(1.0 - 1e-8)]
    return Scenario(
        initial_events=[(f"src{i}", unit_factor(f"s{i}", spin), None) for i in (1, 2)],
        stages=[Stage(f"m{i}", spin_alternatives(f"s{i}", f"o{i}")) for i in (1, 2)],
    )


def one_candidate_middle_scenario() -> Scenario:
    """Three stages whose middle one has a single candidate of probability
    1, so its threshold table has zero columns."""
    certain = CandidateEvent(bra=ProductBra([unit_factor("t", [1.0, 0.0])]), c=1.0,
                             ket=unit_factor("o_t", [1.0], POINTER), name="only")
    tilt = [math.sqrt(0.3), math.sqrt(0.7)]
    return Scenario(
        initial_events=[("s", unit_factor("s", [SQRT_HALF, SQRT_HALF]), None),
                        ("t", unit_factor("t", [1.0, 0.0]), None),
                        ("u", unit_factor("u", tilt), None)],
        stages=[Stage("first", spin_alternatives("s", "o_s")),
                Stage("middle", AlternativeSet([certain])),
                Stage("last", spin_alternatives("u", "o_u"))],
    )


OUTCOME_SCENARIOS = {
    "figure": lambda: load_scenario(FIGURE),
    "zero-branch": zero_branch_scenario,
    "no-stages": lambda: Scenario(zero_branch_scenario().initial_events, []),
    "leaf-boundary": leaf_boundary_scenario,
    "one-candidate-middle": one_candidate_middle_scenario,
}


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(OUTCOME_SCENARIOS))
def test_outcome_tree_counts_equal_the_per_draw_loop(name, seed, replicas):
    scen = OUTCOME_SCENARIOS[name]()
    stages = [stage.alternatives for stage in scen.stages]
    runs = 1000
    tree = sample_outcome_tree(scen.build_history(), stages, runs, seed, replicas)
    counts, first_path = reference.naive_simulate_counts(
        scen.build_history(), stages, runs, seed, replicas
    )
    assert dict(zip(tree.paths, tree.counts)) == {
        p: counts.get(p, 0) for p in tree.paths
    }
    assert tree.first_path == first_path
    assert sum(tree.counts) == runs * replicas


SHIPPED = sorted(FIGURE.parent.glob("*.json"))


@pytest.mark.parametrize("seed", range(10))
def test_first_path_is_the_first_run_of_the_per_draw_loop(seed):
    """``first_path`` is the walk of the first run, also where the runs are
    counted by thresholds (``epr``)."""
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(37.5))
    cases = [(setup.history, [setup.alternatives])]
    for path in SHIPPED:
        scen = load_scenario(path)
        cases.append((scen.build_history(), [stage.alternatives for stage in scen.stages]))
    for history, stages in cases:
        tree = sample_outcome_tree(history, stages, 3, seed)
        assert tree.first_path == reference.naive_simulate_counts(history, stages, 1, seed)[1]


@pytest.mark.parametrize("case", ["figure", "epr"])
def test_every_draw_reads_the_one_rule(case, monkeypatch):
    """With ``_thresholds`` swapped for a rule that sends every uniform to
    the last live candidate, every run of the figure's two-stage tree and
    of the one-stage ``epr`` tree, and a single draw at the root, land
    there: no draw builds the rule on its own."""
    if case == "figure":
        scen = load_scenario(FIGURE)
        history, stages = scen.build_history(), [st.alternatives for st in scen.stages]
    else:
        setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(37.5))
        history, stages = setup.history, [setup.alternatives]
    monkeypatch.setattr(dynamics, "_thresholds",
                        lambda probs: [0.0] * int(np.flatnonzero(probs > PRUNED)[-1]))
    tree = sample_outcome_tree(history, stages, 500, 0, 2)
    chosen = max(path for path, p in zip(tree.paths, tree.analytic) if p > PRUNED)
    assert tree.first_path == chosen
    assert tree.counts == [1000 if path == chosen else 0 for path in tree.paths]
    rng = np.random.default_rng(0)
    assert sample_extension(cut_state(history), stages[0], rng) == chosen[0]


def test_outcome_tree_counts_equal_the_per_draw_loop_on_gap_uniforms(monkeypatch):
    monkeypatch.setattr(dynamics, "replica_rng", StuckGenerator)
    test_outcome_tree_counts_equal_the_per_draw_loop("zero-branch", 0, 2)


@pytest.mark.parametrize("name", sorted(OUTCOME_SCENARIOS))
def test_chain_rule_check_equals_the_per_path_joint_loop(name):
    scen = OUTCOME_SCENARIOS[name]()
    stages = [stage.alternatives for stage in scen.stages]
    history = scen.build_history()
    tree = sample_outcome_tree(history, stages, 10, 0)
    expected = reference.naive_chain_rule(
        cut_state(history), stages, tree.paths, tree.analytic
    )
    assert (tree.chain_rule_checked, tree.chain_rule_max_dev) == expected
    assert tree.chain_rule_checked == sum(
        p > dynamics.PRUNED_BRANCH_PROBABILITY for p in tree.analytic
    )


def test_a_leaf_below_the_threshold_is_not_checked():
    scen = leaf_boundary_scenario()
    tree = sample_outcome_tree(
        scen.build_history(), [st.alternatives for st in scen.stages], 10, 0
    )
    assert 0.0 < tree.analytic[0] <= dynamics.PRUNED_BRANCH_PROBABILITY
    assert tree.chain_rule_checked == 3


def _counting_applications(monkeypatch) -> list:
    """Operator applications, one call each of the contraction kernel that
    ``dynamics`` applies operators with (cut states contract through
    ``contract``, which these calls do not count)."""
    calls = []
    original = dynamics._contracted

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dynamics, "_contracted", counting)
    return calls


def test_outcome_tree_applies_each_live_prefix_once(monkeypatch):
    """The figure's two stages of four candidates leave 8 live paths under 4
    live first-stage nodes: expansion applies 4 + 4 * (1 + 4) = 24 operators
    and the chain-rule check 4 + 8 = 12; the per-path loop applied 2 per
    path, 16, for 40 in all."""
    calls = _counting_applications(monkeypatch)
    scen = load_scenario(FIGURE)
    tree = sample_outcome_tree(
        scen.build_history(), [st.alternatives for st in scen.stages], 100, 0
    )
    assert sum(p > 0.0 for p in tree.analytic) == tree.chain_rule_checked == 8
    assert len(calls) == 36


def test_one_stage_tree_checks_its_joints_without_re_applying(monkeypatch):
    """An EPR tree is one stage of four candidates: expansion applies each
    once, and a one-stage path's joint is that probability, so the check
    applies none (re-applying them made 8 applications in all)."""
    setup = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(30.0))
    calls = _counting_applications(monkeypatch)
    tree = sample_outcome_tree(setup.history, [setup.alternatives], 100, 0)
    assert len(calls) == 4
    assert (tree.chain_rule_checked, tree.chain_rule_max_dev) == (4, 0.0)
    assert reference.naive_chain_rule(
        setup.state, [setup.alternatives], tree.paths, tree.analytic
    ) == (4, 0.0)


def test_outcome_tree_prunes_zero_probability_subtrees():
    scen = zero_branch_scenario()
    tree = sample_outcome_tree(
        scen.build_history(), [st.alternatives for st in scen.stages], 200, 1
    )
    for path, prob, count in zip(tree.paths, tree.analytic, tree.counts):
        if path[0] == 2 or path[1] == path[2]:
            assert prob == 0.0 and count == 0
        else:
            assert abs(prob - 0.25) < 1e-9
    assert tree.chain_rule_checked == 4
    assert tree.chain_rule_max_dev < 1e-12


def _random_measurement_tree(seed: int, stages: int):
    """``(history, stages)``: two singlets and a random spin, then
    ``stages`` two-outcome measurements, each of a random free link (a
    stage's output included) in the z basis or a random one, emitting spin
    up or a random spin.  Measuring both halves of a singlet, or an emitted
    spin up, along z prunes a subtree."""
    rng = np.random.default_rng(seed)
    h = History()
    for i in range(2):
        h.add_initial_event(singlet_vector(f"a{i}", f"b{i}"))
    h.add_initial_event(random_unit_vector([FactorLabel("s", SPIN)], rng))
    free = ["a0", "a1", "b0", "b1", "s"]
    tree = []
    for d in range(stages):
        link = free.pop(int(rng.integers(len(free))))
        basis = np.eye(2) if rng.random() < 0.5 else np.linalg.qr(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        ket = (unit_factor(f"o{d}", [1.0, 0.0]) if rng.random() < 0.5
               else random_unit_vector([FactorLabel(f"o{d}", SPIN)], rng))
        tree.append(AlternativeSet([
            CandidateEvent(bra=ProductBra([unit_factor(link, basis[:, j])]), c=1.0,
                           ket=ket, name=f"{link}{j}")
            for j in range(2)
        ]))
        free.append(f"o{d}")
    return h, tree


def _tree_work(monkeypatch, history, stages, runs) -> tuple[int, int, int]:
    """``(alternative_probabilities calls, live internal nodes, internal
    nodes)`` of one outcome tree.  A node is live when some path through it
    has a positive analytic value."""
    calls = []
    original = dynamics.alternative_probabilities

    def counting(state, alts):
        calls.append(alts)
        return original(state, alts)

    monkeypatch.setattr(dynamics, "alternative_probabilities", counting)
    tree = sample_outcome_tree(history, stages, runs, 0)
    monkeypatch.undo()
    live = {path[:d] for path, p in zip(tree.paths, tree.analytic) if p > 0.0
            for d in range(len(stages))}
    internal = sum(math.prod(len(alts.candidates) for alts in stages[:d])
                   for d in range(len(stages)))
    return len(calls), len(live), internal


@pytest.mark.parametrize("name", ["figure", "three_stage", "pairs24"])
def test_shipped_outcome_trees_evaluate_each_live_node_once(monkeypatch, name):
    """At N and 2N runs, the tree evaluates each live internal node's
    alternative set at most once, and sampling more runs evaluates none
    more."""
    scen = load_scenario(FIGURE.with_name(f"{name}.json"))
    stages = [st.alternatives for st in scen.stages]
    small, large = (_tree_work(monkeypatch, scen.build_history(), stages, runs)
                    for runs in (500, 1000))
    assert small[0] <= small[1] and large[0] <= small[0]


def test_random_outcome_trees_evaluate_each_live_node_once(monkeypatch):
    """Over seeded random trees of N and 2N stages, alternative sets are
    evaluated at most once per live internal node; some trees prune, so
    that is fewer than once per internal node."""
    pruned = 0
    for seed in range(10):
        for n_stages in (3, 6):
            calls, live, internal = _tree_work(
                monkeypatch, *_random_measurement_tree(seed, n_stages), 200)
            assert calls <= live, (seed, n_stages)
            pruned += live < internal
    assert pruned > 0


def _up_down_alternatives(link_id, ket):
    """Two candidates measuring ``link_id`` in the z basis, both emitting ``ket``."""
    return AlternativeSet([
        CandidateEvent(bra=ProductBra([unit_factor(link_id, amps)]), c=1.0, ket=ket,
                       name=name)
        for amps, name in (([1.0, 0.0], "up"), ([0.0, 1.0], "down"))
    ])


def _re_emitting_stages():
    """Stage 0 consumes ``x`` and re-emits ``x``, stage 1 consumes ``x``
    again, stage 2 consumes ``y``, on a history of two |+> spins."""
    plus = [SQRT_HALF, SQRT_HALF]
    h = History()
    h.add_initial_event(unit_factor("x", plus))
    h.add_initial_event(unit_factor("y", plus))
    return h, [
        _up_down_alternatives("x", unit_factor("x", plus)),
        _up_down_alternatives("x", unit_factor("o2", [1.0], POINTER)),
        _up_down_alternatives("y", unit_factor("o3", [1.0], POINTER)),
    ]


@pytest.mark.parametrize("chosen", [(0, 1), (0, 2), (0, 1, 2)])
def test_outcome_tree_refuses_a_stage_that_re_emits_a_used_link(chosen, monkeypatch):
    """``x`` is already a link of the history, which a history never holds
    twice; whatever follows stage 0, it is refused before any state."""
    h, stages = _re_emitting_stages()
    calls = recording_states_and_draws(monkeypatch)
    with pytest.raises(LabelCollision) as err:
        sample_outcome_tree(h, [stages[i] for i in chosen], 100, 0)
    assert str(err.value) == "$.stages[0]: link ids already used: ['x']"
    assert calls == []


def test_outcome_tree_refuses_two_stages_emitting_one_fresh_link(monkeypatch):
    """Both candidates of each stage emit ``o``: alternatives may share it,
    two stages on one path may not."""
    h, _ = _re_emitting_stages()
    stages = [spin_alternatives("x", "o"), spin_alternatives("y", "o")]
    assert sample_outcome_tree(h, stages[:1], 10, 0).chain_rule_checked == 2
    calls = recording_states_and_draws(monkeypatch)
    with pytest.raises(LabelCollision) as err:
        sample_outcome_tree(h, stages, 10, 0)
    assert str(err.value) == "$.stages[1]: link ids already used: ['o']"
    assert calls == []


def test_chain_rule_check_applies_each_prefix_once_below_fresh_links(monkeypatch):
    """Stage 0 measures ``z``; stage 1 measures ``x`` and emits a fresh
    ``x1`` = |+>; stage 2 is <0| on ``x1`` or <0| on ``y``.  Expansion applies
    2 + 2 * 3 + 4 * 3 = 20 operators; the check applies one per node below
    the root, 2 + 4 + 8 = 14, where the per-path loop applied 3 per path."""
    plus = [SQRT_HALF, SQRT_HALF]
    h = History()
    for lid in ("x", "y", "z"):
        h.add_initial_event(unit_factor(lid, plus))
    up = [1.0, 0.0]
    o2 = unit_factor("o2", [1.0], POINTER)
    stages = [
        _up_down_alternatives("z", unit_factor("oz", [1.0], POINTER)),
        _up_down_alternatives("x", unit_factor("x1", plus)),
        AlternativeSet([
            CandidateEvent(bra=ProductBra([unit_factor(lid, up)]), c=1.0, ket=o2)
            for lid in ("x1", "y")
        ]),
    ]
    calls = _counting_applications(monkeypatch)
    tree = sample_outcome_tree(h, stages, 100, 0)
    assert all(abs(p - 0.125) < 1e-12 for p in tree.analytic)
    assert tree.chain_rule_checked == 8
    assert len(calls) == 20 + 14
    assert (8, tree.chain_rule_max_dev) == reference.naive_chain_rule(
        cut_state(h), stages, tree.paths, tree.analytic
    )


# -- realize ---------------------------------------------------------------------


def test_realize_establishes_consumed_links():
    h = generic_figure()
    e4, e5 = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    assert h.links["alpha"].target == "ev4"
    assert h.links["gamma"].target == "ev4"
    assert not saturated(h, "decay")
    realize(h, None, e5, event_id="ev5")
    assert saturated(h, "decay")


def test_realizing_an_orthogonal_candidate_fails():
    h = History()
    h.add_initial_event(unit_factor("spin", [1.0, 0.0]))
    ortho = CandidateEvent(
        bra=ProductBra([unit_factor("spin", [0.0, 1.0])]),
        c=1.0, ket=unit_factor("o", [1.0], POINTER),
    )
    with pytest.raises(ZeroProbabilityEvent):
        realize(h, None, ortho)


def test_realize_refuses_colliding_ket_labels():
    h = generic_figure()
    e4, e5 = figure_outcome_candidates()
    # a still-free frontier link and an established one meet one rule
    bad = CandidateEvent(bra=e4.bra, c=1.0, ket=unit_factor("beta", [1.0, 0.0]))
    with pytest.raises(LabelCollision, match=r"^link ids already used: \['beta'\]$"):
        realize(h, None, bad)
    realize(h, None, e4, event_id="ev4")
    stale = CandidateEvent(bra=e5.bra, c=1.0, ket=unit_factor("alpha", [1.0, 0.0]))
    with pytest.raises(LabelCollision, match=r"^link ids already used: \['alpha'\]$"):
        realize(h, None, stale)


def test_realize_takes_only_the_frontier_cut():
    """After an up outcome on side 1 of a singlet measured along one axis,
    up on side 2 has probability 0; a past cut that leaves the first
    outcome out would make it look possible, so ``realize`` refuses it."""
    z = Direction.in_plane_deg(0)
    s = build_epr(z, z)
    first = realize(s.history, None, one_sided(s, "1", "+"))
    before = s.history.to_dict()
    with pytest.raises(InvalidCut, match=r"leaves out \['e1'\]"):
        realize(s.history, ["setting1", "setting2", "decay"], one_sided(s, "2", "+"))
    assert s.history.to_dict() == before
    with pytest.raises(ZeroProbabilityEvent):
        realize(s.history, None, one_sided(s, "2", "+"))
    everything = sorted(s.history.events)
    assert first == "e1" and realize(s.history, everything, one_sided(s, "2", "-")) == "e2"
    assert s.history.validate() == []


def _spin_candidate(link_id, amps, ket):
    return CandidateEvent(bra=ProductBra([unit_factor(link_id, amps)]), c=1.0, ket=ket)


def _history_refusal(h, cand) -> str:
    """The message ``History`` refuses the candidate's admission with."""
    with pytest.raises(LabelCollision) as refused:
        History.from_dict(h.to_dict()).add_interior_event(cand.bra, cand.c, cand.ket)
    return str(refused.value)


_REFUSING_CALLS = {
    "event_probability": lambda h, s, cand: event_probability(s, cand),
    "sample_extension": lambda h, s, cand: sample_extension(
        s, AlternativeSet([cand]), np.random.default_rng(0)),
    "realized_state": lambda h, s, cand: realized_state(s, cand),
    "joint_probability": lambda h, s, cand: joint_probability(s, [cand]),
    "realize": lambda h, s, cand: realize(h, None, cand),
}


@pytest.mark.parametrize("call", _REFUSING_CALLS.values(), ids=_REFUSING_CALLS.keys())
def test_a_ket_re_emitting_a_consumed_link_gets_no_probability(call):
    """After <up| on ``alpha``, <down| on ``beta`` is certain; emitting
    ``alpha`` again is what ``History`` refuses, so no call gives it a value."""
    h = generic_figure()
    realize(h, None, _spin_candidate("alpha", [1.0, 0.0], unit_factor("a1", [1.0], POINTER)))
    state = cut_state(h)
    stale = _spin_candidate("beta", [0.0, 1.0], unit_factor("alpha", [1.0], POINTER))
    expected = _history_refusal(h, stale)
    assert expected == "link ids already used: ['alpha']"
    with pytest.raises(LabelCollision) as err:
        call(h, state, stale)
    assert str(err.value) == expected


def test_a_state_refuses_link_ids_realized_after_it_was_cut():
    """Also when the state already holds the candidate's probability: the
    used-link check runs on every call, not only on the first."""
    late = _spin_candidate("beta", [0.0, 1.0], unit_factor("a1", [1.0], POINTER))
    for evaluate_first in (False, True):
        h = generic_figure()
        state = cut_state(h)
        if evaluate_first:
            assert event_probability(state, late) == pytest.approx(0.5)
            assert state.probabilities[id(late)][0] is late
        realize(h, None, _spin_candidate("alpha", [1.0, 0.0],
                                         unit_factor("a1", [1.0], POINTER)))
        with pytest.raises(LabelCollision, match=r"^link ids already used: \['a1'\]$"):
            event_probability(state, late)


def test_chained_states_refuse_a_link_emitted_since_the_cut():
    """x1 emits ``x``, x2 consumes it and emits ``y``, x3 consumes ``y`` and
    emits ``x`` again: the states after x1 and x2 know ``x`` is used."""
    h = History()
    h.add_initial_event(unit_factor("s", [1.0, 0.0]))
    up = [1.0, 0.0]
    x1 = _spin_candidate("s", up, unit_factor("x", up))
    x2 = _spin_candidate("x", up, unit_factor("y", up))
    x3 = _spin_candidate("y", up, unit_factor("x", up))
    grown = History.from_dict(h.to_dict())
    realize(grown, None, x1)
    realize(grown, None, x2)
    expected = _history_refusal(grown, x3)
    assert expected == "link ids already used: ['x']"
    s0 = cut_state(h)
    _, after = realized_state(realized_state(s0, x1)[1], x2)
    for call in (lambda: event_probability(after, x3),
                 lambda: realized_state(after, x3),
                 lambda: joint_probability(s0, [x1, x2, x3])):
        with pytest.raises(LabelCollision) as err:
            call()
        assert str(err.value) == expected
    assert joint_probability(s0, [x1, x2]) == pytest.approx(1.0)


def test_the_state_refuses_a_used_link_id_exactly_when_history_does(rng):
    """Random histories and kets over a mix of used and fresh link ids: the
    probability API, ``realize`` and ``History`` agree on every refusal."""
    factory = HistoryFactory(rng, max_amplitudes=64)

    def refusal(call):
        try:
            call()
        except LabelCollision as exc:
            return str(exc)
        except ZeroProbabilityEvent:
            pass
        return None

    refused = admitted = 0
    for _ in range(60):
        h = factory.random_history()
        cand = factory.random_candidate(h)
        if cand is None:
            continue
        used = sorted(h.links)
        k = min(len(used), int(rng.integers(0, 3)))
        reuse = [used[i] for i in rng.choice(len(used), k, replace=False)]
        labels = [FactorLabel(lid, h.links[lid].space) for lid in reuse]
        labels += factory.fresh_labels(int(rng.integers(0, 2)), 1)
        cand = CandidateEvent(cand.bra, cand.c, random_unit_vector(labels, rng))
        by_state = refusal(lambda: event_probability(cut_state(h), cand))
        data = h.to_dict()
        assert by_state == refusal(lambda: realize(History.from_dict(data), None, cand))
        assert by_state == refusal(lambda: History.from_dict(data).add_interior_event(
            cand.bra, cand.c, cand.ket))
        assert by_state == (f"link ids already used: {sorted(reuse)}" if reuse else None)
        refused += bool(reuse)
        admitted += not reuse
    assert refused > 10 and admitted > 10


# -- one frontier state per admission ------------------------------------------------


def test_the_frontier_state_is_kept_until_the_next_admission():
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    state = cut_state(h)
    assert cut_state(h) is state and cut_state(h, None) is state
    assert cut_state(h, h.frontier_cut()) is not state  # an explicit cut builds anew
    realize(h, None, e4)
    after = cut_state(h)
    assert after is not state and cut_state(h) is after
    h.add_initial_event(unit_factor("fresh", [1.0, 0.0]))
    assert cut_state(h) is not after and "fresh" in cut_state(h).index


def test_a_copy_cuts_its_own_frontier_state():
    h = generic_figure()
    state = cut_state(h)
    copied = History.from_dict(h.to_dict())
    own = cut_state(copied)
    assert own is not state and own.links is copied.links and state.links is h.links
    assert cut_state(h) is state and cut_state(copied) is own
    assert [v.labels for v in own.components] == [v.labels for v in state.components]


def test_a_history_that_keeps_its_frontier_state_is_freed_by_reference_counting():
    """The kept state holds the history's link map, not the history, so no
    cycle keeps a dropped history alive until the next collection."""
    gc.disable()
    try:
        h = build_epr(Direction.in_plane_deg(0.0), Direction.in_plane_deg(90.0)).history
        cut_state(h)
        alive = weakref.ref(h)
        del h
        assert alive() is None
    finally:
        gc.enable()


def _qubit_chains(seed: int, events: int, chains: int = 4):
    """``(initial, steps)``: ``chains`` seeded qubit chains, each step a
    two-outcome measurement of one chain's head in a random basis."""
    rng = np.random.default_rng(seed)
    qubit = SpaceType("qubit", 2)

    def vec(link, amps=None):
        if amps is None:
            return random_unit_vector([FactorLabel(link, qubit)], rng)
        return LabeledVector([FactorLabel(link, qubit)], amps)

    initial = [vec(f"c{c}_000") for c in range(chains)]
    steps, heads = [], [0] * chains
    for k in range(events):
        c = k % chains
        link, heads[c] = f"c{c}_{heads[c]:03d}", heads[c] + 1
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        steps.append(AlternativeSet([
            CandidateEvent(bra=ProductBra([vec(link, basis[:, j])]), c=1.0,
                           ket=vec(f"c{c}_{heads[c]:03d}"), name=f"s{k}o{j}")
            for j in range(2)
        ]))
    return initial, steps


def _grow(initial, steps, rng):
    """The library's growth loop: cut the frontier, draw, realize."""
    h = History()
    for c, vec in enumerate(initial):
        h.add_initial_event(vec, event_id=f"src{c}")
    outcomes = []
    for alts in steps:
        idx = sample_extension(cut_state(h), alts, rng)
        realize(h, None, alts.candidates[idx])
        outcomes.append(idx)
    return h, outcomes


@pytest.mark.parametrize("seed", range(10))
def test_growth_equals_the_loop_that_cut_every_state_afresh(seed):
    """The kept state and probabilities change no bit: the grown history's
    JSON and the drawn outcomes equal those of fresh states and a
    re-applied candidate at every step."""
    initial, steps = _qubit_chains(seed, 60)
    h, outcomes = _grow(initial, steps, dynamics.replica_rng(seed))
    want, want_outcomes = reference.naive_grow(initial, steps, dynamics.replica_rng(seed))
    assert outcomes == want_outcomes and 0 < sum(outcomes) < len(steps)
    assert h.to_json() == want.to_json()


def _growth_work(monkeypatch, events: int) -> dict[str, float]:
    """Work of growing seeded two-outcome chains by ``events`` admissions:
    operator applications per candidate (``apply``), and per admitted event
    the states built (``build``), calls of the contraction and
    outer-product kernels (``contracted``, ``outer``, by ``contract`` and
    ``tensor_product`` too), history admissions (``admit``),
    ``LabeledVector`` constructions (``vector``), checked or trusted, and
    frontier cut ids read (``frontier_ids``).  ``walked`` counts the ids
    that validating the grown history's frontier cut reads."""
    initial, steps = _qubit_chains(7, events)
    counts = dict.fromkeys(("apply", "build", "contracted", "outer", "admit", "vector",
                            "frontier_ids"), 0)

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    for key, name in (("apply", "_apply"), ("build", "CutState")):
        monkeypatch.setattr(dynamics, name, counting(key, getattr(dynamics, name)))
    for key, name in (("contracted", "_contracted"), ("outer", "_outer")):
        counted = counting(key, getattr(tensors, name))
        monkeypatch.setattr(tensors, name, counted)
        monkeypatch.setattr(dynamics, name, counted)
    monkeypatch.setattr(History, "_add_event", counting("admit", History._add_event))
    monkeypatch.setattr(LabeledVector, "__init__", counting("vector", LabeledVector.__init__))
    monkeypatch.setattr(LabeledVector, "_trusted", classmethod(
        counting("vector", LabeledVector.__dict__["_trusted"].__func__)))
    build_ids = graph._FrontierCut.__dict__["past_event_ids"].func

    def frontier_ids(cut):
        ids = build_ids(cut)
        counts["frontier_ids"] += len(ids)
        return ids

    monkeypatch.setattr(graph._FrontierCut, "past_event_ids", property(frontier_ids))
    h, outcomes = _grow(initial, steps, dynamics.replica_rng(7))
    grown = counts["frontier_ids"]
    h.validate_cut(h.frontier_cut())
    walked = counts.pop("frontier_ids") - grown
    monkeypatch.undo()
    assert len(outcomes) == events
    candidates = sum(len(alts.candidates) for alts in steps)
    work = {key: count / (candidates if key == "apply" else events)
            for key, count in counts.items()}
    return {**work, "frontier_ids": grown / events, "walked": walked}


def test_growth_applies_each_candidate_once_and_cuts_one_state_per_step(monkeypatch):
    """A growth step draws on one frontier state and admits the drawn
    candidate with the probability the draw computed: at most one
    application per candidate and one state per step, at N and 2N events.
    Re-cutting and re-applying in ``realize`` made 1.5 and 2."""
    small, large = _growth_work(monkeypatch, 40), _growth_work(monkeypatch, 80)
    for work in (small, large):
        assert work["apply"] <= 1.0 and work["build"] <= 1.0
    assert large["apply"] <= small["apply"] and large["build"] <= small["build"]


def test_growth_work_per_event_does_not_grow_with_the_history(monkeypatch):
    """Per admitted event of two candidates, at N and 2N events: one call
    of each kernel per candidate, no vector (a probability is the squared
    norm of the kernels' raw arrays, and a chain's frontier state is its
    sources' unit kets), one admission besides the four sources', and no
    frontier id set, neither while growing nor when the frontier cut is
    validated; none of them grows from N to 2N."""
    sizes = (40, 80)
    small, large = (_growth_work(monkeypatch, events) for events in sizes)
    for work, events in zip((small, large), sizes):
        assert work["contracted"] == work["outer"] == 2.0
        assert work["vector"] == 0.0
        assert work["admit"] <= 1.0 + 4 / events
        assert work["frontier_ids"] == work["walked"] == 0
    for key in ("contracted", "outer", "admit", "vector"):
        assert large[key] <= small[key], key


@pytest.mark.parametrize("seed, events", [*((seed, 60) for seed in range(10)), (1, 600)])
def test_grown_chains_round_trip_bit_exactly(seed, events):
    """A grown history loads to the same JSON bytes, the same amplitude
    bytes in every vector and bra, the same open links and the same
    frontier state; grown on by the same draws, the copy realizes the same
    outcomes with the same vectors, under the same event ids."""
    initial, steps = _qubit_chains(seed, events + 8)
    h, _ = _grow(initial, steps[:events], dynamics.replica_rng(seed))
    back = assert_round_trip_is_bit_exact(h)
    grown = [_grow_on(copy, steps[events:], dynamics.replica_rng(seed, 1))
             for copy in (h, back)]
    assert grown[0] == grown[1]
    assert back.to_json() == h.to_json()


def _grow_on(h, steps, rng) -> list:
    """Each step's outcome and the bytes of the frontier state it left."""
    out = []
    for alts in steps:
        idx = sample_extension(cut_state(h), alts, rng)
        realize(h, None, alts.candidates[idx])
        out.append((idx, [vec.amps.tobytes() for vec in cut_state(h).components]))
    return out


def _load_work(monkeypatch, events: int) -> tuple[dict[str, int], int]:
    """Calls made by loading the JSON of seeded qubit chains grown by
    ``events`` admissions: admissions (``admit``) and ``LabeledVector``
    constructions (``vector``), checked, trusted or parsed; and the number
    of vector literals in the document."""
    initial, steps = _qubit_chains(7, events)
    data = json.loads(_grow(initial, steps, dynamics.replica_rng(7))[0].to_json())
    counts = dict.fromkeys(("admit", "vector"), 0)

    def counting(key, original):
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(History, "_add_event", counting("admit", History._add_event))
    monkeypatch.setattr(LabeledVector, "__init__", counting("vector", LabeledVector.__init__))
    for name in ("_checked", "_trusted"):
        monkeypatch.setattr(LabeledVector, name, classmethod(
            counting("vector", LabeledVector.__dict__[name].__func__)))
    loaded = History.from_dict(data)
    monkeypatch.undo()
    assert len(loaded.events) == len(data["events"])
    return counts, sum(1 + len(ev["bra"] or ()) for ev in data["events"])


def test_loading_admits_each_record_once_and_builds_each_vector_once(monkeypatch):
    """Loading n events admits n events: no record is admitted twice.  Each
    vector literal gives one vector, so each loaded step costs two (its ket
    and its bra factor) at 60 events and at 600."""
    per_step = []
    for events in (60, 600):
        counts, literals = _load_work(monkeypatch, events)
        sources = literals - 2 * events
        assert counts["admit"] == events + sources
        assert counts["vector"] == literals
        per_step.append((counts["vector"] - sources) / events)
    assert per_step == [2.0, 2.0]


#: weights that send the residual (1 + 1j) / sqrt(2) of a |+> spin under the
#: bra below past the float range, and that overflow only the probability
RESIDUAL_OVERFLOW = 1.5e308 - 1.5e308j
SQUARE_OVERFLOW = 1e200


def _tilted(c: complex, ket: LabeledVector) -> CandidateEvent:
    bra = ProductBra([unit_factor("s", [(1 - 1j) / 2, (1 - 1j) / 2])])
    return CandidateEvent(bra=bra, c=c, ket=ket)


def test_probabilities_past_the_float_range_fail_as_vectors_do(monkeypatch):
    """An operator whose residual leaves the float range raises the vector
    check's ``ValueError`` on every route, also where the product would be
    refused as too large; when only the squares overflow, the probability is
    the vector's own squared norm, not finite.  (numpy warns of each
    overflow; the warnings are silenced here.)"""
    out = unit_factor("out", [1.0], POINTER)
    two = unit_factor("out2", [SQRT_HALF, SQRT_HALF])
    with np.errstate(over="ignore", invalid="ignore"):
        for route in (event_probability, realized_state,
                      lambda s, c: joint_probability(s, [c])):
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                route(_plus_state(), _tilted(RESIDUAL_OVERFLOW, out))
        state, big = _plus_state(), _tilted(SQUARE_OVERFLOW, out)
        vector = tensors.tensor_product(
            out, tensors.contract(big.bra, state.components[0]).scaled(big.c))
        want = vector.squared_norm()
        assert not math.isfinite(want)
        assert np.array_equal(event_probability(state, big), want, equal_nan=True)
        monkeypatch.setattr(tensors, "MAX_AMPLITUDES", 1)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            event_probability(_plus_state(), _tilted(RESIDUAL_OVERFLOW, two))
        with pytest.raises(ValueError, match="exceeds MAX_AMPLITUDES = 1$"):
            event_probability(_plus_state(), _tilted(1.0, two))


# -- structural probability properties ----------------------------------------------


def test_chain_rule_on_the_figure(rng):
    h = generic_figure()
    e4, e5 = figure_outcome_candidates(rng)
    s = cut_state(h)
    joint = joint_probability(s, [e4, e5])
    p4, after = realized_state(s, e4)
    assert abs(joint - p4 * event_probability(after, e5)) < 1e-12


def test_graph_route_equals_state_route(rng):
    h = generic_figure()
    e4, e5 = figure_outcome_candidates(rng)
    s = cut_state(h)
    _, after = realized_state(s, e4)
    realize(h, None, e4, event_id="ev4")
    rebuilt = cut_state(h)
    assert abs(event_probability(after, e5) - event_probability(rebuilt, e5)) < 1e-12


def test_spectator_invariance(rng):
    from eventweave.tensors import SpaceType

    h = generic_figure()
    e4, _ = figure_outcome_candidates(rng)
    before = event_probability(cut_state(h), e4)
    h.add_initial_event(
        random_unit_vector([FactorLabel("spect", SpaceType("d3", 3))], rng),
        event_id="spectator",
    )
    assert abs(event_probability(cut_state(h), e4) - before) < 1e-12


def test_saturated_events_never_change_probabilities(rng):
    h = generic_figure()
    e4, _ = figure_outcome_candidates(rng)
    cut_small = Cut.of(["ap1", "ap2", "decay"])
    before = event_probability(cut_state(h, cut_small), e4)
    pure_absorber_chunk(h, rng)
    cut_large = Cut.of(["ap1", "ap2", "decay", "chunk_a", "chunk_c"])
    assert abs(event_probability(cut_state(h, cut_large), e4) - before) < 1e-12


def test_randomized_histories_uphold_all_properties(rng):
    """Smaller sibling of the acceptance suite, for quick local signal."""
    factory = HistoryFactory(rng)
    checked = 0
    for _ in range(40):
        h = factory.random_history()
        free = sorted(h.free_links())
        if len(free) < 2:
            continue
        half = len(free) // 2
        e = factory.random_candidate(h, links=free[:half])
        f = factory.random_candidate(h, links=free[half:])
        s = cut_state(h)
        pe = event_probability(s, e)
        bra_map = {lid: list(fac.amps) for lid, fac in e.bra.factors.items()}
        oracle = reference.naive_apply_probability(
            e.c, bra_map, *reference.parts(e.ket), *reference.parts(s.composite)
        )
        assert abs(pe - oracle) < 1e-12
        joint = joint_probability(s, [e, f])
        assert abs(joint - joint_probability(s, [f, e])) < 1e-12
        if pe > 1e-9:
            _, after = realized_state(s, e)
            assert abs(joint - pe * event_probability(after, f)) < 1e-12
        checked += 1
    assert checked >= 20
