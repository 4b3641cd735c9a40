"""Event graph structure: growth, saturation, cuts, validation, round trips."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    POINTER, SPIN, HistoryFactory, figure_outcome_candidates, generic_figure, saturated,
    unit_factor,
)
from eventweave.dynamics import realize
from eventweave.epr import build_epr, Direction, singlet_vector
from eventweave.errors import (
    InvalidCut,
    LabelCollision,
    NonUnitVector,
    UnknownEvent,
)
from eventweave.graph import Cut, EventRecord, History, LinkRecord, Region
from eventweave.tensors import (
    FactorLabel, LabeledVector, ProductBra, SpaceType, random_unit_vector,
)


def traversal_free_links(h, cut_ids):
    """Independent oracle: scan the link table directly."""
    inside = set(cut_ids)
    return {
        lid
        for lid, ln in h.links.items()
        if ln.source in inside and (ln.target is None or ln.target not in inside)
    }


def open_links_by_scan(h):
    """Independent oracle for the frontier's open links: scan every link."""
    return {lid for lid, ln in h.links.items() if not ln.established}


def assert_open_links_match_the_scan(h):
    expected = open_links_by_scan(h)
    assert h.free_links() == expected
    assert h.free_links(h.frontier_cut()) == expected
    assert h.frontier_cut().past_event_ids == set(h.events)


def test_single_initial_event():
    h = History()
    eid = h.add_initial_event(singlet_vector())
    assert len(h.events) == 1
    assert h.free_links() == {"alpha", "beta"}
    assert not saturated(h, eid)
    assert h.validate() == []


def test_three_event_figure_has_six_free_links():
    h = generic_figure()
    assert len(h.events) == 3
    assert h.free_links() == {"gamma", "res1", "delta", "res2", "alpha", "beta"}
    assert h.validate() == []


def test_initial_event_requires_unit_vector():
    h = History()
    half = LabeledVector([FactorLabel("x", SPIN)], [0.5, 0.5])
    with pytest.raises(NonUnitVector):
        h.add_initial_event(half)


def test_link_id_collision_is_rejected():
    h = generic_figure()
    with pytest.raises(LabelCollision):
        h.add_initial_event(singlet_vector("alpha", "fresh"))


def test_saturation_through_the_five_event_figure():
    setup = build_epr(Direction.in_plane_deg(0), Direction.in_plane_deg(30))
    h = setup.history
    assert all(not saturated(h, e) for e in ("setting1", "setting2", "decay"))
    realize(h, None, setup.side1["+"], event_id="ev4")
    assert not saturated(h, "decay")  # beta still free
    assert saturated(h, "setting1")
    realize(h, None, setup.side2["-"], event_id="ev5")
    assert saturated(h, "decay")
    assert sorted(e for e in h.events if not saturated(h, e)) == ["ev4", "ev5"]
    assert h.validate() == []


def test_free_links_relative_to_cuts():
    h = generic_figure()
    all_three = Cut.of(["ap1", "ap2", "decay"])
    assert h.free_links(all_three) == {
        "gamma", "res1", "delta", "res2", "alpha", "beta",
    }
    assert h.free_links(Cut.of([])) == set()
    e4, e5 = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    realize(h, None, e5, event_id="ev5")
    full = h.frontier_cut()
    assert h.free_links(full) == traversal_free_links(h, full.past_event_ids)
    assert h.free_links(full) == {"res1", "res2", "out4", "out5"}
    # the original cut still sees its own frontier, established links and all
    assert h.free_links(all_three) == traversal_free_links(h, all_three.past_event_ids)
    assert h.free_links(all_three) == {
        "gamma", "res1", "delta", "res2", "alpha", "beta",
    }


def test_cut_must_be_past_closed():
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    with pytest.raises(InvalidCut):
        h.validate_cut(Cut.of(["ev4"]))  # missing its sources
    with pytest.raises(UnknownEvent):
        h.validate_cut(Cut.of(["nope"]))
    h.validate_cut(Cut.of(["ap1", "ap2", "decay", "ev4"]))


def test_cut_of_refuses_a_bare_string():
    """A string is an iterable of characters, not of event ids; ``realize``
    builds its cut state through ``Cut.of``."""
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    for call in (lambda: Cut.of("decay"), lambda: realize(h, "decay", e4)):
        with pytest.raises(TypeError, match=r"not the string 'decay'; use \['decay'\]"):
            call()
    assert len(h.events) == 3
    assert Cut.of(["decay"]).past_event_ids == {"decay"}


def test_cut_errors_name_the_first_offender_in_sorted_order():
    """Many offenders, so set iteration order would almost never pick the
    smallest one by chance."""
    with pytest.raises(UnknownEvent) as unknown:
        History().validate_cut(Cut.of([f"q{i}" for i in range(1, 41)]))
    assert str(unknown.value) == "cut references unknown event 'q1'"
    h = History()
    for i in range(20):
        h.add_initial_event(singlet_vector(f"a{i}", f"b{i}"), event_id=f"src{i}")
        bra = ProductBra([unit_factor(f"b{i}", [1.0, 0.0]), unit_factor(f"a{i}", [0.0, 1.0])])
        h.add_interior_event(bra, 1.0, unit_factor(f"out{i}", [1.0], POINTER),
                             event_id=f"ev{i}")
    with pytest.raises(InvalidCut) as invalid:
        h.validate_cut(Cut.of(["src0", "src1", *(f"ev{i}" for i in range(20))]))
    assert str(invalid.value) == ("event 'ev10' is in the cut but its backward link "
                                  "'a10' comes from 'src10', which is not")


def test_kept_open_links_match_a_full_scan_through_admissions_and_refusals(rng):
    factory = HistoryFactory(rng)
    for _ in range(40):
        h = History()
        for _ in range(int(rng.integers(1, 4))):
            h.add_initial_event(random_unit_vector(
                factory.fresh_labels(int(rng.integers(1, 4)), 1), rng))
            assert_open_links_match_the_scan(h)
        for _ in range(int(rng.integers(0, 7))):
            cand = factory.random_candidate(h, allow_empty_ket=True)
            if cand is None:
                break
            eid = h.add_interior_event(cand.bra, cand.c, cand.ket)
            assert_open_links_match_the_scan(h)
            assert eid in h.frontier_cut().past_event_ids
        free = sorted(h.free_links())
        if not free:
            continue
        before, frontier = h.free_links(), h.frontier_cut()
        space = h.links[free[0]].space
        open_factor = unit_factor(free[0], np.eye(space.dim)[0], space)
        refused = [
            (UnknownEvent, ProductBra([open_factor, unit_factor("nowhere", [1.0, 0.0])]),
             unit_factor("fresh", [1.0], POINTER)),
            (LabelCollision, ProductBra([open_factor]), unit_factor(free[-1], [1.0], POINTER)),
            (NonUnitVector, ProductBra([open_factor]), unit_factor("fresh", [0.5], POINTER)),
        ]
        for error, bra, ket in refused:
            with pytest.raises(error):
                h.add_interior_event(bra, 1.0, ket)
            assert h.free_links() == before
            assert h.frontier_cut() is frontier
            assert_open_links_match_the_scan(h)


def test_kept_open_links_survive_a_json_round_trip(rng):
    factory = HistoryFactory(rng)
    for _ in range(20):
        h = factory.random_history(max_events=8)
        back = History.from_json(h.to_json())
        assert back.free_links() == h.free_links()
        assert_open_links_match_the_scan(back)
        cand = factory.random_candidate(back, allow_empty_ket=True)
        if cand is not None:
            back.add_interior_event(cand.bra, cand.c, cand.ket)
            assert_open_links_match_the_scan(back)


def test_validate_reports_hand_built_damage():
    h = generic_figure()
    assert h.validate() == []
    # cycle: pretend alpha targets its own source's ancestor chain
    h.links["alpha"] = LinkRecord("alpha", SPIN, source="decay", target="decay")
    bad = h.snapshot()
    bad.events["decay"] = bad.events["decay"]
    problems = h.validate()
    assert any("cycle" in p or "backward" in p for p in problems)


def test_validate_reports_double_backward_claim():
    h = generic_figure()
    e4, e5 = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    realize(h, None, e5, event_id="ev5")
    ev5 = h.events["ev5"]
    from dataclasses import replace

    h.events["ev5"] = replace(ev5, backward_links=("beta", "delta", "gamma"))
    problems = h.validate()
    assert any("gamma" in p and ("claimed backward" in p or "bra" in p) for p in problems)


def test_monotone_growth_and_acyclicity(rng):
    h = generic_figure()
    seen_events = set(h.events)
    seen_links = set(h.links)
    e4, e5 = figure_outcome_candidates()
    for cand, eid in ((e4, "ev4"), (e5, "ev5")):
        realize(h, None, cand, event_id=eid)
        assert seen_events <= set(h.events)
        assert seen_links <= set(h.links)
        seen_events, seen_links = set(h.events), set(h.links)
        assert not any("cycle" in p for p in h.validate())


def test_saturation_matches_from_scratch_recomputation():
    h = generic_figure()
    e4, _ = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    for eid, ev in h.events.items():
        manual = all(h.links[lid].target is not None for lid in ev.forward_links)
        assert saturated(h, eid) == manual


def test_zero_forward_link_events_are_allowed():
    h = History()
    v = unit_factor("only", [1.0, 0.0])
    h.add_initial_event(v, event_id="src")
    eid = h.add_interior_event(
        ProductBra([unit_factor("only", [1.0, 0.0])]), 1.0, LabeledVector.scalar(1.0)
    )
    assert saturated(h, eid)
    assert saturated(h, "src")
    assert h.validate() == []


@pytest.mark.parametrize("c", [complex("inf"), complex(0.0, float("nan"))])
def test_interior_events_refuse_non_finite_amplitudes(c):
    h = History()
    h.add_initial_event(unit_factor("only", [1.0, 0.0]))
    with pytest.raises(ValueError, match="must be finite"):
        h.add_interior_event(
            ProductBra([unit_factor("only", [1.0, 0.0])]), c, LabeledVector.scalar(1.0)
        )
    assert not h.links["only"].established


def _up(link_id):
    return ProductBra([unit_factor(link_id, [1.0, 0.0])])


def _absorb_alpha(h):
    h.add_interior_event(_up("alpha"), 1.0, LabeledVector.scalar(1.0), event_id="absorb")


_OUT = unit_factor("out", [1.0], POINTER)

#: case -> (prepare, refused add, exception type, message fragment)
ADMISSION_REFUSALS = {
    "bra-on-unknown-link": (
        None, lambda h: h.add_interior_event(_up("nope"), 1.0, _OUT),
        UnknownEvent, "no link 'nope'",
    ),
    "link-consumed-twice": (
        _absorb_alpha, lambda h: h.add_interior_event(_up("alpha"), 1.0, _OUT),
        ValueError, "link 'alpha' is already established",
    ),
    "bra-space-differs-from-link": (
        None,
        lambda h: h.add_interior_event(
            ProductBra([unit_factor("alpha", [1.0], POINTER)]), 1.0, _OUT),
        ValueError, "lives in",
    ),
    "no-backward-link": (
        None, lambda h: h.add_interior_event(ProductBra([]), 1.0, _OUT),
        ValueError, "at least one backward link",
    ),
    "non-unit-ket": (
        None,
        lambda h: h.add_interior_event(_up("alpha"), 1.0, unit_factor("x", [1.0, 1.0])),
        NonUnitVector, "squared norm 2.0",
    ),
    "ket-on-used-link": (
        None,
        lambda h: h.add_interior_event(_up("alpha"), 1.0, unit_factor("gamma", [1.0, 0.0])),
        LabelCollision, "link ids already used: ['gamma']",
    ),
    "interior-event-id-taken": (
        None, lambda h: h.add_interior_event(_up("alpha"), 1.0, _OUT, event_id="ap1"),
        ValueError, "event id 'ap1' already exists",
    ),
    "initial-event-id-taken": (
        None, lambda h: h.add_initial_event(_OUT, event_id="ap1"),
        ValueError, "event id 'ap1' already exists",
    ),
}


@pytest.mark.parametrize("case", sorted(ADMISSION_REFUSALS))
def test_refused_events_leave_the_history_unchanged(case):
    prepare, add, error, fragment = ADMISSION_REFUSALS[case]
    h = generic_figure()
    if prepare is not None:
        prepare(h)
    before = h.to_dict()
    with pytest.raises(error) as info:
        add(h)
    assert fragment in str(info.value)
    assert h.to_dict() == before
    assert h.add_initial_event(unit_factor("fresh", [1.0, 0.0])) == "e1"


def test_region_tags_round_trip():
    h = History()
    region = Region((0.0, 1.0, 2.0, 3.0), (0.5, 0.5, 0.5, 0.5))
    h.add_initial_event(singlet_vector(), region=region)
    back = History.from_json(h.to_json())
    ev = next(iter(back.events.values()))
    assert ev.region == region


def test_history_round_trip_is_lossless(rng):
    h = generic_figure()
    e4, e5 = figure_outcome_candidates(rng)
    realize(h, None, e4, event_id="ev4")
    realize(h, None, e5, event_id="ev5")
    text = h.to_json()
    back = History.from_json(text)
    assert back.validate() == []
    assert back.to_json() == text
    for eid, ev in h.events.items():
        assert np.array_equal(back.events[eid].emitted_vector.amps, ev.emitted_vector.amps)
        if ev.bra is not None:
            for lid, fac in ev.bra.factors.items():
                assert np.array_equal(back.events[eid].bra.factors[lid].amps, fac.amps)


def _double_first_vector(data):
    vec = data["events"][0]["vector"]
    vec["amps"] = [[2 * re, 2 * im] for re, im in vec["amps"]]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_double_first_vector, r"'ap1': emitted vector has squared norm (4\.0|3\.9{9})"),
        (lambda data: data["links"][0].update(target="ghost"),
         "'alpha' goes backward into 'ghost', but its events admit None"),
        (lambda data: data["events"][0].update(amplitude=[float("nan"), 0.0]),
         r"'ap1': event amplitude must be finite, got \(nan"),
    ],
    ids=["norm-4-vector", "dangling-link-target", "nan-amplitude"],
)
def test_from_dict_refuses_invalid_histories(edit, problem):
    data = generic_figure().to_dict()
    edit(data)
    with pytest.raises(ValueError, match=problem):
        History.from_dict(data)


def _flatten_first_amplitudes(data):
    vec = data["events"][0]["vector"]
    vec["amps"] = [x for pair in vec["amps"] for x in pair]


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.pop("links"),
        lambda data: data["links"][0].pop("space"),
        _flatten_first_amplitudes,
    ],
    ids=["no-links", "link-without-space", "amplitudes-not-pairs"],
)
def test_from_dict_reports_malformed_records_as_value_errors(edit):
    data = generic_figure().to_dict()
    edit(data)
    with pytest.raises(ValueError, match="malformed history record"):
        History.from_dict(data)


@pytest.mark.parametrize("table", ["links", "events"])
def test_from_dict_refuses_repeated_ids(table):
    data = generic_figure().to_dict()
    data[table].append(dict(data[table][0]))
    with pytest.raises(ValueError, match=f"duplicate {table[:-1]} id"):
        History.from_dict(data)


def _absorbing_bra(data):
    return next(ev for ev in data["events"] if ev["bra"] is not None)["bra"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: _absorbing_bra(data)[0].update(
            amps=[[2 * re, 2 * im] for re, im in _absorbing_bra(data)[0]["amps"]]),
        lambda data: _absorbing_bra(data).append(dict(_absorbing_bra(data)[0])),
    ],
    ids=["norm-4-bra-factor", "repeated-bra-factor"],
)
def test_from_dict_refuses_bad_bra_factors_as_value_errors(edit):
    h = generic_figure()
    realize(h, None, figure_outcome_candidates()[0], event_id="ev4")
    data = h.to_dict()
    edit(data)
    with pytest.raises(ValueError, match="invalid history: .*bra factor"):
        History.from_dict(data)


_OUT4 = unit_factor("out4", [1.0], POINTER)


def _realized_figure():
    h = generic_figure()
    for cand, eid in zip(figure_outcome_candidates(), ("ev4", "ev5")):
        realize(h, None, cand, event_id=eid)
    return h


def _event_edit(eid, **changes):
    return lambda h: h.events.update({eid: replace(h.events[eid], **changes)})


def _link_edit(lid, **changes):
    return lambda h: h.links.update({lid: replace(h.links[lid], **changes)})


def _add_stray_link(h):
    h.links["stray"] = LinkRecord("stray", SPIN, source="decay")


def _bra_also_on_gamma(h):
    ev5 = h.events["ev5"]
    bra = ProductBra([*ev5.bra.factors.values(), unit_factor("gamma", [1.0, 0.0])])
    h.events["ev5"] = replace(ev5, bra=bra, backward_links=bra.label_ids)


def _second_emitter_of_out4(h):
    h.events["dup"] = EventRecord("dup", (), ("out4",), _OUT4)


def _ap1_absorbs_out4(h):
    h.events["ap1"] = replace(h.events["ap1"], backward_links=("out4",),
                              bra=ProductBra([_OUT4]))
    h.links["out4"] = replace(h.links["out4"], target="ap1")


def _double_ap1_vector(h):
    ap1 = h.events["ap1"]
    h.events["ap1"] = replace(ap1, emitted_vector=ap1.emitted_vector.scaled(2.0))


def _alpha_factor_in_another_space(h):
    ev4 = h.events["ev4"]
    other = LabeledVector([FactorLabel("alpha", SpaceType("other", 2))], [1.0, 0.0])
    h.events["ev4"] = replace(ev4, bra=ProductBra([other, ev4.bra.factor("gamma")]))


#: each class of damage an event graph can carry, made on a realized figure
HISTORY_DAMAGE = {
    "unknown-link-source": _link_edit("out4", source="ghost"),
    "unknown-link-target": _link_edit("out4", target="ghost"),
    "link-its-source-does-not-list-forward": _add_stray_link,
    "link-its-target-does-not-list-backward": _link_edit("out4", target="ev5"),
    "double-backward-claim": _bra_also_on_gamma,
    "double-forward-claim": _second_emitter_of_out4,
    "cycle": _ap1_absorbs_out4,
    "vector-labels-differ-from-forward-links": _event_edit("ap1", forward_links=("gamma",)),
    "non-unit-vector": _double_ap1_vector,
    "link-space-differs-from-vector": _link_edit("out4", space=SPIN),
    "link-space-differs-from-bra": _alpha_factor_in_another_space,
    "non-finite-amplitude": _event_edit("ev4", amplitude=complex("nan")),
    "bra-differs-from-backward-links": _event_edit("ev4", backward_links=("alpha",)),
    "source-event-of-weight-5": _event_edit("ap1", amplitude=5.0 + 0.0j),
    "forward-links-out-of-order": _event_edit("ap1", forward_links=("res1", "gamma")),
}


@pytest.mark.parametrize("case", sorted(HISTORY_DAMAGE))
def test_loading_and_auditing_refuse_every_class_of_damage(case):
    """The damage is made on the records in memory, so ``validate`` sees it
    there and ``from_dict`` sees it in the history's dict."""
    h = _realized_figure()
    clean = h.to_dict()
    HISTORY_DAMAGE[case](h)
    data = h.to_dict()
    assert data != clean
    assert h.validate() != []
    with pytest.raises(ValueError, match="invalid history: "):
        History.from_dict(data)


def _relabel_bra_factor_space(data):
    absorbing = next(ev for ev in data["events"] if ev["bra"] is not None)
    absorbing["bra"][0]["labels"][0]["space"] = "other"


@pytest.mark.parametrize(
    "edit",
    [lambda data: data["links"][-1]["space"].update(name="other"), _relabel_bra_factor_space],
    ids=["link-vs-source-vector", "link-vs-absorbing-bra"],
)
def test_validate_reports_link_space_mismatches(rng, edit):
    h = generic_figure()
    e4, e5 = figure_outcome_candidates(rng)
    realize(h, None, e4, event_id="ev4")
    realize(h, None, e5, event_id="ev5")
    data = h.to_dict()
    edit(data)
    with pytest.raises(ValueError, match="carries"):
        History.from_dict(data)


def test_snapshot_isolation():
    h = generic_figure()
    snap = h.snapshot()
    e4, _ = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    assert "ev4" in h.events
    assert "ev4" not in snap.events
    assert snap.links["alpha"].target is None


def test_snapshot_keeps_its_own_open_links_both_ways():
    h = generic_figure()
    shared = h.frontier_cut()
    snap = h.snapshot()
    before = h.free_links()
    e4, e5 = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    assert snap.free_links() == before
    assert snap.frontier_cut() is shared
    assert_open_links_match_the_scan(snap)
    assert_open_links_match_the_scan(h)
    grown, frontier = h.free_links(), h.frontier_cut()
    assert "ev4" in frontier.past_event_ids
    realize(snap, None, e5, event_id="ev5")
    assert h.free_links() == grown
    assert h.frontier_cut() is frontier
    assert_open_links_match_the_scan(h)
    assert_open_links_match_the_scan(snap)
    assert "ev5" in snap.frontier_cut().past_event_ids
    assert "ev5" not in frontier.past_event_ids
