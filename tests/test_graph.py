"""Event graph structure: growth, saturation, cuts, validation, round trips."""

import numpy as np
import pytest

from conftest import SPIN, figure_outcome_candidates, generic_figure, unit_factor
from eventweave.dynamics import realize
from eventweave.epr import build_epr, Direction, singlet_vector
from eventweave.errors import (
    InvalidCut,
    LabelCollision,
    NonUnitVector,
    UnknownEvent,
)
from eventweave.graph import Cut, History, LinkRecord, Region
from eventweave.tensors import FactorLabel, LabeledVector, ProductBra


def traversal_free_links(h, cut_ids):
    """Independent oracle: scan the link table directly."""
    inside = set(cut_ids)
    return {
        lid
        for lid, ln in h.links.items()
        if ln.source in inside and (ln.target is None or ln.target not in inside)
    }


def test_single_initial_event():
    h = History()
    eid = h.add_initial_event(singlet_vector())
    assert len(h.events) == 1
    assert h.free_links() == {"alpha", "beta"}
    assert not h.is_saturated(eid)
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
    assert all(not h.is_saturated(e) for e in ("setting1", "setting2", "decay"))
    realize(h, None, setup.side1["+"], event_id="ev4")
    assert not h.is_saturated("decay")  # beta still free
    assert h.is_saturated("setting1")
    realize(h, None, setup.side2["-"], event_id="ev5")
    assert h.is_saturated("decay")
    assert sorted(h.unsaturated_events()) == ["ev4", "ev5"]
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
        assert h.is_saturated(eid) == manual


def test_zero_forward_link_events_are_allowed():
    h = History()
    v = unit_factor("only", [1.0, 0.0])
    h.add_initial_event(v, event_id="src")
    eid = h.add_interior_event(
        ProductBra([unit_factor("only", [1.0, 0.0])]), 1.0, LabeledVector.scalar(1.0)
    )
    assert h.is_saturated(eid)
    assert h.is_saturated("src")
    assert h.validate() == []


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
        (_double_first_vector, "emitted vector squared norm"),
        (lambda data: data["links"][0].update(target="ghost"), "unknown target 'ghost'"),
    ],
    ids=["norm-4-vector", "dangling-link-target"],
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
