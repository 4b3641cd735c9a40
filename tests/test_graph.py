"""Event graph structure: growth, saturation, cuts, validation, round trips."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    POINTER, SPIN, HistoryFactory, assert_round_trip_is_bit_exact, figure_outcome_candidates,
    generic_figure, one_sided, random_unit_vector, saturated, unit_factor,
)
from eventweave import graph
from eventweave.dynamics import realize
from eventweave.epr import build_epr, Direction, singlet_vector
from eventweave.errors import (
    InvalidCut,
    LabelCollision,
    NonUnitVector,
    UnknownEvent,
)
from eventweave.graph import Cut, EventRecord, History, LinkRecord, Region, vector_from_dict
from eventweave.tensors import FactorLabel, LabeledVector, ProductBra, SpaceType


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
    realize(h, None, one_sided(setup, "1", "+"), event_id="ev4")
    assert not saturated(h, "decay")  # beta still free
    assert saturated(h, "setting1")
    realize(h, None, one_sided(setup, "2", "-"), event_id="ev5")
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
    "event-id-not-a-string": (
        None, lambda h: h.add_initial_event(_OUT, event_id=5),
        ValueError, "event id must be a string, got 5",
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


@pytest.mark.parametrize("center, extent", [
    ((0.0, 1.0, 2.0), (0.5,) * 4), ((0.0,) * 4, (0.5,) * 5),
], ids=["three-center-values", "five-extents"])
def test_a_region_needs_four_centers_and_four_extents(center, extent):
    with pytest.raises(ValueError, match="region needs 4 center values and 4 extents"):
        Region(center, extent)


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


def _zero_amplitudes_as_false(data):
    """JSON ``false`` for each 0 of the first vector; its norm is unchanged."""
    vec = data["events"][0]["vector"]
    vec["amps"] = [[x if x else False for x in pair] for pair in vec["amps"]]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_double_first_vector, r"'ap1': emitted vector has squared norm (4\.0|3\.9{9})"),
        (lambda data: data["links"][0].update(target="ghost"),
         "'alpha' goes backward into 'ghost', but its events admit None"),
        (lambda data: data["events"][0].update(amplitude=[float("nan"), 0.0]),
         r"'ap1': event amplitude must be finite, got \(nan"),
        (lambda data: data["events"][0].update(amplitude=[True, False]),
         "an event amplitude must hold real numbers, got True"),
        (_zero_amplitudes_as_false,
         "a vector's amps must hold real numbers, got False"),
    ],
    ids=["norm-4-vector", "dangling-link-target", "nan-amplitude", "bool-amplitude",
         "bool-vector-amps"],
)
def test_from_dict_refuses_invalid_histories(edit, problem):
    data = generic_figure().to_dict()
    edit(data)
    with pytest.raises(ValueError, match=problem):
        History.from_dict(data)


def _first_amplitudes_as(pair):
    """An edit writing ``pair(re, im)`` for each amplitude of the first vector."""
    def edit(data):
        vec = data["events"][0]["vector"]
        vec["amps"] = [pair(re, im) for re, im in vec["amps"]]
    return edit


def _flatten_first_amplitudes(data):
    vec = data["events"][0]["vector"]
    vec["amps"] = [x for pair in vec["amps"] for x in pair]


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.pop("links"),
        lambda data: data["links"][0].pop("space"),
        _flatten_first_amplitudes,
        lambda data: data["events"][0]["vector"]["amps"][0].__setitem__(0, 10**400),
        _first_amplitudes_as(lambda re, im: [re, im, 0.0]),
        _first_amplitudes_as(lambda re, im: [re]),
        lambda data: data["events"][0].update(amplitude=[1.0, 0.0, 0.0]),
    ],
    ids=["no-links", "link-without-space", "amplitudes-not-pairs",
         "amplitude-beyond-the-float-range", "amplitude-triples", "amplitude-singles",
         "event-amplitude-triple"],
)
def test_from_dict_reports_malformed_records_as_value_errors(edit):
    data = generic_figure().to_dict()
    edit(data)
    with pytest.raises(ValueError, match="malformed history record"):
        History.from_dict(data)


@pytest.mark.parametrize("edit, message", [
    (_first_amplitudes_as(lambda re, im: [re, im, 0.0]),
     "TypeError(\"a vector's amps must be [re, im] pairs\")"),
    (_first_amplitudes_as(lambda re, im: [re]),
     "TypeError(\"a vector's amps must be [re, im] pairs\")"),
    (lambda data: data["events"][0]["vector"]["amps"][1].append(0.0),
     "TypeError(\"a vector's amps must be [re, im] pairs\")"),
    (lambda data: data["events"][0]["vector"]["amps"][0].extend([10**400, 0]),
     "TypeError(\"a vector's amps must be [re, im] pairs\")"),
    (_first_amplitudes_as(lambda re, im: [re, im, 10**400]),
     "TypeError(\"a vector's amps must be [re, im] pairs\")"),
    (lambda data: data["events"][0].update(amplitude=[1.0, 0.0, 0.0]),
     "TypeError('an event amplitude must be an [re, im] pair, got [1.0, 0.0, 0.0]')"),
    (lambda data: data["events"][0].update(amplitude=[1.0]),
     "TypeError('an event amplitude must be an [re, im] pair, got [1.0]')"),
], ids=["triples", "singles", "ragged", "ragged-beyond-the-float-range",
        "triples-beyond-the-float-range", "event-amplitude-triple", "event-amplitude-single"])
def test_amplitudes_that_are_not_pairs_are_malformed_records(edit, message):
    """A pair of another length is refused as a pair, before any value of
    its list is converted, and not by Python's unpacking message."""
    data = generic_figure().to_dict()
    edit(data)
    with pytest.raises(ValueError) as caught:
        History.from_dict(data)
    assert str(caught.value) == f"malformed history record: {message}"


@pytest.mark.parametrize("seed", range(10))
def test_factory_histories_round_trip_bit_exactly(seed):
    """Random histories of labels in any order, dims 1 to 4 and scalar kets
    load to the same bytes, amplitudes, open links and frontier state."""
    factory = HistoryFactory(np.random.default_rng([seed, 38]))
    for _ in range(5):
        assert_round_trip_is_bit_exact(factory.random_history(max_events=8))


def _factory_histories_with_regions(seed: int) -> list[History]:
    """Five factory histories; every other event of the first, third and
    fifth carries a random region."""
    rng = np.random.default_rng([seed, 39])
    factory = HistoryFactory(rng)
    histories = [factory.random_history(max_events=8) for _ in range(5)]
    for h in histories[::2]:
        for eid in list(h.events)[::2]:
            region = Region(rng.normal(size=4), rng.exponential(size=4))
            h.events[eid] = replace(h.events[eid], region=region)
    return histories


#: names the writer must escape as ``json`` does: non-ASCII, astral,
#: quote, backslash, control characters, a line separator and a lone surrogate
ODD = 'é\U0001f600"\\\x00\x1f\x7f\u2028\ud800'


def _odd_history() -> History:
    """Odd ids and space names, edge floats in amplitudes, weights and
    regions, a multi-label ket, a multi-factor bra and empty-label kets."""
    h, space = History(), SpaceType(f"space {ODD}", 2)
    a, b = f"a{ODD}", f"b{ODD}"
    ket = LabeledVector(
        [FactorLabel(a, space), FactorLabel(b, space), FactorLabel(f"c{ODD}", POINTER)],
        [complex(0.1, -0.0), complex(-0.0, 5e-324), 1e-16, math.sqrt(0.99)])
    edges = (-0.0, 5e-324, 1.7976931348623157e308, 1e16)
    h.add_initial_event(ket, Region(edges, (0.1, 0.0, 1.0, 2.5)), event_id=f"src{ODD}")
    h.add_initial_event(LabeledVector.scalar(complex(-0.0, 1.0)), event_id="")
    bra = ProductBra([unit_factor(a, [0.1, math.sqrt(0.99)], space),
                      unit_factor(b, [-0.0, 1.0], space)])
    h.add_interior_event(bra, complex(1.7976931348623157e308, -0.0), LabeledVector.scalar(),
                         event_id=ODD)
    h.add_interior_event(ProductBra([unit_factor(f"c{ODD}", [1.0], POINTER)]),
                         complex(1e16, 0.1), unit_factor("d", [5e-324, 1.0]))
    return h


WRITER_CASES = {
    **{f"factory-{seed}": lambda seed=seed: _factory_histories_with_regions(seed)
       for seed in range(10)},
    "figure": lambda: [generic_figure()],
    "odd-names-and-floats": lambda: [_odd_history()],
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_to_json_writes_the_bytes_json_dumps_writes_of_to_dict(case):
    """The direct writer and ``json.dumps(to_dict())`` are two routes to one
    format; the text also loads back to itself."""
    for h in WRITER_CASES[case]():
        text = h.to_json()
        assert text == json.dumps(h.to_dict())
        assert History.from_json(text).to_json() == text


def test_to_json_builds_no_tree(monkeypatch):
    """``to_json`` writes its text without ``to_dict``'s tree and without
    ``json.dumps``: with all of them refusing, it writes the same bytes."""
    histories = [_odd_history(), *_factory_histories_with_regions(0)]
    recorded = [json.dumps(h.to_dict()) for h in histories]

    def refuse(*args, **kwargs):
        raise AssertionError("to_json built a tree")

    monkeypatch.setattr(History, "to_dict", refuse)
    monkeypatch.setattr(graph, "vector_to_dict", refuse)
    monkeypatch.setattr(graph, "region_to_dict", refuse)
    monkeypatch.setattr(graph.json, "dumps", refuse)
    assert [h.to_json() for h in histories] == recorded


def test_a_copy_names_fresh_events_after_its_largest_counter_id():
    """Only ids that read ``f"e{n}"`` set a copy's counter: no leading zero,
    sign, underscore, non-ASCII digit or other prefix, and no number a
    counter cannot reach.  Ids given by hand are where a copy and its
    original can differ: the original's counter never moved."""
    h = History()
    for k, eid in enumerate(["e2", "e010", "e\u0663", "e+5", "e1_0", "x9", "e", "e" + "9" * 19]):
        h.add_initial_event(unit_factor(f"L{k}", [1.0, 0.0]), event_id=eid)
    copy = History.from_dict(h.to_dict())
    assert copy.add_initial_event(unit_factor("M", [1.0], POINTER)) == "e3"
    assert h.add_initial_event(unit_factor("M", [1.0], POINTER)) == "e1"


def _with_first_amplitudes(values):
    """The figure's dict with the amplitudes of its first vector (``ap1``,
    4 amplitudes) replaced by ``values``, two per pair, zeros after them."""
    data = generic_figure().to_dict()
    vec = data["events"][0]["vector"]
    values = list(values) + [0] * (8 - len(values))
    vec["amps"] = [values[i:i + 2] for i in range(0, 8, 2)]
    return data, vec


@pytest.mark.parametrize("values", [
    [2**53 + 1, -(2**64 + 3), 2**63, -(2**63) - 1, 2**53 + 3, 1],
    [2**64 - 1, 3, -(2**1023), 2**1023 + 2**970, 2**1024 - 2**971, -7],
    [10**300, -0.0, 5e-324, -(2**53) - 3, 0, -0],
], ids=["past-2-53", "int64-and-float-edges", "mixed-with-floats"])
def test_int_amplitudes_load_to_the_bits_of_complex(values):
    """JSON ints, however large, become the floats ``complex(re, im)``
    makes of them; the norm is left as it is, so the load reports it."""
    data, vec = _with_first_amplitudes(values)
    want = np.array([complex(re, im) for re, im in vec["amps"]])
    with pytest.raises(ValueError, match="'ap1': emitted vector has squared norm"):
        History.from_dict(data)
    got = vector_from_dict(vec)
    assert got.amps.tobytes() == want.tobytes()


@pytest.mark.parametrize("values, message", [
    (["1", 0, 0, 0], "a vector's amps must hold real numbers, got '1'"),
    ([0.6, None, 0.8, 0], "a vector's amps must hold real numbers, got None"),
    ([True, 0, 0, 0], "a vector's amps must hold real numbers, got True"),
    ([10**400, 0, 1, 0], "malformed history record: OverflowError('int too large to "
                         "convert to float')"),
    ([1, 0, -(10**400), 0], "malformed history record: OverflowError('int too large to "
                            "convert to float')"),
    ([0.6, float("nan"), 0.8, 0], "amplitudes must be finite"),
    ([0.6, 0, float("-inf"), 0], "amplitudes must be finite"),
], ids=["string", "null", "bool", "beyond-the-float-range", "below-the-float-range",
        "nan", "infinity"])
def test_amplitudes_that_are_not_floats_are_refused_as_before(values, message):
    data, _ = _with_first_amplitudes(values)
    with pytest.raises(ValueError) as caught:
        History.from_dict(data)
    assert str(caught.value) == message


@pytest.mark.parametrize("dim", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("where", ["link", "label"])
def test_dims_equal_to_an_int_are_refused_next_to_that_int(dim, where):
    """A dim of ``2.0`` or ``true`` is refused even where the same space
    with the int dim (2, 1) was read before it."""
    data = _realized_figure().to_dict()
    space = "spin" if dim == 2 else "pointer"
    if where == "link":
        target = [ln["space"] for ln in data["links"] if ln["space"]["name"] == space][-1]
        target["dim"] = dim
    else:
        labels = [lab for ev in data["events"] for lab in ev["vector"]["labels"]
                  if lab["space"] == space]
        labels[-1]["dim"] = dim
    with pytest.raises(ValueError, match=rf"space '{space}' has dimension {dim!r}; need an "
                                         "integer >= 1"):
        History.from_dict(data)


@pytest.mark.parametrize("table", ["links", "events"])
def test_from_dict_refuses_repeated_ids(table):
    data = generic_figure().to_dict()
    data[table].append(dict(data[table][0]))
    with pytest.raises(ValueError, match=f"duplicate {table[:-1]} id"):
        History.from_dict(data)


@pytest.mark.parametrize("table", ["links", "events"])
def test_from_dict_refuses_ids_that_are_not_strings(table):
    data = generic_figure().to_dict()
    data[table][0]["id"] = 7
    with pytest.raises(ValueError, match=f"{table[:-1]} id must be a string, got 7"):
        History.from_dict(data)


@pytest.mark.parametrize("center", [["0", 0, 0, 0], [0, True, 0, 0]], ids=["string", "bool"])
def test_from_dict_refuses_region_values_that_are_not_numbers(center):
    data = generic_figure().to_dict()
    data["events"][0]["region"] = {"center": center, "extent": [1, 1, 1, 1]}
    with pytest.raises(ValueError, match="region center must hold real numbers"):
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


def test_a_copy_misses_later_events():
    h = generic_figure()
    copied = History.from_dict(h.to_dict())
    e4, _ = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    assert "ev4" in h.events
    assert "ev4" not in copied.events
    assert copied.links["alpha"].target is None


def test_a_copy_keeps_its_own_open_links_both_ways():
    h = generic_figure()
    copied = History.from_dict(h.to_dict())
    before = h.free_links()
    e4, e5 = figure_outcome_candidates()
    realize(h, None, e4, event_id="ev4")
    assert copied.free_links() == before
    assert_open_links_match_the_scan(copied)
    assert_open_links_match_the_scan(h)
    grown, frontier = h.free_links(), h.frontier_cut()
    assert "ev4" in frontier.past_event_ids
    realize(copied, None, e5, event_id="ev5")
    assert h.free_links() == grown
    assert h.frontier_cut() is frontier
    assert_open_links_match_the_scan(h)
    assert_open_links_match_the_scan(copied)
    assert "ev5" in copied.frontier_cut().past_event_ids
    assert "ev5" not in frontier.past_event_ids
