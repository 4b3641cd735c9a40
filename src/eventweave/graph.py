"""Growing pattern of events and causal links.

A :class:`History` is a directed acyclic graph whose nodes are realized
events and whose arrows are causal links.  Links start out *free* (they
have a source but no target yet) and become *established* once a later
event absorbs them.  The graph only ever grows: events and links are
added, never removed; establishing a link fills in its target.

Events carry the data that realized them: the unit vector they emit over
their forward links, and the product bra and scalar weight they consumed
their backward links with, which is what makes states of arbitrary
past-closed cuts reconstructible from the graph alone.  An initial event
is an event with no backward links (no bra, weight 1).  Admission is the
one definition of a valid history: events built, realized, loaded
(:meth:`History.from_dict`) or audited (:meth:`History.validate`) pass it.

Links deliberately carry no localization data.  Only events may carry an
optional space-time :class:`Region` tag, and the tag is inert here.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Container, Iterable

import numpy as np

from .errors import (
    EventWeaveError,
    InvalidCut,
    LabelCollision,
    NonUnitVector,
    UnknownEvent,
)
from .tensors import FactorLabel, LabeledVector, ProductBra, SpaceType

#: absolute tolerance on squared norms of emitted vectors
EVENT_VECTOR_TOL = 1e-9


@dataclass(frozen=True)
class Region:
    """Optional space-time tag of an event: a center and extents, 4 each."""

    center: tuple[float, float, float, float]
    extent: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "extent", tuple(float(x) for x in self.extent))
        if len(self.center) != 4 or len(self.extent) != 4:
            raise ValueError("region needs 4 center values and 4 extents")
        if not all(map(math.isfinite, self.center + self.extent)):
            raise ValueError(f"center {self.center} and extent {self.extent} "
                             "must be finite")


@dataclass(frozen=True)
class LinkRecord:
    """One causal link; ``target is None`` means the valence is still free."""

    id: str
    space: SpaceType
    source: str
    target: str | None = None

    @property
    def established(self) -> bool:
        return self.target is not None


@dataclass(frozen=True)
class EventRecord:
    """One realized event.

    ``emitted_vector`` is the unit vector over all forward links created at
    realization time; its labels always match ``forward_links`` even after
    some of those links are absorbed.  ``bra``/``amplitude`` record the
    rank-1 operator data of an interior event (``bra is None`` for initial
    events, whose amplitude is 1).
    """

    id: str
    backward_links: tuple[str, ...]
    forward_links: tuple[str, ...]
    emitted_vector: LabeledVector
    amplitude: complex = 1.0 + 0.0j
    bra: ProductBra | None = None
    region: Region | None = None


@dataclass(frozen=True)
class Cut:
    """A past-closed set of event ids (a spacelike surface's past)."""

    past_event_ids: frozenset[str]

    @classmethod
    def of(cls, ids: Iterable[str]) -> "Cut":
        if isinstance(ids, str):  # would split into one-character event ids
            raise TypeError(f"a cut takes an iterable of event ids, not the "
                            f"string {ids!r}; use [{ids!r}]")
        return cls(frozenset(ids))


def _refuse_used(ids: Iterable[str], links: Container[str],
                 extra: Container[str] = ()) -> None:
    """Raise :class:`LabelCollision` naming the ``ids`` that a history's
    ``links``, or ``extra``, already uses: a link id names one arrow with one
    source, so no new event may emit it again."""
    clash = [lid for lid in ids if lid in links or lid in extra]
    if clash:
        raise LabelCollision(f"link ids already used: {sorted(set(clash))}")


class History:
    """Mutable growing event graph with single-writer discipline.

    Records are immutable; :meth:`snapshot` returns a cheap copy that is
    safe to read from other threads while this instance keeps growing.
    The frontier's open links are kept as events are admitted, so frontier
    queries read them instead of walking every event and link; the frontier
    cut, and the state :func:`eventweave.dynamics.cut_state` builds on it,
    are kept until the next admission.
    """

    def __init__(self):
        self.events: dict[str, EventRecord] = {}
        self.links: dict[str, LinkRecord] = {}
        self._counter = 0
        self._open: dict[str, None] = {}  # free link ids, in creation order
        self._frontier: Cut | None = None  # cached frontier_cut()
        self._frontier_state = None  # cached dynamics.cut_state(self)

    # -- construction --------------------------------------------------------

    def _fresh_event_id(self) -> str:
        while True:
            self._counter += 1
            eid = f"e{self._counter}"
            if eid not in self.events:
                return eid

    def add_initial_event(
        self,
        vec: LabeledVector,
        region: Region | None = None,
        event_id: str | None = None,
    ) -> str:
        """Add a source event emitting ``vec``; one free link per factor.

        A source event is an event with no backward links and amplitude 1;
        it passes the same checks as :meth:`add_interior_event`."""
        return self._add_event(None, 1.0, vec, region, event_id)

    def add_interior_event(
        self,
        bra: ProductBra,
        c: complex,
        ket: LabeledVector,
        region: Region | None = None,
        event_id: str | None = None,
    ) -> str:
        """Absorb the bra's links into a new event emitting ``ket``.

        Structural operation only: it establishes the consumed links and
        creates fresh free links for the ket's factors.  Probability gating
        lives in :func:`eventweave.dynamics.realize`.
        """
        return self._add_event(bra, c, ket, region, event_id)

    def _add_event(self, bra: ProductBra | None, c: complex, ket: LabeledVector,
                   region: Region | None, event_id: str | None) -> str:
        """Admit one event (``bra is None``: a source event) under every rule
        a history obeys; every check runs before the first write, so a
        refused event changes nothing."""
        consumed = () if bra is None else bra.label_ids
        if bra is not None and not consumed:
            raise ValueError("an interior event needs at least one backward link")
        if not ket.is_unit(EVENT_VECTOR_TOL):
            raise NonUnitVector(f"emitted vector has squared norm {ket.squared_norm()!r}")
        if not cmath.isfinite(c):
            raise ValueError(f"event amplitude must be finite, got {c!r}")
        if bra is None and c != 1:
            raise ValueError(f"a source event has weight 1, got {c!r}")
        for lid in consumed:
            link = self.links.get(lid)
            if link is None:
                raise UnknownEvent(f"no link {lid!r} in this history")
            if link.established:
                raise ValueError(f"link {lid!r} is already established")
            space = bra.factor(lid).labels[0].space
            if link.space != space:
                raise ValueError(f"bra factor on {lid!r} lives in {space}, "
                                 f"link carries {link.space}")
        emitted = ket.label_ids
        _refuse_used(emitted, self.links)
        if event_id in self.events:
            raise ValueError(f"event id {event_id!r} already exists")
        eid = event_id if event_id is not None else self._fresh_event_id()
        for lid in consumed:
            link = self.links[lid]
            self.links[lid] = LinkRecord(lid, link.space, link.source, eid)
            del self._open[lid]
        for lab in ket.labels:
            self.links[lab.link_id] = LinkRecord(lab.link_id, lab.space, source=eid)
            self._open[lab.link_id] = None
        self._frontier = self._frontier_state = None
        self.events[eid] = EventRecord(
            eid, consumed, emitted, ket, amplitude=complex(c), bra=bra, region=region
        )
        return eid

    # -- queries ---------------------------------------------------------------

    def frontier_cut(self) -> Cut:
        """The cut containing every realized event (built once per admission)."""
        if self._frontier is None:
            self._frontier = Cut.of(self.events)
        return self._frontier

    def validate_cut(self, cut: Cut) -> None:
        """Raise unless the cut is past-closed within this history; the
        error names the offender that comes first in sorted order."""
        if cut is self._frontier:
            return  # admission keeps it past-closed
        inside = cut.past_event_ids
        unknown = [eid for eid in inside if eid not in self.events]
        if unknown:
            raise UnknownEvent(f"cut references unknown event {min(unknown)!r}")
        open_past = [(eid, lid, src) for eid in inside
                     for lid in self.events[eid].backward_links
                     if (src := self.links[lid].source) not in inside]
        if open_past:
            eid, lid, src = min(open_past)
            raise InvalidCut(
                f"event {eid!r} is in the cut but its backward link "
                f"{lid!r} comes from {src!r}, which is not"
            )

    def free_links(self, cut: Cut | None = None) -> set[str]:
        """Free valences relative to a cut.

        A link counts as free relative to the cut when its source lies
        inside and its absorption, if any, lies outside: such a link is
        available for future events of that cut even if a later part of
        this history has already absorbed it.  With ``cut=None`` or
        :meth:`frontier_cut` this is the kept set of links with no target.
        """
        if cut is not None:
            self.validate_cut(cut)
        if cut is None or cut is self._frontier:
            return set(self._open)
        inside = cut.past_event_ids
        return {
            lid
            for lid, ln in self.links.items()
            if ln.source in inside and (ln.target is None or ln.target not in inside)
        }

    # -- invariants ---------------------------------------------------------------

    def validate(self) -> list[str]:
        """Every way this history differs from one that admission builds
        out of its events (see :func:`_readmit`), empty if none."""
        return _readmit(self.events.values(), self.links)[1]

    # -- snapshots and serialization ---------------------------------------------

    def snapshot(self) -> "History":
        """Cheap read-only copy: records are shared, maps are fresh."""
        h = History.__new__(History)
        h.events = dict(self.events)
        h.links = dict(self.links)
        h._counter = self._counter
        h._open = dict(self._open)
        h._frontier = self._frontier
        h._frontier_state = None  # a state's .links is the map it was cut from
        return h

    def to_dict(self) -> dict:
        """JSON-ready form; amplitudes round-trip bit-exactly as (re, im)."""
        events = []
        for eid in sorted(self.events):
            ev = self.events[eid]
            events.append(
                {
                    "id": ev.id,
                    "backward_links": list(ev.backward_links),
                    "forward_links": list(ev.forward_links),
                    "vector": vector_to_dict(ev.emitted_vector),
                    "amplitude": [ev.amplitude.real, ev.amplitude.imag],
                    "bra": None
                    if ev.bra is None
                    else [vector_to_dict(f) for f in ev.bra.factors.values()],
                    "region": region_to_dict(ev.region),
                }
            )
        links = []
        for lid in sorted(self.links):
            ln = self.links[lid]
            links.append(
                {
                    "id": ln.id,
                    "space": {"name": ln.space.name, "dim": ln.space.dim},
                    "source": ln.source,
                    "target": ln.target,
                }
            )
        return {"events": events, "links": links}

    @classmethod
    def from_dict(cls, data: dict) -> "History":
        """Inverse of :meth:`to_dict`: the recorded events admitted again.
        Raises ``ValueError`` on a malformed record, a repeated id, or any
        problem that :meth:`validate` would report."""
        events: dict[str, EventRecord] = {}
        links: dict[str, LinkRecord] = {}
        try:
            for rec in data["links"]:
                if rec["id"] in links:
                    raise ValueError(f"duplicate link id {rec['id']!r}")
                space = SpaceType(rec["space"]["name"], rec["space"]["dim"])
                links[rec["id"]] = LinkRecord(rec["id"], space, rec["source"], rec.get("target"))
            for rec in data["events"]:
                if rec["id"] in events:
                    raise ValueError(f"duplicate event id {rec['id']!r}")
                re, im = rec.get("amplitude", [1.0, 0.0])
                events[rec["id"]] = EventRecord(
                    id=rec["id"],
                    backward_links=tuple(rec["backward_links"]),
                    forward_links=tuple(rec["forward_links"]),
                    emitted_vector=vector_from_dict(rec["vector"]),
                    amplitude=complex(re, im),
                    bra=None if rec.get("bra") is None
                    else ProductBra([vector_from_dict(f) for f in rec["bra"]]),
                    region=region_from_dict(rec.get("region")),
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed history record: {exc!r}") from exc
        except EventWeaveError as exc:  # a non-unit bra factor or a repeated label
            raise ValueError(f"invalid history: {exc}") from exc
        h, problems = _readmit(events.values(), links)
        if problems:
            raise ValueError(f"invalid history: {'; '.join(problems[:3])}")
        h._counter = len(events)
        return h

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))


def _readmit(events: Iterable[EventRecord],
             links: dict[str, LinkRecord]) -> tuple[History, list[str]]:
    """A fresh history holding ``events`` admitted again in causal order
    (Kahn's: an event waits for the emitters of its bra's links), and each
    refusal, derived field, unreached event (a cycle) or link record that
    differs from the records, as one problem."""
    by_id = {ev.id: ev for ev in events}
    emitter = {lid: ev.id for ev in by_id.values() for lid in ev.emitted_vector.label_ids}
    waiting = {eid: 0 for eid in by_id}  # emitters not yet admitted
    unblocks: dict[str, list[str]] = {}
    for ev in by_id.values():
        for src in {emitter.get(lid) for lid in (ev.bra.label_ids if ev.bra else ())} - {None}:
            waiting[ev.id] += 1
            unblocks.setdefault(src, []).append(ev.id)
    h, problems = History(), []
    ready = [ev for ev in by_id.values() if waiting[ev.id] == 0]
    for ev in ready:  # grows as admissions unblock events
        try:
            got = h.events[h._add_event(ev.bra, ev.amplitude, ev.emitted_vector,
                                        ev.region, ev.id)]
        except (EventWeaveError, ValueError) as exc:
            problems.append(f"event {ev.id!r}: {exc}")
        else:
            problems += [f"event {ev.id!r}: {f} {getattr(ev, f)!r}, but its bra and "
                         f"vector admit {getattr(got, f)!r}"
                         for f in ("backward_links", "forward_links", "amplitude")
                         if getattr(ev, f) != getattr(got, f)]
        for nxt in unblocks.get(ev.id, ()):
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                ready.append(by_id[nxt])
    if stuck := sorted(eid for eid, n in waiting.items() if n):
        problems.append(f"causal cycle through events {stuck}")
    for lid in sorted(links.keys() | h.links.keys()):
        rec, got = links.get(lid), h.links.get(lid)
        if rec is None or got is None:
            problems.append(f"link {lid!r} from {(rec or got).source!r}: " + (
                "no admitted event emits it" if got is None else "missing from the links"))
        elif rec != got:
            problems += [f"link {lid!r} {says} {getattr(rec, f)!r}, but its events admit "
                         f"{getattr(got, f)!r}" for f, says in (
                             ("space", "carries"), ("source", "comes from"),
                             ("target", "goes backward into"))
                         if getattr(rec, f) != getattr(got, f)]
    return h, problems


def region_to_dict(region: Region | None) -> dict | None:
    """Region literal: center and extent lists; no region stays ``None``."""
    if region is None:
        return None
    return {"center": list(region.center), "extent": list(region.extent)}


def region_from_dict(data: dict | None) -> Region | None:
    """Parse a region literal; ``None`` means the event carries no region."""
    if data is None:
        return None
    return Region(data["center"], data["extent"])


def vector_to_dict(vec: LabeledVector) -> dict:
    """Vector literal: labels plus flat (re, im) amplitude pairs."""
    return {
        "labels": [
            {"link": lab.link_id, "space": lab.space.name, "dim": lab.space.dim}
            for lab in vec.labels
        ],
        "amps": vec.amps.view(np.float64).reshape(-1, 2).tolist(),
    }


def vector_from_dict(data: dict) -> LabeledVector:
    """Parse a vector literal; amps are lexicographic over the listed labels."""
    labels = [
        FactorLabel(entry["link"], SpaceType(entry["space"], entry["dim"]))
        for entry in data["labels"]
    ]
    amps = np.array(
        [complex(re, im) for re, im in data["amps"]], dtype=np.complex128
    )
    return LabeledVector(labels, amps)
