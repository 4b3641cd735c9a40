"""Growing pattern of events and causal links.

A :class:`History` is a directed acyclic graph whose nodes are realized
events and whose arrows are causal links.  Links start out *free* (they
have a source but no target yet) and become *established* once a later
event absorbs them.  The graph only ever grows: events and links are
added, never removed; establishing a link fills in its target.

Events carry the data that realized them: initial events only emit a unit
vector over their forward links; interior events additionally record the
product bra and scalar weight they consumed their backward links with,
which is what makes states of arbitrary past-closed cuts reconstructible
from the graph alone.

Links deliberately carry no localization data.  Only events may carry an
optional space-time :class:`Region` tag, and the tag is inert here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import (
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
        return cls(frozenset(ids))


class History:
    """Mutable growing event graph with single-writer discipline.

    Records are immutable; :meth:`snapshot` returns a cheap copy that is
    safe to read from other threads while this instance keeps growing.
    """

    def __init__(self):
        self.events: dict[str, EventRecord] = {}
        self.links: dict[str, LinkRecord] = {}
        self._counter = 0

    # -- construction --------------------------------------------------------

    def _fresh_event_id(self) -> str:
        while True:
            self._counter += 1
            eid = f"e{self._counter}"
            if eid not in self.events:
                return eid

    def _check_new_links(self, vec: LabeledVector) -> None:
        clash = [lab.link_id for lab in vec.labels if lab.link_id in self.links]
        if clash:
            raise LabelCollision(f"link ids already used: {clash}")

    def add_initial_event(
        self,
        vec: LabeledVector,
        region: Region | None = None,
        event_id: str | None = None,
    ) -> str:
        """Add a source event emitting ``vec``; one free link per factor."""
        if not vec.is_unit(EVENT_VECTOR_TOL):
            raise NonUnitVector(
                f"emitted vector has squared norm {vec.squared_norm()!r}"
            )
        self._check_new_links(vec)
        eid = event_id if event_id is not None else self._fresh_event_id()
        if eid in self.events:
            raise ValueError(f"event id {eid!r} already exists")
        for lab in vec.labels:
            self.links[lab.link_id] = LinkRecord(lab.link_id, lab.space, source=eid)
        self.events[eid] = EventRecord(
            id=eid,
            backward_links=(),
            forward_links=vec.label_ids,
            emitted_vector=vec,
            region=region,
        )
        return eid

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
        if not ket.is_unit(EVENT_VECTOR_TOL):
            raise NonUnitVector(f"ket has squared norm {ket.squared_norm()!r}")
        consumed = bra.label_ids
        if not consumed:
            raise ValueError("an interior event needs at least one backward link")
        for lid in consumed:
            link = self.links.get(lid)
            if link is None:
                raise UnknownEvent(f"no link {lid!r} in this history")
            if link.established:
                raise ValueError(f"link {lid!r} is already established")
            if link.space != bra.factor(lid).labels[0].space:
                raise ValueError(
                    f"bra factor on {lid!r} lives in {bra.factor(lid).labels[0].space}, "
                    f"link carries {link.space}"
                )
        self._check_new_links(ket)
        eid = event_id if event_id is not None else self._fresh_event_id()
        if eid in self.events:
            raise ValueError(f"event id {eid!r} already exists")
        for lid in consumed:
            self.links[lid] = replace(self.links[lid], target=eid)
        for lab in ket.labels:
            self.links[lab.link_id] = LinkRecord(lab.link_id, lab.space, source=eid)
        self.events[eid] = EventRecord(
            id=eid,
            backward_links=consumed,
            forward_links=ket.label_ids,
            emitted_vector=ket,
            amplitude=complex(c),
            bra=bra,
            region=region,
        )
        return eid

    # -- queries ---------------------------------------------------------------

    def is_saturated(self, event_id: str) -> bool:
        """True iff every forward link of the event has been absorbed."""
        ev = self.events.get(event_id)
        if ev is None:
            raise UnknownEvent(f"no event {event_id!r}")
        return all(self.links[lid].established for lid in ev.forward_links)

    def unsaturated_events(self) -> list[str]:
        return [eid for eid in self.events if not self.is_saturated(eid)]

    def frontier_cut(self) -> Cut:
        """The cut containing every realized event."""
        return Cut.of(self.events)

    def validate_cut(self, cut: Cut) -> None:
        """Raise unless the cut is past-closed within this history."""
        for eid in cut.past_event_ids:
            if eid not in self.events:
                raise UnknownEvent(f"cut references unknown event {eid!r}")
        for eid in cut.past_event_ids:
            for lid in self.events[eid].backward_links:
                src = self.links[lid].source
                if src not in cut.past_event_ids:
                    raise InvalidCut(
                        f"event {eid!r} is in the cut but its backward link "
                        f"{lid!r} comes from {src!r}, which is not"
                    )

    def free_links(self, cut: Cut | None = None) -> set[str]:
        """Free valences relative to a cut.

        A link counts as free relative to the cut when its source lies
        inside and its absorption, if any, lies outside: such a link is
        available for future events of that cut even if a later part of
        this history has already absorbed it.  With ``cut=None`` the global
        frontier is used and this reduces to plain ``target is None``.
        """
        if cut is None:
            return {lid for lid, ln in self.links.items() if not ln.established}
        self.validate_cut(cut)
        inside = cut.past_event_ids
        return {
            lid
            for lid, ln in self.links.items()
            if ln.source in inside and (ln.target is None or ln.target not in inside)
        }

    # -- invariants ---------------------------------------------------------------

    def validate(self) -> list[str]:
        """Report all structural invariant violations, empty if none."""
        problems: list[str] = []
        backward_claims: dict[str, list[str]] = {}
        forward_claims: dict[str, list[str]] = {}
        for eid, ev in self.events.items():
            for lid in ev.forward_links:
                forward_claims.setdefault(lid, []).append(eid)
                if lid not in self.links:
                    problems.append(f"event {eid!r} lists unknown forward link {lid!r}")
            for lid in ev.backward_links:
                backward_claims.setdefault(lid, []).append(eid)
                if lid not in self.links:
                    problems.append(f"event {eid!r} lists unknown backward link {lid!r}")
            if ev.emitted_vector.label_ids != tuple(sorted(ev.forward_links)):
                problems.append(
                    f"event {eid!r}: emitted vector labels "
                    f"{ev.emitted_vector.label_ids} != forward links"
                )
            if not ev.emitted_vector.is_unit(EVENT_VECTOR_TOL):
                problems.append(
                    f"event {eid!r}: emitted vector squared norm "
                    f"{ev.emitted_vector.squared_norm()!r}"
                )
            factors = [ev.emitted_vector, *(ev.bra.factors.values() if ev.bra else ())]
            for lab in (lab for vec in factors for lab in vec.labels):
                ln = self.links.get(lab.link_id)
                if ln is not None and ln.space != lab.space:
                    problems.append(f"event {eid!r}: link {lab.link_id!r} carries "
                                    f"{ln.space}, its factor {lab.space}")
            if (ev.bra is None) != (not ev.backward_links):
                problems.append(f"event {eid!r}: bra and backward links disagree")
            if ev.bra is not None and tuple(ev.bra.label_ids) != tuple(
                sorted(ev.backward_links)
            ):
                problems.append(f"event {eid!r}: bra labels != backward links")
        for lid, ln in self.links.items():
            if ln.source not in self.events:
                problems.append(f"link {lid!r} has unknown source {ln.source!r}")
            elif lid not in self.events[ln.source].forward_links:
                problems.append(
                    f"link {lid!r} not listed as forward by its source {ln.source!r}"
                )
            if ln.established:
                if ln.target not in self.events:
                    problems.append(f"link {lid!r} has unknown target {ln.target!r}")
                elif lid not in self.events[ln.target].backward_links:
                    problems.append(
                        f"link {lid!r} not listed as backward by its target {ln.target!r}"
                    )
        for lid, claims in backward_claims.items():
            if len(claims) > 1:
                problems.append(f"link {lid!r} claimed backward by {sorted(claims)}")
            elif lid in self.links and self.links[lid].target != claims[0]:
                problems.append(
                    f"link {lid!r} claimed backward by {claims[0]!r} but targets "
                    f"{self.links[lid].target!r}"
                )
        for lid, claims in forward_claims.items():
            if len(claims) > 1:
                problems.append(f"link {lid!r} claimed forward by {sorted(claims)}")
        cycle = self._find_cycle()
        if cycle:
            problems.append(f"causal cycle through events {cycle}")
        return problems

    def _find_cycle(self) -> list[str]:
        indeg = {eid: 0 for eid in self.events}
        out: dict[str, list[str]] = {eid: [] for eid in self.events}
        for ln in self.links.values():
            if ln.established and ln.source in indeg and ln.target in indeg:
                out[ln.source].append(ln.target)
                indeg[ln.target] += 1
        queue = [eid for eid, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            eid = queue.pop()
            seen += 1
            for nxt in out[eid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if seen == len(self.events):
            return []
        return sorted(eid for eid, d in indeg.items() if d > 0)

    # -- snapshots and serialization ---------------------------------------------

    def snapshot(self) -> "History":
        """Cheap read-only copy: records are shared, maps are fresh."""
        h = History.__new__(History)
        h.events = dict(self.events)
        h.links = dict(self.links)
        h._counter = self._counter
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
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on a malformed
        record, a repeated id, or a history that fails :meth:`validate`."""
        h = cls()
        try:
            for rec in data["links"]:
                if rec["id"] in h.links:
                    raise ValueError(f"duplicate link id {rec['id']!r}")
                space = SpaceType(rec["space"]["name"], rec["space"]["dim"])
                h.links[rec["id"]] = LinkRecord(
                    rec["id"], space, rec["source"], rec.get("target")
                )
            for rec in data["events"]:
                if rec["id"] in h.events:
                    raise ValueError(f"duplicate event id {rec['id']!r}")
                bra = None
                if rec.get("bra") is not None:
                    bra = ProductBra([vector_from_dict(f) for f in rec["bra"]])
                re, im = rec.get("amplitude", [1.0, 0.0])
                h.events[rec["id"]] = EventRecord(
                    id=rec["id"],
                    backward_links=tuple(rec["backward_links"]),
                    forward_links=tuple(rec["forward_links"]),
                    emitted_vector=vector_from_dict(rec["vector"]),
                    amplitude=complex(re, im),
                    bra=bra,
                    region=region_from_dict(rec.get("region")),
                )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed history record: {exc!r}") from exc
        h._counter = len(h.events)
        problems = h.validate()
        if problems:
            raise ValueError(f"invalid history: {'; '.join(problems[:3])}")
        return h

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))


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
        "amps": [[a.real, a.imag] for a in vec.amps],
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
