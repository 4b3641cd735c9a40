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
import itertools
import json
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable

import numpy as np

from .errors import (
    EventWeaveError,
    InvalidCut,
    LabelCollision,
    NonUnitVector,
    UnknownEvent,
)
from .tensors import FactorLabel, LabeledVector, ProductBra, SpaceType, _refuse_non_finite

#: absolute tolerance on squared norms of emitted vectors
EVENT_VECTOR_TOL = 1e-9


def _floats(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as floats.  Each must be a real number and not a bool:
    ``float`` would turn the string ``"1"`` or ``true`` into 1.0 without a
    word.  A number outside the float range is refused too."""
    values = tuple(values)
    for x in values:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{what} must hold real numbers, got {x!r}")
    try:
        return tuple(float(x) for x in values)
    except OverflowError as exc:
        raise ValueError(f"{what} leaves the float range: {exc}") from exc


def _refuse_non_numbers(pairs: list, what: str) -> None:
    """Raise ``ValueError`` unless each part of each ``(re, im)`` pair is a
    real number and not a bool, as :func:`_floats` requires.  One set of the
    parts' types clears a whole list of JSON floats and ints; only a list
    holding other types is checked part by part."""
    if not {type(x) for pair in pairs for x in pair} <= {float, int}:
        _floats((x for pair in pairs for x in pair), what)


@dataclass(frozen=True)
class Region:
    """Optional space-time tag of an event: a center and extents, 4 each."""

    center: tuple[float, float, float, float]
    extent: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", _floats(self.center, "region center"))
        object.__setattr__(self, "extent", _floats(self.extent, "region extent"))
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


@dataclass(frozen=True, eq=False)
class Cut:
    """A past-closed set of event ids (a spacelike surface's past).  Cuts
    with the same ids are equal, a history's frontier cut among them."""

    past_event_ids: frozenset[str]

    @classmethod
    def of(cls, ids: Iterable[str]) -> "Cut":
        if isinstance(ids, str):  # would split into one-character event ids
            raise TypeError(f"a cut takes an iterable of event ids, not the "
                            f"string {ids!r}; use [{ids!r}]")
        return cls(frozenset(ids))

    def __eq__(self, other) -> bool:
        return isinstance(other, Cut) and self.past_event_ids == other.past_event_ids

    def __hash__(self) -> int:
        return hash(self.past_event_ids)


class _FrontierCut(Cut):
    """The cut holding the first ``n`` events of a history's ``events``.
    That dict only grows, in insertion order, so the first ``n`` stay the
    same events; their id set is built on first read."""

    def __init__(self, events: dict[str, EventRecord], n: int):
        object.__setattr__(self, "_first", (events, n))

    @cached_property
    def past_event_ids(self) -> frozenset[str]:
        events, n = self._first
        return frozenset(itertools.islice(events, n))


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

    Records are immutable; ``History.from_dict(h.to_dict())`` is an
    independent copy.  The frontier's open links are kept as events are
    admitted, so frontier queries read them instead of walking every event
    and link; the frontier cut, and the state
    :func:`eventweave.dynamics.cut_state` builds on it, are kept until the
    next admission.
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
        if event_id is not None and not isinstance(event_id, str):
            raise ValueError(f"event id must be a string, got {event_id!r}")
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
        """The cut containing every realized event, kept until the next
        admission.  It builds its id set only when a caller reads
        ``past_event_ids``: :meth:`validate_cut` and :meth:`free_links`
        know the kept cut by identity and never read it."""
        if self._frontier is None:
            self._frontier = _FrontierCut(self.events, len(self.events))
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
        return _readmit(self.events.values(), {lid: (ln.space, ln.source, ln.target)
                                               for lid, ln in self.links.items()})[1]

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; amplitudes round-trip bit-exactly as (re, im).
        :meth:`to_json` writes this form's JSON text without building it."""
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
        """Inverse of :meth:`to_dict`: the recorded events admitted again,
        each once, in causal order.

        The input is untrusted.  Every record is checked as it is read: ids
        are distinct strings, amplitudes are ``[re, im]`` pairs of real
        numbers (not bools) inside the float range, and vectors and bra
        factors are well-formed vector literals (:func:`vector_from_dict`).
        The amplitude pairs of the whole document are converted by one
        float array, whose values are ``complex(re, im)``'s bits, and each
        vector is a slice of it; if any of this fails, the records are read
        again one literal at a time, so the refusal is the first fault in
        record order.  Raises ``ValueError`` on a malformed record, a
        repeated id, or any problem that :meth:`validate` would report.

        The copy's counter of fresh event ids goes on from the largest id
        ``f"e{n}"`` it holds, so the copy names the events it admits
        without an id as the original does whenever the original's
        ``e<n>`` ids came from that counter; ids it was given by hand can
        make the two differ.
        """
        try:
            links: dict[str, tuple] = {}
            spaces: dict[tuple, SpaceType] = {}
            for rec in data["links"]:
                if _record_id(rec, "link") in links:
                    raise ValueError(f"duplicate link id {rec['id']!r}")
                space = _space(rec["space"]["name"], rec["space"]["dim"], spaces)
                links[rec["id"]] = (space, rec["source"], rec.get("target"))
            events = _events_from_dicts(data["events"], spaces)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed history record: {exc!r}") from exc
        except EventWeaveError as exc:  # a non-unit bra factor or a repeated label
            raise ValueError(f"invalid history: {exc}") from exc
        h, problems = _readmit(events, links)
        if problems:
            raise ValueError(f"invalid history: {'; '.join(problems[:3])}")
        h._counter = _counter_after(h.events)
        return h

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, byte for byte, written without
        building the dict tree: the records in :meth:`to_dict`'s key order,
        events and links sorted by id, strings through ``json``'s own ASCII
        escaper, floats through ``float.__repr__`` and dims through
        ``int.__repr__``.  A history holds finite floats only (amplitudes,
        event weights and regions are checked where they are made), so no
        float needs ``json``'s ``NaN``/``Infinity`` forms."""
        events, links = self.events, self.links
        return ('{"events": [' + ", ".join([_event_text(events[eid]) for eid in sorted(events)])
                + '], "links": [' + ", ".join([_link_text(links[lid]) for lid in sorted(links)])
                + "]}")

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))


def _record_id(rec: dict, kind: str) -> str:
    """The record's ``id``, refused unless it is a string."""
    rid = rec["id"]
    if not isinstance(rid, str):
        raise ValueError(f"{kind} id must be a string, got {rid!r}")
    return rid


def _read_events(records: Iterable[dict], vector, bra) -> list[tuple]:
    """The fields of each event record, in the order of
    :class:`EventRecord`'s, checked in record order.  ``vector`` reads a
    vector literal and ``bra`` makes a bra of a list of them:
    :func:`vector_from_dict` and :class:`ProductBra` parse and check them
    as they come, while a batch read keeps the literals' places and parses
    them later."""
    seen, read = set(), []
    for rec in records:
        eid = _record_id(rec, "event")
        if eid in seen:
            raise ValueError(f"duplicate event id {eid!r}")
        seen.add(eid)
        amplitude = rec.get("amplitude", [1.0, 0.0])
        _refuse_non_numbers([amplitude], "an event amplitude")
        if len(amplitude) != 2:
            raise TypeError(f"an event amplitude must be an [re, im] pair, got {amplitude!r}")
        re, im = amplitude
        backward, forward = tuple(rec["backward_links"]), tuple(rec["forward_links"])
        ket = vector(rec["vector"])
        factors = rec.get("bra")
        read.append((eid, backward, forward, ket, complex(re, im),
                     None if factors is None else bra([vector(f) for f in factors]),
                     region_from_dict(rec.get("region"))))
    return read


def _events_from_dicts(records: Iterable[dict], spaces: dict[tuple, SpaceType]
                       ) -> list[EventRecord]:
    """The event records of a history document, read with all their vector
    literals parsed at once by :func:`_vectors`.  On any fault the records
    are read again with each literal parsed as it comes, which raises the
    first fault in record order."""
    try:
        literals: list[dict] = []

        def index(data: dict) -> int:
            literals.append(data)
            return len(literals) - 1

        read = _read_events(records, index, tuple)
        vectors = _vectors(literals, spaces)
        return [EventRecord(eid, backward, forward, vectors[ket], c,
                            None if bra is None else ProductBra([vectors[k] for k in bra]),
                            region)
                for eid, backward, forward, ket, c, bra, region in read]
    except (EventWeaveError, KeyError, TypeError, ValueError, OverflowError) as exc:
        fault = exc  # raised below unless the slower read raises first
    _read_events(records, vector_from_dict, ProductBra)
    raise fault


def _readmit(events: Iterable[EventRecord], links: dict[str, tuple]
             ) -> tuple[History, list[str]]:
    """A fresh history holding ``events`` admitted again in causal order
    (Kahn's: an event waits for the emitters of its bra's links), and each
    refusal, derived field, unreached event (a cycle) or link record that
    differs from the records, as one problem.  ``links`` holds each
    recorded link's ``(space, source, target)`` by id."""
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
    admitted = h.links
    for lid in sorted([lid for lid, ln in admitted.items()
                       if links.get(lid) != (ln.space, ln.source, ln.target)]
                      + [lid for lid in links if lid not in admitted]):
        rec, got = links.get(lid), admitted.get(lid)
        if rec is None or got is None:
            problems.append(f"link {lid!r} from {(rec[1] if got is None else got.source)!r}: "
                            + ("no admitted event emits it" if got is None
                               else "missing from the links"))
        else:
            problems += [f"link {lid!r} {says} {r!r}, but its events admit {g!r}"
                         for says, r, g in zip(("carries", "comes from", "goes backward into"),
                                               rec, (got.space, got.source, got.target))
                         if r != g]
    return h, problems


#: an event id the fresh-id counter can have named: ``e`` and at most 18
#: digits, with no leading zero
_FRESH_ID = re.compile(r"e([1-9][0-9]{0,17})")


def _counter_after(ids: Iterable[str]) -> int:
    """The largest ``n`` whose ``f"e{n}"`` is among ``ids``, 0 if none: the
    count a history's counter had reached once it named them.  An id of
    more digits is passed over, as no counter gets that far."""
    return max((int(m[1]) for eid in ids if (m := _FRESH_ID.fullmatch(eid))), default=0)


# :meth:`History.to_json`'s pieces.  Each writes what ``json.dumps`` writes
# for the matching piece of :meth:`History.to_dict`: a list of floats prints
# alike under ``list.__repr__``, which is each float's ``float.__repr__``
# joined by ", ".
_quoted = json.encoder.encode_basestring_ascii


def _event_text(ev: EventRecord) -> str:
    bra = ("null" if ev.bra is None
           else "[" + ", ".join(map(_vector_text, ev.bra.factors.values())) + "]")
    region = ("null" if ev.region is None
              else (f'{{"center": {list.__repr__(list(ev.region.center))}, '
                    f'"extent": {list.__repr__(list(ev.region.extent))}}}'))
    return (f'{{"id": {_quoted(ev.id)}, '
            f'"backward_links": [{", ".join(map(_quoted, ev.backward_links))}], '
            f'"forward_links": [{", ".join(map(_quoted, ev.forward_links))}], '
            f'"vector": {_vector_text(ev.emitted_vector)}, '
            f'"amplitude": {list.__repr__([ev.amplitude.real, ev.amplitude.imag])}, '
            f'"bra": {bra}, "region": {region}}}')


def _link_text(ln: LinkRecord) -> str:
    space, target = ln.space, ln.target
    return (f'{{"id": {_quoted(ln.id)}, "space": {{"name": {_quoted(space.name)}, '
            f'"dim": {int.__repr__(space.dim)}}}, "source": {_quoted(ln.source)}, '
            f'"target": {"null" if target is None else _quoted(target)}}}')


def _vector_text(vec: LabeledVector) -> str:
    labels = ", ".join([f'{{"link": {_quoted(lab.link_id)}, "space": {_quoted(lab.space.name)}, '
                        f'"dim": {int.__repr__(lab.space.dim)}}}' for lab in vec.labels])
    return (f'{{"labels": [{labels}], '
            f'"amps": {list.__repr__(vec.amps.view(np.float64).reshape(-1, 2).tolist())}}}')


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
    """Parse a vector literal: ``{"labels": [{"link", "space", "dim"},
    ...], "amps": [[re, im], ...]}``, amplitudes lexicographic over the
    listed labels.  The literal is parsed as a batch of one by
    :func:`_vectors`, so each amplitude has the bits of ``complex(re,
    im)``.  Raises ``TypeError`` when amps are not ``[re, im]`` pairs,
    ``OverflowError`` past the float range, :class:`DuplicateLabel` on a
    repeated link id and ``ValueError`` on any other fault."""
    return _vectors([data], {})[0]


def _space(name, dim, spaces: dict[tuple, SpaceType]) -> SpaceType:
    """``SpaceType(name, dim)``, kept in ``spaces`` so that a document
    builds one object per distinct space; the key holds the values' types,
    so ``2.0`` or ``true`` never finds the space of dimension 2 or 1."""
    key = (type(name), name, type(dim), dim)
    try:
        space = spaces.get(key)
    except TypeError:  # not hashable, so SpaceType refuses it below
        space = None
    if space is None:
        space = spaces[key] = SpaceType(name, dim)
    return space


def _vectors(literals: list[dict], spaces: dict[tuple, SpaceType]) -> list[LabeledVector]:
    """Parse vector literals together.  Each literal's labels and
    amplitude types are checked as it is read; then every amplitude pair
    becomes one row of one float array, which is checked for its shape,
    and each vector is a slice of it, checked as the constructor checks
    (distinct link ids, one amplitude per basis state) and put in
    canonical order.  Finiteness is checked last, once for all.  The
    vectors share the array, which is read-only."""
    labels_of, starts, pairs = [], [], []
    for data in literals:
        labels_of.append([FactorLabel(entry["link"], _space(entry["space"], entry["dim"], spaces))
                          for entry in data["labels"]])
        amps = data["amps"]
        _refuse_non_numbers(amps, "a vector's amps")
        starts.append(len(pairs))
        pairs += amps
    starts.append(len(pairs))
    flat = _pair_array(pairs)
    flat.setflags(write=False)
    amps = flat.view(np.complex128).reshape(-1)
    vectors = [LabeledVector._checked(labels, amps[start:stop])
               for labels, start, stop in zip(labels_of, starts, starts[1:])]
    _refuse_non_finite(flat)
    return vectors


def _pair_array(pairs: list) -> np.ndarray:
    """The amplitude ``pairs`` as an ``(n, 2)`` float array whose rows have
    the bits of ``complex(re, im)``, ints past 2**53 rounded alike.  Raises
    ``TypeError`` unless each pair holds two values, and then
    ``OverflowError`` for a value past the float range."""
    if not pairs:
        return np.empty((0, 2))
    try:
        flat = np.array(pairs, dtype=np.float64)
    except OverflowError:
        if all(len(pair) == 2 for pair in pairs):
            raise
        flat = None
    except ValueError:  # pairs of different lengths
        flat = None
    if flat is None or flat.shape != (len(pairs), 2):
        raise TypeError("a vector's amps must be [re, im] pairs")
    return flat
