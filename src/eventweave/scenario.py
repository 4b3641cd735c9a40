"""Scenario files: initial events plus staged alternative sets, as JSON.

A scenario declares the starting pattern (initial events with their
emitted vectors) and a sequence of stages; each stage is an alternative
set of candidate events over the then-current frontier.  Vector literals
follow one fixed shape everywhere::

    {"labels": [{"link": "alpha", "space": "spin", "dim": 2}, ...],
     "amps": [[re, im], ...]}

with amplitudes in lexicographic index order over the listed labels.
Parse errors carry a breadcrumb to the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dynamics import AlternativeSet, CandidateEvent
from .errors import EventWeaveError
from .graph import (
    History,
    Region,
    region_from_dict,
    region_to_dict,
    vector_from_dict,
    vector_to_dict,
)
from .tensors import LabeledVector, ProductBra

SCHEMA_NAME = "eventweave-scenario/1"


class ScenarioError(EventWeaveError):
    """Malformed scenario content, with a location breadcrumb."""

    def __init__(self, message: str, location: str = "$"):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass
class Stage:
    name: str
    alternatives: AlternativeSet


@dataclass
class Scenario:
    """Parsed scenario: initial events and staged alternatives."""

    initial_events: list[tuple[str, LabeledVector, Region | None]]
    stages: list[Stage]

    def build_history(self) -> History:
        h = History()
        for i, (eid, vec, region) in enumerate(self.initial_events):
            try:
                h.add_initial_event(vec, region=region, event_id=eid)
            except (ValueError, EventWeaveError) as exc:
                raise ScenarioError(str(exc), f"$.initial_events[{i}]") from exc
        return h


def _object(data, what, loc) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be a JSON object", loc)


def _expect(data, key, kind, loc):
    if key not in data:
        raise ScenarioError(f"missing field {key!r}", loc)
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(
            f"field {key!r} should be {getattr(kind, '__name__', kind)}", loc
        )
    return value


def _parse_vector(data, loc) -> LabeledVector:
    _object(data, "vector literal", loc)
    _expect(data, "labels", list, loc)
    _expect(data, "amps", list, loc)
    try:
        return vector_from_dict(data)
    except (KeyError, TypeError, ValueError, EventWeaveError) as exc:
        raise ScenarioError(f"bad vector literal ({exc})", loc) from exc


def _parse_region(data, loc) -> Region | None:
    try:
        return region_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad region ({exc})", loc) from exc


def _parse_complex(data, loc) -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ScenarioError("complex values are [re, im] pairs", loc)
    try:
        return complex(float(data[0]), float(data[1]))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad complex value ({exc})", loc) from exc


def _parse_candidate(data, loc) -> CandidateEvent:
    _object(data, "candidate", loc)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ScenarioError("field 'name' should be str", loc)
    c = _parse_complex(_expect(data, "c", None, loc), f"{loc}.c")
    bra_entries = _expect(data, "bra", list, loc)
    if not bra_entries:
        raise ScenarioError("candidate needs at least one bra factor", loc)
    factors = []
    for i, entry in enumerate(bra_entries):
        vec = _parse_vector(entry, f"{loc}.bra[{i}]")
        if len(vec.labels) != 1:
            raise ScenarioError("bra factors carry exactly one label", f"{loc}.bra[{i}]")
        factors.append(vec)
    try:
        bra = ProductBra(factors)
    except EventWeaveError as exc:
        raise ScenarioError(str(exc), f"{loc}.bra") from exc
    ket = _parse_vector(_expect(data, "ket", dict, loc), f"{loc}.ket")
    region = _parse_region(data.get("region"), f"{loc}.region")
    try:
        return CandidateEvent(bra=bra, c=c, ket=ket, region=region, name=name)
    except (ValueError, EventWeaveError) as exc:
        raise ScenarioError(str(exc), loc) from exc


def scenario_from_dict(data: dict) -> Scenario:
    _object(data, "scenario", "$")
    schema = data.get("schema")
    if schema != SCHEMA_NAME:
        raise ScenarioError(f"unknown schema {schema!r}; expected {SCHEMA_NAME!r}")
    initial = []
    for i, entry in enumerate(_expect(data, "initial_events", list, "$")):
        loc = f"$.initial_events[{i}]"
        _object(entry, "initial event", loc)
        eid = _expect(entry, "id", str, loc)
        vec = _parse_vector(_expect(entry, "vector", dict, loc), f"{loc}.vector")
        region = _parse_region(entry.get("region"), f"{loc}.region")
        initial.append((eid, vec, region))
    if not initial:
        raise ScenarioError("need at least one initial event", "$.initial_events")
    stages = []
    stage_entries = _expect(data, "stages", list, "$") if "stages" in data else []
    for i, entry in enumerate(stage_entries):
        loc = f"$.stages[{i}]"
        _object(entry, "stage", loc)
        name = _expect(entry, "name", str, loc) if "name" in entry else f"stage{i}"
        if "exhaustive" in entry and not _expect(entry, "exhaustive", bool, loc):
            raise ScenarioError("a stage's probabilities must sum to one, so "
                                "'exhaustive' can only be true", loc)
        cand_entries = _expect(entry, "candidates", list, loc)
        if not cand_entries:
            raise ScenarioError("stage needs candidates", loc)
        cands = [
            _parse_candidate(c, f"{loc}.candidates[{j}]")
            for j, c in enumerate(cand_entries)
        ]
        stages.append(Stage(name, AlternativeSet(cands)))
    return Scenario(initial_events=initial, stages=stages)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file; JSON syntax errors propagate with position."""
    text = Path(path).read_text()
    data = json.loads(text)
    return scenario_from_dict(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict`, bit-exact on amplitudes."""
    return {
        "schema": SCHEMA_NAME,
        "initial_events": [
            {
                "id": eid,
                "vector": vector_to_dict(vec),
                "region": region_to_dict(region),
            }
            for eid, vec, region in scenario.initial_events
        ],
        "stages": [
            {
                "name": stage.name,
                "candidates": [
                    {
                        "name": cand.name,
                        "c": [cand.c.real, cand.c.imag],
                        "bra": [
                            vector_to_dict(f) for f in cand.bra.factors.values()
                        ],
                        "ket": vector_to_dict(cand.ket),
                        "region": region_to_dict(cand.region),
                    }
                    for cand in stage.alternatives.candidates
                ],
            }
            for stage in scenario.stages
        ],
    }
