"""Spans around the package's public functions, recorded from outside.

Tracing wraps the public functions of each eventweave module (and a few
methods) with a recorder and rebinds the wrapper in every module that
holds a reference to the original, so calls made through
``from .tensors import contract`` are caught as well as calls made through
``dynamics.cut_state``.  Nothing under ``src/`` changes;
:meth:`Installation.uninstall` puts the originals back, so traced and untraced passes can alternate in
one process.

A span is ``(name, parent, start, end)``.  A span's self time is its
duration minus the durations of its direct children, so over a
well-nested tree the self times of all layers add up to the pass time;
:func:`check_self_sum` verifies that against the pass's own timer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

#: bytes per complex128 amplitude, for computed traffic counters
AMP_BYTES = 16

PACKAGE = "eventweave"

#: modules whose public functions are traced, in layer order
LAYERS = ("tensors", "graph", "dynamics", "scenario", "epr", "thermal", "cells")

#: methods traced in addition to module-level functions: span -> (layer,
#: class, method); History methods are named after the graph layer alone
METHODS = {
    **{f"graph.{m}": ("graph", "History", m)
       for m in ("validate_cut", "add_interior_event", "to_json", "from_json",
                 "validate")},
    "cells.CellPartition.validate": ("cells", "CellPartition", "validate"),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = float("nan")
    error: bool = False


@dataclass
class Tracer:
    """In-memory span recorder plus counters measured at the same calls."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)
    _errors: set = field(default_factory=set)

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, self.clock()))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int, error: BaseException | None = None) -> None:
        top = self._open.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        span = self.spans[index]
        span.end = self.clock()
        if error is not None:
            span.error = True
            if span.name.startswith("dynamics."):
                # one exception unwinding through nested calls counts once
                self._errors.add(id(error))
                self.counters["dynamics.errors"] = len(self._errors)

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(index, exc)
            raise
        self.close(index)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the duration of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total self seconds)``."""
    out: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


def check_self_sum(spans: list[Span], wall_s: float,
                   tol_s: float = 1e-3) -> tuple[bool, float]:
    """Self times must add up to the independently timed pass.

    Every span must be closed and lie inside its parent; then the self
    times, summed over all layers, must equal ``wall_s`` within ``tol_s``
    (the root span opens and closes a few clock reads outside the pass
    timer).  Returns ``(ok, sum of self times)``.
    """
    total_self = sum(self_times(spans))
    nested = all(
        s.start <= s.end
        and (s.parent < 0 or spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end)
        for s in spans
    )
    return nested and abs(total_self - wall_s) <= tol_s, total_self


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# -- counters measured at wrapped calls ------------------------------------


def _amps(vec) -> int:
    return int(vec.amps.size)


def _count_contract(tr: Tracer, args, kwargs, result) -> None:
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    tr.add("tensors.contract.bytes", AMP_BYTES * (_amps(psi) + _amps(result)))


def _count_tensor_product(tr: Tracer, args, kwargs, result) -> None:
    u, v = args[0], args[1]
    tr.add("tensors.tensor_product.bytes",
           AMP_BYTES * (_amps(u) + _amps(v) + _amps(result)))


def _count_cut_state(tr: Tracer, args, kwargs, result) -> None:
    tr.peak("dynamics.cut_state.max_amps", _amps(result.composite))


def _count_sample_many(tr: Tracer, args, kwargs, result) -> None:
    tr.add("dynamics.sample_many.draws", int(result.size))


def _count_mixture(tr: Tracer, args, kwargs, result) -> None:
    family = args[1] if len(args) > 1 else kwargs["family"]
    n = result.diagonal.size
    tr.add("thermal.packet_mixture_density.bytes",
           AMP_BYTES * n * n * len(family.centers) * len(family.times))


def _count_history(tr: Tracer, args, kwargs, result) -> None:
    history = result if hasattr(result, "events") else args[0]
    tr.peak("graph.events", len(history.events))


def _count_validate_cut(tr: Tracer, args, kwargs, result) -> None:
    history, cut = args[0], args[1]
    tr.add("graph.validate_cut.events_walked", len(cut.past_event_ids))
    tr.peak("graph.events", len(history.events))


COUNTERS = {
    "tensors.contract": _count_contract,
    "tensors.tensor_product": _count_tensor_product,
    "dynamics.cut_state": _count_cut_state,
    "dynamics.sample_many": _count_sample_many,
    "thermal.packet_mixture_density": _count_mixture,
    "graph.validate_cut": _count_validate_cut,
    "graph.add_interior_event": _count_history,
    "graph.to_json": _count_history,
    "graph.from_json": _count_history,
    "graph.validate": _count_history,
}


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, exc)
            raise
        tracer.close(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    return traced


def public_functions(module) -> dict[str, object]:
    """Module-level public functions defined in ``module`` itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Installation:
    """Wrappers bound into the package; :meth:`uninstall` restores it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "Installation":
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in public_functions(module).items():
                self._bind_everywhere(fn, _wrap(self.tracer, f"{layer}.{fname}", fn))
        for name, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(self.tracer, name, raw.__func__))
            else:
                wrapped = _wrap(self.tracer, name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False
