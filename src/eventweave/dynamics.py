"""Probability law for extending a history by new events.

The state attached to a past-closed cut is the tensor product of the
residual vectors of its unsaturated events.  It is kept as that product:
one unit component per independent source, never tensored out unless a
bra spans several components.  A candidate extension is a rank-1 operator;
its probability is the squared norm of the operator applied to the
components its bra names, since every other component has norm one.
Joint probabilities apply several operators with pairwise disjoint
backward links in sequence, which makes them independent of the ordering.

Convention: after a candidate is realized the surviving branch vector is
renormalized to unit norm.  That makes the chain rule hold exactly,
``P(e, f) = P(e) * P(f | state after e)``, and it is also what makes the
probabilities of an alternative set sum to one at every step.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    EventWeaveError,
    InvalidCut,
    LabelCollision,
    MissingLabel,
    NotExhaustive,
    OverlappingBackwardLinks,
    TooManyOutcomePaths,
    ZeroProbabilityEvent,
)
from .graph import EVENT_VECTOR_TOL, Cut, History, LinkRecord, Region, _refuse_used
from .tensors import (
    MAX_AMPLITUDES,
    LabeledVector,
    Parts,
    ProductBra,
    _contracted,
    _outer,
    contract,
    tensor_product,
)

#: alternative sets must cover probability one within this tolerance
EXHAUSTIVE_TOL = 1e-9

#: below this squared norm a cut state or a realized branch is impossible
ZERO_PROBABILITY_EPS = 1e-24

#: a candidate whose probability is at or below this is never drawn, and its
#: outcome-tree subtree is pruned: never expanded, its paths kept at 0
PRUNED_BRANCH_PROBABILITY = 1e-15

#: the outcome tree enumerates (and a report lists) every path, so scenarios
#: whose product of per-stage candidate counts exceeds this are refused
MAX_OUTCOME_PATHS = 65536

#: runs whose uniforms are drawn at once; larger samples are drawn in blocks
#: of this many rows from the same generator, which keeps the stream
DRAW_CHUNK = 2**20


@dataclass(frozen=True)
class CutState:
    """Unit probability source for extensions of a cut, kept as a product.

    ``components`` are unit vectors over disjoint sets of the cut's free
    links, and ``index`` maps each free link id to the position of its
    component.  The state is their tensor product; ``composite`` builds it
    on first use (within :data:`~eventweave.tensors.MAX_AMPLITUDES`), up to
    the global phase of the numbers an event left without labels.
    ``merged`` keeps each product of several components a bra has spanned,
    keyed by their positions, since an alternative set's candidates
    usually all span the same ones, and ``probabilities`` each candidate's
    probability on this state, keyed by ``id`` beside the candidate itself.
    ``links`` is the live link map of the history the state was cut from
    (admission only adds to it in place) and ``emitted`` the link ids that
    events applied since the cut emitted: together they hold every link id
    a candidate's ket may not reuse.  Holding the map and not the history
    lets a history that keeps its frontier state be freed by reference
    counting.
    """

    components: tuple[LabeledVector, ...]
    links: dict[str, LinkRecord] = field(repr=False, compare=False)
    emitted: frozenset[str] = field(default=frozenset(), repr=False, compare=False)
    merged: dict[tuple[int, ...], LabeledVector] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    probabilities: dict[int, tuple[CandidateEvent, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of the component that carries each free link id, built
        on first use: states that no candidate is applied to never need it."""
        return {lid: k for k, vec in enumerate(self.components) for lid in vec.label_ids}

    @cached_property
    def composite(self) -> LabeledVector:
        """The unit state over every free link, as one dense vector.

        The fold starts from the scalar 1, so even a one-component state
        goes through ``tensor_product``, where the benchmark's frontier
        probe looks for it."""
        return reduce(tensor_product, self.components, LabeledVector.scalar(1.0))


@dataclass(frozen=True)
class CandidateEvent:
    """A possible next event: backward ties, scalar weight, emitted ket."""

    bra: ProductBra
    c: complex
    ket: LabeledVector
    region: Region | None = None
    name: str | None = None

    def __post_init__(self):
        if not self.ket.is_unit(EVENT_VECTOR_TOL):
            raise ValueError(
                f"candidate ket has squared norm {self.ket.squared_norm()!r}"
            )
        object.__setattr__(self, "c", complex(self.c))
        if not cmath.isfinite(self.c):
            raise ValueError(f"candidate weight c must be finite, got {self.c!r}")


@dataclass
class AlternativeSet:
    """Mutually exclusive candidates whose probabilities sum to one."""

    candidates: list[CandidateEvent]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("an alternative set needs at least one candidate")


def cut_state(history: History, cut: Cut | Iterable[str] | None = None) -> CutState:
    """State of a past-closed cut (``None`` means the full frontier).

    The state is built from the cut's free links (``History.free_links``):
    each source of a free link gives one component, its emitted vector
    contracted with the bra factors that events inside the cut apply to its
    other forward links.  Each component is renormalized on its own.  The
    state keeps a reference to ``history.links``, so its candidates are
    refused with :class:`LabelCollision` for every link id the history
    uses, also ids that events realized after this call add.  The frontier
    state (``cut=None``) is built once per admission: the history keeps it,
    and every call until its next admission returns that one object.  It
    is cut on ``history.frontier_cut()``, whose free links are the kept open
    ones, so no event id is read.
    """
    frontier = cut is None
    if frontier:
        if history._frontier_state is not None:
            return history._frontier_state
        cut = history.frontier_cut()
    elif not isinstance(cut, Cut):
        cut = Cut.of(cut)
    free = history.free_links(cut)
    components = []
    for eid in sorted({history.links[lid].source for lid in free}):
        ev = history.events[eid]
        bras = [history.events[history.links[lid].target].bra.factor(lid)
                for lid in ev.forward_links if lid not in free]
        components.append(
            contract(ProductBra(bras), ev.emitted_vector) if bras else ev.emitted_vector
        )
    totals = [vec.squared_norm() for vec in components]
    total = math.prod(totals)
    if total <= ZERO_PROBABILITY_EPS:
        raise ZeroProbabilityEvent(
            f"cut state has squared norm {total!r}; this past never happens"
        )
    state = CutState(tuple(_unit(vec, t) for vec, t in zip(components, totals)),
                     history.links)
    if frontier:
        history._frontier_state = state
    return state


def _unit(vec: LabeledVector, total: float | None = None) -> LabeledVector:
    """``vec`` scaled to unit norm, unless its squared norm is within 1e-15."""
    if total is None:
        total = vec.squared_norm()
    if abs(total - 1.0) > 1e-15:
        return vec.scaled(1.0 / np.sqrt(total))
    return vec


def _apply(state: CutState, cand: CandidateEvent) -> tuple[list[int], Parts, Parts]:
    """The candidate's operator on the components its bra names.

    ``psi`` is the tensor product of those components (one of them as is,
    several merged in order).  Returns their positions, the residual
    ``c <bra|psi>`` and the rank-1 operator ``c |ket><bra|`` applied,
    ``|ket> (x)`` that residual, whose squared norm is the candidate's
    probability.  Both come as raw parts from the kernels under
    ``contract`` and ``tensor_product``, and their amplitudes are not yet
    checked to be finite: :func:`_squared_norm` and ``LabeledVector._trusted``
    check them.  A ket that re-emits a used link id raises
    :class:`LabelCollision`, as ``History`` would.
    """
    index = state.index
    missing = [lid for lid in cand.bra.label_ids if lid not in index]
    if missing:
        raise MissingLabel(f"state carries no factor for links {missing}")
    _refuse_used(cand.ket.label_ids, state.links, state.emitted)
    touched = sorted({index[lid] for lid in cand.bra.label_ids})
    if len(touched) == 1:
        psi = state.components[touched[0]]
    else:
        psi = state.merged.get(tuple(touched))
        if psi is None:
            psi = reduce(tensor_product, (state.components[k] for k in touched))
            state.merged[tuple(touched)] = psi
    labels, ids, amps = _contracted(cand.bra, (psi.labels, psi.label_ids, psi.amps))
    residual = labels, ids, amps * cand.c
    ket = cand.ket
    try:
        return touched, residual, _outer((ket.labels, ket.label_ids, ket.amps), residual)
    except (DuplicateLabel, ValueError):
        # as when the residual was a checked vector, one that is not finite
        # is refused before the product's own checks
        LabeledVector._trusted(*residual)
        raise


def _squared_norm(parts: Parts) -> float:
    """Squared norm of an applied operator's parts.  A finite value means
    every amplitude is finite (and so was every residual it came from);
    otherwise the vector check runs, and raises ``ValueError`` unless the
    amplitudes are finite and only their squares overflowed."""
    amps = parts[2]
    p = float(np.vdot(amps, amps).real)
    if not math.isfinite(p):
        LabeledVector._trusted(*parts)
    return p


def _replaced(state: CutState, touched: list[int], new: Iterable[LabeledVector],
              cand: CandidateEvent) -> CutState:
    """``state`` after ``cand``: the touched components swapped for ``new``
    (the rest are shared by reference), and the ket's link ids used."""
    kept = (vec for k, vec in enumerate(state.components) if k not in touched)
    return CutState((*kept, *new), state.links,
                    state.emitted.union(cand.ket.label_ids))


def event_probability(state: CutState, cand: CandidateEvent) -> float:
    """Squared norm of the candidate's operator applied to the state.

    It is ``np.vdot(v, v).real`` of the raw amplitudes ``v`` that
    :func:`_apply` returns, with no vector built; as with vectors,
    ``ValueError`` is raised unless they are all finite.  It is computed
    once per state and candidate and kept on the state; the used-link check
    runs on every call, since the state's history may have used the ket's
    links since."""
    kept = state.probabilities.get(id(cand))
    if kept is not None and kept[0] is cand:
        _refuse_used(cand.ket.label_ids, state.links, state.emitted)
        return kept[1]
    p = _squared_norm(_apply(state, cand)[2])
    state.probabilities[id(cand)] = (cand, p)
    return p


def joint_probability(state: CutState, cands: Sequence[CandidateEvent]) -> float:
    """Probability of a joint pattern of spacelike candidates.

    The candidates must consume pairwise disjoint links; the value is then
    invariant under reordering.
    """
    seen: dict[str, int] = {}
    for i, cand in enumerate(cands):
        for lid in cand.bra.label_ids:
            if lid in seen:
                raise OverlappingBackwardLinks(
                    f"candidates {seen[lid]} and {i} both consume link {lid!r}"
                )
            seen[lid] = i
    applied = state
    for cand in cands:
        applied = _applied(applied, cand)
    return _squared_norm_since(applied, state)


def _applied(state: CutState, cand: CandidateEvent) -> CutState:
    """Unnormalized state after the candidate: the components it touches
    become one, ``c |ket> (x) <bra|psi>``."""
    touched, _, applied = _apply(state, cand)
    return _replaced(state, touched, [LabeledVector._trusted(*applied)], cand)


def _squared_norm_since(applied: CutState, root: CutState) -> float:
    """Squared norm of ``applied``, a unit ``root`` with operators applied:
    the components still shared with ``root`` contribute exactly 1."""
    unit = {id(vec) for vec in root.components}
    return math.prod(vec.squared_norm() for vec in applied.components
                     if id(vec) not in unit)


def realized_state(state: CutState, cand: CandidateEvent) -> tuple[float, CutState]:
    """Probability of the candidate plus the renormalized post-event state.

    The touched components give way to the unit residual ``c <bra|psi>``
    and the unit ket, each kept only if it has labels: one without labels
    is a number, a global phase once normalized.
    """
    touched, residual, applied = _apply(state, cand)
    residual = LabeledVector._trusted(*residual)
    p = _squared_norm(applied)
    if p <= ZERO_PROBABILITY_EPS:
        raise ZeroProbabilityEvent(f"candidate has probability {p!r}")
    new = [_unit(v) for v in (residual, cand.ket) if v.labels]
    return p, _replaced(state, touched, new, cand)


def alternative_probabilities(
    state: CutState, alts: AlternativeSet
) -> np.ndarray:
    """Per-candidate probabilities; raises :class:`NotExhaustive` unless
    they sum to one within :data:`EXHAUSTIVE_TOL`."""
    probs = np.array(
        [event_probability(state, cand) for cand in alts.candidates], dtype=float
    )
    total = float(probs.sum())
    if abs(total - 1.0) > EXHAUSTIVE_TOL:
        raise NotExhaustive(total, EXHAUSTIVE_TOL)
    return probs


def _thresholds(probs: np.ndarray) -> list[float]:
    """The draw rule: cumulative sums of the live probabilities before the
    last live one, as Python floats.

    Probabilities at or below :data:`PRUNED_BRANCH_PROBABILITY` count as 0.
    ``probs`` sum to 1 within :data:`EXHAUSTIVE_TOL`, so some candidate is
    live.  A uniform picks as many candidates past the first as it reaches
    thresholds: the first candidate whose cumulative probability exceeds
    it, or the last live one for a uniform past the sum.  The sums never
    decrease, so the thresholds a uniform reaches are a prefix.  The sums
    run left to right, one addition per candidate: the bits of
    ``np.cumsum``.  Every draw reads them: :func:`sample_extension` for
    one uniform, and the outcome tree, whose tables :func:`_expand` fills
    with them, for arrays of uniforms.
    """
    live = [p if p > PRUNED_BRANCH_PROBABILITY else 0.0 for p in probs.tolist()]
    last = max(k for k, p in enumerate(live) if p)
    return list(itertools.accumulate(live[:last]))


def _draw_counts(row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Number of the uniforms ``u`` that a stored threshold row sends to
    each candidate, counted without a per-uniform pick.

    The thresholds a uniform reaches are a prefix, so candidate ``k`` gets
    the uniforms that reach its threshold ``k - 1`` (all of them for
    ``k = 0``) less those that reach threshold ``k`` (none past the last).
    """
    return -np.diff([u.size, *(np.count_nonzero(u >= c) for c in row), 0])


def sample_extension(
    state: CutState, alts: AlternativeSet, rng: np.random.Generator
) -> int:
    """Draw one candidate index, weighted by event probabilities.

    Exactly one uniform variate of ``rng`` is consumed per draw, so
    successive draws on a shared generator read one reproducible stream.
    The pick is the number of :func:`_thresholds` the uniform reaches.
    """
    probs = alternative_probabilities(state, alts)
    u = rng.random()
    return sum(1 for c in _thresholds(probs) if u >= c)


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Documented per-replica stream: ``default_rng([seed, replica])``."""
    return np.random.default_rng([int(seed), int(replica)])


def realize(
    history: History,
    cut: Cut | Iterable[str] | None,
    cand: CandidateEvent,
    event_id: str | None = None,
) -> str:
    """Turn a possible event into a fact.

    Events are added at the frontier, so ``cut`` is ``None`` or the cut
    holding every event; any other past-closed cut raises
    :class:`InvalidCut` naming the events it leaves out.  Raises
    :class:`LabelCollision` when the candidate's ket re-emits a link id the
    history already uses, and :class:`ZeroProbabilityEvent` when its
    probability on the frontier state vanishes; otherwise the consumed links
    become established and the candidate's ket labels become fresh free
    links.  Returns the new event id.  The frontier state and the
    candidate's probability on it are the ones a draw on ``cut_state(history)``
    already computed, if one did.
    """
    if cut is not None:
        cut = cut if isinstance(cut, Cut) else Cut.of(cut)
        history.validate_cut(cut)
        if left_out := sorted(history.events.keys() - cut.past_event_ids):
            raise InvalidCut(f"realize adds events at the frontier; the cut "
                             f"leaves out {left_out}")
    state = cut_state(history)
    p = event_probability(state, cand)
    if p <= ZERO_PROBABILITY_EPS:
        raise ZeroProbabilityEvent(
            f"candidate {cand.name or ''!r} has probability {p!r} on this cut"
        )
    return history.add_interior_event(
        cand.bra, cand.c, cand.ket, region=cand.region, event_id=event_id
    )


# -- outcome tree ------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeTree:
    """Staged outcome paths: analytic joints, sampled counts, chain-rule check.

    ``paths`` lists every tuple of candidate indices, one per stage, in
    lexicographic order; ``analytic`` is aligned with it, and so is each
    row of ``replica_counts`` (replicas x paths), the counts of one
    replica's runs.  ``counts`` pools them over the replicas.
    ``first_path`` is the path of run 0 of replica 0.  The chain-rule check
    compares each path whose analytic value is above
    :data:`PRUNED_BRANCH_PROBABILITY` with its :func:`joint_probability` on
    the root state; ``chain_rule_checked`` counts those paths.  A one-stage
    path's joint is its analytic value by construction (both are the
    candidate's probability on the root), so it is counted with deviation 0
    and not applied again.
    """

    paths: list[tuple[int, ...]]
    analytic: list[float]
    replica_counts: np.ndarray
    first_path: tuple[int, ...]
    chain_rule_checked: int
    chain_rule_max_dev: float

    @property
    def counts(self) -> list[int]:
        return [int(c) for c in self.replica_counts.sum(axis=0)]


def outcome_names(stages: Sequence[AlternativeSet], path: Sequence[int]) -> list[str]:
    """Names of the candidates along ``path``; ``c<i>`` names an unnamed one."""
    return [stages[d].candidates[i].name or f"c{i}" for d, i in enumerate(path)]


def _expand(
    root: CutState, stages: Sequence[AlternativeSet], tables: list, analytic: np.ndarray
) -> tuple[int, float]:
    """Expand the live outcome tree depth first; fill the tables in place.

    Row ``prefix`` of ``tables[d]`` starts with the :func:`_thresholds` of
    the conditional probabilities at the node reached by the length-``d``
    path prefix of lexicographic index ``prefix``; the rest of the row
    keeps the ``inf`` it was allocated with.  A child whose conditional
    probability is at or below :data:`PRUNED_BRANCH_PROBABILITY` is not
    expanded, so its rows stay ``inf`` and every path through it keeps
    ``analytic`` 0; a last-stage child gets the product of the conditionals
    along its path.  Only the states of nodes still waiting to be expanded
    are held, never the whole tree's.
    A node also carries the root with its path's operators applied, not
    renormalized; a last-stage child above the threshold compares that
    squared norm (its :func:`joint_probability`) with its analytic value,
    except below the root, where both are its probability and the
    deviation is 0.
    Returns the number of such chain-rule checks and the largest deviation.
    """
    if not stages:
        analytic[0] = 1.0
        return 1, 0.0
    devs = []
    # (parent state, parent applied root, path, path probability, path prefix)
    stack: list[tuple] = [(root, root, (), 1.0, 0)]
    while stack:
        state, applied, path, prob, prefix = stack.pop()
        depth = len(path)
        if path:
            cand = stages[depth - 1].candidates[path[-1]]
            _, state = realized_state(state, cand)
            applied = _applied(applied, cand)
        try:
            probs = alternative_probabilities(state, stages[depth])
        except (EventWeaveError, ValueError) as exc:  # name the stage and the path
            names = "/".join(outcome_names(stages, path))
            where = f"$.stages[{depth}]" + (f" after {names}" if path else "")
            exc.args = (f"{where}: {exc}",)
            raise
        row = _thresholds(probs)
        tables[depth][prefix, :len(row)] = row
        prefix *= len(probs)
        if depth == len(stages) - 1:
            joints = analytic[prefix:prefix + len(probs)] = prob * probs
            devs += [abs(_squared_norm_since(_applied(applied, cand), root) - float(p))
                     if path else 0.0
                     for cand, p in zip(stages[depth].candidates, joints)
                     if p > PRUNED_BRANCH_PROBABILITY]
            continue
        for i in reversed(range(len(probs))):
            if probs[i] > PRUNED_BRANCH_PROBABILITY:
                stack.append((state, applied, (*path, i), prob * probs[i], prefix + i))
    return len(devs), max(devs, default=0.0)


def _sample_paths(tables: list[np.ndarray], u: np.ndarray) -> np.ndarray:
    """Path index (lexicographic) of each row of uniforms ``u``.

    Row ``r`` walks the tree from the root, consuming ``u[r, d]`` at depth
    ``d``: its pick is the number of thresholds it reaches in the row of
    ``tables[d]`` that its path prefix reached.  Each depth draws every row
    in one pass, one comparison per column.  A pruned candidate's threshold
    equals the one before it, so no uniform stops on it, and no uniform
    reaches the ``inf`` past a row's last live candidate, so every run ends
    on a live path.
    """
    path = np.zeros(u.shape[0], dtype=np.intp)
    for depth, table in enumerate(tables):
        ud = u[:, depth]
        pick = np.zeros_like(path)
        for column in table.T:
            pick += ud >= column.take(path)
        path = path * (table.shape[1] + 1) + pick
    return path


def _path_counts(tables: list[np.ndarray], u: np.ndarray, total: int) -> np.ndarray:
    """Runs per path (lexicographic) of the rows of uniforms ``u``.

    When the last stage's table has one row, every earlier stage has one
    candidate and a run's path is its last draw, so the runs are counted by
    :func:`_draw_counts` on that row with no per-run array; otherwise each
    run walks the tree by :func:`_sample_paths`.
    """
    if tables and len(tables[-1]) == 1:
        return _draw_counts(tables[-1][0], u[:, -1])
    return np.bincount(_sample_paths(tables, u), minlength=total)


def sample_outcome_tree(
    history: History,
    stages: Sequence[AlternativeSet],
    runs: int,
    seed: int,
    replicas: int = 1,
) -> OutcomeTree:
    """Analytic and sampled outcome paths for staged extensions of a history.

    Each stage is an alternative set over the state left by the stages
    before it.  Replica ``r`` draws ``replica_rng(seed, r).random((runs,
    len(stages)))`` in blocks of :data:`DRAW_CHUNK` rows: the same stream as
    one uniform per draw, run by run, and row ``r`` of ``replica_counts``
    counts its runs.  Each stage keeps a table of :func:`_thresholds`, one
    row per path prefix, and runs draw by them, so no run enters a pruned
    subtree and every count off a live path is 0.
    Raises :class:`TooManyOutcomePaths` before any state is built when the
    path count exceeds :data:`MAX_OUTCOME_PATHS`, ``ValueError`` when the
    table of replica counts, replicas x paths, would exceed
    :data:`~eventweave.tensors.MAX_AMPLITUDES` cells, and
    :class:`LabelCollision` when a stage emits a link id already used by the
    history or an earlier one.  ``runs`` is not bounded: it is drawn in
    blocks, at a cost linear in it.
    """
    for name, value in (("runs", runs), ("replicas", replicas)):
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    radix = [len(alts.candidates) for alts in stages]
    total = math.prod(radix)
    if total > MAX_OUTCOME_PATHS:
        raise TooManyOutcomePaths(
            f"scenario has {total} outcome paths (product of candidate counts "
            f"per stage); at most {MAX_OUTCOME_PATHS} can be enumerated"
        )
    if replicas * total > MAX_AMPLITUDES:
        raise ValueError(
            f"{replicas} replicas x {total} outcome paths make {replicas * total} "
            f"replica counts; at most MAX_AMPLITUDES = {MAX_AMPLITUDES} are kept"
        )
    used: set[str] = set()  # emitted by earlier stages
    for d, alts in enumerate(stages):
        emitted = {lid for cand in alts.candidates for lid in cand.ket.label_ids}
        try:
            _refuse_used(emitted, history.links, used)
        except LabelCollision as exc:
            exc.args = (f"$.stages[{d}]: {exc}",)
            raise
        used |= emitted
    root = cut_state(history)
    analytic = np.zeros(total)
    tables = [np.full((math.prod(radix[:d]), n - 1), np.inf) for d, n in enumerate(radix)]
    checked, max_dev = _expand(root, stages, tables, analytic)
    paths = list(itertools.product(*(range(n) for n in radix)))

    counts = np.zeros((replicas, total), dtype=np.int64)
    for replica in range(replicas):
        rng = replica_rng(seed, replica)
        for start in range(0, runs, DRAW_CHUNK):
            u = rng.random((min(DRAW_CHUNK, runs - start), len(stages)))
            if replica == 0 and start == 0:
                first = int(_sample_paths(tables, u[:1])[0])
            counts[replica] += _path_counts(tables, u, total)
    return OutcomeTree(
        paths=paths,
        analytic=[float(p) for p in analytic],
        replica_counts=counts,
        first_path=paths[first],
        chain_rule_checked=checked,
        chain_rule_max_dev=max_dev,
    )
