"""Labeled finite-dimensional complex tensors, their products and contractions.

Every vector lives in a tensor product of small Hilbert-space factors, and
every factor is named by the causal link it travels on, so contraction is
done by name rather than by axis position.  Internally the factor order is
canonical (sorted by link id); vectors built with the same factors in any
order compare equal.  Amplitudes are dense ``complex128`` arrays, flat in
lexicographic index order over the canonical label order.  The rank-1
event operators of :mod:`.dynamics` act through the kernels under
:func:`contract` and :func:`tensor_product`: ``_contracted`` and ``_outer``
work on raw parts (labels, link ids, flat amplitudes) and build no vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DuplicateLabel, MissingLabel, NonUnitVector

#: absolute tolerance for factors that must be exactly normalized
UNIT_TOL = 1e-12

#: largest dense vector :func:`tensor_product` builds: 2**24 complex128
#: amplitudes take 268 MB, and a label re-sort needs a second copy; the
#: outcome tree's table of replica counts has the same cap
MAX_AMPLITUDES = 2**24


@dataclass(frozen=True)
class SpaceType:
    """A named finite-dimensional one-particle factor space."""

    name: str
    dim: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"space type needs a non-empty string name, got {self.name!r}")
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(f"space {self.name!r} has dimension {self.dim!r}; need an "
                             f"integer >= 1")


@dataclass(frozen=True)
class FactorLabel:
    """Names one tensor factor: the link it rides on plus its space type."""

    link_id: str
    space: SpaceType

    def __post_init__(self):
        if not isinstance(self.link_id, str) or not self.link_id:
            raise ValueError(f"link id must be a non-empty string, got {self.link_id!r}")

    @property
    def dim(self) -> int:
        return self.space.dim


class LabeledVector:
    """A complex amplitude tensor over named factors.

    The empty-label case is a scalar (a single amplitude).  Instances are
    immutable; the amplitude buffer is marked read-only, so sharing across
    threads is safe.  The constructor checks its input (distinct link ids,
    one amplitude per basis state, finite amplitudes) and puts the labels in
    canonical order.  Two shortcuts build vectors without a step their
    callers already took: the kernels below build their outputs with
    ``_trusted``, which checks finiteness only, and the vector-literal
    parser builds its vectors with ``_checked``, which checks everything
    but finiteness, having checked it for a whole document at once.
    """

    __slots__ = ("labels", "amps", "label_ids")

    def __init__(self, labels: Iterable[FactorLabel], amps):
        labels = tuple(labels)
        ids = _distinct_link_ids(labels)
        arr = np.ascontiguousarray(amps, dtype=np.complex128).reshape(-1)
        parts = _canonical(labels, ids, arr)
        _refuse_non_finite(parts[2])
        self._fill(*parts)

    @classmethod
    def _checked(cls, labels: Iterable[FactorLabel], amps: np.ndarray) -> "LabeledVector":
        """A parsed vector literal: the constructor's checks and canonical
        order, on ``amps`` that are already a flat contiguous ``complex128``
        array, except finiteness, which the caller checks."""
        labels = tuple(labels)
        vec = cls.__new__(cls)
        vec._fill(*_canonical(labels, _distinct_link_ids(labels), amps))
        return vec

    @classmethod
    def _trusted(cls, labels: tuple[FactorLabel, ...], ids: tuple[str, ...],
                 amps: np.ndarray) -> "LabeledVector":
        """A kernel's output: ``labels`` already distinct and in canonical
        order, ``ids`` their link ids, ``amps`` a flat contiguous
        ``complex128`` array of their total size.  Only finiteness is
        checked."""
        _refuse_non_finite(amps)
        vec = cls.__new__(cls)
        vec._fill(labels, ids, amps)
        return vec

    def _fill(self, labels: tuple[FactorLabel, ...], ids: tuple[str, ...],
              arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_ids", ids)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LabeledVector is immutable")

    # -- structure ---------------------------------------------------------

    def __complex__(self) -> complex:
        if self.labels:
            raise ValueError("only an empty-label vector converts to a scalar")
        return complex(self.amps[0])

    # -- algebra -----------------------------------------------------------

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.squared_norm() - 1.0) <= tol

    def scaled(self, c: complex) -> "LabeledVector":
        return LabeledVector._trusted(self.labels, self.label_ids, self.amps * complex(c))

    @classmethod
    def scalar(cls, value: complex = 1.0) -> "LabeledVector":
        return cls((), [complex(value)])

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledVector)
            and self.labels == other.labels
            and np.array_equal(self.amps, other.amps)
        )

    def __repr__(self) -> str:
        ids = ",".join(self.label_ids)
        return f"LabeledVector([{ids}], {self.amps.size} amps)"


#: a vector's raw parts: labels in canonical order, their link ids, and the
#: flat ``complex128`` amplitudes
Parts = tuple[tuple[FactorLabel, ...], tuple[str, ...], np.ndarray]


def _distinct_link_ids(labels: tuple[FactorLabel, ...]) -> tuple[str, ...]:
    """The link ids of ``labels``; raises :class:`DuplicateLabel` on a repeat."""
    ids = tuple(lab.link_id for lab in labels)
    if len(set(ids)) != len(ids):
        raise DuplicateLabel(f"repeated link ids among labels: {sorted(ids)}")
    return ids


def _refuse_non_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("amplitudes must be finite")


def _canonical(labels: tuple[FactorLabel, ...], ids: tuple[str, ...], arr: np.ndarray
               ) -> Parts:
    """The parts of a vector over ``labels`` (link ids ``ids``) with flat
    amplitudes ``arr``, in canonical order; raises ``ValueError`` unless
    there is one amplitude per basis state."""
    expected = 1
    for lab in labels:
        expected *= lab.dim
    if arr.size != expected:
        raise ValueError(f"{arr.size} amplitudes for labels with total dimension {expected}")
    return _by_link_id(labels, ids, arr)


def _by_link_id(labels: tuple[FactorLabel, ...], ids: tuple[str, ...], arr: np.ndarray
                ) -> Parts:
    """``labels`` and their link ``ids`` in canonical order (sorted by link
    id), and the flat amplitudes ``arr`` with their axes permuted to match."""
    if list(ids) == sorted(ids):
        return labels, ids, arr
    order = sorted(range(len(ids)), key=ids.__getitem__)
    dims = tuple(lab.dim for lab in labels)
    arr = np.ascontiguousarray(arr.reshape(dims).transpose(order)).reshape(-1)
    return tuple(labels[i] for i in order), tuple(ids[i] for i in order), arr


class ProductBra:
    """A product of single-factor unit bras, keyed by link id.

    Each factor must carry exactly one label and be normalized to
    ``UNIT_TOL``; the conjugation implied by the bra happens inside
    :func:`contract`, on rows conjugated once, on first use, and kept.
    """

    __slots__ = ("factors", "_rows")

    def __init__(self, factors: Iterable[LabeledVector]):
        table: dict[str, LabeledVector] = {}
        for fac in factors:
            if len(fac.labels) != 1:
                raise ValueError(
                    f"bra factor must carry exactly one label, got {fac.label_ids}"
                )
            if not fac.is_unit(UNIT_TOL):
                raise NonUnitVector(
                    f"bra factor on {fac.label_ids[0]!r} has squared norm "
                    f"{fac.squared_norm()!r}"
                )
            lid = fac.labels[0].link_id
            if lid in table:
                raise DuplicateLabel(f"two bra factors on link {lid!r}")
            table[lid] = fac
        object.__setattr__(self, "factors", dict(sorted(table.items())))
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ProductBra is immutable")

    def _conj_rows(self) -> tuple[tuple[str, SpaceType, np.ndarray], ...]:
        """Each factor's link id, space and conjugated amplitudes as a
        ``(1, d)`` row, in link-id order; built on first use (``np.conj`` is
        exact, so a kept row has the bits of a fresh one)."""
        if self._rows is None:
            object.__setattr__(self, "_rows", tuple(
                (lid, fac.labels[0].space, np.conj(fac.amps).reshape(1, -1))
                for lid, fac in self.factors.items()))
        return self._rows

    @property
    def label_ids(self) -> tuple[str, ...]:
        return tuple(self.factors)

    def factor(self, link_id: str) -> LabeledVector:
        return self.factors[link_id]

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        return f"ProductBra({','.join(self.factors)})"


def _outer(u: Parts, v: Parts) -> Parts:
    """The outer product of two raw parts with disjoint link ids, labels in
    canonical order: the kernel of :func:`tensor_product`.

    Raises :class:`DuplicateLabel` on a shared link id, and ``ValueError``
    before allocating more than :data:`MAX_AMPLITUDES` amplitudes.
    """
    (u_labels, u_ids, u_amps), (v_labels, v_ids, v_amps) = u, v
    overlap = set(u_ids) & set(v_ids)
    if overlap:
        raise DuplicateLabel(f"labels present on both factors: {sorted(overlap)}")
    size = u_amps.size * v_amps.size
    if size > MAX_AMPLITUDES:
        raise ValueError(
            f"a tensor product of {size} amplitudes exceeds MAX_AMPLITUDES = "
            f"{MAX_AMPLITUDES}"
        )
    amps = np.multiply.outer(u_amps, v_amps).reshape(-1)
    return _by_link_id(u_labels + v_labels, u_ids + v_ids, amps)


def _contracted(bra: ProductBra, psi: Parts) -> Parts:
    """``<bra|psi`` on raw parts whose link ids include every bra link: the
    kernel of :func:`contract`.

    Each factor is one ``np.dot`` of its conjugated ``(1, d)`` row with the
    tensor's axis moved to the front and reshaped to ``(d, rest)``: the
    product, operands and layout of ``np.tensordot(conj(factor), tensor,
    axes=([0], [axis]))``, without its argument handling.  Raises
    ``ValueError`` when a factor's space differs from the label's.
    """
    labels, ids, amps = list(psi[0]), list(psi[1]), psi[2]
    tensor = amps.reshape([lab.dim for lab in labels]) if labels else amps
    for lid, space, row in bra._conj_rows():
        axis = ids.index(lid)
        if labels[axis].space != space:
            raise ValueError(
                f"space mismatch on link {lid!r}: {labels[axis].space} vs {space}"
            )
        shape, others = tensor.shape, [k for k in range(tensor.ndim) if k != axis]
        front = tensor.transpose([axis, *others]).reshape(shape[axis], -1)
        tensor = np.dot(row, front).reshape([shape[k] for k in others])
        del labels[axis], ids[axis]
    return tuple(labels), tuple(ids), np.ascontiguousarray(tensor).reshape(-1)


def tensor_product(u: LabeledVector, v: LabeledVector) -> LabeledVector:
    """Outer product of two vectors with disjoint label sets.

    Raises ``ValueError`` before allocating a product of more than
    :data:`MAX_AMPLITUDES` amplitudes.  The arithmetic is ``_outer``'s, on
    the vectors' parts.
    """
    return LabeledVector._trusted(*_outer((u.labels, u.label_ids, u.amps),
                                          (v.labels, v.label_ids, v.amps)))


def contract(bra: ProductBra, psi: LabeledVector) -> LabeledVector:
    """Partial contraction ``<bra|psi`` over the bra's labels.

    The result keeps psi's remaining labels; contracting every label yields
    an empty-label scalar.  Amplitudes are ``sum conj(bra) * psi`` over the
    contracted indices, computed by ``_contracted`` (one ``np.dot`` per bra
    factor) on the vector's parts.  Raises :class:`MissingLabel` when psi
    carries no factor for some bra link.
    """
    have = set(psi.label_ids)
    missing = [lid for lid in bra.label_ids if lid not in have]
    if missing:
        raise MissingLabel(f"state carries no factor for links {missing}")
    return LabeledVector._trusted(*_contracted(bra, (psi.labels, psi.label_ids, psi.amps)))
