"""Labeled finite-dimensional complex tensors, their products and contractions.

Every vector lives in a tensor product of small Hilbert-space factors, and
every factor is named by the causal link it travels on, so contraction is
done by name rather than by axis position.  Internally the factor order is
canonical (sorted by link id); vectors built with the same factors in any
order compare equal.  Amplitudes are dense ``complex128`` arrays, flat in
lexicographic index order over the canonical label order.  The rank-1
event operators of :mod:`.dynamics` act through :func:`contract` and
:func:`tensor_product`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DuplicateLabel, MissingLabel, NonUnitVector

#: absolute tolerance for factors that must be exactly normalized
UNIT_TOL = 1e-12

#: largest dense vector :func:`tensor_product` builds: 2**24 complex128
#: amplitudes take 268 MB, and a label re-sort needs a second copy
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
    threads is safe.
    """

    __slots__ = ("labels", "amps")

    def __init__(self, labels: Iterable[FactorLabel], amps, *, _canonical: bool = False):
        labels = tuple(labels)
        ids = [lab.link_id for lab in labels]
        if len(set(ids)) != len(ids):
            raise DuplicateLabel(f"repeated link ids among labels: {sorted(ids)}")
        arr = np.ascontiguousarray(amps, dtype=np.complex128).reshape(-1)
        expected = 1
        for lab in labels:
            expected *= lab.dim
        if arr.size != expected:
            raise ValueError(
                f"{arr.size} amplitudes for labels with total dimension {expected}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("amplitudes must be finite")
        if not _canonical and any(
            labels[i].link_id > labels[i + 1].link_id for i in range(len(labels) - 1)
        ):
            order = sorted(range(len(labels)), key=lambda i: labels[i].link_id)
            dims = tuple(lab.dim for lab in labels)
            arr = np.ascontiguousarray(arr.reshape(dims).transpose(order)).reshape(-1)
            labels = tuple(labels[i] for i in order)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LabeledVector is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def label_ids(self) -> tuple[str, ...]:
        return tuple(lab.link_id for lab in self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(lab.dim for lab in self.labels)

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
        return LabeledVector(self.labels, self.amps * complex(c), _canonical=True)

    @classmethod
    def scalar(cls, value: complex = 1.0) -> "LabeledVector":
        return cls((), [complex(value)], _canonical=True)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledVector)
            and self.labels == other.labels
            and np.array_equal(self.amps, other.amps)
        )

    def __hash__(self):  # pragma: no cover - vectors are not meant as keys
        return hash((self.labels, self.amps.tobytes()))

    def __repr__(self) -> str:
        ids = ",".join(self.label_ids)
        return f"LabeledVector([{ids}], {self.amps.size} amps)"


class ProductBra:
    """A product of single-factor unit bras, keyed by link id.

    Each factor must carry exactly one label and be normalized to
    ``UNIT_TOL``; the conjugation implied by the bra happens inside
    :func:`contract`.
    """

    __slots__ = ("factors",)

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

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ProductBra is immutable")

    @property
    def label_ids(self) -> tuple[str, ...]:
        return tuple(self.factors)

    def factor(self, link_id: str) -> LabeledVector:
        return self.factors[link_id]

    def __len__(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        return f"ProductBra({','.join(self.factors)})"


def tensor_product(u: LabeledVector, v: LabeledVector) -> LabeledVector:
    """Outer product of two vectors with disjoint label sets.

    Raises ``ValueError`` before allocating a product of more than
    :data:`MAX_AMPLITUDES` amplitudes.
    """
    overlap = set(u.label_ids) & set(v.label_ids)
    if overlap:
        raise DuplicateLabel(f"labels present on both factors: {sorted(overlap)}")
    size = u.amps.size * v.amps.size
    if size > MAX_AMPLITUDES:
        raise ValueError(
            f"a tensor product of {size} amplitudes exceeds MAX_AMPLITUDES = "
            f"{MAX_AMPLITUDES}"
        )
    amps = np.multiply.outer(u.amps, v.amps).reshape(-1)
    return LabeledVector(u.labels + v.labels, amps)


def contract(bra: ProductBra, psi: LabeledVector) -> LabeledVector:
    """Partial contraction ``<bra|psi`` over the bra's labels.

    The result keeps psi's remaining labels; contracting every label yields
    an empty-label scalar.  Amplitudes are ``sum conj(bra) * psi`` over the
    contracted indices.  Each factor is one ``np.dot`` of the conjugated
    factor as a ``(1, d)`` row with the tensor's axis moved to the front
    and reshaped to ``(d, rest)``: the product, operands and layout of
    ``np.tensordot(conj(factor), tensor, axes=([0], [axis]))``, without its
    argument handling.
    """
    have = set(psi.label_ids)
    missing = [lid for lid in bra.label_ids if lid not in have]
    if missing:
        raise MissingLabel(f"state carries no factor for links {missing}")
    labels = list(psi.labels)
    tensor = psi.amps.reshape(psi.dims) if labels else psi.amps
    for lid, fac in bra.factors.items():
        axis = next(i for i, lab in enumerate(labels) if lab.link_id == lid)
        if labels[axis].space != fac.labels[0].space:
            raise ValueError(
                f"space mismatch on link {lid!r}: "
                f"{labels[axis].space} vs {fac.labels[0].space}"
            )
        shape, others = tensor.shape, [k for k in range(tensor.ndim) if k != axis]
        front = tensor.transpose([axis, *others]).reshape(shape[axis], -1)
        tensor = np.dot(np.conj(fac.amps).reshape(1, -1), front).reshape(
            [shape[k] for k in others])
        del labels[axis]
    return LabeledVector(labels, np.ascontiguousarray(tensor).reshape(-1), _canonical=True)

