"""Singlet decay with two-sided spin analyzers, CHSH, and classical bounds.

The construction mirrors the five-event pattern: two apparatus events fix
the analyzer directions on dimension-1 links (the settings contribute no
Hilbert-space degrees of freedom), a decay event emits the two-spin
singlet, and the outcome events consume one spin plus one apparatus link
each.  All outcome weights are 1, so the four outcome pairs form an
exhaustive alternative set.

Sign convention: ``spin_eigenvectors(e)`` returns the +1 and -1
eigenvectors of ``e . sigma`` as ``(cos(t/2), sin(t/2) e^{i p})`` and
``(-sin(t/2) e^{-i p}, cos(t/2))`` with polar angle ``t`` and azimuth
``p``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .graph import History
from .tensors import FactorLabel, LabeledVector, ProductBra, SpaceType, tensor_product

SPIN = SpaceType("spin", 2)
POINTER = SpaceType("pointer", 1)

OUTCOME_PAIRS = ("++", "+-", "-+", "--")

#: coplanar analyzer angles (degrees) maximizing |S| for the combination
#: S = E(a,b) - E(a,b') + E(a',b) + E(a',b')
CHSH_OPTIMAL_ANGLES_DEG = (0.0, 90.0, 45.0, 135.0)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector; analyzer orientation."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if not abs(n - 1.0) <= 1e-12:
            raise ValueError(f"direction has norm {n!r}; must be 1 within 1e-12")

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "Direction":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(x / n, y / n, z / n)

    @classmethod
    def in_plane_deg(cls, angle_deg: float) -> "Direction":
        """Direction in the x-z plane, measured from +z toward +x."""
        a = math.radians(angle_deg)
        return cls.from_cartesian(math.sin(a), 0.0, math.cos(a))


def spin_eigenvectors(e: Direction) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of ``e . sigma`` in the documented convention."""
    theta = math.atan2(math.hypot(e.x, e.y), e.z)
    phi = math.atan2(e.y, e.x)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    plus = np.array([c, s * np.exp(1j * phi)], dtype=np.complex128)
    minus = np.array([-s * np.exp(-1j * phi), c], dtype=np.complex128)
    return plus, minus


def singlet_vector(alpha_link: str = "alpha", beta_link: str = "beta") -> LabeledVector:
    """Two-spin total-spin-zero state ``(|ud> - |du>)/sqrt(2)``."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)
    return LabeledVector(
        [FactorLabel(alpha_link, SPIN), FactorLabel(beta_link, SPIN)], amps
    )


def _unit_pointer(link_id: str) -> LabeledVector:
    return LabeledVector([FactorLabel(link_id, POINTER)], [1.0 + 0.0j])


@dataclass(frozen=True)
class EprSetup:
    """History plus outcome candidates for a fixed pair of settings.

    ``alternatives`` holds the four outcome pairs as merged candidates, each
    with one outcome's bra factors from each side and emitting ``out1`` and
    ``out2``: the exhaustive set whose probabilities are the joints and from
    which sampling draws.  ``state`` is the frontier cut state of ``history``
    as built; realizing events on ``history`` does not update its
    components, but the state refuses the link ids those realizations add.
    """

    history: History
    alternatives: dynamics.AlternativeSet
    state: dynamics.CutState


def _side_bras(e: Direction, spin_link: str, setting_link: str
               ) -> dict[str, list[LabeledVector]]:
    """Bra factors of one analyzer's outcomes: the ``e . sigma`` eigenvector
    on the spin link and one shared unit pointer on the setting link."""
    pointer = _unit_pointer(setting_link)
    return {s: [LabeledVector([FactorLabel(spin_link, SPIN)], v), pointer]
            for s, v in zip("+-", spin_eigenvectors(e))}


def build_epr(e1: Direction, e2: Direction) -> EprSetup:
    """Assemble the five-event spin experiment for the given settings."""
    history = History()
    history.add_initial_event(_unit_pointer("gamma"), event_id="setting1")
    history.add_initial_event(_unit_pointer("delta"), event_id="setting2")
    history.add_initial_event(singlet_vector("alpha", "beta"), event_id="decay")

    side1 = _side_bras(e1, "alpha", "gamma")
    side2 = _side_bras(e2, "beta", "delta")
    both_out = tensor_product(_unit_pointer("out1"), _unit_pointer("out2"))
    merged = [
        dynamics.CandidateEvent(
            bra=ProductBra(side1[s1] + side2[s2]), c=1.0, ket=both_out, name=s1 + s2
        )
        for s1, s2 in OUTCOME_PAIRS
    ]
    return EprSetup(
        history=history,
        alternatives=dynamics.AlternativeSet(merged),
        state=dynamics.cut_state(history),
    )


def joint_distribution(setup: EprSetup) -> np.ndarray:
    """Probabilities of (++, +-, -+, --): those of the merged candidates."""
    return dynamics.alternative_probabilities(setup.state, setup.alternatives)


def correlation(p: np.ndarray) -> float:
    """E = P(++) + P(--) - P(+-) - P(-+) from the four joints in
    :data:`OUTCOME_PAIRS` order; equals minus e1.e2."""
    return float(p[0] + p[3] - p[1] - p[2])


def chsh(a: Direction, ap: Direction, b: Direction, bp: Direction) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    e = lambda x, y: correlation(joint_distribution(build_epr(x, y)))
    return e(a, b) - e(a, bp) + e(ap, b) + e(ap, bp)


def chsh_optimal_directions() -> tuple[Direction, Direction, Direction, Direction]:
    return tuple(Direction.in_plane_deg(d) for d in CHSH_OPTIMAL_ANGLES_DEG)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed outcomes per setting: one +/-1 per side and setting index."""

    a_outputs: tuple[int, int]
    b_outputs: tuple[int, int]

    def __post_init__(self):
        for v in self.a_outputs + self.b_outputs:
            if v not in (-1, 1):
                raise ValueError("outputs must be +1 or -1")

    def chsh_value(self) -> float:
        (a0, a1), (b0, b1) = self.a_outputs, self.b_outputs
        return float(a0 * b0 - a0 * b1 + a1 * b0 + a1 * b1)


def enumerate_deterministic_strategies() -> list[DeterministicStrategy]:
    return [
        DeterministicStrategy((a0, a1), (b0, b1))
        for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
    ]


def best_classical() -> float:
    """Max |S| over all 16 deterministic strategies: 2 for any settings, since
    the directions only fix which abstract setting each strategy answers."""
    return max(abs(s.chsh_value()) for s in enumerate_deterministic_strategies())

