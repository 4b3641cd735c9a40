"""Growing event/link patterns with quantum probability rules.

The package splits into a small stack: labeled tensors (:mod:`.tensors`),
the causal event graph (:mod:`.graph`), the probability law and sampling
(:mod:`.dynamics`), and three study modules built on top of them or on
plain lattices: two-sided spin correlations (:mod:`.epr`), the thermal
packet-mixture ambiguity (:mod:`.thermal`), and quasilocal scattering
cells (:mod:`.cells`).  :mod:`.cli` exposes all of it as subcommands.
"""

from .errors import (
    DuplicateLabel,
    EventWeaveError,
    InvalidCut,
    LabelCollision,
    MissingLabel,
    NoMatch,
    NonUnitVector,
    NotExhaustive,
    OverlappingBackwardLinks,
    PartitionNotUnity,
    TooManyOutcomePaths,
    UnknownEvent,
    ZeroNormBranch,
    ZeroProbabilityEvent,
)
from .tensors import (
    FactorLabel,
    LabeledVector,
    ProductBra,
    SpaceType,
    apply_event_operator,
    contract,
    tensor_product,
)
from .graph import Cut, EventRecord, History, LinkRecord, Region
from .dynamics import (
    AlternativeSet,
    CandidateEvent,
    CutState,
    OutcomeTree,
    cut_state,
    event_probability,
    joint_probability,
    realize,
    realized_state,
    replica_rng,
    sample_counts,
    sample_extension,
    sample_many,
    sample_outcome_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeSet",
    "CandidateEvent",
    "Cut",
    "CutState",
    "DuplicateLabel",
    "EventRecord",
    "EventWeaveError",
    "FactorLabel",
    "History",
    "InvalidCut",
    "LabeledVector",
    "LabelCollision",
    "LinkRecord",
    "MissingLabel",
    "NoMatch",
    "NonUnitVector",
    "NotExhaustive",
    "OutcomeTree",
    "OverlappingBackwardLinks",
    "PartitionNotUnity",
    "ProductBra",
    "Region",
    "SpaceType",
    "TooManyOutcomePaths",
    "UnknownEvent",
    "ZeroNormBranch",
    "ZeroProbabilityEvent",
    "apply_event_operator",
    "contract",
    "cut_state",
    "event_probability",
    "joint_probability",
    "realize",
    "realized_state",
    "replica_rng",
    "sample_counts",
    "sample_extension",
    "sample_many",
    "sample_outcome_tree",
    "tensor_product",
]
