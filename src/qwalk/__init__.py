"""Coined quantum walks on regular graphs with per-vertex coins:
controllability analysis, operator-algebra verification and constructive
state-transfer synthesis."""

from .controllability import (
    ControllabilityReport,
    ParityReport,
    analyze,
    k_of,
    parity_check,
    reachable_sets,
)
from .errors import (
    CapExceededError,
    CoinCollisionError,
    CriterionConflictError,
    DimensionMismatchError,
    DisconnectedError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NotBijectionError,
    NotControllableError,
    NotSymmetricError,
    NotUnitError,
    ParityError,
    QwalkError,
    SelfLoopError,
    SpecValidationError,
    ToleranceDegenerateError,
    UnreachableError,
)
from .graph_model import (
    Permutation,
    WalkSpec,
    complete,
    cycle_exchange,
    cycle_shift,
    figure1,
    product_walk,
    torus,
    validate,
)
from .lie_closure import (
    GeneratorBasis,
    LieClosureResult,
    generator_basis,
    lie_closure_dim,
    verify_structure,
)
from .synthesis import (
    ControlSequence,
    TargetSpread,
    arbitrary_transfer,
    concentrate_to_node,
    reach_full_state,
    spread_from_node,
)
from .walk_core import (
    CoinOp,
    WalkState,
    apply_sequence,
    basis_state,
    position_probabilities,
    shift_order,
    state_fidelity,
    step,
)

__version__ = "0.1.0"
