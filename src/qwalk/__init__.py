"""Coined quantum walks on regular graphs with per-vertex coins:
controllability analysis, operator-algebra verification and constructive
state-transfer synthesis."""

import os as _os

_threads = _os.environ.get("QWALK_THREADS")
if _threads is not None:
    _t = "1" if _threads.strip() == "0" else _threads.strip()
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _t)

from .controllability import (  # noqa: E402
    AgreementReport,
    ControllabilityReport,
    JointOrbit,
    ParityReport,
    analyze,
    joint_orbit,
    k_of,
    kappa,
    parity_check,
    reachable_sets,
    reduced_connectivity_graph,
    verdicts_agree,
)
from .errors import (  # noqa: E402
    CapExceededError,
    CoinCollisionError,
    CriterionConflictError,
    DimensionMismatchError,
    DisconnectedError,
    GroupTooLargeError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NotBijectionError,
    NotControllableError,
    NotSymmetricError,
    NotUnitError,
    ParityError,
    QwalkError,
    SelfLoopError,
    ShortcutUnavailableError,
    SpecValidationError,
    ToleranceDegenerateError,
    UnreachableError,
)
from .graph_model import (  # noqa: E402
    Permutation,
    WalkSpec,
    builtin,
    complete,
    cycle_exchange,
    cycle_shift,
    degree2_kind,
    figure1,
    product_walk,
    torus,
    validate,
)
from .lie_closure import (  # noqa: E402
    GeneratorBasis,
    LieClosureResult,
    generator_basis,
    lie_closure_dim,
    verify_structure,
)
from .synthesis import (  # noqa: E402
    ControlSequence,
    TargetSpread,
    arbitrary_transfer,
    concentrate_to_node,
    reach_full_state,
    shortcut_pair,
    spread_from_node,
    unitary_completion,
)
from .walk_core import (  # noqa: E402
    CoinOp,
    ShiftOp,
    WalkState,
    apply_sequence,
    basis_state,
    coin_matrix,
    position_probabilities,
    shift_matrix,
    shift_order,
    state_fidelity,
    state_from_vector,
    step,
)

__version__ = "0.1.0"
