"""Simulator for heralded W-class entanglement of atomic ensembles.

A sparse Fock-state core, the linear-optical elements of the protocol
(pump, beam splitter, loss, detection), a repeat-until-success protocol
engine for the n-party chain and the W-based teleportation, and a seeded
Monte Carlo layer for success probabilities, generation times, and the
vacuum-coefficient noise analysis.
"""

from .errors import (
    AttemptsExhaustedError,
    DomainError,
    InsufficientDataError,
    ModeError,
    ModeKindError,
    NormalizationError,
    PreconditionError,
    ProtocolSequencingError,
    RegistryError,
    UsageError,
    WClassError,
)
from .fock import (
    DEFAULT_TRUNCATION_CAP,
    PRUNE_THRESHOLD,
    CollectiveModeModel,
    FockState,
    Mode,
    ModeKind,
    ModeRegistry,
    annihilate,
    count_excitations,
    create,
    debug_serialize,
    equal_up_to_global_phase,
    fidelity,
    inner_product,
    normalize,
    superpose,
)
from .optics import (
    BeamSplitterSpec,
    PumpSpec,
    apply_beam_splitter,
    apply_phase,
    detection_outcomes,
    loss_outcomes,
    pump_excite,
    repump_convert,
)
from .protocol import (
    ChainLayout,
    ChainSimulator,
    Holder,
    ProtocolConfig,
    StepOutcome,
    TeleportConfig,
    TeleportSimulator,
    build_w_chain,
    epr_state,
    ideal_w_state,
    make_chain_layout,
    make_teleport_layout,
    maximize_w,
    merge_repump,
    phase_compensate,
    prepare_epr,
    receiver_localize,
    teleport,
    teleport_target_state,
    w_prime_state,
    w_state_by_operators,
)
from .montecarlo import (
    NoisyStateMixture,
    RunReport,
    TrialRecord,
    estimate_vacuum_coefficient,
    fidelity_mixture,
    predicted_generation_time,
    rng_for_trial,
    run_batch,
    run_epr_batch,
    run_teleport_batch,
)

__version__ = "0.1.0"
