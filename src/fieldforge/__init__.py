"""Dual-rail well qubits driven by classical sources: solvers, calibration,
spectra, and a circuit-to-field compiler.

No module imports scipy at import time: each function imports the scipy
routine it calls, so ``import fieldforge`` loads numpy only.
"""

__version__ = "0.1.0"

from .units import UNIT_KINETIC, HALF_KINETIC, UnitsConvention, natural
from .potentials import (
    Grid,
    PoschlTeller,
    Potential,
    QESDoubleWell,
    SquareBarrier,
    Tabulated,
)
from .schrodinger import (
    BoundStates,
    dressed_propagator,
    solve_bound_states,
    wronskian,
)
from .passage import (
    ConditionReport,
    ScaledParameters,
    TwoLevelSweep,
    check_conditions,
    prep_time_estimate,
    propagate_sweep,
    rwa_error_bound,
    scale_parameters,
)
from .chirp import (
    ChirpSource,
    chirp_spectrum,
    fresnel,
    g_component,
    region_bound,
)
from .adiabatic import (
    TimeDependentHamiltonian,
    build_frame_trajectory,
    bump_integral,
    frame_generator,
    gevrey_bump,
    propagate,
)
from .gates import (
    BASIS_LABELS,
    GateCalibration,
    TwoQubitSchedule,
    WellPairTrajectory,
    calibrate_entangling,
    calibrate_x_gate,
    calibrate_z_gate,
    coefficients_from_wells,
    entangling_check,
    extract_logical,
    gate_infidelity,
    propagate_two_qubit,
    tune_closure,
    x_gate_phase,
    z_gate_beta,
)
from .fieldtheory import (
    ModeBasis,
    creation_probabilities,
    design_source_profile,
    effective_potential,
    local_energy_probe,
    mode_decomposition,
    nr_hamiltonian_terms,
    rabi_frequency,
    source_overlap,
)
from .circuits import GateSpec, LogicalCircuit, ideal_unitary, insert_swaps
from .measure import Decision, ShotResult, decision, hadamard_test
from .compiler import (
    CompileParams,
    CompiledFields,
    ResourceEstimate,
    ScalingConfig,
    Schedule,
    SimulationReport,
    compute_sampling,
    infidelity_budget,
    native_entangling_phases,
    schedule,
    simulate_schedule,
)
from .compiler import compile as compile_circuit
from . import errors
