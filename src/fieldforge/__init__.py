"""Dual-rail well qubits driven by classical sources: solvers, calibration,
spectra, and a circuit-to-field compiler."""

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
    greens_function,
    solve_bound_states,
    tunneling_and_interaction_estimates,
    wronskian,
)
from .passage import (
    ConditionReport,
    ScaledParameters,
    TwoLevelSweep,
    check_conditions,
    effective_hamiltonian,
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
    source_energy,
)
from .adiabatic import (
    TimeDependentHamiltonian,
    build_frame_trajectory,
    bump_integral,
    frame_generator,
    gevrey_bump,
    gevrey_derivative_check,
    leakage_overlap_bound,
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
    eta_constant,
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
    SimulationReport,
    compute_sampling,
    infidelity_budget,
    native_entangling_phases,
    simulate_schedule,
)
from .compiler import compile as compile_circuit
from . import errors
