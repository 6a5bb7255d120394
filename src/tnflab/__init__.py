"""Tensor network functions: many-body amplitudes from fixed contraction
schedules, with strict variational sampling, volume-law Floquet dynamics,
and arithmetic-circuit compilation."""

__version__ = "0.1.0"

from .tensor import AmplitudeValue, TruncatedSvd, renormalize, svd_split
from .peps import (
    DynamicCache,
    FixedEvaluator,
    FixedPlan,
    Peps,
    amplitude_fixed,
    boundary_absorb,
    exact_amplitude,
    fixed_table,
    load_peps,
    product_peps,
    project_config,
    random_peps,
    save_peps,
)
from .simple_update import simple_update
from .models import Model, heisenberg, j1j2, neel_config
from .ed import ground_energy
from .vmc import (
    ChainState,
    EnergyEstimate,
    enumerate_energy,
    estimate_energy,
    gradient_estimate,
    local_energy,
    metropolis_sweep,
    sgd_optimize,
)
from .floquet import (
    FloquetParams,
    PRESETS,
    build_floquet_mpo,
    evolve_conventional,
    exact_evolve,
    mpo_amplitude,
    mpo_mpo_inverse,
    tnf_amplitude_inverse_time,
    tnf_amplitude_transverse,
)
from .entanglement import (
    EntanglementData,
    bulk_entropy_sweep,
    entanglement_dynamics,
    entropy_and_spectrum,
    rdm_from_amplitudes,
)
from .circuit import (
    BitVec,
    CircuitGraph,
    FnnSpec,
    GateKind,
    build_adder,
    build_amp_function,
    build_full_adder,
    build_half_adder,
    build_multiplier,
    build_square,
    compile_fnn,
    eval_amp_circuit,
    eval_binary,
    float_decode,
    float_encode,
    gate_tensor,
)
