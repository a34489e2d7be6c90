"""kerrcat: Schrodinger cat states from weak Kerr nonlinearity.

Simulates the probabilistic generation of free-propagating optical cat states:
a coherent state picks up a small Kerr phase (pi/N on the photon-number
squared), becomes an N-component ring of coherent states, is split 50-50
against vacuum, and homodyne detection on one output collapses the other onto
a two-branch cat.  The package evaluates the resulting fidelities, success
probabilities, quadrature distributions and their degradation under photon
loss and phase noise.
"""

__version__ = "0.1.0"

from .conditioning import (
    HomodyneOutcome,
    TwoModeProductSuperposition,
    beamsplit_with_vacuum,
    condition_on_x,
    x_outcome_density,
)
from .kerr import (
    FockState,
    KerrDecomposition,
    KerrParams,
    TruncationError,
    fock_expand,
    kerr_coefficients,
    kerr_decompose,
    kerr_fock_evolve,
    medium_length,
    recommended_cutoff,
    ring_amplitudes,
    verify_phase_identity,
)
from .metrics import (
    AcceptanceWindow,
    CatState,
    FidelityCurvePoint,
    FidelityReport,
    cat_fidelity,
    cat_overlap,
    condition_at,
    conditioned_p_distribution,
    default_target_beta,
    fidelity_columns,
    fidelity_curve,
    max_fidelity,
    outcome_density,
    partner_for,
    precondition_p_distribution,
    success_probability,
    window_from_threshold,
)
from .noise import (
    LossyFinalState,
    NoiseParams,
    lossy_fidelity,
    lossy_final_state,
    odd_loss_probability,
    phase_noise_avg_fidelity,
    phase_noise_state,
)
from .states import (
    CoherentSuperposition,
    DegenerateStateError,
    coherent_overlap,
    coherent_state,
    dump_state,
    inner_product,
    load_state,
    p_amplitude,
    p_marginal_density,
    squared_norm,
    state_from_json_dict,
    state_to_json_dict,
    superposition,
    vacuum_state,
    x_amplitude,
    x_marginal_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
