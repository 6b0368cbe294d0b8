"""Misaligned LOS OAM link simulation, tilt estimation, and phase correction."""

from .channel import (
    FarfieldRangeWarning,
    FarfieldViolationError,
    GeometryOverlapError,
    NoiseSpec,
    SampleTensor,
    bessel_j,
    delta,
    farfield_antenna_vector,
    farfield_received_signal,
    rho,
    simulate_measurement,
    wavenumber,
)
from .correction import (
    ImiMatrix,
    PhaseMask,
    capacity,
    decode_modes,
    imi_matrices,
    phase_mask,
    sir,
    sir_gain,
)
from .estimator import (
    CrossModalPhaseSet,
    EstimationConfig,
    MisalignmentEstimate,
    cross_modal_phase_set,
    estimate,
    loss,
    select_antennas,
    select_modes,
    weight,
)
from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma,
    is_aligned_degenerate,
    misalignment_angles,
    rotation_yx,
    tilt_for_angles,
)

__version__ = "0.1.0"
