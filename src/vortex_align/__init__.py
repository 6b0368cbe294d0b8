"""Misaligned LOS OAM link simulation, tilt estimation, and phase correction."""

from .channel import (
    FarfieldRangeWarning,
    FarfieldViolationError,
    GeometryOverlapError,
    SampleTensor,
    delta,
    farfield_antenna_vector,
    farfield_received_signal,
    pose_angles,
    rho,
    simulate_measurement,
    wavenumber,
)
from .correction import (
    decode_modes,
    imi_matrices,
    phase_mask,
    sir,
)
from .estimator import (
    CrossModalPhaseSet,
    EstimationConfig,
    MisalignmentEstimate,
    estimate,
    select_antennas,
    weight,
)
from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma,
    misalignment_angles,
    rotation_yx,
    tilt_for_angles,
)

__version__ = "0.1.0"
