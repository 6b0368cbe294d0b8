"""Phase-front correction, mode decoding, and interference metrics.

The correction mask counteracts the tilt-induced spatial phase across the
receive ring; decoding projects the (optionally masked) samples onto the
helical patterns the receiver expects, one slot per mode.  The resulting
inter-modal power matrix feeds SIR and interference-limited capacity.

Decode convention: an aligned, front-facing receiver observes a transmitted
mode ``l`` with local phase progression ``-l * phi_m`` (facing the beam
mirrors the apparent twist), so decode slot ``l`` correlates against the
conjugate of that profile:

    D_l = (1/N_r) * sum_m y_m * exp(i P_m) * exp(+i l phi_m)

This makes the aligned inter-modal matrix diagonal: power transmitted on
mode ``l`` lands in decode slot ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import farfield_spatial_phase, trial_signals
from .geometry import Scenario, UcaGeometry

# Sentinel for infinite SIR (zero interference); keeps capacity finite.
SIR_CAP_DB = 200.0


class AliasedModeError(ValueError):
    """Requested decode mode exceeds the ring's spatial sampling limit."""


class ZeroSignalError(ValueError):
    """A diagonal inter-modal power entry is zero; SIR undefined."""


@dataclass(frozen=True)
class PhaseMask:
    """Per-element correction phases, wrapped to (-pi, pi]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("mask phases must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass
class ImiMatrix:
    """Decoded power per (decode slot, transmitted mode), both over ``modes``,
    under any leading batch axes."""

    power: np.ndarray
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.power = np.asarray(self.power, dtype=float)
        self.modes = tuple(int(l) for l in self.modes)
        expected = (len(self.modes), len(self.modes))
        if self.power.shape[-2:] != expected:
            raise ValueError(f"power shape {self.power.shape} does not end in {expected}")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise ValueError("power entries must be finite and >= 0")


def phase_mask(theta, phi, k: float, rx: UcaGeometry) -> PhaseMask:
    """Correction phases: minus the far-field spatial phase, in (-pi, pi];
    (..., N_r) for angles of any shape (..., ``theta`` and ``phi`` alike)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    bad = ~((0.0 <= theta) & (theta < np.pi / 2))
    if bad.any():
        raise ValueError(f"theta must be in [0, pi/2), got {theta[bad][0]}")
    cos_u = np.cos(phi[..., None] - rx.element_azimuths)
    spatial = farfield_spatial_phase(np.sin(theta)[..., None], cos_u, k, rx)
    return PhaseMask(values=np.angle(np.exp(-1j * spatial)))


def check_decodable(modes, n: int) -> None:
    """Raise ``AliasedModeError`` for a mode beyond an n-element ring's limit."""
    limit = n // 2 - 1
    for l in modes:
        if abs(l) > limit:
            raise AliasedModeError(
                f"decode mode {l} exceeds sampling limit |l| <= {limit} for {n} elements"
            )


def decode_modes(samples: np.ndarray, mask: PhaseMask | None, modes) -> np.ndarray:
    """Project per-antenna samples onto each decode slot, one row per mode.

    ``samples`` holds the full receive ring (one row per element, in azimuth
    order), as a vector or as (..., N_r, cols) with one column per signal
    and any leading batch axes; every column is decoded at once.  The mask's
    phases, (..., N_r), broadcast over those batch axes; they default to zero.
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[-2] if y.ndim > 1 else len(y)
    modes = [int(l) for l in modes]
    check_decodable(modes, n)
    if mask is not None:
        if mask.values.shape[-1] != n:
            raise ValueError("mask length does not match sample count")
        turn = np.exp(1j * mask.values)
        y = y * (turn[..., None] if y.ndim > 1 else turn)
    phi_m = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * np.outer(modes, phi_m)) @ y / n


def imi_matrix(fields: np.ndarray, mask: PhaseMask | None, modes) -> ImiMatrix:
    """Decoded power of noiseless ``fields`` (..., N_r, modes), one column per
    transmitted mode, under ``mask``, into the slots of the same ``modes``."""
    return ImiMatrix(np.abs(decode_modes(fields, mask, modes)) ** 2, modes)


def imi_matrices(
    scenario: Scenario, poses, angles, modes, masks: PhaseMask, model: str, k: float
) -> ImiMatrix:
    """Decoded power (T, masks, modes, modes) of each of ``modes`` in each
    slot at pose ``poses[t]``, of ``pose_angles`` ``angles[t]``, under each
    of its masks ``masks.values[t]``, (T, masks, N_r): one ``trial_signals``
    call at wavenumber ``k`` and one ``imi_matrix`` decode.  Zero phases
    decode as no mask does, bit for bit."""
    ks = np.full((len(poses), 1), k)
    fields = trial_signals(scenario, poses, angles, modes, ks, model)[..., 0]
    return imi_matrix(fields[:, None], masks, modes)


def sir(imi: ImiMatrix) -> tuple[dict, float | np.ndarray]:
    """Per-mode SIR in dB and the arithmetic mean of the dB values, over the
    batch axes of ``imi``: floats for one matrix.

    For mode ``l`` the signal is the diagonal entry power[l][l] and the
    interference is the power other transmitted modes leak into decode slot
    ``l`` (row sum).  Infinite ratios are capped at ``SIR_CAP_DB``.  A zero
    signal anywhere raises ``ZeroSignalError``.
    """
    signal = np.diagonal(imi.power, axis1=-2, axis2=-1)
    zero = np.flatnonzero(signal == 0.0)
    if zero.size:
        mode = imi.modes[zero[0] % len(imi.modes)]
        raise ZeroSignalError(f"zero diagonal power for mode {mode}")
    interference = imi.power.sum(axis=-1) - signal
    with np.errstate(divide="ignore"):
        ratio_db = 10.0 * np.log10(signal / interference)
    db = np.where(interference > 0.0, np.minimum(ratio_db, SIR_CAP_DB), SIR_CAP_DB)
    return dict(zip(imi.modes, np.moveaxis(db, -1, 0))), db.mean(axis=-1)


def sir_capacity(per_mode: dict) -> float | np.ndarray:
    """Interference-limited Shannon sum over transmitted modes, bits/s/Hz, of
    the per-mode SIRs in dB that ``sir`` returns, over their batch axes.

    10 ** (v / 10) and its log2 are taken one scalar at a time: numpy's array
    power and log2 round differently from its scalar ones."""
    db = np.stack(list(per_mode.values()), axis=-1)
    bits = np.reshape([sum(np.log2(1.0 + 10.0 ** (v / 10.0)) for v in row)
                       for row in db.reshape(-1, db.shape[-1])], db.shape[:-1])
    return float(bits) if bits.ndim == 0 else bits
