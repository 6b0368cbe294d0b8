"""Phase-front correction, mode decoding, and interference metrics.

The correction mask counteracts the tilt-induced spatial phase across the
receive ring; decoding projects the masked samples (zero phases: no
correction) onto the helical patterns the receiver expects, one slot per
mode.  The resulting inter-modal power matrix feeds SIR and
interference-limited capacity.

Decode convention: an aligned, front-facing receiver observes a transmitted
mode ``l`` with local phase progression ``-l * phi_m`` (facing the beam
mirrors the apparent twist), so decode slot ``l`` correlates against the
conjugate of that profile:

    D_l = (1/N_r) * sum_m y_m * exp(i P_m) * exp(+i l phi_m)

This makes the aligned inter-modal matrix diagonal: power transmitted on
mode ``l`` lands in decode slot ``l``.
"""

from __future__ import annotations

import numpy as np

from .channel import farfield_spatial_phase, trial_signals, wavenumber
from .geometry import Scenario, UcaGeometry

# Sentinel for infinite SIR (zero interference); keeps capacity finite.
SIR_CAP_DB = 200.0


class AliasedModeError(ValueError):
    """Requested decode mode exceeds the ring's spatial sampling limit."""


class ZeroSignalError(ValueError):
    """A diagonal inter-modal power entry is zero; SIR undefined."""


def phase_mask(theta, phi, k: float, rx: UcaGeometry) -> np.ndarray:
    """Correction phases: minus the far-field spatial phase, in (-pi, pi];
    (..., N_r) for angles of any shape (..., ``theta`` and ``phi`` alike)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    bad = ~((0.0 <= theta) & (theta < np.pi / 2))
    if bad.any():
        raise ValueError(f"theta must be in [0, pi/2), got {theta[bad][0]}")
    cos_u = np.cos(phi[..., None] - rx.element_azimuths)
    spatial = farfield_spatial_phase(np.sin(theta)[..., None], cos_u, k, rx)
    mask = np.angle(np.exp(-1j * spatial))
    if not np.all(np.isfinite(mask)):
        raise ValueError("mask phases must be finite")
    return mask


def check_decodable(modes, n: int) -> None:
    """Raise ``AliasedModeError`` for a mode beyond an n-element ring's limit,
    and ValueError for a repeated mode."""
    limit = n // 2 - 1
    for l in modes:
        if abs(l) > limit:
            raise AliasedModeError(
                f"decode mode {l} exceeds sampling limit |l| <= {limit} for {n} elements"
            )
    if len(set(modes)) < len(modes):
        raise ValueError("modes must be distinct")


def decode_modes(samples: np.ndarray, mask, modes) -> np.ndarray:
    """Project per-antenna samples onto each decode slot, one row per mode.

    ``samples`` (..., N_r, cols) hold the full receive ring (one row per
    element, in azimuth order), one column per signal, under any leading
    batch axes; every column is decoded at once.  The finite ``mask``
    phases, (..., N_r), broadcast over those batch axes.
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[-2]
    modes = [int(l) for l in modes]
    check_decodable(modes, n)
    mask = np.asarray(mask, dtype=float)
    if mask.shape[-1] != n:
        raise ValueError("mask length does not match sample count")
    if not np.all(np.isfinite(mask)):
        raise ValueError("mask phases must be finite")
    y = y * np.exp(1j * mask)[..., None]
    phi_m = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * np.outer(modes, phi_m)) @ y / n


def imi_matrices(scenario: Scenario, poses, angles, modes, aims, model: str) -> np.ndarray:
    """Decoded power (T, masks, modes, modes) of each of ``modes`` in each
    slot at pose ``poses[t]``, of ``pose_angles`` ``angles[t]``, under the
    ``phase_mask`` of each of its (theta, phi) aims ``aims[t]``, (T, masks,
    2), all at the carrier: one ``trial_signals`` call and one decode.  An
    aim of (0, 0) has zero phases, which decode as no mask does, bit for bit."""
    k = wavenumber(scenario.carrier_hz)
    aims = np.asarray(aims, dtype=float)
    masks = phase_mask(aims[..., 0], aims[..., 1], k, scenario.rx)
    ks = np.full((len(poses), 1), k)
    fields = trial_signals(scenario, poses, angles, modes, ks, model)[..., 0]
    return np.abs(decode_modes(fields[:, None], masks, modes)) ** 2


def sir(power, modes) -> tuple[np.ndarray, float | np.ndarray]:
    """Per-mode SIR in dB, (..., modes), and the arithmetic mean of the dB
    values, of decoded ``power`` (..., modes, modes) per (decode slot,
    transmitted mode), both over ``modes``: a float mean for one matrix.

    For mode ``l`` the signal is the diagonal entry power[l][l] and the
    interference is the power other transmitted modes leak into decode slot
    ``l`` (row sum).  Infinite ratios are capped at ``SIR_CAP_DB``.  A zero
    signal anywhere raises ``ZeroSignalError``; a power of another shape,
    non-finite or negative, raises ValueError.
    """
    power, modes = np.asarray(power, dtype=float), tuple(int(l) for l in modes)
    expected = (len(modes), len(modes))
    if power.shape[-2:] != expected:
        raise ValueError(f"power shape {power.shape} does not end in {expected}")
    if not np.all(np.isfinite(power)) or np.any(power < 0):
        raise ValueError("power entries must be finite and >= 0")
    signal = np.diagonal(power, axis1=-2, axis2=-1)
    zero = np.flatnonzero(signal == 0.0)
    if zero.size:
        raise ZeroSignalError(f"zero diagonal power for mode {modes[zero[0] % len(modes)]}")
    interference = power.sum(axis=-1) - signal
    with np.errstate(divide="ignore"):
        ratio_db = 10.0 * np.log10(signal / interference)
    db = np.where(interference > 0.0, np.minimum(ratio_db, SIR_CAP_DB), SIR_CAP_DB)
    return db, db.mean(axis=-1)


def sir_capacity(db) -> np.ndarray:
    """Interference-limited Shannon sum over transmitted modes, bits/s/Hz, of
    the per-mode SIRs in dB (..., modes) that ``sir`` returns, over their
    batch axes.

    10 ** (v / 10) and its log2 are taken one scalar at a time: numpy's array
    power and log2 round differently from its scalar ones."""
    db = np.asarray(db, dtype=float)
    return np.reshape([sum(np.log2(1.0 + 10.0 ** (v / 10.0)) for v in row)
                       for row in db.reshape(-1, db.shape[-1])], db.shape[:-1])
