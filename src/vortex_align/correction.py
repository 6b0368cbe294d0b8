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

from .channel import farfield_spatial_phase, received_signals
from .geometry import RxPose, Scenario, UcaGeometry

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
    """Decoded power per (decode slot, transmitted mode), both over ``modes``."""

    power: np.ndarray
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.power = np.asarray(self.power, dtype=float)
        self.modes = tuple(int(l) for l in self.modes)
        expected = (len(self.modes), len(self.modes))
        if self.power.shape != expected:
            raise ValueError(f"power shape {self.power.shape} != {expected}")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise ValueError("power entries must be finite and >= 0")


def phase_mask(theta: float, phi: float, k: float, rx: UcaGeometry) -> PhaseMask:
    """Correction phases: minus the far-field spatial phase, in (-pi, pi]."""
    if not 0.0 <= theta < np.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    cos_u = np.cos(phi - rx.element_azimuths)
    spatial = farfield_spatial_phase(np.sin(theta), cos_u, k, rx)
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
    order), as a vector or with one column per signal; every column is
    decoded at once.  Mask phases default to zero.
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[0]
    modes = [int(l) for l in modes]
    check_decodable(modes, n)
    if mask is not None:
        if mask.values.shape[0] != n:
            raise ValueError("mask length does not match sample count")
        y = y * np.exp(1j * mask.values).reshape((n,) + (1,) * (y.ndim - 1))
    phi_m = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * np.outer(modes, phi_m)) @ y / n


def imi_matrices(
    scenario: Scenario, pose: RxPose, modes, masks, model: str, k: float
) -> list[ImiMatrix]:
    """Decoded power of each of ``modes`` in each slot, one matrix per mask.

    Simulates all of ``modes`` in one noiseless channel call and decodes
    them under every mask in ``masks`` (``None``: no mask) into the same slots.
    """
    modes = tuple(int(l) for l in modes)
    fields = received_signals(scenario, pose, modes, [k], model)[:, :, 0]
    return [ImiMatrix(np.abs(decode_modes(fields, mask, modes)) ** 2, modes)
            for mask in masks]


def _capped_db(ratio_num: float, ratio_den: float) -> float:
    if ratio_den <= 0.0:
        return SIR_CAP_DB
    return min(10.0 * np.log10(ratio_num / ratio_den), SIR_CAP_DB)


def sir(imi: ImiMatrix) -> tuple[dict[int, float], float]:
    """Per-mode SIR in dB and the arithmetic mean of the dB values.

    For mode ``l`` the signal is the diagonal entry power[l][l] and the
    interference is the power other transmitted modes leak into decode slot
    ``l`` (row sum).  Infinite ratios are capped at ``SIR_CAP_DB``.
    """
    per_mode: dict[int, float] = {}
    for i, mode in enumerate(imi.modes):
        signal = imi.power[i, i]
        if signal == 0.0:
            raise ZeroSignalError(f"zero diagonal power for mode {mode}")
        interference = imi.power[i, :].sum() - signal
        per_mode[mode] = _capped_db(signal, interference)
    return per_mode, float(np.mean(list(per_mode.values())))


def sir_capacity(per_mode: dict[int, float]) -> float:
    """Interference-limited Shannon sum over transmitted modes, bits/s/Hz, of
    the per-mode SIRs in dB that ``sir`` returns."""
    return float(sum(np.log2(1.0 + 10.0 ** (v / 10.0)) for v in per_mode.values()))
