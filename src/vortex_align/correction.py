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

from .channel import received_signals
from .geometry import RxPose, Scenario, UcaGeometry

# Sentinel for infinite SIR (zero interference); keeps capacity finite.
SIR_CAP_DB = 200.0


class AliasedModeError(ValueError):
    """Requested decode mode exceeds the ring's spatial sampling limit."""


class ZeroSignalError(ValueError):
    """A diagonal inter-modal power entry is zero; SIR undefined."""


@dataclass(frozen=True)
class PhaseMask:
    """Per-element correction phases plus the (theta, phi, k) they came from."""

    values: np.ndarray
    theta: float
    phi: float
    k: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("mask phases must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass
class ImiMatrix:
    """Decoded power per (decoded mode, transmitted mode) pair."""

    power: np.ndarray
    decoded_modes: tuple[int, ...]
    transmitted_modes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.power = np.asarray(self.power, dtype=float)
        self.decoded_modes = tuple(int(l) for l in self.decoded_modes)
        self.transmitted_modes = tuple(int(l) for l in self.transmitted_modes)
        expected = (len(self.decoded_modes), len(self.transmitted_modes))
        if self.power.shape != expected:
            raise ValueError(f"power shape {self.power.shape} != {expected}")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise ValueError("power entries must be finite and >= 0")

    def entry(self, decoded: int, transmitted: int) -> float:
        return float(
            self.power[
                self.decoded_modes.index(decoded),
                self.transmitted_modes.index(transmitted),
            ]
        )


def phase_mask(theta: float, phi: float, k: float, rx: UcaGeometry) -> PhaseMask:
    """Correction phases P_m = -k sin(theta) (x cos(phi) + y sin(phi)).

    (x, y) are the element coordinates in the receiver plane; values are
    wrapped to (-pi, pi].
    """
    if not 0.0 <= theta < np.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    phi_m = rx.element_azimuths
    x = rx.radius_m * np.cos(phi_m)
    y = rx.radius_m * np.sin(phi_m)
    raw = -k * np.sin(theta) * (x * np.cos(phi) + y * np.sin(phi))
    return PhaseMask(values=np.angle(np.exp(1j * raw)), theta=theta, phi=phi, k=k)


def check_decodable(modes, n: int) -> None:
    """Raise ``AliasedModeError`` for a mode beyond an n-element ring's limit."""
    limit = n // 2 - 1
    for l in modes:
        if abs(l) > limit:
            raise AliasedModeError(
                f"decode mode {l} exceeds sampling limit |l| <= {limit} for {n} elements"
            )


def decode_modes(
    samples: np.ndarray,
    mask: PhaseMask | None,
    modes,
) -> dict[int, complex]:
    """Project per-antenna samples onto each decode slot.

    ``samples`` is the complex vector over the full receive ring (one entry
    per element, in azimuth order).  Mask phases default to zero.
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[0]
    modes = [int(l) for l in modes]
    check_decodable(modes, n)
    if mask is not None:
        if mask.values.shape[0] != n:
            raise ValueError("mask length does not match sample count")
        y = y * np.exp(1j * mask.values)
    phi_m = 2.0 * np.pi * np.arange(n) / n
    return {l: complex(np.mean(y * np.exp(1j * l * phi_m))) for l in modes}


def imi_matrices(
    scenario: Scenario,
    pose: RxPose,
    transmitted_modes,
    decoded_modes,
    masks,
    model: str,
    k: float,
) -> list[ImiMatrix]:
    """Decoded power for every (decoded, transmitted) mode pair, one matrix per mask.

    Simulates all transmitted modes in one noiseless channel call and
    decodes each under every mask in ``masks`` (``None``: no mask).
    """
    transmitted_modes = tuple(int(l) for l in transmitted_modes)
    decoded_modes = tuple(int(l) for l in decoded_modes)
    fields = received_signals(scenario, pose, transmitted_modes, [k], model)
    power = np.zeros((len(masks), len(decoded_modes), len(transmitted_modes)))
    for col in range(len(transmitted_modes)):
        for m, mask in enumerate(masks):
            decoded = decode_modes(fields[:, col, 0], mask, decoded_modes)
            for row, l_dec in enumerate(decoded_modes):
                power[m, row, col] = abs(decoded[l_dec]) ** 2
    return [ImiMatrix(p, decoded_modes, transmitted_modes) for p in power]


def _capped_db(ratio_num: float, ratio_den: float) -> float:
    if ratio_den <= 0.0:
        return SIR_CAP_DB
    return min(10.0 * np.log10(ratio_num / ratio_den), SIR_CAP_DB)


def sir(
    imi: ImiMatrix, interference_axis: str = "transmitted"
) -> tuple[dict[int, float], float]:
    """Per-mode SIR in dB and the arithmetic mean of the dB values.

    For mode ``l`` the signal is the diagonal entry power[l][l].  With the
    default ``interference_axis="transmitted"`` the interference is the
    power other transmitted modes leak into decode slot ``l`` (row sum);
    ``"decoded"`` instead sums what mode ``l`` spills into other decode
    slots (column sum).  Infinite ratios are capped at ``SIR_CAP_DB``.
    """
    if imi.decoded_modes != imi.transmitted_modes:
        raise ValueError("SIR needs a square matrix over a common mode list")
    if interference_axis not in ("transmitted", "decoded"):
        raise ValueError(f"unknown interference_axis {interference_axis!r}")
    per_mode: dict[int, float] = {}
    for i, mode in enumerate(imi.decoded_modes):
        signal = imi.power[i, i]
        if signal == 0.0:
            raise ZeroSignalError(f"zero diagonal power for mode {mode}")
        if interference_axis == "transmitted":
            interference = imi.power[i, :].sum() - signal
        else:
            interference = imi.power[:, i].sum() - signal
        per_mode[mode] = _capped_db(signal, interference)
    return per_mode, float(np.mean(list(per_mode.values())))


def sir_gain(before: ImiMatrix, after: ImiMatrix) -> float:
    """Average SIR improvement in dB (after minus before)."""
    if (
        before.decoded_modes != after.decoded_modes
        or before.transmitted_modes != after.transmitted_modes
    ):
        raise ValueError("mode lists must match")
    return sir(after)[1] - sir(before)[1]


def capacity(imi: ImiMatrix) -> float:
    """Interference-limited Shannon sum over transmitted modes, bits/s/Hz."""
    per_mode, _ = sir(imi)
    return float(sum(np.log2(1.0 + 10.0 ** (v / 10.0)) for v in per_mode.values()))
