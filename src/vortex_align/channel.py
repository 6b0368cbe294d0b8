"""Received-signal models for the OAM link.

Two models generate the complex sample at each receive element for a
transmitted vortex mode ``l`` and wavenumber ``k``:

* ``exact_received_signals`` is the ground-truth oracle: spherical waves
  from every transmit element over exact 3-D distances, built once per
  call, with the propagation once per k; valid unless elements overlap.
* ``farfield_received_signal`` is the closed-form model
  (alpha/k) * (exp(-i k r)/r) * exp(i k a_r sin(theta) cos(phi - phi_m))
  * N_t * exp(i l (delta_m + gamma)) * J_l(k a_r a_t rho_m / r),
  valid when the link distance dominates both apertures.

``received_signals`` stacks either model over (antenna, mode, subcarrier);
``simulate_measurement`` adds seeded circularly-symmetric complex noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.special import jv

from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma as pose_gamma,
    misalignment_angles,
)

# Any transmit/receive element pair closer than this is a degenerate layout.
MIN_SEPARATION_M = 1e-9

# Far-field guards on r / max(a_t, a_r): below the hard factor the model is
# refused, below the soft factor it runs with a warning.
FARFIELD_HARD_FACTOR = 10.0
FARFIELD_WARN_FACTOR = 100.0


class GeometryOverlapError(ValueError):
    """Transmit and receive elements (nearly) coincide."""


class FarfieldViolationError(ValueError):
    """Far-field model requested outside its range of validity."""


class FarfieldRangeWarning(UserWarning):
    """Far-field model used where the approximation is getting marginal."""


def wavenumber(freq_hz: float) -> float:
    """Free-space wavenumber 2*pi*f/c in rad/m."""
    return 2.0 * np.pi * freq_hz / SPEED_OF_LIGHT


def bessel_j(order: int, x) -> float | np.ndarray:
    """Bessel function of the first kind for integer orders.

    Negative orders follow J_{-l}(x) = (-1)^l J_l(x).
    """
    if order != int(order):
        raise ValueError(f"order must be an integer, got {order}")
    out = jv(int(order), x)
    return float(out) if np.isscalar(x) else out


def delta(theta, phi, phi_m):
    """Antenna-dependent mode phase angle.

    Quadrant-preserving form atan2(sin(phi - phi_m), cos(theta) cos(phi - phi_m));
    for 0 <= theta < pi/2 this reduces to atan(tan(phi - phi_m)/cos(theta))
    evaluated in the quadrant that keeps rho_m nonnegative.
    """
    u = np.asarray(phi) - np.asarray(phi_m)
    out = np.arctan2(np.sin(u), np.cos(theta) * np.cos(u))
    return float(out) if out.ndim == 0 else out


def rho(theta, phi, phi_m):
    """Transverse foreshortening factor in [cos(theta), 1]."""
    u = np.asarray(phi) - np.asarray(phi_m)
    out = np.sqrt(np.cos(theta) ** 2 * np.cos(u) ** 2 + np.sin(u) ** 2)
    return float(out) if out.ndim == 0 else out


def exact_received_signals(scenario: Scenario, pose: RxPose, modes, ks) -> np.ndarray:
    """Exact point-source sums at every receive element, (N_r, modes, ks).

    s_m = (alpha/k) * sum_n exp(i l phi_n) exp(-i k d_mn) / d_mn over exact
    distances d_mn; one call builds them once and the propagation once per k.
    """
    if not np.all(np.asarray(ks) > 0):
        raise ValueError("wavenumber k must be > 0")
    tx_pos = element_positions_tx(scenario.tx)
    rx_pos = element_positions_rx(scenario.rx, pose)
    dist = np.linalg.norm(rx_pos[:, None, :] - tx_pos[None, :, :], axis=2)
    if dist.min() < MIN_SEPARATION_M:
        raise GeometryOverlapError(
            f"element separation {dist.min():.3e} m below {MIN_SEPARATION_M} m"
        )
    tx_phases = [np.exp(1j * l * scenario.tx.element_azimuths) for l in modes]
    out = np.empty((len(rx_pos), len(tx_phases), len(ks)), dtype=complex)
    for ki, k in enumerate(ks):
        prop = (scenario.gain / k) * (np.exp(-1j * k * dist) / dist)
        # One product per mode: a single product over all modes rounds differently.
        for li, tx_phase in enumerate(tx_phases):
            out[:, li, ki] = prop @ tx_phase
    return out


def _check_farfield(r: float, tx: UcaGeometry, rx: UcaGeometry) -> None:
    aperture = max(tx.radius_m, rx.radius_m)
    if r <= FARFIELD_HARD_FACTOR * aperture:
        raise FarfieldViolationError(
            f"r={r} m is within {FARFIELD_HARD_FACTOR}x the aperture {aperture} m"
        )
    if r < FARFIELD_WARN_FACTOR * aperture:
        warnings.warn(
            f"r={r} m is below {FARFIELD_WARN_FACTOR}x the aperture; "
            "far-field model accuracy is reduced",
            FarfieldRangeWarning,
            stacklevel=3,
        )


def farfield_received_signal(
    m,
    mode: int,
    k: float,
    theta: float,
    phi: float,
    gamma_angle: float,
    r: float,
    tx: UcaGeometry,
    rx: UcaGeometry,
    gain: complex = 1.0 + 0.0j,
):
    """Closed-form far-field sample at receive element(s) ``m``.

    ``m`` may be an integer index or an array of indices; a complex scalar
    or array is returned accordingly.
    """
    if not 0.0 <= theta < np.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    _check_farfield(r, tx, rx)
    m_arr = np.atleast_1d(np.asarray(m, dtype=int))
    phi_m = 2.0 * np.pi * m_arr / rx.n_elements
    d_m = delta(theta, phi, phi_m)
    rho_m = rho(theta, phi, phi_m)
    bess = jv(mode, k * rx.radius_m * tx.radius_m * rho_m / r)
    out = (
        (gain / k)
        * (np.exp(-1j * k * r) / r)
        * np.exp(1j * k * rx.radius_m * np.sin(theta) * np.cos(phi - phi_m))
        * tx.n_elements
        * np.exp(1j * mode * (d_m + gamma_angle))
        * bess
    )
    return complex(out[0]) if np.isscalar(m) else out


def farfield_antenna_vector(
    scenario: Scenario, pose: RxPose, mode: int, k: float
) -> np.ndarray:
    """Far-field samples at every receive element for the given pose."""
    theta, phi = misalignment_angles(pose)
    g = pose_gamma(pose)
    m = np.arange(scenario.rx.n_elements)
    return farfield_received_signal(
        m, mode, k, theta, phi, g, pose.distance_m, scenario.tx, scenario.rx,
        scenario.gain,
    )


def received_signals(scenario: Scenario, pose: RxPose, modes, ks, model: str):
    """Noiseless samples (N_r, modes, ks) of the ``"exact"`` or ``"farfield"`` model."""
    if model == "exact":
        return exact_received_signals(scenario, pose, modes, ks)
    if model != "farfield":
        raise ValueError(f"unknown model {model!r}")
    s = np.empty((scenario.rx.n_elements, len(modes), len(ks)), dtype=complex)
    for li, mode in enumerate(modes):
        for ki, k in enumerate(ks):
            s[:, li, ki] = farfield_antenna_vector(scenario, pose, mode, k)
    return s


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise description: explicit variance or target SNR, plus seed.

    ``snr_db`` is measured against the mean signal power of the simulated
    tensor.  With neither field set the measurement is noiseless.
    """

    sigma2: float | None = None
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma2 is not None and self.snr_db is not None:
            raise ValueError("specify sigma2 or snr_db, not both")
        if self.sigma2 is not None and self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass
class SampleTensor:
    """Complex received samples indexed [antenna m][mode l][subcarrier k].

    ``antennas`` holds the ring-element label of each row of ``values``; a
    tensor may hold any subset of the ring, so labels are not positions.
    """

    values: np.ndarray
    antennas: np.ndarray
    modes: tuple[int, ...]
    subcarriers_hz: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        self.antennas = np.asarray(self.antennas, dtype=int)
        self.modes = tuple(int(l) for l in self.modes)
        self.subcarriers_hz = np.asarray(self.subcarriers_hz, dtype=float)
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode list entries must be distinct")
        expected = (len(self.antennas), len(self.modes), len(self.subcarriers_hz))
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match index sets {expected}"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("sample tensor contains non-finite values")

    def antenna_index(self, antenna: int) -> int:
        """Row of ``values`` that holds ring element ``antenna`` (a label)."""
        idx = np.flatnonzero(self.antennas == antenna)
        if idx.size == 0:
            raise KeyError(f"antenna {antenna} not present in tensor")
        return int(idx[0])

    def mode_index(self, mode: int) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"mode {mode} not present in tensor") from None

    def subcarrier_indices(self, freqs_hz) -> np.ndarray:
        """Column of each of ``freqs_hz`` in ``values`` (the first match)."""
        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
        return _lookup(self.subcarriers_hz, freqs, KeyError, "not present in tensor")


def _lookup(grid: np.ndarray, freqs: np.ndarray, error, where: str) -> np.ndarray:
    """First match of each ``freqs`` in ``grid``; ``error`` names the first missing."""
    match = np.isclose(grid, freqs[:, None], rtol=1e-12)
    found = match.any(axis=1)
    if not found.all():
        raise error(f"subcarrier {freqs[np.argmin(found)]} Hz {where}")
    return match.argmax(axis=1)


def simulate_measurement(
    scenario: Scenario,
    pose: RxPose,
    modes,
    subcarriers_hz,
    noise: NoiseSpec = NoiseSpec(),
    model: str = "farfield",
) -> SampleTensor:
    """Simulate the measurement tensor y = s + n over (antenna, mode, subcarrier).

    The exact oracle builds the distances once per call and the propagation
    once per subcarrier.  Noise draws are circularly-symmetric complex
    Gaussian, independent per sample, and deterministic given ``noise.seed``.
    """
    modes = tuple(int(l) for l in modes)
    if len(set(modes)) != len(modes):
        raise ValueError("modes must be distinct")
    sub = np.atleast_1d(np.asarray(subcarriers_hz, dtype=float))
    _lookup(scenario.subcarriers_hz, sub, ValueError, "is not on the scenario grid")
    s = received_signals(scenario, pose, modes, wavenumber(sub), model)

    if noise.sigma2 is not None:
        sigma2 = noise.sigma2
    elif noise.snr_db is not None:
        sigma2 = float(np.mean(np.abs(s) ** 2)) * 10.0 ** (-noise.snr_db / 10.0)
    else:
        sigma2 = 0.0
    if sigma2 > 0.0:
        rng = np.random.default_rng(noise.seed)
        scale = np.sqrt(sigma2 / 2.0)
        s = s + scale * (
            rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        )

    return SampleTensor(
        values=s,
        antennas=np.arange(scenario.rx.n_elements),
        modes=modes,
        subcarriers_hz=sub,
    )
