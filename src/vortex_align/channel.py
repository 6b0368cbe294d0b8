"""Received-signal models for the OAM link.

Two models generate the complex sample at each receive element for a
transmitted vortex mode ``l`` and wavenumber ``k``:

* ``exact_received_signals`` is the ground-truth oracle: spherical waves
  from every transmit element over exact 3-D distances, an exponential per
  distinct k gap and a multiply per k; valid unless elements overlap.
* ``farfield_signals`` is the closed-form model, valid when the link
  distance dominates both apertures: (1/k) * (exp(-i k r)/r) * N_t *
  exp(i l gamma) times ``farfield_pattern``, which the estimator's power
  probe reads too; the correction mask is minus its spatial phase.  It
  takes T poses' (theta, phi, gamma) at once; ``farfield_received_signal``
  is its one-pose call, with the oracle's arguments and shape.

``trial_signals`` picks either model by name for T trials;
``simulate_trials`` adds each trial's seeded circularly-symmetric complex
noise at one SNR and returns one ``SampleTensor`` with a leading trial axis,
and ``simulate_measurement`` is its one-trial call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, jv

from .geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma as pose_gamma,
    misalignment_angles,
)

# Speed of light in vacuum, m/s (SI, exact).
SPEED_OF_LIGHT = 299_792_458.0

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


def _bessel(modes, x) -> list[np.ndarray]:
    """J_l(x) of each l in ``modes``, once per |l|: Cephes j0 / j1 (fast), jv above."""
    orders = {abs(l) for l in modes}
    by_order = {n: (j0, j1)[n](x) if n < 2 else jv(n, x) for n in orders}
    return [-by_order[abs(l)] if l < 0 and l % 2 else by_order[abs(l)] for l in modes]


def delta(theta, phi, phi_m):
    """Antenna-dependent mode phase angle.

    Quadrant-preserving form atan2(sin(phi - phi_m), cos(theta) cos(phi - phi_m));
    for 0 <= theta < pi/2 this reduces to atan(tan(phi - phi_m)/cos(theta))
    evaluated in the quadrant that keeps rho_m nonnegative.
    """
    u = np.asarray(phi) - np.asarray(phi_m)
    return np.arctan2(np.sin(u), np.cos(theta) * np.cos(u))


def rho(theta, phi, phi_m):
    """Transverse foreshortening factor in [cos(theta), 1]."""
    u = np.asarray(phi) - np.asarray(phi_m)
    return np.sqrt(np.cos(theta) ** 2 * np.cos(u) ** 2 + np.sin(u) ** 2)


def exact_received_signals(scenario: Scenario, pose: RxPose, modes, ks) -> np.ndarray:
    """Exact point-source sums at every receive element, (N_r, modes, ks).

    s_m = (1/k) * sum_n exp(i l phi_n) exp(-i k d_mn) / d_mn over exact
    distances d_mn, built once per call; exp(-i k d) at the first k, then a
    multiply per k by exp(-i gap d), one exponential per distinct k gap.
    """
    if not len(ks):
        raise ValueError("no wavenumber given")
    if not np.all(np.asarray(ks) > 0):
        raise ValueError("wavenumber k must be > 0")
    tx_pos = element_positions_tx(scenario.tx)
    rx_pos = element_positions_rx(scenario.rx, pose)
    # Summed per coordinate: the same sums as a norm over the length-3 axis,
    # in the same order, without a reduction per (rx, tx) pair.  The squares
    # are three times the size of dist, so they go before the tone loop.
    sq = (rx_pos[:, None, :] - tx_pos[None, :, :]) ** 2
    dist = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    del sq
    if dist.min() < MIN_SEPARATION_M:
        raise GeometryOverlapError(
            f"element separation {dist.min():.3e} m below {MIN_SEPARATION_M} m"
        )
    tx_phases = [np.exp(1j * l * scenario.tx.element_azimuths) for l in modes]
    gaps, gap_of = np.unique(np.diff(ks), return_inverse=True)
    steps = np.exp(-1j * gaps[:, None, None] * dist)
    wave = np.exp(-1j * ks[0] * dist)
    # wave * inv is wave / dist bit for bit: numpy divides complex by real so.
    inv = np.divide(1.0, dist, out=dist)  # dist is read no more
    out = np.empty((len(rx_pos), len(tx_phases), len(ks)), dtype=complex)
    for ki, k in enumerate(ks):
        wave = wave * steps[gap_of[ki - 1]] if ki else wave
        prop = (1.0 / k) * (wave * inv)
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


def farfield_geometry(theta: np.ndarray, phi: np.ndarray, phi_m: np.ndarray, modes):
    """Frequency-independent geometry of the far-field pattern.

    For (n,) angles (theta, phi) and (Q,) element azimuths ``phi_m``: delta_m
    and rho_m (n, Q), sin(theta) (n, 1), cos(phi - phi_m) (n, Q) and the
    twist e^{il delta_m} of each of ``modes``, (n_modes, n, Q).
    """
    th = theta[:, None]
    u = phi[:, None] - phi_m
    sin_u, cos_u, cos_t = np.sin(u), np.cos(u), np.cos(th)
    # ``delta`` and ``rho``, sharing one sine and cosine of u.
    d_m = np.arctan2(sin_u, cos_t * cos_u)
    twist = np.exp(1j * np.asarray(modes)[:, None, None] * d_m)
    return d_m, np.sqrt(cos_t**2 * cos_u**2 + sin_u**2), np.sin(th), cos_u, twist


def farfield_spatial_phase(sin_theta, cos_u, k, rx: UcaGeometry) -> np.ndarray:
    """Tilt-induced spatial phase k a_r sin(theta) cos(u), u = phi - phi_m."""
    return k * rx.radius_m * sin_theta * cos_u


def farfield_pattern(
    geometry, modes, k, r: float, tx: UcaGeometry, rx: UcaGeometry
) -> list[np.ndarray]:
    """Far-field pattern of each of ``modes`` at wavenumber ``k``, each (n, Q).

    exp(i k a_r sin(theta) cos(phi - phi_m)) * exp(i l delta_m) * J_l(k a_r
    a_t rho_m / r) over ``farfield_geometry`` of the same modes, k a scalar
    or (n, 1), ``r`` a float or (n, 1).  gamma is left out: it is common to
    every element of a mode.
    """
    _d_m, rho_m, sin_th, cos_u, twist = geometry
    spatial = np.exp(1j * farfield_spatial_phase(sin_th, cos_u, k, rx))
    bessel = _bessel(modes, k * rx.radius_m * tx.radius_m * rho_m / r)
    return [spatial * tw * j_l for tw, j_l in zip(twist, bessel)]


def farfield_signals(angles, modes, ks, r, tx: UcaGeometry, rx: UcaGeometry) -> np.ndarray:
    """Closed-form far-field samples of T poses at every receive element, (T, N_r, modes, p).

    Pose t has (theta, phi, gamma) ``angles[t]`` (``pose_angles``),
    wavenumbers ``ks[t]`` and link distance ``r``, one float or one per
    pose: s_m = (1/k) * (exp(-i k r)/r) * N_t * exp(i l gamma) times
    ``farfield_pattern``.  The geometry is built once, and the pattern once
    per column of ``ks``.
    """
    theta, phi, gamma = np.asarray(angles, dtype=float).T
    bad = [th for th in theta.tolist() if not 0.0 <= th < np.pi / 2]
    if bad:
        raise ValueError(f"theta must be in [0, pi/2), got {bad[0]}")
    for dist in set(np.ravel(r).tolist()):
        _check_farfield(dist, tx, rx)
    ks, r = np.asarray(ks, dtype=float), np.reshape(r, (-1, 1))
    geometry = farfield_geometry(theta, phi, rx.element_azimuths, modes)
    helix = np.exp(1j * np.asarray(modes) * gamma[:, None])
    scale = (1.0 / ks) * (np.exp(-1j * ks * r) / r) * tx.n_elements
    out = np.empty((len(theta), rx.n_elements, len(modes), ks.shape[1]), dtype=complex)
    # scale * e^{il gamma} stays a scalar product: numpy's array complex
    # multiply may fuse it (FMA) and round differently.
    factor = np.array([[[s * h for h in hs] for s in ss]
                       for ss, hs in zip(scale.tolist(), helix.tolist())])
    for j in range(ks.shape[1]):
        pattern = farfield_pattern(geometry, modes, ks[:, j : j + 1], r, tx, rx)
        for li, p in enumerate(pattern):
            np.multiply(factor[:, j, li, None], p, out=out[:, :, li, j])
    return out


def pose_angles(pose: RxPose) -> tuple[float, float, float]:
    """(theta, phi, gamma) of ``pose``: all that the far-field model reads of it."""
    return (*misalignment_angles(pose), pose_gamma(pose))


def farfield_received_signal(scenario: Scenario, pose: RxPose, modes, ks) -> np.ndarray:
    """Closed-form far-field samples at every receive element, (N_r, modes, ks):
    ``farfield_signals`` of one pose."""
    link = (pose.distance_m, scenario.tx, scenario.rx)
    return farfield_signals([pose_angles(pose)], modes, [ks], *link)[0]


def farfield_antenna_vector(
    scenario: Scenario, pose: RxPose, mode: int, k: float
) -> np.ndarray:
    """Far-field samples at every receive element for one mode and wavenumber."""
    return farfield_received_signal(scenario, pose, (mode,), [k])[:, 0, 0]


def trial_signals(scenario: Scenario, poses, angles, modes, ks, model: str) -> np.ndarray:
    """Noiseless samples (T, N_r, modes, p) of the ``"exact"`` or ``"farfield"`` model.

    Trial t is at ``poses[t]``, of ``pose_angles`` ``angles[t]``, and at
    wavenumbers ``ks[t]``.  The far-field model makes one call for every
    trial; the exact oracle one call per trial.
    """
    if model == "exact":
        return np.stack([exact_received_signals(scenario, pose, modes, k)
                         for pose, k in zip(poses, ks)])
    if model == "farfield":
        r = [pose.distance_m for pose in poses]
        return farfield_signals(angles, modes, ks, r, scenario.tx, scenario.rx)
    raise ValueError(f"unknown model {model!r}")


@dataclass
class SampleTensor:
    """Complex received samples indexed [antenna m][mode l][subcarrier k].

    A batch of T trials adds a leading trial axis: ``values`` (T, N_r,
    modes, p) on ``subcarriers_hz`` (T, p), one row of tones per trial,
    under the one ``antennas`` and ``modes`` of the whole batch.
    ``antennas`` holds the ring-element label of each antenna row; a tensor
    may hold any subset of the ring, so labels are not positions.
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
        if len(set(self.antennas.tolist())) != len(self.antennas):
            raise ValueError("antenna labels must be distinct")
        *trials, p = self.subcarriers_hz.shape
        expected = (*trials, len(self.antennas), len(self.modes), p)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match index sets {expected}"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("sample tensor contains non-finite values")

    def antenna_index(self, antenna: int) -> int:
        """Antenna row of ``values`` that holds ring element ``antenna`` (a label)."""
        try:
            return self.antennas.tolist().index(antenna)
        except ValueError:
            raise KeyError(f"antenna {antenna} not present in tensor") from None

    def mode_index(self, mode: int) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise KeyError(f"mode {mode} not present in tensor") from None


def simulate_trials(
    scenario: Scenario, poses, angles, modes, subcarriers_hz, snr_db, seeds,
    model: str = "farfield",
) -> SampleTensor:
    """Simulate the measurement tensor y = s + n of T trials, (T, antenna, mode, subcarrier).

    Trial t is at ``poses[t]``, of ``pose_angles`` ``angles[t]``, on the
    subcarriers ``subcarriers_hz[t]`` (T, p), with noise seed ``seeds[t]``.
    One ``trial_signals`` call simulates every trial.  Noise draws are
    circularly-symmetric complex Gaussian, independent per sample, at
    ``snr_db`` against the mean signal power of each trial (None: no noise),
    and deterministic given the trial's seed.
    """
    modes = tuple(int(l) for l in modes)
    sub = np.asarray(subcarriers_hz, dtype=float)
    if sub.ndim != 2:
        raise ValueError(f"subcarriers_hz must be 2-D (trials, p), got shape {sub.shape}")
    lengths = (len(poses), len(angles), len(sub), len(seeds))
    if len(set(lengths)) > 1:
        raise ValueError("poses, angles, subcarriers_hz and seeds differ in length: "
                         "%d, %d, %d and %d" % lengths)
    if sub.size == 0:
        raise ValueError("no subcarrier given")
    on_grid = np.isclose(scenario.subcarriers_hz, sub[..., None], rtol=1e-12).any(axis=-1)
    if not on_grid.all():
        raise ValueError(f"subcarrier {sub[~on_grid][0]} Hz is not on the scenario grid")
    values = trial_signals(scenario, poses, angles, modes, wavenumber(sub), model)
    if snr_db is not None:
        for s, seed in zip(values, seeds):
            sigma2 = float(np.mean(np.abs(s) ** 2)) * 10.0 ** (-snr_db / 10.0)
            rng = np.random.default_rng(seed)
            scale = np.sqrt(sigma2 / 2.0)
            s += scale * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
    return SampleTensor(values, np.arange(scenario.rx.n_elements), modes, sub)


def simulate_measurement(
    scenario: Scenario,
    pose: RxPose,
    modes,
    subcarriers_hz,
    snr_db: float | None = None,
    seed: int = 0,
    model: str = "farfield",
) -> SampleTensor:
    """Simulate the measurement tensor y = s + n of one trial: ``simulate_trials``
    of one trial, without the trial axis."""
    sub = np.atleast_1d(np.asarray(subcarriers_hz, dtype=float))
    batch = simulate_trials(scenario, [pose], [pose_angles(pose)], modes, [sub], snr_db,
                            [seed], model)
    return SampleTensor(batch.values[0], batch.antennas, batch.modes, batch.subcarriers_hz[0])
