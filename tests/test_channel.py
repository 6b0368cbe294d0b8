import re

import mpmath
import numpy as np
import pytest

from vortex_align.channel import (
    FarfieldRangeWarning,
    FarfieldViolationError,
    GeometryOverlapError,
    NoiseSpec,
    SampleTensor,
    _bessel,
    delta,
    exact_received_signals,
    farfield_antenna_vector,
    farfield_geometry,
    farfield_received_signal,
    pose_angles,
    rho,
    simulate_measurement,
    simulate_trials,
    trial_signals,
    wavenumber,
)
from vortex_align.correction import imi_matrices, phase_mask
from vortex_align.estimator import EstimationConfig, _matched_power, select_antennas
from vortex_align.geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma,
    misalignment_angles,
    tilt_for_angles,
)

F_CARRIER = 120e9
K_CARRIER = wavenumber(F_CARRIER)


def make_scenario(tx_n=160, tx_r=0.03, rx_n=20, rx_r=0.008, distance=100.0,
                  theta_deg=0.0, phi_deg=0.0, subcarriers=None):
    ry, rx_tilt = tilt_for_angles(np.deg2rad(theta_deg), np.deg2rad(phi_deg))
    pose = RxPose.from_tilt(distance, ry, rx_tilt)
    subs = np.array([F_CARRIER]) if subcarriers is None else np.asarray(subcarriers)
    scen = Scenario(UcaGeometry(tx_n, tx_r), UcaGeometry(rx_n, rx_r), pose,
                    F_CARRIER, subs)
    return scen, pose


GRID_HZ = 119.5e9 + 1e7 * np.arange(71)


def reference_exact(scen, pose, modes, ks):
    """The oracle evaluated one (mode, k) pair at a time, stacked (N_r, modes, ks)."""
    out = np.empty((scen.rx.n_elements, len(modes), len(ks)), dtype=complex)
    for li, mode in enumerate(modes):
        for ki, k in enumerate(ks):
            tx_pos = element_positions_tx(scen.tx)
            rx_pos = element_positions_rx(scen.rx, pose)
            diff = rx_pos[:, None, :] - tx_pos[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            tx_phase = np.exp(1j * mode * scen.tx.element_azimuths)
            out[:, li, ki] = (
                (1.0 / k) * (np.exp(-1j * k * dist) / dist) @ tx_phase
            )
    return out


def longdouble_exact(scen, pose, modes, ks):
    """The oracle's formula in extended precision at the same float64 positions."""
    tx_pos = element_positions_tx(scen.tx).astype(np.longdouble)
    rx_pos = element_positions_rx(scen.rx, pose).astype(np.longdouble)
    dist = np.sqrt(((rx_pos[:, None, :] - tx_pos[None, :, :]) ** 2).sum(axis=2))
    azimuths = scen.tx.element_azimuths.astype(np.longdouble)
    out = np.empty((len(rx_pos), len(modes), len(ks)), dtype=np.clongdouble)
    for ki, k in enumerate(np.asarray(ks, dtype=np.longdouble)):
        prop = np.exp(-1j * k * dist) / dist / k
        for li, mode in enumerate(modes):
            out[:, li, ki] = prop @ np.exp(1j * mode * azimuths)
    return out


def assert_matches_per_tone_formula(got, scen, pose, modes, ks):
    """Tone 0 equals the per-tone formula bit for bit.  At every tone, each
    mode's largest error against the extended-precision sums is at most
    twice that of the per-tone formula, which carries the rounding of k d."""
    per_tone = reference_exact(scen, pose, modes, ks)
    assert np.array_equal(got[:, :, 0], per_tone[:, :, 0])
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is not extended precision here")
    truth = longdouble_exact(scen, pose, modes, ks)
    err, err_per_tone = (np.abs(x - truth).max(axis=0).astype(float)
                         for x in (got, per_tone))
    assert np.all(err <= 2.0 * err_per_tone)


def reference_farfield(scen, pose, modes, ks):
    """The far-field formula evaluated one (mode, k) pair at a time, (N_r, modes, ks).

    (1/k) (e^{-ikr}/r) N_t e^{il gamma} e^{ik a_r sin(theta) cos(phi - phi_m)}
    e^{il delta_m} J_l(k a_r a_t rho_m / r).
    """
    theta, phi = misalignment_angles(pose)
    r, a_t, a_r = pose.distance_m, scen.tx.radius_m, scen.rx.radius_m
    phi_m = scen.rx.element_azimuths
    out = np.empty((scen.rx.n_elements, len(modes), len(ks)), dtype=complex)
    for li, l in enumerate(modes):
        for ki, k in enumerate(ks):
            out[:, li, ki] = (
                (1.0 / k) * (np.exp(-1j * k * r) / r) * scen.tx.n_elements
                * np.exp(1j * l * gamma(pose))
                * np.exp(1j * k * a_r * np.sin(theta) * np.cos(phi - phi_m))
                * np.exp(1j * l * delta(theta, phi, phi_m))
                * _bessel((l,), k * a_r * a_t * rho(theta, phi, phi_m) / r)[0]
            )
    return out


def correlation(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def bessel_j(order, x):
    return _bessel((order,), x)[0]


class TestBessel:
    def test_trivial_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_negative_order_parity(self):
        for x in (0.5, 1.0, 5.0):
            assert np.isclose(bessel_j(-2, x), bessel_j(2, x), rtol=1e-12)
            assert np.isclose(bessel_j(-3, x), -bessel_j(3, x), rtol=1e-12)

    def test_against_mpmath_reference(self):
        mpmath.mp.dps = 30
        orders = [-16, -9, -5, -2, -1, 0, 1, 2, 3, 7, 12, 16]
        args = [1e-3, 0.5, 1.0, 2.0, 5.0, 10.0, 31.4, 100.0, 316.0, 1000.0]
        for l in orders:
            for x in args:
                ref = float(mpmath.besselj(l, x))
                got = bessel_j(l, x)
                assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref)), (l, x)

    def test_array_argument(self):
        x = np.array([0.1, 1.0, 3.0])
        assert bessel_j(1, x).shape == (3,)


class TestBesselFactors:
    X = np.linspace(0.0, 20.0, 401)

    def test_matches_mpmath(self):
        with mpmath.workdps(30):
            for l in range(4):
                want = np.array([float(mpmath.besselj(l, x)) for x in self.X])
                got = _bessel((l,), self.X)[0]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_negative_orders_reflect(self):
        for l in range(1, 4):
            neg, pos = _bessel((-l, l), self.X)
            np.testing.assert_array_equal(neg, (-1) ** l * pos)


class TestPowerProbeMatchesChannel:
    @pytest.mark.parametrize("modes", [(-1, 1), (-2, 0, 2)])
    def test_matched_energy_at_truth_is_tensor_energy(self, modes):
        # The estimator's probe and the channel read one far-field pattern,
        # so at the true angles the probe explains all the received energy.
        scen, pose = make_scenario(distance=0.4, theta_deg=30.0, phi_deg=-120.0,
                                   subcarriers=[F_CARRIER, F_CARRIER + 1e8])
        tensor = simulate_measurement(scen, pose, modes, scen.subcarriers_hz)
        config = EstimationConfig(modes, tuple(select_antennas(20, 6)))
        theta, phi = misalignment_angles(pose)
        ring = scen.rx.element_azimuths[list(config.antennas)]
        geometry = farfield_geometry(np.array([theta]), np.array([phi]), ring, modes)
        block = tensor.values[list(config.antennas)][None]
        ks = wavenumber(tensor.subcarriers_hz)[None]
        got = _matched_power(block, ks, modes, geometry, scen)
        want = np.sum(np.abs(tensor.values[list(config.antennas)]) ** 2)
        np.testing.assert_allclose(got, [want], rtol=1e-12)


class TestDeltaRho:
    def test_delta_zero_tilt_wraps(self):
        for u in (-3.0, -0.5, 0.0, 2.0, 3.0):
            assert np.isclose(delta(0.0, u, 0.0), np.angle(np.exp(1j * u)))

    def test_delta_zero_offset(self):
        for theta in (0.0, 0.5, 1.2):
            assert delta(theta, 1.0, 1.0) == 0.0

    def test_delta_hand_value(self):
        # atan2(sin 45, cos 60 cos 45) = atan(2)
        got = delta(np.deg2rad(60.0), np.deg2rad(45.0), 0.0)
        assert np.isclose(got, np.arctan(2.0), atol=1e-15)
        assert np.isclose(got, 1.1071487177940904)

    def test_rho_limits(self):
        assert np.allclose(rho(0.0, 1.3, np.linspace(0, 6, 7)), 1.0)
        assert np.isclose(rho(0.7, np.pi / 2, 0.0), 1.0)
        assert np.isclose(rho(np.deg2rad(60.0), 0.3, 0.3), 0.5)

    def test_rho_range(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, np.pi / 2 - 0.01, 50)
        u = rng.uniform(-np.pi, np.pi, 50)
        vals = rho(theta, u, 0.0)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals >= np.cos(theta) - 1e-12)


class TestExactOracle:
    def test_aligned_mode0_symmetric(self):
        scen, pose = make_scenario()
        s = exact_received_signals(scen, pose, [0], [K_CARRIER])[:, 0, 0]
        assert np.allclose(np.abs(s), np.abs(s[0]), rtol=1e-9)

    def test_aligned_helical_progression(self):
        # A facing receiver sees transmitted mode l with local twist -l;
        # multiplying by exp(+i l phi_m) flattens the phase.  Short range
        # keeps the high-order mode amplitudes well above float noise.
        scen, pose = make_scenario(rx_n=12, distance=0.4)
        modes = (-2, 1, 3)
        fields = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, s in zip(modes, fields.T):
            flattened = s * np.exp(1j * l * scen.rx.element_azimuths)
            residual = np.angle(flattened * np.conj(flattened[0]))
            assert np.max(np.abs(residual)) < 1e-6

    @pytest.mark.parametrize("rx_n, rx_r", [(20, 0.008), (120, 0.02)])
    @pytest.mark.parametrize("theta_deg, phi_deg", [(0.0, 0.0), (23.0, -131.0)])
    def test_batch_matches_per_pair_formula_bitwise(self, rx_n, rx_r, theta_deg,
                                                   phi_deg):
        scen, pose = make_scenario(rx_n=rx_n, rx_r=rx_r, distance=0.4,
                                   theta_deg=theta_deg, phi_deg=phi_deg,
                                   subcarriers=GRID_HZ)
        modes = list(range(-3, 4))
        ks = wavenumber(GRID_HZ[[0, 17, 35, 52, 70]])
        got = exact_received_signals(scen, pose, modes, ks)
        assert got.shape == (rx_n, len(modes), len(ks))
        assert_matches_per_tone_formula(got, scen, pose, modes, ks)

    @pytest.mark.parametrize("distance", [0.4, 100.0])
    def test_tone_recurrence_accuracy_on_validate_rings(self, distance):
        # At 100 m, J_3(0.03) ~ 5e-7: the element sum cancels and the
        # per-tone formula itself is off by ~5e-5 of the mode's peak, so a
        # fixed relative bound would not hold; twice its error does.
        modes = list(range(-3, 4))
        ks = wavenumber(GRID_HZ)
        checked = [0, 17, 35, 52, 70]
        for radius, count in [(0.02, 120), (0.03, 160), (0.04, 200)]:
            scen, pose = make_scenario(rx_n=count, rx_r=radius, distance=distance,
                                       theta_deg=17.9, phi_deg=-34.2,
                                       subcarriers=GRID_HZ)
            got = exact_received_signals(scen, pose, modes, ks)
            assert_matches_per_tone_formula(got[:, :, checked], scen, pose, modes,
                                            ks[checked])

    def test_rejects_empty_wavenumbers(self):
        scen, pose = make_scenario()
        with pytest.raises(ValueError, match="^no wavenumber given$"):
            exact_received_signals(scen, pose, [-1, 1], [])

    def test_overlap_raises(self):
        scen, pose = make_scenario(tx_r=0.03, rx_r=0.03, distance=1e-10)
        with pytest.raises(GeometryOverlapError):
            exact_received_signals(scen, pose, [-1, 0, 1], [K_CARRIER, 2 * K_CARRIER])

    def test_rejects_bad_wavenumber(self, monkeypatch):
        scen, pose = make_scenario()

        def no_geometry(*_args):
            raise AssertionError("geometry built before the wavenumber check")

        monkeypatch.setattr("vortex_align.channel.element_positions_tx", no_geometry)
        monkeypatch.setattr("vortex_align.channel.element_positions_rx", no_geometry)
        message = r"^wavenumber k must be > 0$"
        for ks in ([0.0], [-1.0], [np.nan], [K_CARRIER, -1.0],
                   [K_CARRIER, np.nan, K_CARRIER]):
            with pytest.raises(ValueError, match=message):
                exact_received_signals(scen, pose, [0, 1], ks)


class TestFarfieldModel:
    def test_matches_per_pair_formula(self):
        # Unlike a correlation with the oracle, this catches a wrong
        # e^{il gamma} or swapped mode and subcarrier axes.
        scen, pose = make_scenario(theta_deg=23.0, phi_deg=-131.0,
                                   subcarriers=GRID_HZ)
        modes = (-2, -1, 0, 1, 2)
        ks = wavenumber(GRID_HZ[[0, 35, 70]])
        got = farfield_received_signal(scen, pose, modes, ks)
        assert got.shape == (scen.rx.n_elements, len(modes), len(ks))
        np.testing.assert_allclose(got, reference_farfield(scen, pose, modes, ks),
                                   rtol=1e-12, atol=0)

    def test_matches_oracle_misaligned(self):
        scen, pose = make_scenario(theta_deg=17.9, phi_deg=-34.2)
        modes = (-1, 1)
        exact = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, e in zip(modes, exact.T):
            m = farfield_antenna_vector(scen, pose, l, K_CARRIER)
            assert correlation(e, m) > 0.99

    def test_aligned_magnitudes_uniform(self):
        scen, pose = make_scenario()
        s = farfield_antenna_vector(scen, pose, 2, K_CARRIER)
        assert np.allclose(np.abs(s), np.abs(s[0]), rtol=1e-12)

    def test_mode0_aligned_identical(self):
        scen, pose = make_scenario()
        s = farfield_antenna_vector(scen, pose, 0, K_CARRIER)
        assert np.allclose(s, s[0])

    def test_hard_range_guard(self):
        scen, pose = make_scenario(distance=0.2)
        with pytest.raises(FarfieldViolationError):
            farfield_antenna_vector(scen, pose, 1, K_CARRIER)

    def test_warn_range(self):
        scen, pose = make_scenario(distance=1.0)
        with pytest.warns(FarfieldRangeWarning):
            farfield_antenna_vector(scen, pose, 1, K_CARRIER)

    def test_rejects_bad_theta(self):
        # A receiver tilted past 90 degrees faces away from the transmitter.
        scen, _pose = make_scenario()
        pose = RxPose.from_tilt(100.0, 0.6 * np.pi, 0.0)
        assert misalignment_angles(pose)[0] > np.pi / 2
        with pytest.raises(ValueError, match="theta must be in"):
            farfield_received_signal(scen, pose, (1,), [K_CARRIER])


class TestSimulateMeasurement:
    def test_noiseless_equals_model(self):
        scen, pose = make_scenario(theta_deg=20.0, phi_deg=-100.0)
        tensor = simulate_measurement(scen, pose, [-1, 1], [F_CARRIER])
        direct = farfield_antenna_vector(scen, pose, 1, K_CARRIER)
        assert np.allclose(tensor.values[:, 1, 0], direct)

    def test_same_seed_identical(self):
        scen, pose = make_scenario(theta_deg=20.0, phi_deg=-100.0)
        spec = NoiseSpec(snr_db=10.0, seed=77)
        a = simulate_measurement(scen, pose, [-1, 1], [F_CARRIER], spec)
        b = simulate_measurement(scen, pose, [-1, 1], [F_CARRIER], spec)
        assert np.array_equal(a.values, b.values)

    def test_noise_variance_matches_target(self):
        subs = 119.5e9 + 1e7 * np.arange(71)
        scen, pose = make_scenario(theta_deg=20.0, phi_deg=-100.0, subcarriers=subs)
        modes = [-2, -1, 0, 1, 2]
        clean = simulate_measurement(scen, pose, modes, subs)
        noisy = simulate_measurement(scen, pose, modes, subs,
                                     NoiseSpec(snr_db=20.0, seed=5))
        sigma2 = np.mean(np.abs(clean.values) ** 2) * 10 ** (-2.0)
        err = noisy.values - clean.values
        assert err.size >= 7000
        measured = np.mean(np.abs(err) ** 2)
        assert abs(measured - sigma2) / sigma2 < 0.05

    def test_exact_model_option(self):
        scen, pose = make_scenario(theta_deg=5.0, phi_deg=-150.0)
        tensor = simulate_measurement(scen, pose, [1], [F_CARRIER], model="exact")
        direct = exact_received_signals(scen, pose, [1], [K_CARRIER])
        assert np.allclose(tensor.values, direct)

    def test_exact_model_matches_per_pair_formula_bitwise(self):
        scen, pose = make_scenario(theta_deg=23.0, phi_deg=-131.0, distance=0.4,
                                   subcarriers=GRID_HZ)
        subs = GRID_HZ[::9]
        assert len(subs) == 8
        tensor = simulate_measurement(scen, pose, [-1, 1], subs, model="exact")
        assert_matches_per_tone_formula(tensor.values, scen, pose, [-1, 1],
                                        wavenumber(subs))

    @pytest.mark.parametrize("model", ["exact", "farfield"])
    def test_rejects_empty_tone_list(self, model):
        scen, pose = make_scenario()
        with pytest.raises(ValueError, match="no subcarrier given"):
            simulate_measurement(scen, pose, [-1, 1], [], model=model)

    def test_rejects_duplicate_modes(self):
        scen, pose = make_scenario()
        with pytest.raises(ValueError):
            simulate_measurement(scen, pose, [1, 1], [F_CARRIER])

    def test_rejects_off_grid_subcarrier(self):
        # The message names the first off-grid entry.
        scen, pose = make_scenario()
        for subs in ([119.9e9], [F_CARRIER, 119.9e9, 119.8e9],
                     [119.9e9, F_CARRIER, 119.8e9]):
            message = re.escape("subcarrier 119900000000.0 Hz is not on the scenario grid")
            with pytest.raises(ValueError, match=message):
                simulate_measurement(scen, pose, [1], subs)

    def test_rejects_unknown_model(self):
        scen, pose = make_scenario()
        message = r"^unknown model 'hybrid'$"
        with pytest.raises(ValueError, match=message):
            simulate_measurement(scen, pose, [1], [F_CARRIER], model="hybrid")
        with pytest.raises(ValueError, match=message):
            trial_signals(scen, [pose], [pose_angles(pose)], [1], [[K_CARRIER]], "hybrid")
        no_mask = phase_mask([[0.0]], [[0.0]], K_CARRIER, scen.rx)
        with pytest.raises(ValueError, match=message):
            imi_matrices(scen, [pose], [pose_angles(pose)], [1], no_mask, "hybrid",
                         K_CARRIER)


class TestSimulateTrials:
    @pytest.mark.parametrize("model", ["farfield", "exact"])
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    def test_batch_matches_one_trial_calls_bitwise(self, model, p, snr_db):
        # One batch of mixed poses, two of them taken twice, each trial on its
        # own tones and noise seed: every trial of the one batch tensor is, bit
        # for bit, what one simulate_measurement call gives for that trial alone.
        scen, _pose = make_scenario(distance=0.4, subcarriers=GRID_HZ)
        rng = np.random.default_rng(3)
        poses = [RxPose.from_tilt(0.4, *rng.uniform(-0.6, 0.6, 2)) for _ in range(5)]
        poses += poses[:2]
        tones = [np.sort(rng.choice(GRID_HZ, p, replace=False)) for _ in poses]
        noises = [NoiseSpec(snr_db, seed) for seed in range(len(poses))]
        modes = (-1, 0, 1)
        angles = [pose_angles(pose) for pose in poses]
        batch = simulate_trials(scen, poses, angles, modes, tones, noises, model)
        assert batch.values.shape == (len(poses), 20, len(modes), p)
        assert np.array_equal(batch.subcarriers_hz, tones)
        assert batch.modes == modes and np.array_equal(batch.antennas, np.arange(20))
        for values, pose, sub, noise in zip(batch.values, poses, tones, noises):
            one = simulate_measurement(scen, pose, modes, sub, noise, model)
            assert values.tobytes() == one.values.tobytes()

    @pytest.mark.parametrize("model", ["farfield", "exact"])
    def test_trial_signals_match_one_pose_calls_bitwise(self, model):
        # The batched far-field kernel, and the oracle's call per trial, give
        # each pose what the model's one-pose call gives it alone, at every tone.
        scen, _pose = make_scenario(distance=0.4, subcarriers=GRID_HZ)
        rng = np.random.default_rng(4)
        poses = [RxPose.from_tilt(0.4, *rng.uniform(-0.6, 0.6, 2)) for _ in range(6)]
        ks = wavenumber(np.stack([rng.choice(GRID_HZ, 3, replace=False) for _ in poses]))
        got = trial_signals(scen, poses, [pose_angles(pose) for pose in poses], (-2, 1),
                            ks, model)
        assert got.shape == (6, 20, 2, 3)
        one_pose = {"exact": exact_received_signals,
                    "farfield": farfield_received_signal}[model]
        for fields, pose, k in zip(got, poses, ks):
            assert fields.tobytes() == one_pose(scen, pose, (-2, 1), k).tobytes()

    def test_rejects_off_grid_tone_of_any_trial(self):
        scen, pose = make_scenario(subcarriers=GRID_HZ)
        tones = [GRID_HZ[:2], [GRID_HZ[0], 119.905e9]]
        with pytest.raises(ValueError, match=re.escape("subcarrier 119905000000.0 Hz")):
            simulate_trials(scen, [pose] * 2, [pose_angles(pose)] * 2, (-1, 1), tones,
                            [NoiseSpec()] * 2)


class TestSampleTensor:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampleTensor(np.zeros((2, 2, 2)), np.arange(2), (1,), np.array([1e9]))

    def test_batch_shape_validation(self):
        # A batch's values and subcarriers share their leading trial axis; one
        # antenna and mode list serves every trial.
        batch = SampleTensor(np.zeros((3, 2, 1, 4)), np.arange(2), (1,), np.ones((3, 4)))
        assert batch.values.shape == (3, 2, 1, 4)
        for values, subs in [((3, 2, 1, 4), (2, 4)), ((2, 2, 1, 4), (3, 4)),
                             ((3, 2, 1, 4), (4,)), ((2, 1, 4), (3, 4))]:
            with pytest.raises(ValueError, match="does not match index sets"):
                SampleTensor(np.zeros(values), np.arange(2), (1,), np.ones(subs))

    def test_finite_validation(self):
        bad = np.full((1, 1, 1), np.nan + 0j)
        with pytest.raises(ValueError):
            SampleTensor(bad, np.arange(1), (0,), np.array([1e9]))

    def test_duplicate_modes(self):
        with pytest.raises(ValueError):
            SampleTensor(np.zeros((1, 2, 1), dtype=complex), np.arange(1),
                         (1, 1), np.array([1e9]))

    def test_lookup(self):
        tensor = SampleTensor(np.zeros((1, 2, 1), dtype=complex), np.arange(1),
                              (-1, 1), np.array([1e9]))
        assert tensor.mode_index(1) == 1
        with pytest.raises(KeyError):
            tensor.mode_index(3)

    @pytest.mark.parametrize("freqs, first", [
        ([2e9], 2e9),
        ([1e9, 2e9, 3e9], 2e9),
        ([4e9, 3e9, 2e9], 3e9),
        ([1e9 * (1 + 1e-11), 2e9], 1e9 * (1 + 1e-11)),
    ])
    def test_subcarrier_indices_name_first_missing(self, freqs, first):
        # A tensor's subcarrier axis is the requested tones, each of which must
        # sit on the scenario grid; the error names the first one that does
        # not, and a tone within 1e-11 relative of a grid entry is still off it.
        # The lookup reads only the grid. A Scenario rejects a 1-4 GHz grid under
        # its 120 GHz carrier, so the grid is set on a legal one.
        scen, pose = make_scenario()
        object.__setattr__(scen, "subcarriers_hz", np.array([1e9, 4e9]))
        message = re.escape(f"subcarrier {first} Hz is not on the scenario grid")
        with pytest.raises(ValueError, match=message):
            simulate_measurement(scen, pose, [1], freqs)


class TestChannelInvariants:
    def test_oracle_model_agreement_mode_sweep(self):
        scen, pose = make_scenario(theta_deg=17.9, phi_deg=-34.2)
        modes = range(-3, 4)
        exact = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, e in zip(modes, exact.T):
            m = farfield_antenna_vector(scen, pose, l, K_CARRIER)
            assert correlation(e, m) > 0.99, l

    def test_aligned_mode_orthogonality(self):
        scen, pose = make_scenario()
        az = scen.rx.element_azimuths
        modes = range(-3, 4)
        fields = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, s in zip(modes, fields.T):
            co = abs(np.mean(s * np.exp(1j * l * az))) ** 2
            for lp in range(-3, 4):
                if lp == l:
                    continue
                cross = abs(np.mean(s * np.exp(1j * lp * az))) ** 2
                assert cross < co * 1e-3  # >= 30 dB below

    def test_cross_modal_phase_frequency_invariance(self):
        subs = 119.5e9 + 1e7 * np.arange(71)
        scen, pose = make_scenario(theta_deg=25.0, phi_deg=-140.0, subcarriers=subs)
        tensor = simulate_measurement(scen, pose, [-1, 1], subs)
        prod = (tensor.values[:, 1, :] * np.conj(tensor.values[:, 0, :])) ** 2
        phases = np.angle(prod)
        spread = np.angle(np.exp(1j * (phases - phases[:, :1])))
        assert np.max(np.abs(spread)) < 1e-9
