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
    bessel_j,
    delta,
    exact_received_signals,
    farfield_antenna_vector,
    farfield_received_signal,
    received_signals,
    rho,
    simulate_measurement,
    wavenumber,
)
from vortex_align.correction import imi_matrices
from vortex_align.geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    tilt_for_angles,
)

F_CARRIER = 120e9
K_CARRIER = wavenumber(F_CARRIER)


def make_scenario(tx_n=160, tx_r=0.03, rx_n=20, rx_r=0.008, distance=100.0,
                  theta_deg=0.0, phi_deg=0.0, subcarriers=None, gain=1.0 + 0.0j):
    ry, rx_tilt = tilt_for_angles(np.deg2rad(theta_deg), np.deg2rad(phi_deg))
    pose = RxPose.from_tilt(distance, ry, rx_tilt)
    subs = np.array([F_CARRIER]) if subcarriers is None else np.asarray(subcarriers)
    scen = Scenario(UcaGeometry(tx_n, tx_r), UcaGeometry(rx_n, rx_r), pose,
                    F_CARRIER, subs, gain=gain)
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
                (scen.gain / k) * (np.exp(-1j * k * dist) / dist) @ tx_phase
            )
    return out


def correlation(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


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

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            bessel_j(1.5, 2.0)

    def test_array_argument(self):
        x = np.array([0.1, 1.0, 3.0])
        assert bessel_j(1, x).shape == (3,)


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
        assert np.array_equal(got, reference_exact(scen, pose, modes, ks))

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

    def test_scalar_signature(self):
        scen, pose = make_scenario(theta_deg=10.0, phi_deg=-120.0)
        vec = farfield_antenna_vector(scen, pose, 1, K_CARRIER)
        one = farfield_received_signal(
            3, 1, K_CARRIER, np.deg2rad(10.0), np.deg2rad(-120.0),
            _gamma_of(pose), 100.0, scen.tx, scen.rx)
        assert np.isclose(one, vec[3])

    def test_hard_range_guard(self):
        scen, pose = make_scenario(distance=0.2)
        with pytest.raises(FarfieldViolationError):
            farfield_antenna_vector(scen, pose, 1, K_CARRIER)

    def test_warn_range(self):
        scen, pose = make_scenario(distance=1.0)
        with pytest.warns(FarfieldRangeWarning):
            farfield_antenna_vector(scen, pose, 1, K_CARRIER)

    def test_rejects_bad_theta(self):
        scen, _pose = make_scenario()
        with pytest.raises(ValueError):
            farfield_received_signal(0, 1, K_CARRIER, np.pi / 2, 0.0, 0.0,
                                     100.0, scen.tx, scen.rx)


def _gamma_of(pose):
    from vortex_align.geometry import gamma

    return gamma(pose)


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
        expected = reference_exact(scen, pose, [-1, 1], wavenumber(subs))
        assert np.array_equal(tensor.values, expected)

    def test_rejects_duplicate_modes(self):
        scen, pose = make_scenario()
        with pytest.raises(ValueError):
            simulate_measurement(scen, pose, [1, 1], [F_CARRIER])

    def test_rejects_off_grid_subcarrier(self):
        scen, pose = make_scenario()
        # The message names the first off-grid entry.
        first = r"subcarrier 119900000000\.0 Hz is not on"
        for subs in ([119.9e9], [F_CARRIER, 119.9e9, 119.8e9],
                     [119.9e9, F_CARRIER, 119.8e9]):
            with pytest.raises(ValueError, match=first):
                simulate_measurement(scen, pose, [1], subs)

    def test_rejects_unknown_model(self):
        scen, pose = make_scenario()
        message = r"^unknown model 'hybrid'$"
        with pytest.raises(ValueError, match=message):
            simulate_measurement(scen, pose, [1], [F_CARRIER], model="hybrid")
        with pytest.raises(ValueError, match=message):
            received_signals(scen, pose, [1], [K_CARRIER], "hybrid")
        with pytest.raises(ValueError, match=message):
            imi_matrices(scen, pose, [1], [1], [None], "hybrid", K_CARRIER)


class TestSampleTensor:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampleTensor(np.zeros((2, 2, 2)), np.arange(2), (1,), np.array([1e9]))

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
        with pytest.raises(KeyError):
            tensor.subcarrier_indices([2e9])

    def test_subcarrier_indices_take_first_match(self):
        tensor = SampleTensor(np.zeros((1, 1, 4), dtype=complex), np.arange(1),
                              (1,), np.array([3e9, 1e9, 2e9, 1e9]))
        got = tensor.subcarrier_indices([1e9 * (1 + 1e-13), 2e9, 3e9, 1e9])
        assert got.tolist() == [1, 2, 0, 1]
        assert tensor.subcarrier_indices(1e9).tolist() == [1]

    @pytest.mark.parametrize("freqs, first", [
        ([2e9], 2e9),
        ([1e9, 2e9, 3e9], 2e9),
        ([4e9, 3e9, 2e9], 3e9),
        ([1e9 * (1 + 1e-11), 2e9], 1e9 * (1 + 1e-11)),
    ])
    def test_subcarrier_indices_name_first_missing(self, freqs, first):
        tensor = SampleTensor(np.zeros((1, 1, 2), dtype=complex), np.arange(1),
                              (1,), np.array([1e9, 4e9]))
        message = re.escape(f"subcarrier {first} Hz not present")
        with pytest.raises(KeyError, match=message):
            tensor.subcarrier_indices(freqs)


class TestNoiseSpec:
    def test_rejects_both(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma2=1.0, snr_db=10.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma2=-1.0)


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

    def test_gain_scaling_leaves_cross_modal_phase(self):
        scen, pose = make_scenario(theta_deg=25.0, phi_deg=-140.0)
        scen2 = Scenario(scen.tx, scen.rx, pose, scen.carrier_hz,
                         scen.subcarriers_hz, gain=3.7 - 1.2j)
        a = simulate_measurement(scen, pose, [-1, 1], [F_CARRIER])
        b = simulate_measurement(scen2, pose, [-1, 1], [F_CARRIER])
        pa = np.angle((a.values[:, 1, 0] * np.conj(a.values[:, 0, 0])) ** 2)
        pb = np.angle((b.values[:, 1, 0] * np.conj(b.values[:, 0, 0])) ** 2)
        assert np.allclose(np.angle(np.exp(1j * (pa - pb))), 0.0, atol=1e-9)
