import math

import numpy as np
import pytest

from vortex_align.channel import (
    exact_received_signals,
    farfield_antenna_vector,
    received_signals,
    wavenumber,
)
from vortex_align.correction import (
    AliasedModeError,
    ImiMatrix,
    SIR_CAP_DB,
    ZeroSignalError,
    capacity,
    decode_modes,
    imi_matrices,
    phase_mask,
    sir,
    sir_gain,
)
from vortex_align.geometry import (
    RxPose,
    Scenario,
    UcaGeometry,
    misalignment_angles,
    tilt_for_angles,
)

F_CARRIER = 120e9
K_CARRIER = wavenumber(F_CARRIER)


def make_scenario(theta_deg, phi_deg, tx=(160, 0.03), rx=(20, 0.008),
                  distance=0.4):
    ry, rx_tilt = tilt_for_angles(np.deg2rad(theta_deg), np.deg2rad(phi_deg))
    pose = RxPose.from_tilt(distance, ry, rx_tilt)
    scen = Scenario(UcaGeometry(*tx), UcaGeometry(*rx), pose, F_CARRIER,
                    np.array([F_CARRIER]))
    return scen, pose


class TestPhaseMask:
    def test_zero_at_alignment(self):
        mask = phase_mask(0.0, 1.2, K_CARRIER, UcaGeometry(20, 0.008))
        assert np.allclose(mask.values, 0.0)

    def test_half_turn_negates(self):
        # Small k keeps raw phases inside (-pi, pi] so negation is exact.
        rx = UcaGeometry(16, 0.008)
        k = 100.0
        a = phase_mask(np.deg2rad(25.0), 0.7, k, rx)
        b = phase_mask(np.deg2rad(25.0), 0.7 + np.pi, k, rx)
        assert np.allclose(b.values, -a.values, atol=1e-12)

    def test_independent_scalar_evaluation(self):
        theta = np.deg2rad(14.3)
        phi = np.deg2rad(-134.7)
        rx = UcaGeometry(20, 0.008)
        mask = phase_mask(theta, phi, K_CARRIER, rx)
        assert mask.values.shape == (20,)
        for m in range(20):
            phi_m = 2 * math.pi * m / 20
            x = 0.008 * math.cos(phi_m)
            y = 0.008 * math.sin(phi_m)
            raw = -K_CARRIER * math.sin(theta) * (
                x * math.cos(phi) + y * math.sin(phi)
            )
            wrapped = math.atan2(math.sin(raw), math.cos(raw))
            assert math.isclose(mask.values[m], wrapped, abs_tol=1e-12)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            phase_mask(np.pi / 2, 0.0, K_CARRIER, UcaGeometry(20, 0.008))


class TestDecodeModes:
    def test_ideal_facing_profile(self):
        # A transmitted mode l reaches a facing ring as exp(-i l phi_m);
        # decode slot l captures it exactly, all other slots are zero.
        n = 16
        phi_m = 2 * np.pi * np.arange(n) / n
        for l in (-3, 0, 2):
            samples = np.exp(-1j * l * phi_m)
            decoded = decode_modes(samples, None, range(-5, 6))
            for lp, val in decoded.items():
                expected = 1.0 if lp == l else 0.0
                assert abs(val - expected) < 1e-12

    def test_aligned_oracle_dominance(self):
        scen, pose = make_scenario(0.0, 0.0)
        modes = (-2, 0, 1)
        fields = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, s in zip(modes, fields.T):
            decoded = decode_modes(s, None, range(-3, 4))
            co = abs(decoded[l]) ** 2
            for lp, val in decoded.items():
                if lp != l:
                    assert abs(val) ** 2 <= co * 1e-3  # 30 dB down

    def test_tilt_without_mask_leaks(self):
        scen, pose = make_scenario(10.0, 180.0)
        s = exact_received_signals(scen, pose, [1], [K_CARRIER])[:, 0, 0]
        decoded = decode_modes(s, None, range(-3, 4))
        co = abs(decoded[1]) ** 2
        leak = max(abs(v) ** 2 for lp, v in decoded.items() if lp != 1)
        assert leak > co * 0.1  # leakage within 10 dB of the wanted slot

    def test_linearity(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        y2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        d1 = decode_modes(y1, None, (-1, 0, 1))
        d2 = decode_modes(y2, None, (-1, 0, 1))
        d12 = decode_modes(y1 + y2, None, (-1, 0, 1))
        for l in (-1, 0, 1):
            assert np.isclose(d12[l], d1[l] + d2[l])

    def test_alias_limit(self):
        with pytest.raises(AliasedModeError):
            decode_modes(np.ones(8, dtype=complex), None, [4])

    def test_mask_length_check(self):
        mask = phase_mask(0.1, 0.0, K_CARRIER, UcaGeometry(10, 0.008))
        with pytest.raises(ValueError):
            decode_modes(np.ones(20, dtype=complex), mask, [1])


class TestImiMatrix:
    def test_aligned_diagonal_dominance(self):
        scen, pose = make_scenario(0.0, 0.0)
        modes = (-2, -1, 0, 1, 2)
        [imi] = imi_matrices(scen, pose, modes, modes, [None], "exact", K_CARRIER)
        for l in modes:
            diag = imi.entry(l, l)
            col = [imi.entry(lp, l) for lp in modes if lp != l]
            assert max(col) <= diag * 1e-3

    @pytest.mark.parametrize("model", ["exact", "farfield"])
    def test_matrices_match_per_mask_calls(self, model):
        # One simulation per transmitted mode, decoded under every mask,
        # gives bitwise what one call per mask gives.
        scen, pose = make_scenario(20.0, -140.0)
        theta, phi = misalignment_angles(pose)
        tx_modes = (-2, -1, 1)
        dec_modes = (-1, 0, 1, 2)
        masks = [
            None,
            phase_mask(theta, phi, K_CARRIER, scen.rx),
            phase_mask(theta + 0.05, phi - 0.1, K_CARRIER, scen.rx),
        ]
        fields = received_signals(scen, pose, tx_modes, [K_CARRIER], model)[:, :, 0]
        batch = imi_matrices(scen, pose, tx_modes, dec_modes, masks, model, K_CARRIER)
        assert len(batch) == len(masks)
        for imi, mask in zip(batch, masks):
            [one] = imi_matrices(scen, pose, tx_modes, dec_modes, [mask], model,
                                 K_CARRIER)
            assert imi.decoded_modes == one.decoded_modes == dec_modes
            assert imi.transmitted_modes == one.transmitted_modes == tx_modes
            assert np.array_equal(imi.power, one.power)
            for col, l_tx in enumerate(tx_modes):
                dec = decode_modes(fields[:, col], mask, dec_modes)
                expected = [abs(dec[l]) ** 2 for l in dec_modes]
                assert np.array_equal(imi.power[:, col], expected)

    def test_true_mask_restores_diagonal(self):
        scen, pose = make_scenario(10.0, 180.0, rx=(20, 0.02), distance=4.0)
        modes = (-2, -1, 0, 1, 2)
        theta, phi = misalignment_angles(pose)
        aligned_scen, aligned_pose = make_scenario(0.0, 0.0, rx=(20, 0.02),
                                                   distance=4.0)
        [aligned] = imi_matrices(aligned_scen, aligned_pose, modes, modes, [None],
                                 "exact", K_CARRIER)
        [masked] = imi_matrices(scen, pose, modes, modes,
                                [phase_mask(theta, phi, K_CARRIER, scen.rx)],
                                "exact", K_CARRIER)
        for l in modes:
            gap = abs(10 * np.log10(masked.entry(l, l))
                      - 10 * np.log10(aligned.entry(l, l)))
            assert gap < 3.0

    def test_single_mode_matrix(self):
        scen, pose = make_scenario(5.0, -120.0)
        [imi] = imi_matrices(scen, pose, (1,), (1,), [None], "exact", K_CARRIER)
        s = exact_received_signals(scen, pose, [1], [K_CARRIER])[:, 0, 0]
        expected = abs(decode_modes(s, None, [1])[1]) ** 2
        assert imi.power.shape == (1, 1)
        assert np.isclose(imi.power[0, 0], expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImiMatrix(np.ones((2, 3)), (0, 1), (0, 1))
        with pytest.raises(ValueError):
            ImiMatrix(-np.ones((1, 1)), (0,), (0,))


class TestSir:
    def test_arithmetic_example(self):
        imi = ImiMatrix(np.array([[1.0, 0.01], [0.01, 1.0]]), (-1, 1), (-1, 1))
        per_mode, avg = sir(imi)
        assert per_mode[-1] == pytest.approx(20.0)
        assert per_mode[1] == pytest.approx(20.0)
        assert avg == pytest.approx(20.0)

    def test_perfect_diagonal_capped(self):
        imi = ImiMatrix(np.diag([1.0, 1.0]), (-1, 1), (-1, 1))
        per_mode, avg = sir(imi)
        assert per_mode[-1] == SIR_CAP_DB
        assert avg == SIR_CAP_DB

    def test_zero_signal(self):
        imi = ImiMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), (-1, 1), (-1, 1))
        with pytest.raises(ZeroSignalError):
            sir(imi)

    def test_requires_square(self):
        imi = ImiMatrix(np.ones((2, 1)), (-1, 1), (1,))
        with pytest.raises(ValueError):
            sir(imi)

    def test_interference_axes_differ_when_asymmetric(self):
        power = np.array([[1.0, 0.5], [0.01, 1.0]])
        imi = ImiMatrix(power, (-1, 1), (-1, 1))
        row = sir(imi, interference_axis="transmitted")[0]
        col = sir(imi, interference_axis="decoded")[0]
        assert row[-1] == pytest.approx(10 * np.log10(1 / 0.5))
        assert col[-1] == pytest.approx(10 * np.log10(1 / 0.01))


class TestSirGain:
    def test_identity(self):
        imi = ImiMatrix(np.array([[1.0, 0.1], [0.1, 1.0]]), (-1, 1), (-1, 1))
        assert sir_gain(imi, imi) == 0.0

    def test_zero_mask_equals_no_mask(self):
        scen, pose = make_scenario(10.0, 180.0)
        modes = (-1, 1)
        no_mask, zero_mask = imi_matrices(
            scen, pose, modes, modes,
            [None, phase_mask(0.0, 0.0, K_CARRIER, scen.rx)], "exact", K_CARRIER)
        assert sir_gain(no_mask, zero_mask) == pytest.approx(0.0, abs=1e-9)

    def test_mode_list_mismatch(self):
        a = ImiMatrix(np.ones((2, 2)), (-1, 1), (-1, 1))
        b = ImiMatrix(np.ones((2, 2)), (-2, 2), (-2, 2))
        with pytest.raises(ValueError):
            sir_gain(a, b)


class TestCapacity:
    def test_unit_sir(self):
        imi = ImiMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), (-1, 1), (-1, 1))
        assert capacity(imi) == pytest.approx(2.0)

    def test_capped_diagonal(self):
        imi = ImiMatrix(np.diag([1.0, 1.0]), (-1, 1), (-1, 1))
        expected = 2 * np.log2(1 + 10 ** (SIR_CAP_DB / 10))
        assert capacity(imi) == pytest.approx(expected)
        assert capacity(imi) == pytest.approx(132.877, abs=1e-3)


class TestCorrectionInvariants:
    def test_mask_flattens_phase_front(self):
        # With the true-angle mask, the remaining per-element deviation from
        # the ideal helical profile is the mode-phase ripple; it stays below
        # 2 deg per element for |l| = 1 up to 20 deg tilt, and below 4.2 deg
        # at 30 deg tilt.
        for theta_deg, bound_deg in ((10.0, 2.0), (20.0, 2.0), (30.0, 4.2)):
            scen, pose = make_scenario(theta_deg, -130.0)
            theta, phi = misalignment_angles(pose)
            mask = phase_mask(theta, phi, K_CARRIER, scen.rx)
            for l in (-1, 1):
                s = farfield_antenna_vector(scen, pose, l, K_CARRIER)
                corrected = s * np.exp(1j * mask.values)
                # Remove the helical term and the common offset.
                flat = corrected * np.exp(1j * l * scen.rx.element_azimuths)
                flat = flat * np.exp(-1j * np.angle(np.sum(flat)))
                assert np.max(np.abs(np.angle(flat))) < np.deg2rad(bound_deg)

    def test_gain_monotone_with_true_mask(self):
        modes = (-1, 1)
        for theta_deg in (5.0, 15.0, 25.0, 35.0, 45.0):
            scen, pose = make_scenario(theta_deg, -140.0)
            theta, phi = misalignment_angles(pose)
            before, after = imi_matrices(
                scen, pose, modes, modes,
                [None, phase_mask(theta, phi, K_CARRIER, scen.rx)], "farfield",
                K_CARRIER)
            assert sir(after)[1] >= sir(before)[1]

    def test_gain_scaling_leaves_sir_ratios(self):
        scen, pose = make_scenario(20.0, -140.0)
        scen2 = Scenario(scen.tx, scen.rx, pose, scen.carrier_hz,
                         scen.subcarriers_hz, gain=0.2 + 5.0j)
        modes = (-1, 1)
        [a] = imi_matrices(scen, pose, modes, modes, [None], "exact", K_CARRIER)
        [b] = imi_matrices(scen2, pose, modes, modes, [None], "exact", K_CARRIER)
        sir_a, avg_a = sir(a)
        sir_b, avg_b = sir(b)
        for l in modes:
            assert np.isclose(sir_a[l], sir_b[l], atol=1e-9)
        assert np.isclose(avg_a, avg_b, atol=1e-9)

    def test_estimation_error_costs_under_3db(self):
        # Gains with angle errors at the reference accuracy stay within
        # 3 dB of the true-angle gains (well-conditioned elevations).
        modes = (-1, 1)
        for theta_deg in (45.0, 60.0):
            scen, pose = make_scenario(theta_deg, -125.0)
            theta, phi = misalignment_angles(pose)
            true_mask = phase_mask(theta, phi, K_CARRIER, scen.rx)
            off_mask = phase_mask(theta + np.deg2rad(2.4),
                                  phi + np.deg2rad(0.65), K_CARRIER, scen.rx)
            before, true_fix, off_fix = imi_matrices(
                scen, pose, modes, modes, [None, true_mask, off_mask], "farfield",
                K_CARRIER)
            gain_true = sir_gain(before, true_fix)
            gain_off = sir_gain(before, off_fix)
            assert gain_true - gain_off < 3.0
