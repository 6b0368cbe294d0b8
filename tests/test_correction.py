import math

import numpy as np
import pytest

from vortex_align.channel import (
    exact_received_signals,
    farfield_antenna_vector,
    farfield_received_signal,
    pose_angles,
    wavenumber,
)
from vortex_align.correction import (
    AliasedModeError,
    ImiMatrix,
    PhaseMask,
    SIR_CAP_DB,
    ZeroSignalError,
    decode_modes,
    imi_matrices,
    imi_matrix,
    phase_mask,
    sir,
    sir_capacity,
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


def pose_matrices(scen, pose, modes, masks, model):
    """``imi_matrices`` of one pose, one matrix per mask of ``masks`` (None:
    zero phases)."""
    phases = [np.zeros(scen.rx.n_elements) if m is None else m.values for m in masks]
    imi = imi_matrices(scen, [pose], [pose_angles(pose)], modes, PhaseMask([phases]),
                       model, K_CARRIER)
    return [ImiMatrix(power, modes) for power in imi.power[0]]


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
            assert decoded.shape == (11,)
            for lp, val in zip(range(-5, 6), decoded):
                expected = 1.0 if lp == l else 0.0
                assert abs(val - expected) < 1e-12

    def test_aligned_oracle_dominance(self):
        scen, pose = make_scenario(0.0, 0.0)
        modes = (-2, 0, 1)
        fields = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        for l, s in zip(modes, fields.T):
            decoded = decode_modes(s, None, range(-3, 4))
            co = abs(decoded[l + 3]) ** 2
            for lp, val in zip(range(-3, 4), decoded):
                if lp != l:
                    assert abs(val) ** 2 <= co * 1e-3  # 30 dB down

    def test_tilt_without_mask_leaks(self):
        scen, pose = make_scenario(10.0, 180.0)
        s = exact_received_signals(scen, pose, [1], [K_CARRIER])[:, 0, 0]
        decoded = decode_modes(s, None, range(-3, 4))
        co = abs(decoded[4]) ** 2
        leak = max(abs(v) ** 2 for lp, v in zip(range(-3, 4), decoded) if lp != 1)
        assert leak > co * 0.1  # leakage within 10 dB of the wanted slot

    def test_linearity(self):
        rng = np.random.default_rng(2)
        y1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        y2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        d1 = decode_modes(y1, None, (-1, 0, 1))
        d2 = decode_modes(y2, None, (-1, 0, 1))
        d12 = decode_modes(y1 + y2, None, (-1, 0, 1))
        for i in range(3):
            assert np.isclose(d12[i], d1[i] + d2[i])

    def test_block_decodes_like_each_column(self):
        # Every column of an (N, cols) block decodes as that column alone,
        # under the same mask.
        rng = np.random.default_rng(7)
        block = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        mask = phase_mask(0.3, -1.1, K_CARRIER, UcaGeometry(20, 0.008))
        modes = (-2, -1, 0, 1, 2)
        decoded = decode_modes(block, mask, modes)
        assert decoded.shape == (len(modes), 4)
        for col in range(4):
            alone = decode_modes(block[:, col], mask, modes)
            np.testing.assert_allclose(decoded[:, col], alone, rtol=1e-12)

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
        [imi] = pose_matrices(scen, pose, modes, [None], "exact")
        for j in range(len(modes)):
            diag = imi.power[j, j]
            col = [imi.power[i, j] for i in range(len(modes)) if i != j]
            assert max(col) <= diag * 1e-3

    @pytest.mark.parametrize("model", ["exact", "farfield"])
    def test_matrices_match_per_mask_calls(self, model):
        # One simulation of all modes at every pose, decoded under each pose's
        # masks, gives bitwise what one call per pose and mask gives; entry
        # (slot l, mode col) is |mean over the ring of y_col e^{i P_m} e^{i l
        # phi_m}|^2, to 1e-12 of the column's largest entry (round-off leakage
        # sits near 1e-36).  Zero phases decode as no mask does, bit for bit.
        poses = [make_scenario(20.0, -140.0)[1], make_scenario(35.0, 70.0)[1]]
        scen = make_scenario(20.0, -140.0)[0]
        angles = [pose_angles(pose) for pose in poses]
        modes = (-2, -1, 0, 1, 2)
        aims = np.array([[(0.0, 0.0), (theta, phi), (theta + 0.05, phi - 0.1)]
                         for theta, phi, _gamma in angles])
        masks = phase_mask(aims[..., 0], aims[..., 1], K_CARRIER, scen.rx)
        batch = imi_matrices(scen, poses, angles, modes, masks, model, K_CARRIER)
        assert batch.modes == modes and batch.power.shape == (2, 3, 5, 5)
        one_pose = {"exact": exact_received_signals,
                    "farfield": farfield_received_signal}[model]
        for t, pose in enumerate(poses):
            fields = one_pose(scen, pose, modes, [K_CARRIER])[:, :, 0]
            assert np.array_equal(batch.power[t, 0], imi_matrix(fields, None, modes).power)
            for m, p_m in enumerate(masks.values[t]):
                one = imi_matrices(scen, [pose], [angles[t]], modes,
                                   PhaseMask(p_m[None, None]), model, K_CARRIER)
                assert np.array_equal(batch.power[t, m], one.power[0, 0])
                n = len(fields)
                phi_m = 2 * np.pi * np.arange(n) / n
                for col in range(len(modes)):
                    y = fields[:, col] * np.exp(1j * p_m)
                    expected = [abs(np.mean(y * np.exp(1j * l * phi_m))) ** 2
                                for l in modes]
                    np.testing.assert_allclose(batch.power[t, m, :, col], expected,
                                               rtol=1e-12, atol=1e-12 * max(expected))

    def test_true_mask_restores_diagonal(self):
        scen, pose = make_scenario(10.0, 180.0, rx=(20, 0.02), distance=4.0)
        modes = (-2, -1, 0, 1, 2)
        theta, phi = misalignment_angles(pose)
        aligned_scen, aligned_pose = make_scenario(0.0, 0.0, rx=(20, 0.02),
                                                   distance=4.0)
        [aligned] = pose_matrices(aligned_scen, aligned_pose, modes, [None], "exact")
        [masked] = pose_matrices(scen, pose, modes,
                                 [phase_mask(theta, phi, K_CARRIER, scen.rx)], "exact")
        for i in range(len(modes)):
            gap = abs(10 * np.log10(masked.power[i, i])
                      - 10 * np.log10(aligned.power[i, i]))
            assert gap < 3.0

    def test_single_mode_matrix(self):
        scen, pose = make_scenario(5.0, -120.0)
        [imi] = pose_matrices(scen, pose, (1,), [None], "exact")
        s = exact_received_signals(scen, pose, [1], [K_CARRIER])[:, 0, 0]
        expected = abs(decode_modes(s, None, [1])[0]) ** 2
        assert imi.power.shape == (1, 1)
        assert np.isclose(imi.power[0, 0], expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImiMatrix(np.ones((2, 3)), (0, 1))
        with pytest.raises(ValueError):
            ImiMatrix(-np.ones((1, 1)), (0,))


class TestSir:
    def test_arithmetic_example(self):
        imi = ImiMatrix(np.array([[1.0, 0.01], [0.01, 1.0]]), (-1, 1))
        per_mode, avg = sir(imi)
        assert per_mode[-1] == pytest.approx(20.0)
        assert per_mode[1] == pytest.approx(20.0)
        assert avg == pytest.approx(20.0)

    def test_perfect_diagonal_capped(self):
        imi = ImiMatrix(np.diag([1.0, 1.0]), (-1, 1))
        per_mode, avg = sir(imi)
        assert per_mode[-1] == SIR_CAP_DB
        assert avg == SIR_CAP_DB

    def test_zero_signal(self):
        imi = ImiMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), (-1, 1))
        with pytest.raises(ZeroSignalError):
            sir(imi)

    def test_interference_axes_differ_when_asymmetric(self):
        # Interference is the row sum, what the other transmitted modes leak
        # into decode slot l; the column sum would swap the two values.
        power = np.array([[1.0, 0.5], [0.01, 1.0]])
        imi = ImiMatrix(power, (-1, 1))
        row = sir(imi)[0]
        assert row[-1] == pytest.approx(10 * np.log10(1 / 0.5))
        assert row[1] == pytest.approx(10 * np.log10(1 / 0.01))


class TestSirGain:
    def test_zero_mask_equals_no_mask(self):
        scen, pose = make_scenario(10.0, 180.0)
        modes = (-1, 1)
        fields = exact_received_signals(scen, pose, modes, [K_CARRIER])[:, :, 0]
        no_mask = imi_matrix(fields, None, modes)
        [zero_mask] = pose_matrices(
            scen, pose, modes, [phase_mask(0.0, 0.0, K_CARRIER, scen.rx)], "exact")
        assert sir(zero_mask)[1] == pytest.approx(sir(no_mask)[1], abs=1e-9)


class TestCapacity:
    def test_unit_sir(self):
        imi = ImiMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), (-1, 1))
        assert sir_capacity(sir(imi)[0]) == pytest.approx(2.0)

    def test_capped_diagonal(self):
        imi = ImiMatrix(np.diag([1.0, 1.0]), (-1, 1))
        expected = 2 * np.log2(1 + 10 ** (SIR_CAP_DB / 10))
        assert sir_capacity(sir(imi)[0]) == pytest.approx(expected)
        assert sir_capacity(sir(imi)[0]) == pytest.approx(132.877, abs=1e-3)


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
            before, after = pose_matrices(
                scen, pose, modes,
                [None, phase_mask(theta, phi, K_CARRIER, scen.rx)], "farfield")
            assert sir(after)[1] >= sir(before)[1]

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
            before, true_fix, off_fix = pose_matrices(
                scen, pose, modes, [None, true_mask, off_mask], "farfield")
            gain_true = sir(true_fix)[1] - sir(before)[1]
            gain_off = sir(off_fix)[1] - sir(before)[1]
            assert gain_true - gain_off < 3.0
