import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from vortex_align.geometry import (
    ALIGNED_ROTATION,
    RxPose,
    Scenario,
    UcaGeometry,
    element_positions_rx,
    element_positions_tx,
    gamma,
    misalignment_angles,
    rotation_yx,
    tilt_for_angles,
)


def oracle_rotation_yx(angle_y, angle_x):
    """Independent rotation composition via scipy (extrinsic Y then X)."""
    return (Rotation.from_euler("x", angle_x) * Rotation.from_euler("y", angle_y)).as_matrix()


def oracle_pose_matrix(angle_y, angle_x):
    return oracle_rotation_yx(angle_y, angle_x) @ Rotation.from_euler("y", np.pi).as_matrix()


class TestUcaGeometry:
    def test_element_azimuths_uniform(self):
        uca = UcaGeometry(4, 1.0)
        assert np.allclose(uca.element_azimuths, [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            UcaGeometry(0, 1.0)
        with pytest.raises(ValueError):
            UcaGeometry(4, 0.0)
        with pytest.raises(ValueError):
            UcaGeometry(4, -1.0)


class TestElementPositions:
    def test_tx_square(self):
        pos = element_positions_tx(UcaGeometry(4, 1.0))
        expected = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        assert np.allclose(pos, expected, atol=1e-15)

    def test_tx_single_element(self):
        pos = element_positions_tx(UcaGeometry(1, 0.5))
        assert np.allclose(pos, [[0.5, 0.0, 0.0]])

    def test_tx_large_ring_norms_and_spacing(self):
        pos = element_positions_tx(UcaGeometry(160, 0.03))
        assert np.allclose(np.linalg.norm(pos, axis=1), 0.03)
        ang = np.arctan2(pos[:, 1], pos[:, 0])
        gaps = np.diff(np.unwrap(ang))
        assert np.allclose(np.rad2deg(gaps), 2.25)

    def test_rx_identity_rotation(self):
        pose = RxPose(1.0, np.eye(3))
        pos = element_positions_rx(UcaGeometry(2, 0.1), pose)
        assert np.allclose(pos, [[0.1, 0, 1.0], [-0.1, 0, 1.0]])

    def test_rx_identity_coplanar(self):
        pose = RxPose(2.5, np.eye(3))
        pos = element_positions_rx(UcaGeometry(9, 0.3), pose)
        assert np.allclose(pos[:, 2], 2.5)

    def test_rx_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rot = Rotation.random(random_state=rng).as_matrix()
            pose = RxPose(3.0, rot)
            pos = element_positions_rx(UcaGeometry(7, 0.25), pose)
            center = np.array([0.0, 0.0, 3.0])
            assert np.allclose(np.linalg.norm(pos - center, axis=1), 0.25)


class TestRotations:
    def test_identity(self):
        assert np.allclose(rotation_yx(0.0, 0.0), np.eye(3))

    def test_maps_z_to_x(self):
        R = rotation_yx(np.pi / 2, 0.0)
        assert np.allclose(R @ [0, 0, 1], [1, 0, 0], atol=1e-15)
        assert np.allclose(R, oracle_rotation_yx(np.pi / 2, 0.0))

    def test_proper_rotation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            R = rotation_yx(a, b)
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert np.isclose(np.linalg.det(R), 1.0)
            assert np.allclose(R, oracle_rotation_yx(a, b), atol=1e-12)


class TestMisalignmentAngles:
    def test_identity_rotation_faces_away(self):
        theta, phi = misalignment_angles(RxPose(1.0, np.eye(3)))
        assert np.isclose(theta, np.pi)
        assert phi == 0.0

    def test_aligned_tilt_is_zero(self):
        pose = RxPose.from_tilt(1.0, 0.0, 0.0)
        theta, phi = misalignment_angles(pose)
        assert np.isclose(theta, 0.0, atol=1e-12)
        assert phi == 0.0

    def test_pure_y_tilt_convention(self):
        # Convention regression: +10 deg about Y puts the transmitter at
        # elevation 10 deg, azimuth 180 deg in the receiver frame.
        pose = RxPose.from_tilt(1.0, np.deg2rad(10.0), 0.0)
        theta, phi = misalignment_angles(pose)
        assert np.isclose(np.rad2deg(theta), 10.0, atol=1e-12)
        assert np.isclose(np.rad2deg(phi), 180.0, atol=1e-9)

    def test_generic_tilt_against_oracle(self):
        ay, ax = np.deg2rad(12.0), np.deg2rad(14.0)
        pose = RxPose.from_tilt(1.0, ay, ax)
        d = oracle_pose_matrix(ay, ax).T @ np.array([0.0, 0.0, -1.0])
        theta, phi = misalignment_angles(pose)
        assert np.isclose(theta, np.arccos(d[2]), atol=1e-12)
        assert np.isclose(phi, np.arctan2(d[1], d[0]), atol=1e-12)
        # Round trip through the spherical expansion.
        rebuilt = np.array(
            [np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)]
        )
        assert np.allclose(rebuilt, d, atol=1e-12)

    def test_round_trip_random_rotations(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            rot = Rotation.random(random_state=rng).as_matrix()
            pose = RxPose(2.0, rot)
            theta, phi = misalignment_angles(pose)
            if theta >= np.pi / 2:
                continue
            d = rot.T @ np.array([0.0, 0.0, -1.0])
            rebuilt = np.array(
                [np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)]
            )
            assert np.allclose(rebuilt, d, atol=1e-12)
            checked += 1

    def test_independent_of_distance(self):
        rot = oracle_pose_matrix(0.3, -0.2)
        a = misalignment_angles(RxPose(0.5, rot))
        b = misalignment_angles(RxPose(500.0, rot))
        assert a == b

    def test_continuity_away_from_degeneracy(self):
        eps = 1e-7
        base = RxPose.from_tilt(1.0, 0.3, -0.2)
        bumped = RxPose.from_tilt(1.0, 0.3 + eps, -0.2 + eps)
        t0, p0 = misalignment_angles(base)
        t1, p1 = misalignment_angles(bumped)
        assert abs(t1 - t0) < 10 * eps
        assert abs(np.angle(np.exp(1j * (p1 - p0)))) < 10 * eps
        assert abs(gamma(bumped) - gamma(base)) < 10 * eps


class TestGamma:
    def test_degenerate_aligned(self):
        assert gamma(RxPose.from_tilt(1.0, 0.0, 0.0)) == 0.0

    def test_pure_y_tilt(self):
        # w = z' x z evaluated directly from the pose matrix.
        pose = RxPose.from_tilt(1.0, np.deg2rad(10.0), 0.0)
        w = np.cross(pose.rotation[:, 2], [0.0, 0.0, 1.0])
        assert np.allclose(w / np.linalg.norm(w), [0, 1, 0], atol=1e-12)
        assert np.isclose(gamma(pose), np.pi / 2)

    def test_matches_cross_product(self):
        # atan2(w2, w1) of w = z' x z, bit for bit, on random and tilt poses.
        rng = np.random.default_rng(5)
        rotations = [*Rotation.random(200, random_state=rng).as_matrix(),
                     *(rotation_yx(ry, rx) @ ALIGNED_ROTATION
                       for ry, rx in rng.uniform(-1.2, 1.2, (200, 2))),
                     ALIGNED_ROTATION, rotation_yx(0.3, 0.0) @ ALIGNED_ROTATION,
                     rotation_yx(0.0, -0.4) @ ALIGNED_ROTATION]
        for rot in rotations:
            w = np.cross(rot[:, 2], [0.0, 0.0, 1.0])
            want = 0.0 if np.linalg.norm(w) < 1e-12 else float(np.arctan2(w[1], w[0]))
            assert gamma(RxPose(1.0, rot)) == want

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pose = RxPose(1.0, Rotation.random(random_state=rng).as_matrix())
            g = gamma(pose)
            assert -np.pi < g <= np.pi


class TestTiltForAngles:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            theta = rng.uniform(0.0, np.deg2rad(85.0))
            phi = rng.uniform(-np.pi, np.pi)
            ry, rx = tilt_for_angles(theta, phi)
            pose = RxPose.from_tilt(1.0, ry, rx)
            theta_hat, phi_hat = misalignment_angles(pose)
            assert np.isclose(theta_hat, theta, atol=1e-10)
            if theta > 1e-6:
                assert np.isclose(
                    np.angle(np.exp(1j * (phi_hat - phi))), 0.0, atol=1e-9
                )

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            tilt_for_angles(np.pi / 2, 0.0)


class TestRxPoseValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RxPose(1.0, np.eye(3) * 1.001)

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            RxPose(1.0, refl)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            RxPose(0.0, np.eye(3))

    def test_rotation_is_frozen(self):
        pose = RxPose(1.0, ALIGNED_ROTATION)
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 5.0


class TestScenario:
    def _geom(self):
        return UcaGeometry(8, 0.03), UcaGeometry(8, 0.008)

    def test_valid(self):
        tx, rx = self._geom()
        scen = Scenario(tx, rx, RxPose.from_tilt(1.0, 0.1, 0.0), 120e9,
                        119.5e9 + 1e7 * np.arange(71))
        assert scen.subcarriers_hz.shape == (71,)

    def test_rejects_empty_subcarriers(self):
        tx, rx = self._geom()
        with pytest.raises(ValueError):
            Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), 120e9, np.array([]))

    def test_rejects_nonpositive_frequency(self):
        tx, rx = self._geom()
        with pytest.raises(ValueError):
            Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), 120e9, np.array([-1e9]))

    def test_rejects_wide_band(self):
        tx, rx = self._geom()
        with pytest.raises(ValueError, match="bandwidth"):
            Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), 120e9,
                     np.array([60e9, 120e9]))

    @pytest.mark.parametrize("tones", [
        119.5e9 + 0.0 * np.arange(4),  # a zero step: four "distinct" tones, one frequency
        119.5e9 + 1e-9 * np.arange(71),  # a step below float64 resolution at 119.5 GHz
        np.array([120e9, 119.9e9, 120e9]),  # a repeat that sorting brings together
    ])
    def test_rejects_repeated_tones(self, tones):
        # A trial drew p "distinct" tones that were one frequency, and ran to exit 0.
        tx, rx = self._geom()
        message = r"^subcarriers must be distinct, got \d+ distinct of \d+ tones$"
        with pytest.raises(ValueError, match=message):
            Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), 120e9, tones)

    @pytest.mark.parametrize("carrier_hz, tones", [
        (2e12, 119.5e9 + 1e7 * np.arange(71)),  # a narrow band, far from its carrier
        (1e9, np.array([119.5e9])),  # one tone: no spread at all
        (120e9, np.array([107.9e9])),  # just beyond a tenth of the carrier
    ])
    def test_rejects_carrier_far_from_tones(self, carrier_hz, tones):
        # Only the spread of the tones was checked, so each of these held.
        tx, rx = self._geom()
        with pytest.raises(ValueError, match=r"^carrier_hz=\S+ lies .* from a subcarrier"):
            Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), carrier_hz, tones)
        # A tone a tenth of the carrier away still holds.
        Scenario(tx, rx, RxPose.from_tilt(1.0, 0.0, 0.0), 120e9, np.array([108e9]))
