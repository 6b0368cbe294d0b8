"""Transmit/receive circular-array geometry and receiver orientation.

Conventions used throughout the package:

* The transmitter array lies in the global XY-plane, centered at the origin,
  radiating toward +z.  The receiver array center sits at (0, 0, r).
* ``RxPose.rotation`` maps receiver-local axes (x', y', z') to global
  directions (its columns are x', y', z' expressed in the global frame).
* At perfect alignment the receiver faces the transmitter: z' = -z.  A
  scenario built from tilt angles therefore composes the user tilt with a
  fixed 180-degree base rotation about Y, so that zero tilt means zero
  misalignment elevation.
* Elevation ``theta`` and azimuth ``phi`` locate the transmitter center as
  seen in the receiver's own frame: the unit vector from the receiver
  center back to the transmitter is
  (cos(phi) sin(theta), sin(phi) sin(theta), cos(theta)) in local axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Below this value of sin(theta) the pose counts as perfectly aligned and
# the azimuth phi (and the in-plane angle gamma) are undefined; both are
# returned as 0.0 by convention.
ALIGNED_TOL = 1e-12

_ROTATION_TOL = 1e-9

# Fractional bandwidth above which the flat-gain subcarrier assumption is
# no longer defensible; no tone may lie farther from the carrier either.
_MAX_FRACTIONAL_BANDWIDTH = 0.1


@dataclass(frozen=True)
class UcaGeometry:
    """Uniform circular array: ``n_elements`` on a ring of radius ``radius_m``."""

    n_elements: int
    radius_m: float

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if not self.radius_m > 0.0:
            raise ValueError(f"radius_m must be > 0, got {self.radius_m}")

    @property
    def element_azimuths(self) -> np.ndarray:
        """In-plane azimuth of each element, exactly 2*pi*n/N."""
        return TWO_PI * np.arange(self.n_elements) / self.n_elements


def rotation_x(angle: float) -> np.ndarray:
    """Right-handed rotation about the X axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    """Right-handed rotation about the Y axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_yx(angle_y: float, angle_x: float) -> np.ndarray:
    """Tilt rotation: about Y first, then about X (R_x(angle_x) @ R_y(angle_y))."""
    return rotation_x(angle_x) @ rotation_y(angle_y)


# Base orientation of an aligned receiver: local z' points back toward the
# transmitter (z' = -z).  rotation_yx(0, 0) composed with this base is the
# perfectly aligned pose.
ALIGNED_ROTATION = rotation_y(np.pi)


@dataclass(frozen=True)
class RxPose:
    """Receiver placement: center distance plus orientation.

    ``rotation`` must be orthonormal with determinant +1; its columns are the
    receiver-local axes expressed in the global (transmitter) frame.
    """

    distance_m: float
    rotation: np.ndarray = field(default_factory=lambda: ALIGNED_ROTATION.copy())

    def __post_init__(self) -> None:
        if not self.distance_m > 0.0:
            raise ValueError(f"distance_m must be > 0, got {self.distance_m}")
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {rot.shape}")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > _ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ROTATION_TOL:
            raise ValueError("rotation must have determinant +1")
        rot = rot.copy()
        rot.flags.writeable = False
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def from_tilt(cls, distance_m: float, rot_y: float, rot_x: float) -> "RxPose":
        """Pose for a receiver tilted from alignment about Y then X (radians)."""
        return cls(distance_m, rotation_yx(rot_y, rot_x) @ ALIGNED_ROTATION)


def element_positions_tx(tx: UcaGeometry) -> np.ndarray:
    """Global positions of the transmit elements, shape (N, 3)."""
    az = tx.element_azimuths
    return tx.radius_m * np.stack(
        [np.cos(az), np.sin(az), np.zeros_like(az)], axis=1
    )


def element_positions_rx(rx: UcaGeometry, pose: RxPose) -> np.ndarray:
    """Global positions of the receive elements, shape (M, 3)."""
    az = rx.element_azimuths
    local = rx.radius_m * np.stack(
        [np.cos(az), np.sin(az), np.zeros_like(az)], axis=1
    )
    center = np.array([0.0, 0.0, pose.distance_m])
    return center + local @ pose.rotation.T


def misalignment_angles(pose: RxPose) -> tuple[float, float]:
    """Elevation and azimuth of the transmitter in the receiver's frame.

    Returns ``(theta, phi)`` in radians with theta in [0, pi] and phi in
    (-pi, pi].  When the pose is aligned (sin(theta) below ``ALIGNED_TOL``)
    phi is undefined and 0.0 is returned.
    """
    d = pose.rotation.T @ np.array([0.0, 0.0, -1.0])
    theta = float(np.arccos(np.clip(d[2], -1.0, 1.0)))
    if np.hypot(d[0], d[1]) < ALIGNED_TOL:
        return theta, 0.0
    return theta, float(np.arctan2(d[1], d[0]))


def gamma(pose: RxPose) -> float:
    """In-plane ring orientation angle, atan2(w2, w1) with w = z' x z.

    Returns 0.0 by convention when z' is parallel to z (aligned degenerate).
    """
    x, y = pose.rotation[:2, 2]  # w = (y, -x, 0)
    if np.hypot(x, y) < ALIGNED_TOL:
        return 0.0
    return float(np.arctan2(-x, y))


def tilt_for_angles(theta: float, phi: float) -> tuple[float, float]:
    """Tilt angles (rot_y, rot_x) whose pose has the given (theta, phi).

    Inverse of ``misalignment_angles(RxPose.from_tilt(...))`` for
    0 <= theta < pi/2.
    """
    if not 0.0 <= theta < np.pi / 2:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    rot_x = float(np.arcsin(-np.sin(theta) * np.sin(phi)))
    rot_y = float(np.arctan2(-np.sin(theta) * np.cos(phi), np.cos(theta)))
    return rot_y, rot_x


@dataclass(frozen=True)
class Scenario:
    """One simulated link: arrays, nominal pose, and frequency plan.

    A ValueError's message opens with the field at fault: ``carrier_hz`` or
    ``subcarriers``."""

    tx: UcaGeometry
    rx: UcaGeometry
    pose: RxPose
    carrier_hz: float
    subcarriers_hz: np.ndarray

    def __post_init__(self) -> None:
        if not self.carrier_hz > 0.0:
            raise ValueError(f"carrier_hz must be > 0, got {self.carrier_hz}")
        sub = np.atleast_1d(np.asarray(self.subcarriers_hz, dtype=float))
        if sub.size == 0:
            raise ValueError("subcarriers must be nonempty")
        if np.any(sub <= 0.0):
            raise ValueError("subcarriers must all be > 0 Hz")
        distinct = len(set(sub.tolist()))
        if distinct < sub.size:
            raise ValueError(f"subcarriers must be distinct, got {distinct} distinct "
                             f"of {sub.size} tones")
        if (sub.max() - sub.min()) / self.carrier_hz > _MAX_FRACTIONAL_BANDWIDTH:
            raise ValueError("subcarriers span a fractional bandwidth too large "
                             "for the flat-gain assumption")
        # Trials are estimated at the tones and scored at the carrier: keep them close.
        far = float(np.max(np.abs(sub - self.carrier_hz)))
        if far > _MAX_FRACTIONAL_BANDWIDTH * self.carrier_hz:
            raise ValueError(f"carrier_hz={self.carrier_hz:g} lies {far:g} Hz from a "
                             f"subcarrier, beyond {_MAX_FRACTIONAL_BANDWIDTH:g} x carrier_hz")
        sub = sub.copy()
        sub.flags.writeable = False
        object.__setattr__(self, "subcarriers_hz", sub)
