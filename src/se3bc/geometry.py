"""Rigid-body geometry for SE(3) and SO(3).

Conventions:
    - Rotations are 3x3 matrices R with R^T R = I, det(R) = +1.
    - Axis-angle (exponential coordinates): a 3-vector whose direction is the
      rotation axis and whose norm is the angle in radians. The canonical
      chart covers ||theta|| <= pi; callers that need strict chart validity
      (||theta|| < pi) check the chart_violation flag on relative actions.
    - SE(3) transforms are 4x4 homogeneous matrices [[R, p], [0, 1]] with
      translation p in meters.
    - Pose vectors are 6-vectors [p, theta].
    - Relative actions compose on the right: apply_action(T, a) = T @ exp(a),
      so the translation/rotation deltas are expressed in the moving frame.
    - Quaternions are (w, x, y, z), unit norm, canonical sign w >= 0.
    - Euler angles are (roll, pitch, yaw) in the intrinsic ZYX convention,
      R = Rz(yaw) @ Ry(pitch) @ Rx(roll), with pitch in (-pi/2, pi/2).

All computation is double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Small-angle threshold for the exponential map: below this the second-order
# Taylor form is used to avoid dividing by a near-zero angle.
EXP_SMALL_ANGLE = 1e-8

# Trace-based small-angle branch of the log map.
LOG_SMALL_ANGLE = 1e-6

# Log-map branch for angles within this distance of pi (axis extracted from
# the symmetric part, sign fixed by convention).
LOG_NEAR_PI = 1e-6

# Orthonormality / unit-norm validation tolerance. Construction accuracy is
# ~1e-15; 1e-8 leaves headroom for long composition chains.
ORTHO_ATOL = 1e-8

# Relative rotations at or beyond pi - CHART_MARGIN are flagged as chart
# violations (the axis-angle chart is ambiguous at the boundary).
CHART_MARGIN = 1e-6

# Euler pitch within this distance of +-pi/2 is rejected as gimbal lock.
GIMBAL_ATOL = 1e-6

# Minimum camera-frame depth for pinhole projection.
MIN_PROJECT_DEPTH = 1e-6


class GeometryError(ValueError):
    """Invalid input to a geometry operation."""


class InvalidRotationError(GeometryError):
    """Matrix fails the rotation-matrix invariants."""


class GimbalLockError(GeometryError):
    """Euler conversion requested inside the gimbal-lock band."""


class BehindCameraError(GeometryError):
    """Point at or behind the camera plane."""


@dataclass
class RelativeAction:
    """6-DoF relative motion plus a gripper command in [0, 1].

    The rigid part (dp, dtheta) lives in SE(3); the gripper channel does not
    and is excluded from all group operations. chart_violation marks relative
    rotations at the axis-angle chart boundary.
    """

    dp: np.ndarray
    dtheta: np.ndarray
    gripper: float = 0.0
    chart_violation: bool = False

    def __post_init__(self):
        self.dp = np.asarray(self.dp, dtype=float).reshape(3)
        self.dtheta = np.asarray(self.dtheta, dtype=float).reshape(3)
        self.gripper = float(self.gripper)
        if not (np.all(np.isfinite(self.dp)) and np.all(np.isfinite(self.dtheta))):
            raise GeometryError("relative action has non-finite components")
        if not 0.0 <= self.gripper <= 1.0:
            raise GeometryError(f"gripper {self.gripper} outside [0, 1]")

    @staticmethod
    def zero(gripper: float = 0.0) -> "RelativeAction":
        return RelativeAction(np.zeros(3), np.zeros(3), gripper)


@dataclass
class CameraIntrinsic:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError("principal point outside image")


def _as_vec3(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise GeometryError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError(f"{name} has non-finite components")
    return v


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix [v]_x such that [v]_x w = v x w."""
    x, y, z = _as_vec3(v, "v")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def check_rotation(r: np.ndarray, atol: float = ORTHO_ATOL) -> np.ndarray:
    """Validate rotation-matrix invariants, returning r as float64."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise InvalidRotationError(f"expected 3x3 matrix, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidRotationError("rotation has non-finite entries")
    if np.max(np.abs(r.T @ r - np.eye(3))) > atol:
        raise InvalidRotationError("matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > atol:
        raise InvalidRotationError("matrix determinant is not +1")
    return r


def check_se3(t: np.ndarray, atol: float = ORTHO_ATOL) -> np.ndarray:
    """Validate a 4x4 homogeneous transform, returning it as float64."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise GeometryError(f"expected 4x4 matrix, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise GeometryError("transform has non-finite entries")
    if np.max(np.abs(t[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > atol:
        raise GeometryError("last homogeneous row is not [0, 0, 0, 1]")
    check_rotation(t[:3, :3], atol)
    return t


def se3(rotation: np.ndarray, translation) -> np.ndarray:
    """Assemble a 4x4 transform from a rotation block and a translation."""
    rotation = check_rotation(rotation)
    translation = _as_vec3(translation, "translation")
    t = np.eye(4)
    t[:3, :3] = rotation
    t[:3, 3] = translation
    return t


def exp_so3(theta) -> np.ndarray:
    """Rodrigues exponential map from axis-angle to a rotation matrix.

    For ||theta|| below EXP_SMALL_ANGLE the second-order Taylor form
    I + [theta]_x + [theta]_x^2 / 2 is used.
    """
    theta = _as_vec3(theta, "theta")
    angle = float(np.linalg.norm(theta))
    k = skew(theta)
    if angle < EXP_SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    axis_k = k / angle
    return np.eye(3) + math.sin(angle) * axis_k + (1.0 - math.cos(angle)) * (axis_k @ axis_k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Inverse of exp_so3; returns theta with ||theta|| in [0, pi].

    Near the identity the skew part is read off directly. Within LOG_NEAR_PI
    of pi the axis is extracted from the symmetric part via the largest
    diagonal, with the sign convention that the first nonzero axis component
    is positive (the chart is two-valued at exactly pi).
    """
    r = check_rotation(r)
    sym_vec = unskew(r - r.T) / 2.0  # sin(angle) * axis
    cos_angle = (np.trace(r) - 1.0) / 2.0
    # atan2 keeps the angle well conditioned near both 0 and pi.
    angle = math.atan2(float(np.linalg.norm(sym_vec)), cos_angle)

    if angle < LOG_SMALL_ANGLE:
        # theta = sin(angle)*axis up to O(angle^3): error < 1.7e-19 here.
        return sym_vec
    if math.pi - angle < LOG_NEAR_PI:
        # At pi: (R + I)/2 = axis axis^T; use the best-conditioned column.
        b = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(b)))
        axis = b[:, i] / math.sqrt(max(b[i, i], 0.0))
        axis /= np.linalg.norm(axis)
        for c in axis:
            if abs(c) > 1e-12:
                if c < 0.0:
                    axis = -axis
                break
        return angle * axis
    return (angle / math.sin(angle)) * sym_vec


def pose_to_se3(pose) -> np.ndarray:
    """6-vector [p, theta] to a 4x4 transform (rotation via exp_so3)."""
    pose = np.asarray(pose, dtype=float).reshape(-1)
    if pose.shape != (6,):
        raise GeometryError(f"pose must be a 6-vector, got shape {pose.shape}")
    return se3(exp_so3(pose[3:]), pose[:3])


def se3_to_pose(t: np.ndarray) -> np.ndarray:
    """4x4 transform to the 6-vector [p, theta]."""
    t = check_se3(t)
    return np.concatenate([t[:3, 3], log_so3(t[:3, :3])])


def se3_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return check_se3(a) @ check_se3(b)


def se3_inverse(t: np.ndarray) -> np.ndarray:
    """Closed-form inverse [[R^T, -R^T p], [0, 1]] (stays on the manifold)."""
    t = check_se3(t)
    rt = t[:3, :3].T
    out = np.eye(4)
    out[:3, :3] = rt
    out[:3, 3] = -rt @ t[:3, 3]
    return out


def relative_action(t_a: np.ndarray, t_b: np.ndarray) -> RelativeAction:
    """Rigid motion taking t_a to t_b, as translation + axis-angle deltas.

    Returns the rigid part only; the gripper channel is left at 0 for the
    caller to fill. Flags chart_violation when the relative rotation angle
    reaches pi - CHART_MARGIN.
    """
    rel = se3_inverse(t_a) @ check_se3(t_b)
    dtheta = log_so3(rel[:3, :3])
    violation = float(np.linalg.norm(dtheta)) >= math.pi - CHART_MARGIN
    return RelativeAction(rel[:3, 3], dtheta, 0.0, chart_violation=violation)


def apply_action(t: np.ndarray, a: RelativeAction) -> np.ndarray:
    """Right-compose a relative action onto a pose; inverse of relative_action."""
    return check_se3(t) @ pose_to_se3(np.concatenate([a.dp, a.dtheta]))


def world_to_camera(t_world: np.ndarray, extrinsic: np.ndarray) -> np.ndarray:
    """Map a world-frame pose into the camera frame: extrinsic^-1 @ t_world.

    extrinsic is the camera-to-world transform, so this readout equals the
    world pose up to the fixed rigid offset extrinsic^-1.
    """
    return se3_inverse(extrinsic) @ check_se3(t_world)


def camera_to_world(t_cam: np.ndarray, extrinsic: np.ndarray) -> np.ndarray:
    return check_se3(extrinsic) @ check_se3(t_cam)


def project_pinhole(p_cam, intr: CameraIntrinsic):
    """Project a camera-frame point to pixels.

    Returns (uv, out_of_frame). Out-of-frame points are returned unclamped
    with the flag set. Raises BehindCameraError for depth <= MIN_PROJECT_DEPTH.
    """
    p = _as_vec3(p_cam, "p_cam")
    if p[2] <= MIN_PROJECT_DEPTH:
        raise BehindCameraError(f"point depth {p[2]:.3g} is at or behind the camera")
    uv = np.array([intr.fx * p[0] / p[2] + intr.cx, intr.fy * p[1] / p[2] + intr.cy])
    out_of_frame = not (0.0 <= uv[0] < intr.width and 0.0 <= uv[1] < intr.height)
    return uv, out_of_frame


# --- rotation chart conversions (all routed through the matrix form) ---


def quat_to_matrix(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape != (4,):
        raise GeometryError(f"quaternion must be a 4-vector, got shape {q.shape}")
    if abs(np.linalg.norm(q) - 1.0) > ORTHO_ATOL:
        raise GeometryError("quaternion is not unit norm")
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation matrix to (w, x, y, z) via Shepperd's method, canonical w >= 0.

    When w is exactly 0 (half turns) the first nonzero vector component is
    made positive instead.
    """
    r = check_rotation(r)
    tr = np.trace(r)
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    if q[0] < 0.0 or (q[0] == 0.0 and _first_nonzero_negative(q[1:])):
        q = -q
    return q


def _first_nonzero_negative(v: np.ndarray) -> bool:
    for c in v:
        if abs(c) > 1e-12:
            return c < 0.0
    return False


def euler_to_matrix(euler) -> np.ndarray:
    """(roll, pitch, yaw), intrinsic ZYX: R = Rz(yaw) Ry(pitch) Rx(roll)."""
    roll, pitch, yaw = _as_vec3(euler, "euler")
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def matrix_to_euler(r: np.ndarray) -> np.ndarray:
    """Inverse of euler_to_matrix with pitch in (-pi/2, pi/2).

    Raises GimbalLockError when |pitch| is within GIMBAL_ATOL of pi/2, where
    roll and yaw are not separable.
    """
    r = check_rotation(r)
    sp = -r[2, 0]
    pitch = math.asin(min(1.0, max(-1.0, sp)))
    if math.pi / 2 - abs(pitch) < GIMBAL_ATOL:
        raise GimbalLockError("pitch within the gimbal-lock band around +-pi/2")
    roll = math.atan2(r[2, 1], r[2, 2])
    yaw = math.atan2(r[1, 0], r[0, 0])
    return np.array([roll, pitch, yaw])


_TO_MATRIX = {
    "axis_angle": exp_so3,
    "quaternion": quat_to_matrix,
    "euler": euler_to_matrix,
    "matrix": check_rotation,
}

_FROM_MATRIX = {
    "axis_angle": log_so3,
    "quaternion": matrix_to_quat,
    "euler": matrix_to_euler,
    "matrix": lambda r: r,
}


def rotation_convert(value, src: str, dst: str):
    """Convert between rotation charts; every path routes through the matrix."""
    if src not in _TO_MATRIX:
        raise GeometryError(f"unknown source chart {src!r}")
    if dst not in _FROM_MATRIX:
        raise GeometryError(f"unknown destination chart {dst!r}")
    return _FROM_MATRIX[dst](_TO_MATRIX[src](value))
