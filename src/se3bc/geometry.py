"""Rigid-body geometry for SE(3) and SO(3).

Conventions:
    - Rotations are 3x3 matrices R with R^T R = I, det(R) = +1.
    - Axis-angle (exponential coordinates): a 3-vector whose direction is the
      rotation axis and whose norm is the angle in radians. The canonical
      chart covers ||theta|| <= pi and is ambiguous at pi; at_chart_boundary
      tests rows for ||theta|| >= pi - CHART_MARGIN. datasets rejects such
      targets, and rollouts count such predicted rows.
    - SE(3) transforms are 4x4 homogeneous matrices [[R, p], [0, 1]] with
      translation p in meters.
    - Pose vectors are 6-vectors [p, theta].
    - Relative actions compose on the right: apply_action(T, a) = T @ exp(a),
      so the translation/rotation deltas are expressed in the moving frame.
    - Quaternions are (w, x, y, z), unit norm, canonical sign w >= 0.
    - Euler angles are (roll, pitch, yaw) in the intrinsic ZYX convention,
      R = Rz(yaw) @ Ry(pitch) @ Rx(roll), with pitch in (-pi/2, pi/2).

All computation is double precision.

Validation contract. Each check tests shape first, then finiteness, then the
invariants, and raises on the first that fails:
    - check_rotation (InvalidRotationError): a 3x3 shape; all nine entries
      finite; every entry of R^T R - I within ORTHO_ATOL; |det(R) - 1| within
      ORTHO_ATOL, so reflections are rejected.
    - check_se3 (GeometryError): a 4x4 shape; all sixteen entries finite; the
      bottom row within ORTHO_ATOL of [0, 0, 0, 1]; then check_rotation on
      the rotation block.
    - 3-vector arguments (GeometryError): exactly three values once
      flattened, all finite. RelativeAction checks dp and dtheta this way.
The checks read each input once with tolist() and run in Python-float
arithmetic (R^T R by its six distinct entries, det by cofactor expansion):
a numpy call per test would cost more than the arithmetic on nine numbers.
A check returns the array it validated, so it changes no computed value.
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

# Orthonormality / unit-norm validation tolerance, read at call time.
# Construction accuracy is ~1e-15; 1e-8 leaves headroom for long composition
# chains.
ORTHO_ATOL = 1e-8

# Rotations at or beyond pi - CHART_MARGIN are chart violations (the
# axis-angle chart is ambiguous at the boundary).
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
    and is excluded from all group operations.
    """

    dp: np.ndarray
    dtheta: np.ndarray
    gripper: float = 0.0

    def __post_init__(self):
        self.dp = _as_vec3(self.dp, "dp")
        self.dtheta = _as_vec3(self.dtheta, "dtheta")
        self.gripper = float(self.gripper)
        if not 0.0 <= self.gripper <= 1.0:
            raise GeometryError(f"gripper {self.gripper} outside [0, 1]")

    @staticmethod
    def zero() -> "RelativeAction":
        return RelativeAction(np.zeros(3), np.zeros(3))


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
    if not all(map(math.isfinite, v.tolist())):
        raise GeometryError(f"{name} has non-finite components")
    return v


def norm(v) -> float:
    """Euclidean norm of one real vector, bit for bit np.linalg.norm's of it
    as float64, without that function's dispatch: the same dot product,
    square-rooted. The vector is made contiguous first, because BLAS sums a
    strided 4-vector's squares in another order."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    return math.sqrt(v.dot(v))


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix [v]_x such that [v]_x w = v x w."""
    x, y, z = _as_vec3(v, "v")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unskew(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def check_rotation(r: np.ndarray) -> np.ndarray:
    """Validate rotation-matrix invariants, returning r as float64."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise InvalidRotationError(f"expected 3x3 matrix, got {r.shape}")
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    if not all(map(math.isfinite, (a, b, c, d, e, f, g, h, i))):
        raise InvalidRotationError("rotation has non-finite entries")
    # The six distinct entries of R^T R - I, diagonal first: a diagonal entry
    # is never NaN, so an overflowed (NaN) off-diagonal entry cannot win max()
    # over the infinite diagonal entry that comes with it.
    if max(
        abs(a * a + d * d + g * g - 1.0),
        abs(b * b + e * e + h * h - 1.0),
        abs(c * c + f * f + i * i - 1.0),
        abs(a * b + d * e + g * h),
        abs(a * c + d * f + g * i),
        abs(b * c + e * f + h * i),
    ) > ORTHO_ATOL:
        raise InvalidRotationError("matrix is not orthonormal")
    if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) > ORTHO_ATOL:
        raise InvalidRotationError("matrix determinant is not +1")
    return r


def check_se3(t: np.ndarray) -> np.ndarray:
    """Validate a 4x4 homogeneous transform, returning it as float64."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise GeometryError(f"expected 4x4 matrix, got {t.shape}")
    rows = t.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise GeometryError("transform has non-finite entries")
    x, y, z, w = rows[3]
    if max(abs(x), abs(y), abs(z), abs(w - 1.0)) > ORTHO_ATOL:
        raise GeometryError("last homogeneous row is not [0, 0, 0, 1]")
    check_rotation(t[:3, :3])
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
    angle = norm(theta)
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
    angle = math.atan2(norm(sym_vec), cos_angle)

    if angle < LOG_SMALL_ANGLE:
        # theta = sin(angle)*axis up to O(angle^3): error < 1.7e-19 here.
        return sym_vec
    if math.pi - angle < LOG_NEAR_PI:
        # At pi: (R + I)/2 = axis axis^T; use the best-conditioned column.
        b = (r + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(b)))
        axis = b[:, i] / math.sqrt(max(b[i, i], 0.0))
        axis /= norm(axis)
        if _first_nonzero_negative(axis):
            axis = -axis
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
    caller to fill.
    """
    rel = se3_inverse(t_a) @ check_se3(t_b)
    return RelativeAction(rel[:3, 3], log_so3(rel[:3, :3]), 0.0)


def at_chart_boundary(theta) -> np.ndarray:
    """Whether each axis-angle row of `theta` (..., 3) reaches pi - CHART_MARGIN,
    where the chart is ambiguous; a bool array of shape (...)."""
    # datasets calls this on one 3-vector per target row, where
    # np.linalg.norm(theta, axis=-1) costs more than this sum of squares.
    return np.sqrt(np.square(theta).sum(axis=-1)) >= math.pi - CHART_MARGIN


def apply_action(t: np.ndarray, a: RelativeAction) -> np.ndarray:
    """Right-compose a relative action onto a pose; inverse of relative_action."""
    return check_se3(t) @ pose_to_se3(np.concatenate([a.dp, a.dtheta]))


def camera_to_world(t_cam: np.ndarray, extrinsic: np.ndarray) -> np.ndarray:
    return check_se3(extrinsic) @ check_se3(t_cam)


def project_pinhole(p_cam, intr: CameraIntrinsic):
    """Project a camera-frame point to pixels uv.

    Out-of-frame points are returned unclamped. Raises BehindCameraError for
    depth <= MIN_PROJECT_DEPTH.
    """
    p = _as_vec3(p_cam, "p_cam")
    if p[2] <= MIN_PROJECT_DEPTH:
        raise BehindCameraError(f"point depth {p[2]:.3g} is at or behind the camera")
    return np.array([intr.fx * p[0] / p[2] + intr.cx, intr.fy * p[1] / p[2] + intr.cy])


# --- rotation chart conversions, each to or from the matrix form ---


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
    q /= norm(q)
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
