import math

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from se3bc import geometry as geo


def random_axis_angle(rng, max_angle=math.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def random_rotation(rng, max_angle=math.pi - 1e-3):
    return geo.exp_so3(random_axis_angle(rng, max_angle))


def random_se3(rng, max_angle=math.pi - 1e-3, trans_scale=1.0):
    return geo.se3(random_rotation(rng, max_angle), rng.normal(scale=trans_scale, size=3))


def series_exp(theta, terms=20):
    # Independent oracle: truncated matrix-exponential power series.
    k = oracles.skew(theta)
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms + 1):
        term = term @ k / n
        out = out + term
    return out


class TestExpLog:
    def test_zero_rotation_is_identity(self):
        npt.assert_array_equal(geo.exp_so3(np.zeros(3)), np.eye(3))

    def test_half_turn_about_x(self):
        npt.assert_allclose(geo.exp_so3([math.pi, 0, 0]), np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = random_axis_angle(rng, 1.3)
            theta *= 1.3 / max(np.linalg.norm(theta), 1e-12)
            npt.assert_allclose(geo.exp_so3(theta), series_exp(theta), atol=1e-12)

    def test_log_identity(self):
        npt.assert_array_equal(geo.log_so3(np.eye(3)), np.zeros(3))

    def test_log_half_turn_canonical_sign(self):
        npt.assert_allclose(geo.log_so3(np.diag([1.0, -1.0, -1.0])), [math.pi, 0, 0], atol=1e-12)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(1000):
            theta = random_axis_angle(rng)
            back = geo.log_so3(geo.exp_so3(theta))
            worst = max(worst, float(np.linalg.norm(back - theta)))
        assert worst < 1e-9

    def test_small_angle_round_trip(self):
        for mag in [0.0, 1e-12, 1e-9, 1e-7, 1e-5]:
            theta = np.array([mag, 0.0, 0.0])
            npt.assert_allclose(geo.log_so3(geo.exp_so3(theta)), theta, atol=1e-15)

    def test_exact_pi_all_axes(self):
        for axis in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            theta = math.pi * np.array(axis, dtype=float)
            back = geo.log_so3(geo.exp_so3(theta))
            npt.assert_allclose(back, theta, atol=1e-9)

    def test_pi_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            back = geo.log_so3(geo.exp_so3(math.pi * axis))
            nz = back[np.abs(back) > 1e-12]
            assert nz[0] > 0
            # same rotation either way round
            npt.assert_allclose(geo.exp_so3(back), geo.exp_so3(math.pi * axis), atol=1e-9)

    def test_rejects_non_rotation(self):
        with pytest.raises(geo.InvalidRotationError):
            geo.log_so3(np.eye(3) * 1.01)
        with pytest.raises(geo.InvalidRotationError):
            geo.log_so3(np.diag([1.0, 1.0, -1.0]))  # det = -1

    def test_rejects_non_finite(self):
        with pytest.raises(geo.GeometryError):
            geo.exp_so3([np.nan, 0, 0])


class TestSE3:
    def test_pose_round_trip_identity(self):
        npt.assert_array_equal(geo.pose_to_se3(np.zeros(6)), np.eye(4))

    def test_pure_translation(self):
        t = geo.pose_to_se3([1, 2, 3, 0, 0, 0])
        expect = np.eye(4)
        expect[:3, 3] = [1, 2, 3]
        npt.assert_array_equal(t, expect)

    def test_pose_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pose = np.concatenate([rng.normal(size=3), random_axis_angle(rng)])
            npt.assert_allclose(geo.se3_to_pose(geo.pose_to_se3(pose)), pose, atol=1e-9)

    def test_compose_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = random_se3(rng)
            npt.assert_allclose(t @ geo.se3_inverse(t), np.eye(4), atol=1e-12)
            npt.assert_allclose(geo.se3_inverse(t) @ t, np.eye(4), atol=1e-12)

    def test_inverse_identity(self):
        npt.assert_array_equal(geo.se3_inverse(np.eye(4)), np.eye(4))

    def test_inverse_pure_translation(self):
        t = geo.pose_to_se3([1, 0, 0, 0, 0, 0])
        npt.assert_allclose(geo.se3_inverse(t), geo.pose_to_se3([-1, 0, 0, 0, 0, 0]), atol=0)

    def test_manifold_by_construction(self, monkeypatch):
        # pose_to_se3 output is always a valid transform, with no
        # re-orthogonalization anywhere on the path.
        monkeypatch.setattr(geo, "ORTHO_ATOL", 1e-9)
        rng = np.random.default_rng(8)
        for _ in range(200):
            pose = np.concatenate([rng.normal(size=3), random_axis_angle(rng)])
            geo.check_se3(geo.pose_to_se3(pose))


class TestRelativeAction:
    def test_same_pose_gives_zero(self):
        rng = np.random.default_rng(9)
        t = random_se3(rng)
        a = geo.relative_action(t, t)
        npt.assert_allclose(a.dp, np.zeros(3), atol=1e-12)
        npt.assert_allclose(a.dtheta, np.zeros(3), atol=1e-12)

    def test_pure_translation_from_identity(self):
        t_b = geo.pose_to_se3([0.1, 0, 0, 0, 0, 0])
        a = geo.relative_action(np.eye(4), t_b)
        npt.assert_allclose(a.dp, [0.1, 0, 0], atol=0)
        npt.assert_array_equal(a.dtheta, np.zeros(3))

    def test_apply_zero_action(self):
        rng = np.random.default_rng(10)
        t = random_se3(rng)
        npt.assert_allclose(oracles.apply_action(t, geo.RelativeAction.zero()), t, atol=0)

    def test_apply_translation_from_identity(self):
        a = geo.RelativeAction(np.array([0, 0, 0.05]), np.zeros(3))
        npt.assert_allclose(
            oracles.apply_action(np.eye(4), a), geo.pose_to_se3([0, 0, 0.05, 0, 0, 0]), atol=0
        )

    def test_recovery_round_trip_1000(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            t_a, t_b = random_se3(rng), random_se3(rng)
            a = geo.relative_action(t_a, t_b)
            worst = max(worst, float(np.max(np.abs(oracles.apply_action(t_a, a) - t_b))))
        assert worst < 1e-9

    def test_chart_boundary_of_rows(self):
        edge = math.pi - geo.CHART_MARGIN
        rows = np.array([[[edge, 0.0, 0.0], [0.0, np.nextafter(edge, 0.0), 0.0]],
                         [[0.0, 0.0, -math.pi], [1.0, 1.0, 1.0]]])
        npt.assert_array_equal(geo.at_chart_boundary(rows), [[True, False], [True, False]])
        assert geo.at_chart_boundary(np.array([0.0, 0.0, math.pi])).shape == ()

    def test_chained_reconstruction_h64(self):
        rng = np.random.default_rng(13)
        poses = [random_se3(rng, max_angle=1.0)]
        for _ in range(64):
            step = np.concatenate([rng.normal(scale=0.02, size=3), rng.normal(scale=0.05, size=3)])
            poses.append(poses[-1] @ geo.pose_to_se3(step))
        actions = [geo.relative_action(poses[h - 1], poses[h]) for h in range(1, 65)]
        cur = poses[0]
        for a in actions:
            cur = oracles.apply_action(cur, a)
        assert np.max(np.abs(cur - poses[-1])) < 1e-8

    def test_gripper_range_checked(self):
        with pytest.raises(geo.GeometryError):
            geo.RelativeAction(np.zeros(3), np.zeros(3), gripper=1.5)

    @pytest.mark.parametrize("dp, dtheta, message", [
        (np.zeros(2), np.zeros(3), r"dp must be a 3-vector, got shape \(2,\)"),
        (np.zeros(3), np.zeros(4), r"dtheta must be a 3-vector, got shape \(4,\)"),
        (np.zeros((2, 3)), np.zeros(3), r"dp must be a 3-vector, got shape \(6,\)"),
        ([0.0, np.nan, 0.0], np.zeros(3), "dp has non-finite components"),
        (np.zeros(3), [0.0, 0.0, -np.inf], "dtheta has non-finite components"),
    ])
    def test_fields_validated(self, dp, dtheta, message):
        with pytest.raises(geo.GeometryError, match=message):
            geo.RelativeAction(dp, dtheta)


class TestCameraFrame:
    def test_identity_extrinsic(self):
        rng = np.random.default_rng(14)
        t = random_se3(rng)
        npt.assert_allclose(geo.camera_to_world(t, np.eye(4)), t, atol=0)

    def test_world_pose_equal_to_extrinsic(self):
        # The camera's own pose in its frame is the identity.
        rng = np.random.default_rng(15)
        ext = random_se3(rng)
        npt.assert_allclose(geo.camera_to_world(np.eye(4), ext), ext, atol=0)

    def test_round_trip(self):
        # The camera-frame readout extrinsic^-1 @ T maps back to T.
        rng = np.random.default_rng(16)
        for _ in range(100):
            t, ext = random_se3(rng), random_se3(rng)
            back = geo.camera_to_world(geo.se3_inverse(ext) @ t, ext)
            npt.assert_allclose(back, t, atol=1e-12)


class TestPinhole:
    INTR = geo.CameraIntrinsic(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=200, height=200)

    def test_optical_axis(self):
        uv = geo.project_pinhole([0, 0, 1.0], self.INTR)
        npt.assert_array_equal(uv, [0.0, 0.0])

    def test_unit_slope_ray(self):
        uv = geo.project_pinhole([1.0, 0, 1.0], self.INTR)
        npt.assert_array_equal(uv, [100.0, 0.0])

    def test_matches_division_oracle(self):
        rng = np.random.default_rng(18)
        intr = geo.CameraIntrinsic(fx=85.3, fy=91.7, cx=64.0, cy=48.0, width=128, height=96)
        for _ in range(200):
            p = np.array([rng.normal(), rng.normal(), rng.uniform(0.1, 3.0)])
            uv = geo.project_pinhole(p, intr)
            expect = np.array([85.3 * p[0] / p[2] + 64.0, 91.7 * p[1] / p[2] + 48.0])
            npt.assert_allclose(uv, expect, atol=1e-12)

    def test_out_of_frame_flag(self):
        uv = geo.project_pinhole([10.0, 0, 1.0], self.INTR)
        npt.assert_array_equal(uv, [1000.0, 0.0])  # unclamped

    def test_behind_camera(self):
        with pytest.raises(geo.BehindCameraError):
            geo.project_pinhole([0, 0, -0.5], self.INTR)
        with pytest.raises(geo.BehindCameraError):
            geo.project_pinhole([0, 0, 0.0], self.INTR)

    def test_intrinsic_validation(self):
        with pytest.raises(geo.GeometryError):
            geo.CameraIntrinsic(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(geo.GeometryError):
            geo.CameraIntrinsic(fx=1, fy=1, cx=20, cy=0, width=10, height=10)


# Each chart to the matrix form and back.
TO_MATRIX = {"axis_angle": geo.exp_so3, "quaternion": oracles.quat_to_matrix,
             "euler": geo.euler_to_matrix}
FROM_MATRIX = {"axis_angle": geo.log_so3, "quaternion": geo.matrix_to_quat,
               "euler": geo.matrix_to_euler}


class TestRotationConvert:
    def test_zero_axis_angle_to_quat(self):
        npt.assert_array_equal(geo.matrix_to_quat(geo.exp_so3(np.zeros(3))), [1, 0, 0, 0])

    def test_quarter_turn_closed_form(self):
        q = geo.matrix_to_quat(geo.exp_so3([math.pi / 2, 0, 0]))
        npt.assert_allclose(q, [math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0], atol=1e-15)

    def test_all_pairwise_round_trips(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            # keep pitch clear of the gimbal band
            r = geo.exp_so3(random_axis_angle(rng, 1.2))
            for src in TO_MATRIX:
                for dst in TO_MATRIX:
                    v = FROM_MATRIX[src](r)
                    w = FROM_MATRIX[dst](TO_MATRIX[src](v))
                    back = TO_MATRIX[dst](w)
                    npt.assert_allclose(back, r, atol=1e-9)

    def test_quaternion_canonical_sign(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            q = geo.matrix_to_quat(random_rotation(rng))
            assert q[0] >= 0
            npt.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)

    def test_euler_pitch_range(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            e = geo.matrix_to_euler(geo.exp_so3(random_axis_angle(rng, 1.2)))
            assert -math.pi / 2 < e[1] < math.pi / 2

    def test_gimbal_lock_rejected(self):
        r = geo.euler_to_matrix([0.3, math.pi / 2 - 1e-9, 0.2])
        with pytest.raises(geo.GimbalLockError):
            geo.matrix_to_euler(r)

    def test_non_finite_quaternion_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(geo.GeometryError, match="quaternion has non-finite components"):
                oracles.quat_to_matrix([1.0, 0.0, 0.0, bad])


# --- the validators against the numpy formulation they replaced ---


def reference_check_rotation(r, atol=geo.ORTHO_ATOL):
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise geo.InvalidRotationError(f"expected 3x3 matrix, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise geo.InvalidRotationError("rotation has non-finite entries")
    if np.max(np.abs(r.T @ r - np.eye(3))) > atol:
        raise geo.InvalidRotationError("matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > atol:
        raise geo.InvalidRotationError("matrix determinant is not +1")
    return r


def reference_check_se3(t, atol=geo.ORTHO_ATOL):
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise geo.GeometryError(f"expected 4x4 matrix, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise geo.GeometryError("transform has non-finite entries")
    if np.max(np.abs(t[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > atol:
        raise geo.GeometryError("last homogeneous row is not [0, 0, 0, 1]")
    reference_check_rotation(t[:3, :3], atol)
    return t


def rotation_cases():
    rng = np.random.default_rng(22)
    rotations = [np.eye(3), geo.exp_so3([math.pi, 0, 0])]
    rotations += [random_rotation(rng) for _ in range(20)]
    cases = [("rotation", r) for r in rotations]
    for k, r in enumerate(rotations[:6]):
        for idx in np.ndindex(3, 3):
            for scale in (-2.0, -0.5, 0.5, 2.0):
                bad = r.copy()
                bad[idx] += scale * geo.ORTHO_ATOL
                cases.append((f"rotation {k} entry {idx} {scale:+} atol", bad))
            for value in (np.nan, np.inf, -np.inf):
                bad = r.copy()
                bad[idx] = value
                cases.append((f"rotation {k} entry {idx} = {value}", bad))
    for k, r in enumerate(rotations[:6]):
        cases.append((f"reflection -R {k}", -r))
        cases.append((f"reflection swapped rows {k}", r[[1, 0, 2]]))
    cases += [
        ("reflection diag", np.diag([1.0, 1.0, -1.0])),
        ("scaled", np.eye(3) * 1.01),
        ("zeros", np.zeros((3, 3))),
        ("overflow, singular", np.array([[1e300, 1e300, 1e300], [1e300, -1e300, 1e300],
                                         [1e300, 1e300, 1e300]])),
        ("overflow, mixed sign", np.array([[1e200, 1e200, 0], [1e200, -1e200, 0], [0, 0, 1]])),
        ("list", geo.exp_so3([0.1, 0.2, 0.3]).tolist()),
        ("int identity list", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("int identity array", np.eye(3, dtype=int)),
        ("int reflection", np.diag([1, -1, 1])),
        ("int non-orthonormal", 2 * np.eye(3, dtype=int)),
        ("int permutation", np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
    ]
    for shape in [(3,), (9,), (0,), (2, 2), (4, 4), (3, 4), (1, 3, 3), (3, 3, 1)]:
        cases.append((f"shape {shape}", np.ones(shape)))
    return cases


def se3_cases():
    rng = np.random.default_rng(23)
    transforms = [np.eye(4)] + [random_se3(rng) for _ in range(10)]
    cases = [("transform", t) for t in transforms]
    for k, t in enumerate(transforms[:3]):
        for idx in np.ndindex(4, 4):
            for scale in (-2.0, -0.5, 0.5, 2.0):
                bad = t.copy()
                bad[idx] += scale * geo.ORTHO_ATOL
                cases.append((f"transform {k} entry {idx} {scale:+} atol", bad))
            for value in (np.nan, np.inf, -np.inf):
                bad = t.copy()
                bad[idx] = value
                cases.append((f"transform {k} entry {idx} = {value}", bad))
        for row in ([0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0]):
            bad = t.copy()
            bad[3] = row
            cases.append((f"transform {k} bottom row {row}", bad))
        reflected = t.copy()
        reflected[:3, :3] *= -1.0
        cases.append((f"transform {k} with a reflection", reflected))
    cases += [
        ("list", transforms[1].tolist()),
        ("int identity list", np.eye(4, dtype=int).tolist()),
        ("int translation", np.array([[1, 0, 0, 3], [0, 1, 0, -2], [0, 0, 1, 1], [0, 0, 0, 1]])),
        ("int bad bottom row", np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])),
        ("int reflection", np.diag([1, 1, -1, 1])),
    ]
    for shape in [(4,), (16,), (3, 3), (4, 3), (3, 4), (1, 4, 4)]:
        cases.append((f"shape {shape}", np.ones(shape)))
    return cases


def outcome(check, value):
    try:
        return check(value), None
    except Exception as err:  # the comparison is over whatever is raised
        return None, err


@pytest.mark.parametrize("check, reference, cases", [
    (geo.check_rotation, reference_check_rotation, rotation_cases()),
    (geo.check_se3, reference_check_se3, se3_cases()),
], ids=["check_rotation", "check_se3"])
def test_validators_decide_as_numpy_reference(check, reference, cases):
    decisions = {"raised": 0, "returned": 0}
    for label, value in cases:
        got, got_err = outcome(check, value)
        with np.errstate(over="ignore", invalid="ignore"):  # numpy warns on the overflow cases
            want, want_err = outcome(reference, value)
        if want_err is None:
            assert got_err is None, (label, got_err)
            assert got.dtype == want.dtype and got.shape == want.shape, label
            npt.assert_array_equal(got, want, err_msg=label)
            decisions["returned"] += 1
        else:
            assert type(got_err) is type(want_err), (label, got_err, want_err)
            assert str(got_err) == str(want_err), label
            decisions["raised"] += 1
    # Both outcomes are exercised on every validator.
    assert min(decisions.values()) > 20, decisions


def test_norm_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(0)
    vectors = []
    for n in (3, 4):
        for scale in 10.0 ** rng.uniform(-8, 2, size=2000):
            block = rng.normal(size=(n, 2)) * scale
            vectors += [block[:, 0].copy(), block[:, 1]]  # contiguous, and strided
    vectors += [[3, 4, 12], np.array([1e200, 1.0, 0.0]), np.zeros(3), np.array([-0.0, 0.0, 0.0])]
    vectors += [np.array(v) for v in ([np.inf, 1.0, 2.0], [1.0, -np.inf, 0.0, 0.5],
                                      [np.nan, 1.0, 2.0], [np.inf, np.nan, 1.0])]
    for v in vectors:
        with np.errstate(over="ignore", invalid="ignore"):  # both warn on the overflow case
            want, got = np.linalg.norm(v), geo.norm(v)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want)), (v, got, want)
