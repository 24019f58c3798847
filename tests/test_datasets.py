import math

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from se3bc import datasets as ds
from se3bc import geometry as geo
from se3bc import simworld as sw
from se3bc.seeding import derive_seed


def step_arrays(s):
    """Every recorded value of a StepRecord: poses, state, action and feature blocks."""
    return [s.ee_pose_world, s.ee_pose_cam, s.state_vec, s.action.dp, s.action.dtheta,
            s.action.gripper, s.features.lang, s.features.visual, s.features.depth]


@pytest.fixture(scope="module")
def small_dataset():
    scene, task = sw.default_scene("goal")
    return ds.record_demonstrations(scene, task, n=5, seed=100)


class TestRecording:
    def test_single_noiseless_episode_succeeds(self):
        scene, task = sw.default_scene("goal")
        data = ds.record_demonstrations(scene, task, n=1, seed=0)
        assert len(data.demos) == 1
        demo = data.demos[0]
        # replay the recorded executed actions and re-check success
        sim = sw.Simulator(scene, task)
        state = sim.reset(demo.seed)
        for step in demo.steps[:-1]:
            state = sim.step(state, step.action)
        assert sim.check_success(state)

    def test_recording_deterministic(self):
        scene, task = sw.default_scene("goal")
        a = ds.record_demonstrations(scene, task, n=2, seed=7)
        b = ds.record_demonstrations(scene, task, n=2, seed=7)
        assert [d.seed for d in a.demos] == [d.seed for d in b.demos]
        for da, db in zip(a.demos, b.demos, strict=True):
            for sa, sb in zip(da.steps, db.steps, strict=True):
                for got, ref in zip(step_arrays(sa), step_arrays(sb), strict=True):
                    assert np.array_equal(got, ref)

    def test_per_step_invariants(self, small_dataset):
        data = small_dataset
        for demo in data.demos:
            for t, step in enumerate(demo.steps):
                cam_expect = geo.se3_inverse(data.camera.extrinsic) @ step.ee_pose_world
                assert np.max(np.abs(step.ee_pose_cam - cam_expect)) < 1e-10
                if t + 1 < len(demo.steps):
                    nxt = oracles.apply_action(step.ee_pose_world, step.action)
                    assert np.max(np.abs(nxt - demo.steps[t + 1].ee_pose_world)) < 1e-9
            # final record is the stationary pad: no motion, the held gripper command
            last = demo.steps[-1]
            npt.assert_array_equal(last.action.dp, np.zeros(3))
            npt.assert_array_equal(last.action.dtheta, np.zeros(3))
            assert last.action.gripper == demo.steps[-2].action.gripper

    def test_consistency_triangle(self, small_dataset):
        # world poses, camera poses, and action chain reconstruct each other
        data = small_dataset
        for demo in data.demos:
            cur = demo.steps[0].ee_pose_world.copy()
            for t, step in enumerate(demo.steps[:-1]):
                cur = oracles.apply_action(cur, step.action)
                target = demo.steps[t + 1].ee_pose_world
                assert np.max(np.abs(cur - target)) < 1e-8
                cam = geo.se3_inverse(data.camera.extrinsic) @ cur
                assert np.max(np.abs(cam - demo.steps[t + 1].ee_pose_cam)) < 1e-8

    def test_failure_rate_raises(self):
        scene, task = sw.default_scene("goal")
        task.horizon_limit = 3  # impossible budget
        with pytest.raises(ds.DatasetError, match="20%"):
            ds.record_demonstrations(scene, task, n=5, seed=1)

    def test_retries_keep_attempt_order_and_budget(self, monkeypatch):
        # Success also needs block_blue's reset x > 0.12 (it never moves in a
        # goal episode), so about half the attempts fail: the demos must be
        # the first successes in attempt order, each with its attempt's seed.
        check_success = sw.Simulator.check_success
        monkeypatch.setattr(sw.Simulator, "check_success", lambda sim, state: (
            check_success(sim, state) and state.object_poses["block_blue"][0] > 0.12))
        scene, task = sw.default_scene("goal")
        data = ds.record_demonstrations(scene, task, n=4, seed=0)
        assert [d.seed for d in data.demos] == [
            derive_seed(0, "episode", a) for a in (1, 4, 6, 8)] == [
            14072491465829651844, 12530750581696857067, 10640821213751540758, 3039458007533898160]
        assert data.n_discarded == 5
        assert [len(d.steps) for d in data.demos] == [28, 28, 27, 28]
        with pytest.raises(ds.DatasetError) as err:
            ds.record_demonstrations(scene, task, n=4, seed=3)
        assert str(err.value) == "expert failure rate above 20%: 3 successes in 10 attempts"


class TestWindows:
    def test_window_count_and_padding(self, small_dataset):
        demo = small_dataset.demos[0]
        length = len(demo.steps)
        windows = ds.make_windows(demo, horizon=8)
        assert len(windows) == length

    def test_padded_rows_are_stationary(self, small_dataset):
        demo = small_dataset.demos[0]
        windows = ds.make_windows(demo, horizon=8)
        last = windows[-1]
        npt.assert_array_equal(last.target_actions[:, :6], np.zeros((8, 6)))
        final_pose = geo.se3_to_pose(demo.steps[-1].ee_pose_cam)
        for h in range(8):
            npt.assert_array_equal(last.target_poses_cam[h], final_pose)

    def test_actions_chain_to_target_poses(self, small_dataset):
        data = small_dataset
        for demo in data.demos[:2]:
            windows = ds.make_windows(demo, horizon=8)
            for t, w in list(enumerate(windows))[::5]:
                cur = demo.steps[t].ee_pose_world.copy()
                for h in range(8):
                    a = geo.RelativeAction(w.target_actions[h, :3], w.target_actions[h, 3:6])
                    cur = oracles.apply_action(cur, a)
                    pose_cam = geo.se3_inverse(data.camera.extrinsic) @ cur
                    npt.assert_allclose(
                        geo.se3_to_pose(pose_cam), w.target_poses_cam[h], atol=1e-8
                    )

    def test_horizon_validation(self, small_dataset):
        with pytest.raises(ds.DatasetError):
            ds.make_windows(small_dataset.demos[0], horizon=0)

    @pytest.mark.parametrize("horizon", [1, 8, 40])
    def test_matches_per_step_reference(self, goal_and_long_demos, horizon):
        for demo in goal_and_long_demos:
            windows = ds.make_windows(demo, horizon)
            expect = per_step_windows(demo, horizon)
            assert len(windows) == len(expect) == len(demo.steps)
            for w, (poses, actions, t) in zip(windows, expect):
                for got, ref in [(w.target_poses_cam, poses), (w.target_actions, actions)]:
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes()
                npt.assert_array_equal(w.state_vec, demo.steps[t].state_vec)
                assert w.features is demo.steps[t].features


@pytest.fixture(scope="module")
def goal_and_long_demos():
    demos = []
    for family in ["goal", "long"]:
        scene, task = sw.default_scene(family)
        demos += ds.record_demonstrations(scene, task, n=2, seed=11).demos
    return demos


def per_step_windows(demo, horizon):
    """Reference windowing: one (t, h) pair at a time, tail rows rebuilt as a
    zero rigid action with the final gripper command held.

    Returns (target_poses_cam, target_actions, t) per timestep.
    """
    last = len(demo.steps) - 1
    poses_cam = [geo.se3_to_pose(s.ee_pose_cam) for s in demo.steps]
    out = []
    for t in range(len(demo.steps)):
        poses, actions = np.zeros((horizon, 6)), np.zeros((horizon, 7))
        for h in range(1, horizon + 1):
            poses[h - 1] = poses_cam[min(t + h, last)]
            if t + h - 1 >= last:
                actions[h - 1] = np.concatenate([np.zeros(6), [demo.steps[last].action.gripper]])
            else:
                src = demo.steps[t + h - 1]
                actions[h - 1] = np.concatenate([src.action.dp, src.action.dtheta, [src.action.gripper]])
        out.append((poses, actions, t))
    return out


@pytest.fixture(scope="module")
def window(small_dataset):
    return ds.make_windows(small_dataset.demos[0], horizon=8)[3]


class TestSupervision:
    def test_camera_se3_is_pose_vector(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                                  small_dataset.camera)
        assert targets.shape == (8, 6)
        npt.assert_allclose(targets, window.target_poses_cam, atol=0)

    def test_world_se3_matches_extrinsic_lift(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_world_se3"),
                                  small_dataset.camera)
        for h in range(8):
            t_world = geo.camera_to_world(
                geo.pose_to_se3(window.target_poses_cam[h]), small_dataset.camera.extrinsic
            )
            npt.assert_allclose(targets[h], geo.se3_to_pose(t_world), atol=1e-9)

    def test_2d_is_projection_of_3d(self, window, small_dataset):
        cam = small_dataset.camera
        t2 = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_2d"), cam)
        t3 = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_3d_pos"), cam)
        assert (t2.shape[1], t3.shape[1]) == (2, 3)
        for h in range(8):
            uv = geo.project_pinhole(t3[h], cam.intrinsic)
            npt.assert_allclose(t2[h], [uv[0] / cam.intrinsic.width, uv[1] / cam.intrinsic.height],
                                atol=1e-12)

    def test_quaternion_targets_unit_norm(self, window, small_dataset):
        targets = ds.pose_targets(
            window.target_poses_cam,
            ds.SupervisionVariant("traj_camera_se3", rotation_param="quaternion"),
            small_dataset.camera)
        assert targets.shape[1] == 7
        npt.assert_allclose(np.linalg.norm(targets[:, 3:], axis=1), np.ones(8), atol=1e-12)

    def test_no_traj_empty(self, window, small_dataset):
        targets = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("no_traj"),
                                  small_dataset.camera)
        assert targets.shape == (8, 0)

    def test_aux_equals_camera_targets(self, window, small_dataset):
        a = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("aux_traj"),
                            small_dataset.camera)
        c = ds.pose_targets(window.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                            small_dataset.camera)
        npt.assert_array_equal(a, c)

    def test_supervision_deterministic(self, window, small_dataset):
        v = ds.SupervisionVariant("traj_camera_se3")
        a = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
        b = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
        npt.assert_array_equal(a, b)

    def test_all_variant_dims(self, window, small_dataset):
        for target in ds.TARGET_KINDS:
            rotations = ds.ROTATION_PARAMS if target in ds.SE3_TARGETS else ["axis_angle"]
            for rot in rotations:
                v = ds.SupervisionVariant(target, rotation_param=rot)
                targets = ds.pose_targets(window.target_poses_cam, v, small_dataset.camera)
                assert targets.shape == (8, v.target_dim)

    def test_invalid_variant_combo(self):
        with pytest.raises(ds.DatasetError):
            ds.SupervisionVariant("traj_2d", rotation_param="quaternion")

    def test_unknown_rotation_param(self):
        with pytest.raises(ds.DatasetError, match="unknown rotation parameterization"):
            ds.SupervisionVariant("traj_camera_se3", rotation_param="cayley")

    def test_chart_violation_names_step(self, window, small_dataset):
        bad = ds.TrainingWindow(
            features=window.features,
            state_vec=window.state_vec,
            target_poses_cam=np.vstack(
                [window.target_poses_cam[:5],
                 np.concatenate([np.zeros(3), [math.pi - 1e-9, 0, 0]])[None, :],
                 window.target_poses_cam[6:]]
            ),
            target_actions=window.target_actions,
        )
        with pytest.raises(ds.DatasetError, match="step 5"):
            ds.pose_targets(bad.target_poses_cam, ds.SupervisionVariant("traj_camera_se3"),
                            small_dataset.camera)

