import math

import numpy as np
import numpy.testing as npt
import pytest

from se3bc import datasets as ds
from se3bc import geometry as geo
from se3bc import simworld as sw


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
            state = sim.step(state, geo.RelativeAction(step.action.dp, step.action.dtheta,
                                                       step.gripper_cmd))
        assert sim.check_success(state)

    def test_recording_deterministic(self, tmp_path):
        scene, task = sw.default_scene("goal")
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        ds.write_dataset(p1, ds.record_demonstrations(scene, task, n=2, seed=7))
        ds.write_dataset(p2, ds.record_demonstrations(scene, task, n=2, seed=7))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_per_step_invariants(self, small_dataset):
        data = small_dataset
        for demo in data.demos:
            for t, step in enumerate(demo.steps):
                cam_expect = geo.world_to_camera(step.ee_pose_world, data.camera.extrinsic)
                assert np.max(np.abs(step.ee_pose_cam - cam_expect)) < 1e-10
                if t + 1 < len(demo.steps):
                    nxt = geo.apply_action(step.ee_pose_world, step.action)
                    assert np.max(np.abs(nxt - demo.steps[t + 1].ee_pose_world)) < 1e-9
            # final record is the stationary pad
            last = demo.steps[-1]
            npt.assert_array_equal(last.action.dp, np.zeros(3))
            npt.assert_array_equal(last.action.dtheta, np.zeros(3))

    def test_consistency_triangle(self, small_dataset):
        # world poses, camera poses, and action chain reconstruct each other
        data = small_dataset
        for demo in data.demos:
            cur = demo.steps[0].ee_pose_world.copy()
            for t, step in enumerate(demo.steps[:-1]):
                cur = geo.apply_action(cur, step.action)
                target = demo.steps[t + 1].ee_pose_world
                assert np.max(np.abs(cur - target)) < 1e-8
                cam = geo.world_to_camera(cur, data.camera.extrinsic)
                assert np.max(np.abs(cam - demo.steps[t + 1].ee_pose_cam)) < 1e-8

    def test_failure_rate_raises(self):
        scene, task = sw.default_scene("goal")
        task.horizon_limit = 3  # impossible budget
        with pytest.raises(ds.DatasetError, match="20%"):
            ds.record_demonstrations(scene, task, n=5, seed=1)


class TestWindows:
    def test_window_count_and_padding(self, small_dataset):
        demo = small_dataset.demos[0]
        length = len(demo.steps)
        windows = ds.make_windows(demo, horizon=8)
        assert len(windows) == length
        assert [w.n_padded for w in windows[-8:]] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert all(w.n_padded == 0 for w in windows[: length - 8])

    def test_padded_rows_are_stationary(self, small_dataset):
        demo = small_dataset.demos[0]
        windows = ds.make_windows(demo, horizon=8)
        last = windows[-1]
        assert last.n_padded == 8
        npt.assert_array_equal(last.target_actions[:, :6], np.zeros((8, 6)))
        final_pose = geo.se3_to_pose(demo.steps[-1].ee_pose_cam)
        for h in range(8):
            npt.assert_array_equal(last.target_poses_cam[h], final_pose)

    def test_actions_chain_to_target_poses(self, small_dataset):
        data = small_dataset
        for demo in data.demos[:2]:
            windows = ds.make_windows(demo, horizon=8)
            for w in windows[::5]:
                cur = demo.steps[w.t].ee_pose_world.copy()
                for h in range(8):
                    a = geo.RelativeAction(w.target_actions[h, :3], w.target_actions[h, 3:6])
                    cur = geo.apply_action(cur, a)
                    pose_cam = geo.world_to_camera(cur, data.camera.extrinsic)
                    npt.assert_allclose(
                        geo.se3_to_pose(pose_cam), w.target_poses_cam[h], atol=1e-8
                    )

    def test_horizon_validation(self, small_dataset):
        with pytest.raises(ds.DatasetError):
            ds.make_windows(small_dataset.demos[0], horizon=0)


@pytest.fixture(scope="module")
def window(small_dataset):
    return ds.make_windows(small_dataset.demos[0], horizon=8)[3]


class TestSupervision:
    def test_camera_se3_is_pose_vector(self, window, small_dataset):
        targets, dim = ds.make_supervision(window, ds.SupervisionVariant("traj_camera_se3"),
                                           small_dataset.camera)
        assert dim == 6 and targets.shape == (8, 6)
        npt.assert_allclose(targets, window.target_poses_cam, atol=0)

    def test_world_se3_matches_extrinsic_lift(self, window, small_dataset):
        targets, _ = ds.make_supervision(window, ds.SupervisionVariant("traj_world_se3"),
                                         small_dataset.camera)
        for h in range(8):
            t_world = geo.camera_to_world(
                geo.pose_to_se3(window.target_poses_cam[h]), small_dataset.camera.extrinsic
            )
            npt.assert_allclose(targets[h], geo.se3_to_pose(t_world), atol=1e-9)

    def test_2d_is_projection_of_3d(self, window, small_dataset):
        cam = small_dataset.camera
        t2, d2 = ds.make_supervision(window, ds.SupervisionVariant("traj_2d"), cam)
        t3, d3 = ds.make_supervision(window, ds.SupervisionVariant("traj_3d_pos"), cam)
        assert (d2, d3) == (2, 3)
        for h in range(8):
            uv, _ = geo.project_pinhole(t3[h], cam.intrinsic)
            npt.assert_allclose(t2[h], [uv[0] / cam.intrinsic.width, uv[1] / cam.intrinsic.height],
                                atol=1e-12)

    def test_quaternion_targets_unit_norm(self, window, small_dataset):
        targets, dim = ds.make_supervision(
            window, ds.SupervisionVariant("traj_camera_se3", rotation_param="quaternion"),
            small_dataset.camera)
        assert dim == 7
        npt.assert_allclose(np.linalg.norm(targets[:, 3:], axis=1), np.ones(8), atol=1e-12)

    def test_no_traj_empty(self, window, small_dataset):
        targets, dim = ds.make_supervision(window, ds.SupervisionVariant("no_traj"),
                                           small_dataset.camera)
        assert dim == 0 and targets.shape == (8, 0)

    def test_aux_equals_camera_targets(self, window, small_dataset):
        a, _ = ds.make_supervision(window, ds.SupervisionVariant("aux_traj"), small_dataset.camera)
        c, _ = ds.make_supervision(window, ds.SupervisionVariant("traj_camera_se3"),
                                   small_dataset.camera)
        npt.assert_array_equal(a, c)

    def test_supervision_deterministic(self, window, small_dataset):
        v = ds.SupervisionVariant("traj_camera_se3")
        a, _ = ds.make_supervision(window, v, small_dataset.camera)
        b, _ = ds.make_supervision(window, v, small_dataset.camera)
        npt.assert_array_equal(a, b)

    def test_all_variant_dims(self, window, small_dataset):
        for target in ds.TARGET_KINDS:
            rotations = ds.ROTATION_PARAMS if target in ds.SE3_TARGETS else ["axis_angle"]
            for rot in rotations:
                v = ds.SupervisionVariant(target, rotation_param=rot)
                targets, dim = ds.make_supervision(window, v, small_dataset.camera)
                assert targets.shape == (8, dim) == (8, v.target_dim)

    def test_invalid_variant_combo(self):
        with pytest.raises(ds.DatasetError):
            ds.SupervisionVariant("traj_2d", rotation_param="quaternion")

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
            n_padded=0,
            t=0,
        )
        with pytest.raises(ds.DatasetError, match="step 5"):
            ds.make_supervision(bad, ds.SupervisionVariant("traj_camera_se3"), small_dataset.camera)


class TestFileFormat:
    def test_empty_dataset_round_trip(self, tmp_path):
        scene, task = sw.default_scene("goal")
        data = ds.DemoDataset(scene, task, sw.default_camera(), sw.SimConfig(), sw.ExpertConfig(), 5)
        path = str(tmp_path / "empty.jsonl")
        ds.write_dataset(path, data)
        back = ds.read_dataset(path)
        assert back.demos == []
        assert back.root_seed == 5

    def test_round_trip_exact(self, tmp_path, small_dataset):
        path = str(tmp_path / "demos.jsonl")
        ds.write_dataset(path, small_dataset)
        back = ds.read_dataset(path)
        assert len(back.demos) == len(small_dataset.demos)
        for da, db in zip(small_dataset.demos, back.demos):
            assert da.seed == db.seed
            for sa, sbk in zip(da.steps, db.steps):
                npt.assert_array_equal(sa.ee_pose_world, sbk.ee_pose_world)
                npt.assert_array_equal(sa.ee_pose_cam, sbk.ee_pose_cam)
                npt.assert_array_equal(sa.state_vec, sbk.state_vec)
                npt.assert_array_equal(sa.action.dp, sbk.action.dp)
                npt.assert_array_equal(sa.action.dtheta, sbk.action.dtheta)
                assert sa.gripper_cmd == sbk.gripper_cmd
                npt.assert_array_equal(sa.features.tokens(), sbk.features.tokens())
        assert back.config_hash() == small_dataset.config_hash()

    def test_corrupted_line_names_line(self, tmp_path, small_dataset):
        path = str(tmp_path / "demos.jsonl")
        ds.write_dataset(path, small_dataset)
        lines = open(path).read().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # truncate line 3
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 3"):
            ds.read_dataset(path)

    def test_rejects_non_metric_depth(self, tmp_path, small_dataset):
        path = str(tmp_path / "demos.jsonl")
        ds.write_dataset(path, small_dataset)
        lines = open(path).read().splitlines()
        assert '"depth_mode": "metric"' in lines[3]
        lines[3] = lines[3].replace('"depth_mode": "metric"', '"depth_mode": "relative"')
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ds.DatasetFormatError, match="line 4: .*'relative'"):
            ds.read_dataset(path)

    def test_schema_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write('{"schema": "other_v9"}\n')
        with pytest.raises(ds.DatasetFormatError, match="line 1"):
            ds.read_dataset(path)
